"""Corrupt-node detection from the support and phase structure of the
inverse PSD.

Pipeline: threshold normalized inverse-PSD magnitudes into a support graph
(the perturbed graph of the underlying tree), find the nodes whose
neighborhood forms a clique (exactly the leaves and the corrupt nodes when
corruptions sit at least three hops from leaves and from each other), then
split that candidate set by counting neighbors whose entry has a
non-constant phase across frequency: two or more means corrupt, exactly
one means leaf, and that single edge is a true edge of the tree.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DataError, NumericalError
from .graphs import Edge, UndirectedGraph, graph_to_dot, neighborhood_is_clique, sorted_edges
from .spectral import SpectralMatrix

MAGNITUDE_FLOOR_QUANTILE = 0.25  # the phase test skips bins below this quantile


@dataclass(frozen=True)
class EdgeDecisionParams:
    """Thresholds turning exact zero / constant-phase tests into finite-data
    decisions.  The phase test's band is fixed: the interior bins (2 spacings
    from omega = 0 and pi, `spectral.BAND_EDGE_BINS`) whose magnitude reaches
    the entry's 0.25 quantile (`MAGNITUDE_FLOOR_QUANTILE`)."""

    magnitude_threshold: float = 0.05
    phase_threshold: float = 0.1

    def __post_init__(self):
        for name in ("magnitude_threshold", "phase_threshold"):
            v = getattr(self, name)
            if (
                isinstance(v, bool)
                or not isinstance(v, (int, float))
                or not (math.isfinite(v) and v > 0)
            ):
                raise DataError(f"{name} must be a finite number > 0, got {v!r}")


# For exactly-computed spectra both cuts only need to clear rounding noise.
# Structurally-zero entries are floating-point zeros, so the magnitude cut
# sits at 1e-6.  A constant-phase entry has resultant R = 1 in exact
# arithmetic.  Rounding leaves each of R's two sums over the F bins (terms of
# one sign) a relative error of at most F*eps, so R >= 1 - 2F*eps and the
# score sqrt(-2 ln R) is at most sqrt(4F*eps): 3.4e-7 for the F = 129 bins of
# welch_bins(256), the largest grid the analytic paths use (fewer bins lower
# the floor).  The phase cut is that floor times 100, two decades of room for
# the entries' own per-bin rounding: 3.4e-5.  The weakest non-constant exact
# entry measured scores 3.6e-3, two decades above it.
_ANALYTIC_BINS = 256 // 2 + 1
ANALYTIC_DECISION = EdgeDecisionParams(
    magnitude_threshold=1e-6,
    phase_threshold=100 * math.sqrt(4 * _ANALYTIC_BINS * np.finfo(np.float64).eps),
)


@dataclass(frozen=True)
class Diagnostic:
    """Structured anomaly surfaced instead of a silent misclassification."""

    kind: str
    subject: str
    message: str


def normalized_magnitude_scores(inv: SpectralMatrix) -> np.ndarray:
    """max over usable frequencies of |M_ij| / sqrt(|M_ii| |M_jj|)."""
    valid = ~inv.flagged
    if not valid.any():
        raise NumericalError("no usable frequencies")
    vals = inv.values[valid]
    n = inv.n_nodes
    diag = np.abs(vals[:, range(n), range(n)])
    if np.any(diag.max(axis=0) <= 0):
        raise NumericalError("degenerate diagonal in inverse spectrum")
    norm = np.sqrt(diag[:, :, None] * diag[:, None, :])
    scores = np.abs(vals) / np.maximum(norm, 1e-300)
    return scores.max(axis=0)


def _support_from_scores(scores: np.ndarray, params: EdgeDecisionParams) -> UndirectedGraph:
    n = scores.shape[0]
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if scores[i, j] >= params.magnitude_threshold
    ]
    return UndirectedGraph.from_edges(n, edges)


def infer_support_graph(inv: SpectralMatrix, params: EdgeDecisionParams) -> UndirectedGraph:
    """Edges where the normalized magnitude score reaches the threshold."""
    return _support_from_scores(normalized_magnitude_scores(inv), params)


def phase_nonconstancy_score(inv: SpectralMatrix, i: int, j: int) -> float:
    """Magnitude-weighted circular standard deviation of the entry's phase
    over the two-sided band.

    Zero for constant phase; a negative real entry also scores zero (its
    phase is a constant pi).  Only frequencies that carry magnitude (above
    the floor quantile) and sit away from the band edges enter; phase
    elsewhere is estimation noise.  Each stored bin enters the magnitude
    floor and the resultant as often as the two-sided spectrum holds it
    (`grid.multiplicity`).  A bin and its conjugate at -omega cancel in
    imaginary part, so the resultant |sum |K| e^{i theta}| / sum |K|
    reduces to |sum Re K| / sum |K|.
    """
    entry = inv.entry(i, j)
    usable = ~inv.flagged
    mult = inv.grid.multiplicity
    mag = np.abs(entry)
    floor = np.quantile(np.repeat(mag[usable], mult[usable]), MAGNITUDE_FLOOR_QUANTILE)
    admissible = usable & inv.grid.interior_mask() & (mag >= floor)
    if not admissible.any():
        raise NumericalError(f"no admissible frequencies for entry ({i},{j})")
    m = mult[admissible]
    total = np.sum(m * mag[admissible])
    if total <= 0:
        return 0.0
    resultant = abs(np.sum(m * entry[admissible].real)) / total
    resultant = min(max(resultant, 1e-300), 1.0)
    return float(np.sqrt(-2.0 * np.log(resultant)))


@dataclass(frozen=True)
class DetectionReport:
    """Outputs of the detection pass over one inverse spectrum."""

    support_graph: UndirectedGraph
    candidates: frozenset[int]
    corrupt: frozenset[int]
    leaves: frozenset[int]
    leaf_edges: frozenset[Edge]
    evidence: dict[int, tuple[tuple[int, float, str], ...]]
    diagnostics: tuple[Diagnostic, ...]
    labels: tuple[str, ...]
    edge_scores: dict[Edge, float] = field(default_factory=dict)

    @property
    def observed(self) -> frozenset[int]:
        return frozenset(range(self.support_graph.node_count)) - self.corrupt


def detect(inv: SpectralMatrix, params: EdgeDecisionParams) -> DetectionReport:
    """Classify clique-neighborhood candidates into corrupt and leaf nodes.

    A candidate with zero non-constant-phase neighbors contradicts the
    theory (leaves always keep their true edge), so it is surfaced as a
    diagnostic rather than guessed either way.
    """
    scores = normalized_magnitude_scores(inv)
    support = _support_from_scores(scores, params)
    n = inv.n_nodes
    candidates = frozenset(i for i in range(n) if neighborhood_is_clique(support, i))
    corrupt: set[int] = set()
    leaves: set[int] = set()
    leaf_edges: set[Edge] = set()
    evidence: dict[int, tuple[tuple[int, float, str], ...]] = {}
    diagnostics: list[Diagnostic] = []
    for i in sorted(candidates):
        rows: list[tuple[int, float, str]] = []
        nonconstant: list[int] = []
        for j in sorted(support.neighbors(i)):
            score = phase_nonconstancy_score(inv, i, j)
            verdict = "nonconstant" if score >= params.phase_threshold else "constant"
            rows.append((j, score, verdict))
            if verdict == "nonconstant":
                nonconstant.append(j)
        evidence[i] = tuple(rows)
        if len(nonconstant) >= 2:
            corrupt.add(i)
        elif len(nonconstant) == 1:
            leaves.add(i)
            leaf_edges.add((min(i, nonconstant[0]), max(i, nonconstant[0])))
        else:
            diagnostics.append(
                Diagnostic(
                    kind="candidate_without_nonconstant_edge",
                    subject=inv.labels[i],
                    message=(
                        f"candidate node {inv.labels[i]} has no non-constant-phase "
                        "neighbor; structural assumptions likely violated"
                    ),
                )
            )
    return DetectionReport(
        support_graph=support,
        candidates=candidates,
        corrupt=frozenset(corrupt),
        leaves=frozenset(leaves),
        leaf_edges=frozenset(leaf_edges),
        evidence=evidence,
        diagnostics=tuple(diagnostics),
        labels=inv.labels,
        edge_scores={e: float(scores[e[0], e[1]]) for e in support.edges},
    )


# ---------------------------------------------------------------------------
# report serialization

def report_to_dict(report: DetectionReport) -> dict:
    labs = report.labels
    return {
        "support_edges": [
            {
                "a": labs[a],
                "b": labs[b],
                "magnitude_score": report.edge_scores.get((a, b)),
            }
            for a, b in sorted_edges(report.support_graph)
        ],
        "candidates": sorted(labs[i] for i in report.candidates),
        "corrupt": sorted(labs[i] for i in report.corrupt),
        "leaves": sorted(labs[i] for i in report.leaves),
        "leaf_edges": [[labs[a], labs[b]] for a, b in sorted(report.leaf_edges)],
        "evidence": {
            labs[i]: [
                {"neighbor": labs[j], "phase_score": score, "verdict": verdict}
                for j, score, verdict in rows
            ]
            for i, rows in sorted(report.evidence.items())
        },
        "diagnostics": [
            {"kind": d.kind, "subject": d.subject, "message": d.message}
            for d in report.diagnostics
        ],
    }


def report_to_json(report: DetectionReport) -> str:
    return json.dumps(report_to_dict(report), indent=2, sort_keys=True)


def report_from_dict(payload: dict, labels: Sequence[str]) -> DetectionReport:
    labels = tuple(str(x) for x in labels)
    index = {lab: i for i, lab in enumerate(labels)}
    try:
        support_edges = [
            (index[e["a"]], index[e["b"]]) for e in payload["support_edges"]
        ]
        support = UndirectedGraph.from_edges(len(labels), support_edges)
        edge_scores = {
            (min(a, b), max(a, b)): e.get("magnitude_score")
            for (a, b), e in zip(support_edges, payload["support_edges"])
        }
        evidence = {
            index[node]: tuple(
                (index[row["neighbor"]], float(row["phase_score"]), str(row["verdict"]))
                for row in rows
            )
            for node, rows in payload.get("evidence", {}).items()
        }
        return DetectionReport(
            support_graph=support,
            candidates=frozenset(index[x] for x in payload["candidates"]),
            corrupt=frozenset(index[x] for x in payload["corrupt"]),
            leaves=frozenset(index[x] for x in payload["leaves"]),
            leaf_edges=frozenset(
                (min(index[a], index[b]), max(index[a], index[b]))
                for a, b in payload["leaf_edges"]
            ),
            evidence=evidence,
            diagnostics=tuple(
                Diagnostic(d["kind"], d["subject"], d["message"])
                for d in payload.get("diagnostics", [])
            ),
            labels=labels,
            edge_scores=edge_scores,
        )
    except KeyError as exc:
        raise DataError(f"malformed detection report: missing {exc}") from exc
    except (AttributeError, TypeError, ValueError) as exc:
        raise DataError(f"malformed detection report: {exc}") from exc


def report_to_dot(report: DetectionReport) -> str:
    colors = {i: "lightblue" for i in report.candidates}
    colors.update({i: "palegreen" for i in report.leaves})
    colors.update({i: "tomato" for i in report.corrupt})
    return graph_to_dot(
        report.support_graph, report.labels, node_colors=colors, name="perturbed"
    )
