"""Corrupt-node detection from the support and phase structure of the
inverse PSD.

Pipeline: threshold normalized inverse-PSD magnitudes into a support graph
(the perturbed graph of the underlying tree), find the nodes whose
neighborhood forms a clique (exactly the leaves and the corrupt nodes when
corruptions sit at least three hops from leaves and from each other), then
split that candidate set by counting neighbors whose entry has a
non-constant phase across frequency: two or more means corrupt, exactly
one means leaf, and that single edge is a true edge of the tree.

Both decisions are tests at level `ALPHA` against the null law of a Welch
estimate, so their one input is K, the number of Welch segments behind the
spectrum (`EdgeDecisionParams`).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from statistics import NormalDist

import numpy as np

from .errors import NumericalError
from .graphs import Edge, UndirectedGraph, graph_to_dot, neighborhood_is_clique
from .spectral import SpectralMatrix

ALPHA = 0.01  # family-wise level of the edge tests and of the phase tests on one matrix
HANN_VARIANCE = 1.40  # variance inflation of a sum over adjacent Hann bins at 50 % overlap


def gamma_quantile(shape: float, scale: float, tail: float) -> float:
    """Upper `tail` quantile of Gamma(shape, scale) by Wilson-Hilferty, with
    z from the standard library; it lies just above the exact quantile, so
    a test that uses it is conservative."""
    z = -NormalDist().inv_cdf(tail)
    return shape * scale * (1 - 1 / (9 * shape) + z / (3 * math.sqrt(shape))) ** 3


@dataclass(frozen=True)
class EdgeDecisionParams:
    """The decision rule for a spectrum averaged over K = `segments` Welch
    segments (Hann window, 50 % overlap).  On an n x n inverse M, with
    rho_k = M_ij / sqrt(M_ii M_jj) on the N_b usable interior bins and
    d = K_eff - (n - 2), K_eff = 18K^2/(19K - 1) (Welch 1967), both tests
    run at ALPHA / (n(n - 1)/2), Bonferroni over the entries:
    - an edge is kept where the band mean of |rho_k|^2 reaches the upper
      quantile of Gamma(shape N_b/1.40, mean 1/d), its law at a zero entry;
    - a phase is non-constant where W (`phase_nonconstancy_score`) reaches
      that of Gamma(N_b/2.80, scale 2.80), its law at a real entry;
    - placement pools W over real entries (`pooled_phase_cuts`).
    """

    segments: float

    def dof(self, n: int) -> float:
        """d = K_eff - (n - 2) for an n x n inverse."""
        k = self.segments
        d = 18 * k * k / (19 * k - 1) - (n - 2)
        if not d > 0:
            raise NumericalError(f"{k:g} Welch segments are too few to decide on {n} nodes")
        return d

    def thresholds(self, inv: SpectralMatrix) -> dict[str, float]:
        """The cut of the band statistic (`band`) and of W (`phase`) on `inv`."""
        n, n_b = inv.n_nodes, int(_band(inv).sum())
        tail = ALPHA / (n * (n - 1) / 2)
        return {
            "band": gamma_quantile(n_b / HANN_VARIANCE, HANN_VARIANCE / (n_b * self.dof(n)), tail),
            "phase": self.pooled_phase_cuts(inv, 1)[0],
        }

    def pooled_phase_cuts(self, inv: SpectralMatrix, pairs: int) -> tuple[float, float]:
        """The cut of W summed over `pairs` real entries, Gamma(pairs N_b/2.80,
        scale 2.80) if they are independent, at the tail of `thresholds`; and
        z_(1 - ALPHA) times the spread of the difference of two such sums.
        Both are 0 at no pair, where the sum is 0."""
        if not pairs:
            return 0.0, 0.0
        n, scale = inv.n_nodes, 2 * HANN_VARIANCE
        shape = pairs * int(_band(inv).sum()) / scale
        z = NormalDist().inv_cdf(1 - ALPHA)
        return gamma_quantile(shape, scale, ALPHA / (n * (n - 1) / 2)), z * scale * math.sqrt(2 * shape)


# An exact spectrum is the K -> infinity limit, held back by rounding: K is
# 1/eps, where the null mean 1/d ~ 19/18 eps of |rho|^2 meets eps, the
# rounding unit of |rho|^2 on [0, 1].  Both tests then pass a zero or an
# imaginary part of rho off by rounding up to about sqrt(eps) ~ 1.5e-8 and
# catch anything larger.
ANALYTIC_DECISION = EdgeDecisionParams(segments=1 / np.finfo(np.float64).eps)


@dataclass(frozen=True)
class Diagnostic:
    """Structured anomaly surfaced instead of a silent misclassification."""

    kind: str
    subject: str
    message: str


def _band(inv: SpectralMatrix) -> np.ndarray:
    """The usable interior bins: unflagged, away from omega = 0 and pi."""
    band = ~inv.flagged & inv.grid.interior_mask()
    if not band.any():
        raise NumericalError("no usable interior frequencies")
    return band


def band_statistics(inv: SpectralMatrix) -> np.ndarray:
    """N x N band mean of |rho_k|^2 over the usable interior bins."""
    n = inv.n_nodes
    rho = inv.values[_band(inv)]
    diag = rho[:, range(n), range(n)].real
    if not np.all(diag > 0):
        raise NumericalError("degenerate diagonal in inverse spectrum")
    scale = 1 / np.sqrt(diag)
    rho *= scale[:, :, None]
    rho *= scale[:, None, :]
    return np.mean(np.abs(rho) ** 2, axis=0)


def support_graph(
    inv: SpectralMatrix, decision: EdgeDecisionParams
) -> tuple[UndirectedGraph, np.ndarray, dict[str, float]]:
    """The edges whose band statistic reaches its cut, with the band
    statistics (`band_statistics`) and the cuts (`decision.thresholds`)."""
    stats = band_statistics(inv)
    thresholds = decision.thresholds(inv)
    edges = np.argwhere(np.triu(stats >= thresholds["band"], 1)).tolist()
    return UndirectedGraph(inv.n_nodes, edges), stats, thresholds


def phase_nonconstancy_score(
    inv: SpectralMatrix, i: int, j: int, decision: EdgeDecisionParams
) -> float:
    """W of entry (i, j): the sum over the usable interior bins of
    (Im rho_k)^2 / v_k, v_k = (1 - |rho_k|^2) / (2d) the variance of the
    coherency across its direction (Goodman 1963; Brillinger 1981, 8.8).
    A chi-square on N_b bins, its variance inflated by the bin correlation
    1.40, for a real entry (constant phase 0 or pi); large where it turns.
    """
    band = _band(inv)
    rho = inv.entry(i, j)[band] / np.sqrt((inv.entry(i, i)[band] * inv.entry(j, j)[band]).real)
    v = (1 - np.abs(rho) ** 2) / (2 * decision.dof(inv.n_nodes))
    return float(np.sum(rho.imag**2 / v))


@dataclass(frozen=True)
class DetectionReport:
    """Outputs of the detection pass over one inverse spectrum; each support
    edge's band statistic (`edge_scores`) and each tested neighbor's W
    (`evidence`) sit next to the `thresholds` they were held to."""

    support_graph: UndirectedGraph
    candidates: frozenset[int]
    corrupt: frozenset[int]
    leaves: frozenset[int]
    leaf_edges: frozenset[Edge]
    evidence: dict[int, tuple[tuple[int, float, str], ...]]
    diagnostics: tuple[Diagnostic, ...]
    labels: tuple[str, ...]
    edge_scores: dict[Edge, float]
    thresholds: dict[str, float]

    @property
    def observed(self) -> frozenset[int]:
        return frozenset(range(self.support_graph.node_count)) - self.corrupt


def detect(inv: SpectralMatrix, decision: EdgeDecisionParams) -> DetectionReport:
    """Classify clique-neighborhood candidates into corrupt and leaf nodes.

    A candidate with zero non-constant-phase neighbors contradicts the
    theory (leaves always keep their true edge), so it is surfaced as a
    diagnostic rather than guessed either way.
    """
    support, stats, thresholds = support_graph(inv, decision)
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
            w = phase_nonconstancy_score(inv, i, j, decision)
            verdict = "nonconstant" if w >= thresholds["phase"] else "constant"
            rows.append((j, w, verdict))
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
        edge_scores={e: float(stats[e]) for e in support.edges},
        thresholds=thresholds,
    )


# ---------------------------------------------------------------------------
# report serialization

def report_to_json(report: DetectionReport) -> str:
    labs, cut = report.labels, report.thresholds
    return json.dumps({
        "thresholds": cut,
        "support_edges": [
            {
                "a": labs[a],
                "b": labs[b],
                "band": report.edge_scores[a, b],
                "margin": report.edge_scores[a, b] / cut["band"],
            }
            for a, b in sorted(report.support_graph.edges)
        ],
        "candidates": sorted(labs[i] for i in report.candidates),
        "corrupt": sorted(labs[i] for i in report.corrupt),
        "leaves": sorted(labs[i] for i in report.leaves),
        "leaf_edges": [[labs[a], labs[b]] for a, b in sorted(report.leaf_edges)],
        "evidence": {
            labs[i]: [
                {"neighbor": labs[j], "w": w, "margin": w / cut["phase"], "verdict": verdict}
                for j, w, verdict in rows
            ]
            for i, rows in sorted(report.evidence.items())
        },
        "diagnostics": [asdict(d) for d in report.diagnostics],
    }, indent=2, sort_keys=True)


def report_to_dot(report: DetectionReport) -> str:
    colors = {i: "lightblue" for i in report.candidates}
    colors.update({i: "palegreen" for i in report.leaves})
    colors.update({i: "tomato" for i in report.corrupt})
    return graph_to_dot(
        report.support_graph, report.labels, node_colors=colors, name="perturbed"
    )
