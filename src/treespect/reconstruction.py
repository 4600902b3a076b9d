"""Exact topology reconstruction once the corrupt nodes are known.

Three moves: treat the corrupt nodes as hidden and read the support graph
of the marginal inverse PSD over the remaining nodes; prune its spurious
edges by the two-vertex-cut rule (a non-leaf edge is true iff deleting its
endpoints disconnects the rest); then place each corrupt node by one swap
decision.  Its neighbours in a pruned component, a side, are its
attachment there and that attachment's tree neighbours.  Under the true
pick of one attachment per side, every entry between the other nodes of
two sides has constant phase, so the pick of lowest W pooled over those
entries is adopted if that W and its lead over the runner-up pass the
null law of W, which assumes the pooled entries are independent.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from functools import cache
from itertools import combinations, product
from typing import Iterable

from .detection import (
    DetectionReport,
    Diagnostic,
    EdgeDecisionParams,
    phase_nonconstancy_score,
    support_graph,
)
from .errors import AssumptionViolation, DataError
from .graphs import Edge, UndirectedGraph, connected_components, graph_to_dot, is_tree
from .spectral import SpectralMatrix, invert_spectrum, marginal_inverse_psd


@dataclass(frozen=True)
class Pick:
    """One attachment per side of a corrupt node, and W pooled over the
    entries between the outer nodes of every two sides."""

    attachments: tuple[int, ...]
    w: float
    adopted: bool


@dataclass(frozen=True)
class SwapDecision:
    """The placement of one corrupt node: one side per pruned component it
    touches, its picks in rising W, the cut of their pooled W and the cut
    of the lowest pick's lead over the runner-up."""

    corrupt: int
    sides: tuple[tuple[int, ...], ...]
    picks: tuple[Pick, ...]
    cut: float
    gap_cut: float


@dataclass(frozen=True)
class TopologyEstimate:
    """Reconstructed generative topology with per-edge provenance;
    `observed_support` is the marginal support the pruning started from,
    as `observed_support_graph` returns it."""

    graph: UndirectedGraph
    provenance: dict[Edge, str]
    components_before_placement: tuple[frozenset[int], ...]
    observed_support: tuple[UndirectedGraph, dict[Edge, float], float]
    diagnostics: tuple[Diagnostic, ...]
    labels: tuple[str, ...]
    decisions: tuple[SwapDecision, ...] = ()

    @property
    def placements(self) -> tuple[Pick, ...]:
        """Every scored pick, over all corrupt nodes."""
        return tuple(p for d in self.decisions for p in d.picks)


def observed_support_graph(
    inv: SpectralMatrix,
    corrupt: Iterable[int],
    decision: EdgeDecisionParams,
) -> tuple[UndirectedGraph, dict[Edge, float], float]:
    """Support of the marginal inverse PSD, derived from the full inverse
    `inv`, as a graph on all nodes with edges only among the observed ones;
    with each edge's band statistic and the band cut on the marginal."""
    corrupt = frozenset(corrupt)
    observed = sorted(set(range(inv.n_nodes)) - corrupt)
    marg = marginal_inverse_psd(inv, observed)
    sub, stats, cuts = support_graph(marg, decision)
    band = {(observed[a], observed[b]): float(stats[a, b]) for a, b in sub.edges}
    return UndirectedGraph(inv.n_nodes, band), band, cuts["band"]


def true_edges_by_separation(
    t_m: UndirectedGraph,
    observed: frozenset[int],
    leaves: frozenset[int],
    leaf_edges: frozenset[Edge],
) -> frozenset[Edge]:
    """Keep a non-leaf edge iff deleting its endpoints splits the rest.

    Returns the kept edges united with the already-certified leaf edges.
    """
    non_leaf = observed - leaves
    kept: set[Edge] = set(leaf_edges)
    for p, q in sorted(t_m.edges):
        if p not in non_leaf or q not in non_leaf:
            continue
        rest = observed - {p, q}
        if len(rest) < 2:
            continue
        if len(connected_components(t_m, within=rest)) >= 2:
            kept.add((p, q))
    return frozenset(kept)


def _swap_decision(
    l: int,
    comps: list[frozenset[int]],
    perturbed: UndirectedGraph,
    pruned: UndirectedGraph,
    inv_full: SpectralMatrix,
    decision: EdgeDecisionParams,
) -> tuple[SwapDecision, Diagnostic | None]:
    """The swap decision of corrupt node `l`, and the diagnostic of why it
    places nothing, if it does not.  Each component that `l` touches in
    `perturbed` gives a side S; its candidates are the z in S with S - {z}
    among z's neighbours in `pruned`.  A pick takes one candidate per side;
    its W is pooled over the P pairs between the outer nodes S - {z} of
    every two sides, and P is the same for every pick."""
    sides = [tuple(sorted(s)) for c in comps if (s := c & perturbed.adjacency[l])]
    n_pairs = sum((len(a) - 1) * (len(b) - 1) for a, b in combinations(sides, 2))
    cut, gap_cut = decision.pooled_phase_cuts(inv_full, n_pairs)
    candidates = [[z for z in s if set(s) - {z} <= pruned.adjacency[z]] for s in sides]
    w = cache(lambda p, q: phase_nonconstancy_score(inv_full, p, q, decision))

    def pooled(pick: tuple[int, ...]) -> float:
        outer = [[v for v in s if v != z] for s, z in zip(sides, pick)]
        return sum(w(p, q) for a, b in combinations(outer, 2) for p in a for q in b)

    scored = sorted((pooled(z), z) for z in product(*candidates)) if len(sides) > 1 else []
    lead = scored[1][0] - scored[0][0] if len(scored) > 1 else math.inf
    labels, kind = inv_full.labels, None
    if not scored:
        kind, why = "unplaced_corrupt_node", (
            "it needs two sides or more, each with a node adjacent in the tree to the "
            f"rest, and has {[[labels[v] for v in s] for s in sides]}")
    elif scored[0][0] > cut:
        kind, why = "unplaced_corrupt_node", (
            f"its lowest W pooled over {n_pairs} pair(s), {scored[0][0]:.4g}, "
            f"is above the cut {cut:.4g}")
    elif lead <= gap_cut:
        kind, why = "ambiguous_placement", (
            f"its lowest pick leads the runner-up by {lead:.4g}, "
            f"not above the gap cut {gap_cut:.4g}")
    picks = tuple(Pick(z, pw, not kind and i == 0) for i, (pw, z) in enumerate(scored))
    diag = kind and Diagnostic(kind, labels[l], f"node {labels[l]} is not placed: {why}")
    return SwapDecision(l, tuple(sides), picks, cut, gap_cut), diag


def place_corrupt_nodes(
    true_edges: frozenset[Edge],
    observed_support: tuple[UndirectedGraph, dict[Edge, float], float],
    report: DetectionReport,
    inv_full: SpectralMatrix,
    decision: EdgeDecisionParams,
) -> TopologyEstimate:
    """Join each corrupt node l to the pruned components by one swap
    decision (`_swap_decision`) and return the finished estimate.

    The lowest pick is adopted, with edges from l to its attachments, only
    if its pooled W is within the cut of Gamma(P N_b/2.80, scale 2.80), W's
    law at P real entries if they are independent, else l is unplaced; and
    only if it leads the runner-up by more than the level-ALPHA spread of
    the difference of two null draws, else the placement is ambiguous
    (`EdgeDecisionParams.pooled_phase_cuts`).  At P = 0 one pick is fixed
    by the support alone, and two are an exact tie.  The estimate lists the
    report's diagnostics before its own and keeps `observed_support`.
    """
    corrupt, observed = report.corrupt, report.observed
    n = report.support_graph.node_count
    etree = UndirectedGraph(n, true_edges)
    comps = connected_components(etree, within=observed)

    diagnostics = [
        Diagnostic("undersized_component", inv_full.labels[v], "pruned component has a single "
                   "observed node, which the tree cannot have when its corrupt nodes sit 3 "
                   "hops from its leaves and from each other")
        for c in comps if len(c) == 1 for v in c
    ]

    decisions: list[SwapDecision] = []
    placement: set[Edge] = set()
    for l in sorted(corrupt):
        swap, diag = _swap_decision(l, comps, report.support_graph, etree, inv_full, decision)
        decisions.append(swap)
        diagnostics += [diag] if diag else []
        placement |= {(min(z, l), max(z, l)) for p in swap.picks if p.adopted for z in p.attachments}

    provenance: dict[Edge, str] = dict.fromkeys(true_edges, "separation_edge")
    provenance |= dict.fromkeys(placement, "placement_edge")
    provenance |= dict.fromkeys(report.leaf_edges, "leaf_edge")
    graph = UndirectedGraph(n, frozenset(true_edges | placement))
    if not diagnostics and not is_tree(graph):
        diagnostics.append(Diagnostic("estimate_not_tree", "topology", (
            f"reconstruction yielded {len(graph.edges)} edges on "
            f"{n} nodes but not a tree; treat recovery as failed"
        )))
    return TopologyEstimate(
        graph, provenance, tuple(comps), observed_support,
        report.diagnostics + tuple(diagnostics), inv_full.labels, tuple(decisions),
    )


def hide_and_learn(
    psd: SpectralMatrix,
    report: DetectionReport,
    decision: EdgeDecisionParams,
) -> TopologyEstimate:
    """Full reconstruction from the corrupted PSD and a detection report.

    The inverse comes from `invert_spectrum(psd)`, so a caller that ran
    `detect(invert_spectrum(psd))` has already paid for it."""
    if psd.labels != report.labels:
        raise DataError("spectrum and detection report disagree on node labels")
    corrupt, observed = report.corrupt, report.observed
    if len(observed) < 2:
        raise AssumptionViolation(f"only {len(observed)} observed nodes remain after "
                                  f"hiding {len(corrupt)} corrupt ones")
    inv_full = invert_spectrum(psd)
    support = observed_support_graph(inv_full, corrupt, decision)
    etree = true_edges_by_separation(support[0], observed, report.leaves, report.leaf_edges)
    return place_corrupt_nodes(etree, support, report, inv_full, decision)


# ---------------------------------------------------------------------------
# serialization

def estimate_to_json(est: TopologyEstimate) -> str:
    labs = est.labels
    _, band, band_cut = est.observed_support

    def names(nodes) -> list[str]:
        return [labs[v] for v in nodes]

    def placement(d: SwapDecision) -> dict:
        gap = d.picks[1].w - d.picks[0].w if len(d.picks) > 1 else None
        return {
            "corrupt": labs[d.corrupt],
            "sides": [names(side) for side in d.sides],
            "cut": d.cut,
            "picks": [
                {"attachments": names(p.attachments), "w": p.w,
                 "margin": p.w / d.cut if d.cut else None, "adopted": p.adopted}
                for p in d.picks
            ],
            "adopted": next((names(p.attachments) for p in d.picks if p.adopted), None),
            "gap": gap,
            "gap_cut": d.gap_cut,
            "gap_ratio": gap / d.gap_cut if gap is not None and d.gap_cut else None,
        }

    return json.dumps({
        "thresholds": {"band": band_cut},
        "edges": [
            {"a": labs[a], "b": labs[b], "provenance": est.provenance.get((a, b), "unknown")}
            for a, b in sorted(est.graph.edges)
        ],
        "is_tree": is_tree(est.graph),
        "components_before_placement": [
            sorted(names(comp)) for comp in est.components_before_placement
        ],
        "observed_support_edges": [
            {"a": labs[a], "b": labs[b], "band": band[a, b], "margin": band[a, b] / band_cut}
            for a, b in sorted(band)
        ],
        "placements": [placement(d) for d in est.decisions],
        "diagnostics": [asdict(d) for d in est.diagnostics],
    }, indent=2, sort_keys=True)


def estimate_to_dot(est: TopologyEstimate) -> str:
    palette = {"leaf_edge": "forestgreen", "separation_edge": "black", "placement_edge": "blue"}
    edge_colors = {e: palette.get(kind, "gray") for e, kind in est.provenance.items()}
    return graph_to_dot(est.graph, est.labels, edge_colors=edge_colors, name="topology")
