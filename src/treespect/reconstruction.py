"""Exact topology reconstruction once the corrupt nodes are known.

Three moves: treat the corrupt nodes as hidden and read the support graph
of the marginal inverse PSD over the remaining nodes; prune its spurious
edges by the two-vertex-cut rule (a non-leaf edge is true iff deleting its
endpoints disconnects the rest); then splice each corrupt node back where
a five-node clique in the perturbed graph together with a constant-phase
far-pair entry certifies the alignment.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Iterable, Sequence

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
class PlacementTrial:
    """One (p, q, l, r, s) alignment and its constant-phase evidence."""

    outer_a: int
    inner_a: int
    corrupt: int
    inner_b: int
    outer_b: int
    w: float
    adopted: bool


@dataclass(frozen=True)
class TopologyEstimate:
    """Reconstructed generative topology with per-edge provenance."""

    graph: UndirectedGraph
    provenance: dict[Edge, str]
    components_before_placement: tuple[frozenset[int], ...]
    observed_support: UndirectedGraph
    diagnostics: tuple[Diagnostic, ...]
    labels: tuple[str, ...]
    placements: tuple[PlacementTrial, ...] = ()
    thresholds: dict[str, float] = field(default_factory=dict)


def observed_support_graph(
    inv: SpectralMatrix,
    corrupt: Iterable[int],
    decision: EdgeDecisionParams,
) -> UndirectedGraph:
    """Support of the marginal inverse PSD, derived from the full inverse
    `inv`, as a graph on all nodes with edges only among the observed ones."""
    corrupt = frozenset(corrupt)
    observed = sorted(set(range(inv.n_nodes)) - corrupt)
    marg = marginal_inverse_psd(inv, observed)
    sub, _, _ = support_graph(marg, decision)
    return UndirectedGraph(inv.n_nodes, [(observed[a], observed[b]) for a, b in sub.edges])


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


def _alignment_trials(
    theta_i: frozenset[int],
    theta_j: frozenset[int],
    pruned: UndirectedGraph,
    corrupt: Sequence[int],
    perturbed: UndirectedGraph,
    inv_full: SpectralMatrix,
    decision: EdgeDecisionParams,
):
    """Every clique-compatible (p,q,l,r,s) alignment, with p-q an edge of
    the pruned tree in theta_i and r-s one in theta_j, with the edge pair
    {q-l, l-r} it proposes and the W of its (p,s) entry.  The five are
    distinct: p-q and r-s lie in disjoint components, the corrupt l in neither."""
    adj, tree = perturbed.adjacency, pruned.adjacency
    out = []
    for l in corrupt:
        rs = sorted(theta_j & adj[l])
        for q in sorted(theta_i & adj[l]):
            for p in sorted(tree[q] & theta_i):
                for r in rs:
                    for s in sorted(tree[r] & theta_j):
                        five = [p, q, l, r, s]
                        if not all(b in adj[a] for ai, a in enumerate(five) for b in five[ai + 1:]):
                            continue
                        w = phase_nonconstancy_score(inv_full, p, s, decision)
                        edges = frozenset({(min(q, l), max(q, l)), (min(l, r), max(l, r))})
                        out.append(((p, q, l, r, s), edges, w))
    return out


def place_corrupt_nodes(
    true_edges: frozenset[Edge],
    observed_support: UndirectedGraph,
    report: DetectionReport,
    inv_full: SpectralMatrix,
    decision: EdgeDecisionParams,
) -> TopologyEstimate:
    """Reconnect the pruned components through the corrupt nodes and
    return the finished estimate.

    For every component pair and corrupt node l, each alignment takes an
    edge p-q in one component and s-r in the other and demands that
    {p,q,l,r,s} is a clique of the report's support graph and that the
    (p,s) inverse-PSD entry has constant phase; the passing alignment
    contributes the edges q-l and l-r.  All passing alignments are
    recorded, and disagreeing ones raise a conflict diagnostic instead of a
    guess.  The estimate lists the report's diagnostics before its own and
    keeps `observed_support`, the marginal support the pruning started from.
    """
    corrupt, observed = report.corrupt, report.observed
    n = report.support_graph.node_count
    etree = UndirectedGraph(n, true_edges)
    comps = connected_components(etree, within=observed)

    diagnostics: list[Diagnostic] = []
    for comp in comps:
        if len(comp) < 2:
            diagnostics.append(
                Diagnostic(
                    kind="undersized_component",
                    subject=",".join(inv_full.labels[v] for v in sorted(comp)),
                    message="pruned component has a single observed node; "
                    "placement needs an internal edge on each side",
                )
            )

    cut = decision.thresholds(inv_full)["phase"]
    placement: set[Edge] = set()
    trials: list[PlacementTrial] = []
    for i in range(len(comps)):
        for j in range(i + 1, len(comps)):
            tried = _alignment_trials(
                comps[i], comps[j], etree, sorted(corrupt), report.support_graph,
                inv_full, decision,
            )
            # distinct edge pairs passing the constant-phase test, in trial order
            edge_sets = list(dict.fromkeys(es for _, es, w in tried if w < cut))
            adopted_set = edge_sets[0] if edge_sets else frozenset()
            trials.extend(
                PlacementTrial(*cfg, w, w < cut and es == adopted_set) for cfg, es, w in tried
            )
            if len(edge_sets) > 1:
                diagnostics.append(
                    Diagnostic(
                        kind="conflicting_placements",
                        subject=f"components {i},{j}",
                        message=(
                            "multiple inconsistent alignments passed the "
                            f"constant-phase test: {sorted(map(sorted, edge_sets))}"
                        ),
                    )
                )
            placement |= adopted_set

    placed = {v for e in placement for v in e}
    for l in sorted(corrupt - placed):
        diagnostics.append(
            Diagnostic(
                kind="unplaced_corrupt_node",
                subject=inv_full.labels[l],
                message=f"no clique + constant-phase alignment places node "
                f"{inv_full.labels[l]}",
            )
        )

    provenance: dict[Edge, str] = dict.fromkeys(true_edges, "separation_edge")
    provenance |= dict.fromkeys(placement, "placement_edge")
    provenance |= dict.fromkeys(report.leaf_edges, "leaf_edge")
    graph = UndirectedGraph(n, frozenset(true_edges | placement))
    if not diagnostics and not is_tree(graph):
        diagnostics.append(
            Diagnostic(
                kind="estimate_not_tree",
                subject="topology",
                message=(
                    f"reconstruction yielded {len(graph.edges)} edges on "
                    f"{n} nodes but not a tree; treat recovery as failed"
                ),
            )
        )
    return TopologyEstimate(
        graph=graph,
        provenance=provenance,
        components_before_placement=tuple(comps),
        observed_support=observed_support,
        diagnostics=report.diagnostics + tuple(diagnostics),
        labels=inv_full.labels,
        placements=tuple(trials),
        thresholds={"phase": cut},
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
        raise AssumptionViolation(
            f"only {len(observed)} observed nodes remain after hiding "
            f"{len(corrupt)} corrupt ones"
        )
    inv_full = invert_spectrum(psd)
    t_m = observed_support_graph(inv_full, corrupt, decision)
    etree = true_edges_by_separation(t_m, observed, report.leaves, report.leaf_edges)
    return place_corrupt_nodes(etree, t_m, report, inv_full, decision)


# ---------------------------------------------------------------------------
# serialization

def estimate_to_dict(est: TopologyEstimate) -> dict:
    labs, cut = est.labels, est.thresholds
    return {
        "thresholds": cut,
        "edges": [
            {
                "a": labs[a],
                "b": labs[b],
                "provenance": est.provenance.get((a, b), "unknown"),
            }
            for a, b in sorted(est.graph.edges)
        ],
        "is_tree": is_tree(est.graph),
        "components_before_placement": [
            sorted(labs[v] for v in comp) for comp in est.components_before_placement
        ],
        "observed_support_edges": [
            [labs[a], labs[b]] for a, b in sorted(est.observed_support.edges)
        ],
        "placements": [
            {
                "alignment": [labs[t.outer_a], labs[t.inner_a], labs[t.corrupt],
                              labs[t.inner_b], labs[t.outer_b]],
                "w": t.w,
                "margin": t.w / cut["phase"],
                "adopted": t.adopted,
            }
            for t in est.placements
        ],
        "diagnostics": [asdict(d) for d in est.diagnostics],
    }


def estimate_to_json(est: TopologyEstimate) -> str:
    return json.dumps(estimate_to_dict(est), indent=2, sort_keys=True)


def estimate_to_dot(est: TopologyEstimate) -> str:
    palette = {
        "leaf_edge": "forestgreen",
        "separation_edge": "black",
        "placement_edge": "blue",
    }
    edge_colors = {
        e: palette.get(kind, "gray") for e, kind in est.provenance.items()
    }
    return graph_to_dot(est.graph, est.labels, edge_colors=edge_colors, name="topology")
