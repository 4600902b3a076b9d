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
from dataclasses import dataclass
from typing import Iterable, Sequence

from .detection import (
    DetectionReport,
    Diagnostic,
    EdgeDecisionParams,
    infer_support_graph,
    phase_nonconstancy_score,
)
from .errors import AssumptionViolation, DataError
from .graphs import (
    Edge,
    UndirectedGraph,
    connected_components,
    graph_to_dot,
    is_tree,
    sorted_edges,
)
from .spectral import SpectralMatrix, invert_spectrum, marginal_inverse_psd


@dataclass(frozen=True)
class PlacementTrial:
    """One (p, q, l, r, s) alignment and its constant-phase evidence."""

    outer_a: int
    inner_a: int
    corrupt: int
    inner_b: int
    outer_b: int
    phase_score: float
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

    def is_tree(self) -> bool:
        return is_tree(self.graph)


def observed_support_graph(
    inv: SpectralMatrix,
    corrupt: Iterable[int],
    params: EdgeDecisionParams,
) -> UndirectedGraph:
    """Support of the marginal inverse PSD, derived from the full inverse
    `inv`, as a graph on all nodes with edges only among the observed ones."""
    corrupt = frozenset(corrupt)
    observed = sorted(set(range(inv.n_nodes)) - corrupt)
    marg = marginal_inverse_psd(inv, observed)
    sub = infer_support_graph(marg, params)
    edges = [(observed[a], observed[b]) for a, b in sub.edges]
    return UndirectedGraph.from_edges(inv.n_nodes, edges)


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
    for p, q in sorted_edges(t_m):
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
    comp_adj: dict[int, frozenset[int]],
    corrupt: Sequence[int],
    perturbed: UndirectedGraph,
    inv_full: SpectralMatrix,
    params: EdgeDecisionParams,
):
    """Every clique-compatible (p,q,l,r,s) alignment with the edge pair
    {q-l, l-r} it proposes, its phase score and whether the constant-phase
    test passed."""
    out = []
    for l in corrupt:
        for q in sorted(theta_i):
            if not perturbed.has_edge(q, l):
                continue
            for p in sorted(comp_adj[q] & theta_i):
                for r in sorted(theta_j):
                    if not perturbed.has_edge(r, l):
                        continue
                    for s in sorted(comp_adj[r] & theta_j):
                        five = [p, q, l, r, s]
                        if len(set(five)) != 5:
                            continue
                        if not all(
                            perturbed.has_edge(a, b)
                            for ai, a in enumerate(five)
                            for b in five[ai + 1:]
                        ):
                            continue
                        score = phase_nonconstancy_score(inv_full, p, s)
                        edges = frozenset({(min(q, l), max(q, l)), (min(l, r), max(l, r))})
                        out.append(
                            ((p, q, l, r, s), edges, score, score < params.phase_threshold)
                        )
    return out


def place_corrupt_nodes(
    true_edges: frozenset[Edge],
    observed: frozenset[int],
    corrupt: frozenset[int],
    perturbed: UndirectedGraph,
    inv_full: SpectralMatrix,
    params: EdgeDecisionParams,
) -> TopologyEstimate:
    """Reconnect the pruned components through the corrupt nodes.

    For every component pair and corrupt node l, each alignment takes an
    edge p-q in one component and s-r in the other and demands that
    {p,q,l,r,s} is a clique of the perturbed graph and that the (p,s)
    inverse-PSD entry has constant phase; the passing alignment contributes
    the edges q-l and l-r.  All passing alignments are recorded, and
    disagreeing ones raise a conflict diagnostic instead of a guess.
    """
    n = perturbed.node_count
    etree = UndirectedGraph(n, true_edges)
    comps = connected_components(etree, within=observed)
    comp_adj = {v: etree.neighbors(v) for v in observed}

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

    placement: set[Edge] = set()
    placed: set[int] = set()
    trials: list[PlacementTrial] = []
    for i in range(len(comps)):
        for j in range(i + 1, len(comps)):
            tried = _alignment_trials(
                comps[i], comps[j], comp_adj, sorted(corrupt), perturbed, inv_full, params
            )
            # distinct passing edge pairs, in trial order
            edge_sets = list(dict.fromkeys(es for _, es, _, ok in tried if ok))
            adopted_set = edge_sets[0] if edge_sets else frozenset()
            trials.extend(
                PlacementTrial(*cfg, score, ok and es == adopted_set)
                for cfg, es, score, ok in tried
            )
            if not edge_sets:
                continue
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
            placed |= {v for e in adopted_set for v in e if v in corrupt}

    for l in sorted(corrupt - placed):
        diagnostics.append(
            Diagnostic(
                kind="unplaced_corrupt_node",
                subject=inv_full.labels[l],
                message=f"no clique + constant-phase alignment places node "
                f"{inv_full.labels[l]}",
            )
        )

    provenance: dict[Edge, str] = {}
    for e in true_edges:
        provenance[e] = "separation_edge"
    for e in placement:
        provenance[e] = "placement_edge"
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
        observed_support=etree,
        diagnostics=tuple(diagnostics),
        labels=inv_full.labels,
        placements=tuple(trials),
    )


def hide_and_learn(
    psd: SpectralMatrix,
    report: DetectionReport,
    params: EdgeDecisionParams,
) -> TopologyEstimate:
    """Full reconstruction from the corrupted PSD and a detection report."""
    n = psd.n_nodes
    corrupt = report.corrupt
    observed = frozenset(range(n)) - corrupt
    if len(observed) < 2:
        raise AssumptionViolation(
            f"only {len(observed)} observed nodes remain after hiding "
            f"{len(corrupt)} corrupt ones"
        )
    if psd.labels != report.labels:
        raise DataError("spectrum and detection report disagree on node labels")
    inv_full = invert_spectrum(psd)
    t_m = observed_support_graph(inv_full, corrupt, params)
    etree = true_edges_by_separation(t_m, observed, report.leaves, report.leaf_edges)
    estimate = place_corrupt_nodes(
        etree, observed, corrupt, report.support_graph, inv_full, params
    )
    provenance = dict(estimate.provenance)
    for e in report.leaf_edges:
        provenance[e] = "leaf_edge"
    return TopologyEstimate(
        graph=estimate.graph,
        provenance=provenance,
        components_before_placement=estimate.components_before_placement,
        observed_support=t_m,
        diagnostics=report.diagnostics + estimate.diagnostics,
        labels=estimate.labels,
        placements=estimate.placements,
    )


# ---------------------------------------------------------------------------
# serialization

def estimate_to_dict(est: TopologyEstimate) -> dict:
    labs = est.labels
    return {
        "edges": [
            {
                "a": labs[a],
                "b": labs[b],
                "provenance": est.provenance.get((a, b), "unknown"),
            }
            for a, b in sorted_edges(est.graph)
        ],
        "is_tree": est.is_tree(),
        "components_before_placement": [
            sorted(labs[v] for v in comp) for comp in est.components_before_placement
        ],
        "observed_support_edges": [
            [labs[a], labs[b]] for a, b in sorted_edges(est.observed_support)
        ],
        "placements": [
            {
                "alignment": [labs[t.outer_a], labs[t.inner_a], labs[t.corrupt],
                              labs[t.inner_b], labs[t.outer_b]],
                "phase_score": t.phase_score,
                "adopted": t.adopted,
            }
            for t in est.placements
        ],
        "diagnostics": [
            {"kind": d.kind, "subject": d.subject, "message": d.message}
            for d in est.diagnostics
        ],
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
