import csv
import dataclasses
import json

import numpy as np
import pytest

from treespect.cli import main
from treespect.corruption import CorruptionSpec
from treespect.detection import ANALYTIC_DECISION, Diagnostic, detect
from treespect.errors import AssumptionViolation
from treespect.graphs import UndirectedGraph, is_tree
from treespect.instances import (
    draw_model,
    random_instance,
    tree_with_deep_nodes,
)
from treespect.ltisim import GenerativeModel, analytic_psd
from treespect.oracles import analytic_corrupted_psd, analytic_signatures
from treespect.reconstruction import (
    estimate_to_dot,
    estimate_to_json,
    hide_and_learn,
    observed_support_graph,
    place_corrupt_nodes,
    true_edges_by_separation,
)
from treespect.spectral import FrequencyGrid, invert_spectrum

from conftest import bfs_distances, chain7, moral_graph

GRID = FrequencyGrid.welch_bins(256)

# marginal support over observed {1..3,5..7} after hiding node 4, 0-indexed
FIG_LATENT_EDGES = frozenset(
    [(0, 1), (1, 2), (2, 4), (4, 5), (5, 6), (0, 2), (4, 6), (1, 4), (1, 5), (2, 5)]
)
FIG_TRUE_EDGES = frozenset([(0, 1), (1, 2), (4, 5), (5, 6)])
CHAIN7_EDGES = frozenset((i, i + 1) for i in range(6))


@pytest.fixture(scope="module")
def chain_setup():
    model, specs = chain7()
    sigs = analytic_signatures(model, specs, GRID)
    psd = analytic_corrupted_psd(model, sigs, GRID)
    report = detect(invert_spectrum(psd), ANALYTIC_DECISION)
    return model, psd, report


# ---------------------------------------------------------------------------
# marginal support

def test_marginal_support_matches_latent_figure(chain_setup):
    _, psd, report = chain_setup
    t_m, _, _ = observed_support_graph(invert_spectrum(psd), report.corrupt, ANALYTIC_DECISION)
    assert t_m.edges == FIG_LATENT_EDGES


def test_marginal_support_without_corrupt_is_moral(chain_setup):
    model, _, _ = chain_setup
    psd = analytic_psd(model, GRID)
    t_m, _, _ = observed_support_graph(invert_spectrum(psd), frozenset(), ANALYTIC_DECISION)
    assert t_m.edges == moral_graph(model.topology).edges


def test_hiding_middle_of_three_chain_creates_spurious_edge():
    model = GenerativeModel(
        UndirectedGraph.chain(3),
        {(0, 1): 0.5, (1, 0): 0.36, (1, 2): 0.6, (2, 1): 0.95},
        ((0.0,),) * 3,
        np.ones(3),
    )
    inv = invert_spectrum(analytic_psd(model, GRID))
    t_m, _, _ = observed_support_graph(inv, {1}, ANALYTIC_DECISION)
    assert t_m.edges == {(0, 2)}


def test_marginal_support_within_four_hops():
    rng = np.random.default_rng(3)
    for _ in range(5):
        inst = random_instance(rng, 12, 2)
        sigs = analytic_signatures(inst.model, inst.specs, GRID)
        psd = analytic_corrupted_psd(inst.model, sigs, GRID)
        t_m, _, _ = observed_support_graph(invert_spectrum(psd), inst.corrupt, ANALYTIC_DECISION)
        for a, b in t_m.edges:
            assert bfs_distances(inst.topology, a)[b] <= 4


# ---------------------------------------------------------------------------
# separation pruning

def test_separation_prunes_to_true_edges(chain_setup):
    _, psd, report = chain_setup
    t_m, _, _ = observed_support_graph(invert_spectrum(psd), report.corrupt, ANALYTIC_DECISION)
    kept = true_edges_by_separation(t_m, report.observed, report.leaves, report.leaf_edges)
    assert kept == FIG_TRUE_EDGES


def test_interior_edges_of_clean_tree_all_survive():
    # spurious-free support: every interior tree edge is a two-vertex cut
    t_m = UndirectedGraph.chain(6)
    observed = frozenset(range(6))
    leaves = frozenset({0, 5})
    leaf_edges = frozenset({(0, 1), (4, 5)})
    kept = true_edges_by_separation(t_m, observed, leaves, leaf_edges)
    assert kept == frozenset({(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)})


def test_complete_graph_keeps_nothing():
    k4 = UndirectedGraph(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
    kept = true_edges_by_separation(k4, frozenset(range(4)), frozenset(), frozenset())
    assert kept == frozenset()


# ---------------------------------------------------------------------------
# placement

def test_placement_reconnects_chain(chain_setup):
    _, psd, report = chain_setup
    support = observed_support_graph(invert_spectrum(psd), report.corrupt, ANALYTIC_DECISION)
    kept = true_edges_by_separation(support[0], report.observed, report.leaves, report.leaf_edges)
    est = place_corrupt_nodes(kept, support, report, invert_spectrum(psd), ANALYTIC_DECISION)
    assert est.graph.edges == CHAIN7_EDGES
    assert est.provenance[(2, 3)] == "placement_edge"
    assert est.provenance[(3, 4)] == "placement_edge"
    assert [sorted(c) for c in est.components_before_placement] == [[0, 1, 2], [4, 5, 6]]
    assert est.diagnostics == ()


def test_placement_without_corrupt_is_identity(chain_setup):
    model, _, _ = chain_setup
    psd = analytic_psd(model, GRID)
    report = detect(invert_spectrum(psd), ANALYTIC_DECISION)
    assert report.corrupt == frozenset()
    support = observed_support_graph(invert_spectrum(psd), frozenset(), ANALYTIC_DECISION)
    kept = true_edges_by_separation(support[0], report.observed, report.leaves, report.leaf_edges)
    est = place_corrupt_nodes(kept, support, report, invert_spectrum(psd), ANALYTIC_DECISION)
    assert est.graph.edges == kept == CHAIN7_EDGES


def test_doctored_tie_is_an_ambiguous_placement(chain_setup):
    # doctor the (2,4) entry into a fake constant, so the wrong pick 1-5
    # ties the true pick 2-4; the tie must surface as a diagnostic and
    # place nothing, not a guess
    _, psd, report = chain_setup
    support = observed_support_graph(invert_spectrum(psd), report.corrupt, ANALYTIC_DECISION)
    kept = true_edges_by_separation(support[0], report.observed, report.leaves, report.leaf_edges)
    inv = invert_spectrum(psd)
    vals = inv.values.copy()
    vals[:, 2, 4] = 0.3
    vals[:, 4, 2] = 0.3
    doctored = type(inv)(inv.grid, vals, inv.labels, inv.flagged.copy())
    est = place_corrupt_nodes(kept, support, report, doctored, ANALYTIC_DECISION)
    assert [d.kind for d in est.diagnostics] == ["ambiguous_placement"]
    assert est.graph.edges == kept
    (swap,) = est.decisions
    assert {p.attachments for p in swap.picks[:2]} == {(2, 4), (1, 5)}
    assert not any(p.adopted for p in swap.picks)
    assert swap.picks[1].w - swap.picks[0].w <= swap.gap_cut


def test_unplaced_corrupt_node_is_reported(chain_setup):
    # doctor the true (1,5) far-pair entry into a rotating one so no
    # alignment passes; the corrupt node must be reported as unplaced
    _, psd, report = chain_setup
    support = observed_support_graph(invert_spectrum(psd), report.corrupt, ANALYTIC_DECISION)
    kept = true_edges_by_separation(support[0], report.observed, report.leaves, report.leaf_edges)
    inv = invert_spectrum(psd)
    vals = inv.values.copy()
    rot = 0.3 * np.exp(1j * 3 * GRID.frequencies)
    vals[:, 1, 5] = rot
    vals[:, 5, 1] = np.conj(rot)
    doctored = type(inv)(inv.grid, vals, inv.labels, inv.flagged.copy())
    est = place_corrupt_nodes(kept, support, report, doctored, ANALYTIC_DECISION)
    assert any(d.kind == "unplaced_corrupt_node" for d in est.diagnostics)
    assert not is_tree(est.graph)


def test_side_of_three_has_one_candidate_and_recovers():
    # corrupt node 5 hangs off node 2, whose two other tree neighbours 1
    # and 3 share its side: {1, 2, 3}, where only 2 is adjacent in the tree
    # to the rest, so the support alone fixes that side; the spectra choose
    # between 6 and 7 on the other side
    tree = UndirectedGraph(9, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5), (5, 6), (6, 7), (7, 8)])
    model = draw_model(np.random.default_rng(5), tree)
    spec = CorruptionSpec(node=5, kind="random_delay", p=0.7, t1=-2, t2=0)
    psd = analytic_corrupted_psd(model, analytic_signatures(model, [spec], GRID), GRID)
    report = detect(invert_spectrum(psd), ANALYTIC_DECISION)
    assert report.corrupt == {5}
    est = hide_and_learn(psd, report, ANALYTIC_DECISION)
    assert est.graph.edges == tree.edges
    assert est.diagnostics == ()
    (swap,) = est.decisions
    assert swap.sides == ((1, 2, 3), (6, 7))
    assert [p.attachments for p in swap.picks] == [(2, 6), (2, 7)]
    assert [p.adopted for p in swap.picks] == [True, False]
    # the pooled W of 2-6 sums the entries 1-7 and 3-7, so its cut is at P = 2
    inv = invert_spectrum(psd)
    assert swap.cut == ANALYTIC_DECISION.pooled_phase_cuts(inv, 2)[0]
    assert swap.cut > ANALYTIC_DECISION.thresholds(inv)["phase"]


# ---------------------------------------------------------------------------
# full pipeline

def test_hide_and_learn_recovers_chain(chain_setup):
    _, psd, report = chain_setup
    est = hide_and_learn(psd, report, ANALYTIC_DECISION)
    assert est.graph.edges == CHAIN7_EDGES
    assert is_tree(est.graph)
    assert est.diagnostics == ()
    assert est.provenance[(0, 1)] == "leaf_edge"
    assert est.provenance[(1, 2)] == "separation_edge"
    assert est.provenance[(3, 4)] == "placement_edge"


def test_estimate_lists_report_diagnostics_first_and_keeps_leaf_labels(chain_setup):
    # a report diagnostic does not stand in for placement's own tree check,
    # and a leaf edge keeps its label over the separation one
    _, psd, report = chain_setup
    planted = Diagnostic(kind="planted", subject="report", message="carried through")
    doctored = dataclasses.replace(
        report, leaf_edges=report.leaf_edges | {(0, 2)}, diagnostics=(planted,)
    )
    est = hide_and_learn(psd, doctored, ANALYTIC_DECISION)
    assert est.diagnostics[0] == planted
    assert [d.kind for d in est.diagnostics] == ["planted", "estimate_not_tree"]
    assert est.provenance[(0, 2)] == "leaf_edge"
    assert est.observed_support == observed_support_graph(
        invert_spectrum(psd), report.corrupt, ANALYTIC_DECISION
    )


def test_report_that_hides_every_node_raises_assumption_violation(chain_setup):
    _, psd, report = chain_setup
    every_node = dataclasses.replace(report, corrupt=frozenset(range(psd.n_nodes)))
    with pytest.raises(AssumptionViolation, match="only 0 observed nodes remain"):
        hide_and_learn(psd, every_node, ANALYTIC_DECISION)


def test_detect_then_hide_and_learn_inverts_once(monkeypatch):
    # one stacked inversion serves both steps, and no bin of this spectrum
    # is near enough to the conditioning cap to need eigvalsh
    model, specs = chain7()
    psd = analytic_corrupted_psd(model, analytic_signatures(model, specs, GRID), GRID)
    calls = []
    inv, eigvalsh = np.linalg.inv, np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "inv", lambda a: calls.append(a.shape) or inv(a))
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append("eigvalsh") or eigvalsh(a))
    report = detect(invert_spectrum(psd), ANALYTIC_DECISION)
    est = hide_and_learn(psd, report, ANALYTIC_DECISION)
    assert est.graph.edges == CHAIN7_EDGES
    assert calls == [(GRID.size, 7, 7)]


def test_two_node_system_trivial_recovery():
    model = GenerativeModel(
        UndirectedGraph(2, [(0, 1)]),
        {(0, 1): 0.5, (1, 0): 0.4},
        ((0.0,), (0.0,)),
        np.ones(2),
    )
    psd = analytic_psd(model, GRID)
    report = detect(invert_spectrum(psd), ANALYTIC_DECISION)
    est = hide_and_learn(psd, report, ANALYTIC_DECISION)
    assert est.graph.edges == {(0, 1)}


def test_corruption_free_random_trees_recover_exactly():
    rng = np.random.default_rng(41)
    for _ in range(5):
        tree, _ = tree_with_deep_nodes(rng, int(rng.integers(5, 12)), 0)
        model = draw_model(rng, tree)
        psd = analytic_psd(model, GRID)
        report = detect(invert_spectrum(psd), ANALYTIC_DECISION)
        est = hide_and_learn(psd, report, ANALYTIC_DECISION)
        assert est.graph.edges == tree.edges, sorted(tree.edges)


def test_random_instances_recover_exactly():
    rng = np.random.default_rng(43)
    for _ in range(10):
        n = int(rng.integers(7, 16))
        k = int(rng.integers(1, min(3, (n - 4) // 3) + 1))
        inst = random_instance(rng, n, k)
        sigs = analytic_signatures(inst.model, inst.specs, GRID)
        psd = analytic_corrupted_psd(inst.model, sigs, GRID)
        report = detect(invert_spectrum(psd), ANALYTIC_DECISION)
        est = hide_and_learn(psd, report, ANALYTIC_DECISION)
        assert est.graph.edges == inst.topology.edges
        assert est.diagnostics == ()
        # estimate invariants: a tree with n-1 edges, leaf provenance matching
        # the report, and every placement edge touching a corrupt node
        assert is_tree(est.graph) and len(est.graph.edges) == n - 1
        assert {e for e, p in est.provenance.items() if p == "leaf_edge"} == report.leaf_edges
        for (a, b), prov in est.provenance.items():
            if prov == "placement_edge":
                assert a in inst.corrupt or b in inst.corrupt


def test_unfiltered_draws_recover_and_violations_stay_loud(tmp_path):
    # one draw per instance and no margin filter: every draw must recover
    for n, k, seeds in ((40, 8, range(12)), (100, 20, range(3))):
        for seed in seeds:
            inst = random_instance(np.random.default_rng(seed), n, k)
            sigs = analytic_signatures(inst.model, inst.specs, GRID)
            psd = analytic_corrupted_psd(inst.model, sigs, GRID)
            report = detect(invert_spectrum(psd), ANALYTIC_DECISION)
            est = hide_and_learn(psd, report, ANALYTIC_DECISION)
            assert est.graph.edges == inst.topology.edges, (n, k, seed)
            assert est.diagnostics == (), (n, k, seed)
    # at the same thresholds, corrupt nodes two hops apart end in a diagnostic
    cfg = tmp_path / "negative.json"
    cfg.write_text(json.dumps({
        "instances": 12, "nodes": [9, 15], "trajectories": ["analytic"], "seed": 3,
        "violate_assumption": True,
    }))
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    with (tmp_path / "sweep_summary.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 12
    assert all(int(r["n_diagnostics"]) > 0 and r["recovered"] == "False" for r in rows)


def test_hide_and_learn_permutation_equivariant(chain_setup):
    model, psd, report = chain_setup
    perm = [6, 2, 4, 0, 5, 1, 3]
    inv_perm = np.argsort(perm)
    edges = [(perm[a], perm[b]) for a, b in model.topology.edges]
    permuted = GenerativeModel(
        UndirectedGraph(7, edges),
        {(perm[a], perm[b]): v for (a, b), v in model.coupling.items()},
        tuple(model.self_dynamics[inv_perm[i]] for i in range(7)),
        model.noise_variance[inv_perm],
        tuple(model.labels[inv_perm[i]] for i in range(7)),
    )
    _, (spec,) = chain7()
    pspec = type(spec)(node=perm[spec.node], kind=spec.kind, p=spec.p, t1=spec.t1, t2=spec.t2)
    ppsd = analytic_corrupted_psd(
        permuted, analytic_signatures(permuted, [pspec], GRID), GRID
    )
    preport = detect(invert_spectrum(ppsd), ANALYTIC_DECISION)
    pest = hide_and_learn(ppsd, preport, ANALYTIC_DECISION)
    base = hide_and_learn(psd, report, ANALYTIC_DECISION)
    assert pest.graph.edges == {
        (min(perm[a], perm[b]), max(perm[a], perm[b])) for a, b in base.graph.edges
    }


# ---------------------------------------------------------------------------
# negative controls: assumption violations must be loud, never silent

def test_corrupt_node_near_leaf_never_silently_succeeds():
    # corrupt node two hops from a leaf on a 5-chain breaks the clique
    # characterization; the pipeline must flag it or fail visibly
    model = GenerativeModel(
        UndirectedGraph.chain(5),
        {
            (0, 1): 0.5, (1, 0): 0.36, (1, 2): 0.6, (2, 1): 0.95,
            (2, 3): -0.7, (3, 2): 0.51, (3, 4): 0.55, (4, 3): 0.8,
        },
        ((0.0,),) * 5,
        np.ones(5),
    )
    spec = CorruptionSpec(node=2, kind="random_delay", p=0.7, t1=-2, t2=0)
    sigs = analytic_signatures(model, [spec], GRID)
    psd = analytic_corrupted_psd(model, sigs, GRID)
    report = detect(invert_spectrum(psd), ANALYTIC_DECISION)
    silent_detection = report.corrupt == {2} and not report.diagnostics
    if silent_detection:
        try:
            est = hide_and_learn(psd, report, ANALYTIC_DECISION)
            assert est.diagnostics or est.graph.edges != model.topology.edges
        except AssumptionViolation:
            pass
    else:
        assert report.corrupt != {2} or report.diagnostics


def test_uncorrupted_star_stays_loud():
    # a star has no 2-hop neighbors for its center, the one shape where the
    # clique characterization misfires; the center gets misread as corrupt
    # and the pipeline must surface diagnostics rather than claim success
    star = UndirectedGraph(5, [(0, i) for i in range(1, 5)])
    model = draw_model(np.random.default_rng(3), star)
    psd = analytic_psd(model, GRID)
    report = detect(invert_spectrum(psd), ANALYTIC_DECISION)
    try:
        est = hide_and_learn(psd, report, ANALYTIC_DECISION)
    except AssumptionViolation:
        return
    assert report.diagnostics or est.diagnostics


def test_adjacent_corrupt_nodes_never_silently_succeed():
    rng = np.random.default_rng(47)
    tree = UndirectedGraph.chain(9)
    model = draw_model(rng, tree)
    specs = [
        CorruptionSpec(node=3, kind="random_delay", p=0.7, t1=-1, t2=0),
        CorruptionSpec(node=5, kind="random_delay", p=0.8, t1=2, t2=0),
    ]
    sigs = analytic_signatures(model, specs, GRID)
    psd = analytic_corrupted_psd(model, sigs, GRID)
    report = detect(invert_spectrum(psd), ANALYTIC_DECISION)
    try:
        est = hide_and_learn(psd, report, ANALYTIC_DECISION)
    except AssumptionViolation:
        return
    claims_success = is_tree(est.graph) and not est.diagnostics and not report.diagnostics
    assert not claims_success or est.graph.edges != tree.edges or report.corrupt != {3, 5}


# ---------------------------------------------------------------------------
# export

def test_estimate_serialization(chain_setup):
    _, psd, report = chain_setup
    est = hide_and_learn(psd, report, ANALYTIC_DECISION)
    payload = json.loads(estimate_to_json(est))
    assert payload["is_tree"] is True
    provs = {tuple(sorted((e["a"], e["b"]))): e["provenance"] for e in payload["edges"]}
    assert provs[("3", "4")] == "placement_edge"
    dot = estimate_to_dot(est)
    assert '"3" -- "4" [color="blue"]' in dot
    # the swap decision for node 4: two sides of two nodes, four picks, and
    # the adopted one, 3-5, is the true attachment on each side
    (placement,) = payload["placements"]
    assert placement["corrupt"] == "4"
    assert placement["sides"] == [["2", "3"], ["5", "6"]]
    picks = placement["picks"]
    assert sorted(p["attachments"] for p in picks) == [["2", "5"], ["2", "6"], ["3", "5"], ["3", "6"]]
    assert [p["adopted"] for p in picks] == [True, False, False, False]
    assert placement["adopted"] == picks[0]["attachments"] == ["3", "5"]
    # each pick's pooled W against the node's cut, as a margin: only the
    # adopted pick is within it, and its lead is far above the gap cut
    cut = placement["cut"]
    assert cut == ANALYTIC_DECISION.thresholds(invert_spectrum(psd))["phase"]
    assert all(p["margin"] == p["w"] / cut for p in picks)
    assert picks[0]["margin"] < 1e-6 and all(p["margin"] > 1 for p in picks[1:])
    assert placement["gap"] == picks[1]["w"] - picks[0]["w"]
    assert placement["gap_ratio"] == placement["gap"] / placement["gap_cut"] > 1
    # every marginal support edge with its band statistic and margin
    band_cut = payload["thresholds"]["band"]
    edges = payload["observed_support_edges"]
    assert len(edges) == len(FIG_LATENT_EDGES)
    assert all(e["margin"] == e["band"] / band_cut >= 1 for e in edges)
