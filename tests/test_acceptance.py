"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line (run with -s to see them live).

Criterion 1 drives the bundled 7-chain experiment at the full 10^7-sample
trajectory by default; set TREESPECT_ACCEPT_SAMPLES=1000000 for the
documented fast fallback.
"""

import json
import os
import time
from dataclasses import dataclass

import numpy as np
import pytest

from treespect.cli import main
from treespect.corruption import CorruptionSpec
from treespect.detection import (
    ANALYTIC_DECISION,
    EdgeDecisionParams,
    detect,
    phase_nonconstancy_score,
    support_graph,
)
from treespect.errors import AssumptionViolation
from treespect.graphs import UndirectedGraph
from treespect.instances import (
    Instance,
    draw_delay_spec,
    draw_model,
    random_instance,
    tree_with_deep_nodes,
)
from treespect.ltisim import analytic_inverse_psd, analytic_psd
from treespect.oracles import (
    analytic_corrupted_psd,
    analytic_signatures,
    woodbury_chain_inverse,
)
from treespect.reconstruction import (
    hide_and_learn,
    observed_support_graph,
    true_edges_by_separation,
)
from treespect.spectral import FrequencyGrid, estimate_cpsd, invert_spectrum
from treespect.streams import apply_corruption, simulate

from conftest import (
    chain7,
    draw_ar_model,
    estimate_signature,
    leaves,
    moral_graph,
    one_step_inverse,
    panel_copy,
    perturbed_graph,
)

GRID = FrequencyGrid.welch_bins(256)

CHAIN_EDGES = frozenset((i, i + 1) for i in range(6))
CHAIN_MORAL = frozenset(list(CHAIN_EDGES) + [(i, i + 2) for i in range(5)])
FIG_PERTURBED = CHAIN_MORAL | {(1, 4), (1, 5), (2, 5)}
FIG_LATENT = frozenset(
    [(0, 1), (1, 2), (2, 4), (4, 5), (5, 6), (0, 2), (4, 6), (1, 4), (1, 5), (2, 5)]
)
FIG_TRUE = frozenset([(0, 1), (1, 2), (4, 5), (5, 6)])


def report(criterion: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status}  {detail}")
    assert passed, f"criterion {criterion} failed: {detail}"


def _instance_pool(count, seed, n_range=(7, 15), k_max=3):
    rng = np.random.default_rng(seed)
    pool = []
    for _ in range(count):
        n = int(rng.integers(n_range[0], n_range[1] + 1))
        k = int(rng.integers(1, min(k_max, (n - 4) // 3) + 1))
        ar = bool(rng.integers(0, 2))
        tree, marked = tree_with_deep_nodes(rng, n, k)
        model = draw_ar_model(rng, tree, ar)
        pool.append(Instance(model, tuple(draw_delay_spec(rng, v) for v in marked)))
    return pool


@pytest.fixture(scope="module")
def analytic_pool():
    return _instance_pool(100, seed=20250809)


@dataclass
class ChainRun:
    samples: int
    elapsed: float
    support: UndirectedGraph
    corrupt: frozenset
    candidates: frozenset
    leaf_edges: frozenset
    marginal: UndirectedGraph
    kept: frozenset
    final: UndirectedGraph
    diagnostics: tuple


@pytest.fixture(scope="module")
def chain_run():
    samples = int(os.environ.get("TREESPECT_ACCEPT_SAMPLES", 10_000_000))
    welch = FrequencyGrid(segment_length=1024 if samples >= 4_000_000 else 256)
    params = EdgeDecisionParams(welch.segment_count(samples))
    model, specs = chain7()
    t0 = time.perf_counter()
    panel = simulate(model, samples, seed=7)
    corrupted = apply_corruption(panel, list(specs), seed=7)
    psd = estimate_cpsd(corrupted, welch)
    inv = invert_spectrum(psd)
    rep = detect(inv, params)
    t_m, _, _ = observed_support_graph(inv, rep.corrupt, params)
    kept = true_edges_by_separation(t_m, rep.observed, rep.leaves, rep.leaf_edges)
    estimate = hide_and_learn(psd, rep, params)
    elapsed = time.perf_counter() - t0
    return ChainRun(
        samples=samples,
        elapsed=elapsed,
        support=rep.support_graph,
        corrupt=rep.corrupt,
        candidates=rep.candidates,
        leaf_edges=rep.leaf_edges,
        marginal=t_m,
        kept=kept,
        final=estimate.graph,
        diagnostics=rep.diagnostics + estimate.diagnostics,
    )


# ---------------------------------------------------------------------------
# criterion 1: empirical reproduction of the 7-chain experiment

def test_criterion_1_chain_experiment(chain_run):
    r = chain_run
    checks = {
        "support": r.support.edges == FIG_PERTURBED,
        "candidates": r.candidates == {0, 3, 6},
        "corrupt": r.corrupt == {3},
        "leaf_edges": r.leaf_edges == {(0, 1), (5, 6)},
        "marginal": r.marginal.edges == FIG_LATENT,
        "separation": r.kept == FIG_TRUE,
        "final": r.final.edges == CHAIN_EDGES,
        "no_diagnostics": r.diagnostics == (),
        "runtime": r.elapsed < (600 if r.samples >= 4_000_000 else 60),
    }
    bad = [k for k, ok in checks.items() if not ok]
    report(
        "1 (chain experiment)",
        not bad,
        f"T={r.samples:.0e}, {r.elapsed:.0f}s"
        + (f", failed: {bad}" if bad else ", all stage outputs exact"),
    )


# ---------------------------------------------------------------------------
# criterion 2: analytic oracle equivalences at 1e-9

def test_criterion_2a_inverse_assembly():
    rng = np.random.default_rng(11)
    worst = 0.0
    for i in range(50):
        n = int(rng.integers(3, 13))
        tree, _ = tree_with_deep_nodes(rng, n, 0)
        model = draw_ar_model(rng, tree, ar=bool(i % 2))
        psd = analytic_psd(model, GRID)
        inv = analytic_inverse_psd(model, GRID)
        prod = np.einsum("fij,fjk->fik", inv.values, psd.values)
        eye = np.broadcast_to(np.eye(n), prod.shape)
        rel = np.linalg.norm(prod - eye, axis=(1, 2)).max() / np.sqrt(n)
        worst = max(worst, float(rel))
    report("2a (entrywise inverse x PSD = I)", worst < 1e-9, f"worst residual {worst:.2e}")


def test_criterion_2b_woodbury_vs_dense():
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(7, 13))
        k = int(rng.integers(1, min(3, (n - 4) // 3) + 1))
        inst = random_instance(rng, n, k)
        sigs = analytic_signatures(inst.model, inst.specs, GRID)
        dense = invert_spectrum(analytic_corrupted_psd(inst.model, sigs, GRID))
        wood, _ = woodbury_chain_inverse(inst.model, sigs, GRID)
        rel = np.abs(wood.values - dense.values).max() / np.abs(dense.values).max()
        worst = max(worst, float(rel))
    report("2b (rank-one chain vs dense inverse)", worst < 1e-9, f"worst gap {worst:.2e}")


def _alignment_configs(topology, l):
    adj = topology.adjacency
    for q in sorted(adj[l]):
        for r in sorted(adj[l]):
            if q == r:
                continue
            for p in sorted(adj[q] - {l}):
                for s in sorted(adj[r] - {l}):
                    if len({p, q, l, r, s}) == 5:
                        yield p, q, r, s


def test_criterion_2c_far_pair_locality():
    rng = np.random.default_rng(17)
    worst, configs = 0.0, 0
    for _ in range(50):
        n = int(rng.integers(7, 13))
        k = int(rng.integers(1, min(3, (n - 4) // 3) + 1))
        inst = random_instance(rng, n, k)
        sigs = analytic_signatures(inst.model, inst.specs, GRID)
        full, _ = woodbury_chain_inverse(inst.model, sigs, GRID)
        scale = np.abs(full.values).max()
        for l in sorted(inst.corrupt):
            psi1 = one_step_inverse(inst.model, sigs, l, GRID)
            for p, q, r, s in _alignment_configs(inst.topology, l):
                configs += 1
                for a, b in [(p, r), (p, s), (q, r), (q, s)]:
                    gap = float(np.abs(full.values[:, a, b] - psi1.values[:, a, b]).max())
                    worst = max(worst, gap / scale)
    report(
        "2c (far-pair one-step locality)",
        worst < 1e-9 and configs > 0,
        f"worst gap {worst:.2e} over {configs} alignments",
    )


# ---------------------------------------------------------------------------
# criterion 3: support of the corrupted inverse equals the perturbed graph

def test_criterion_3_support_equivalence(analytic_pool):
    mismatches = 0
    for inst in analytic_pool:
        sigs = analytic_signatures(inst.model, inst.specs, GRID)
        inv = invert_spectrum(analytic_corrupted_psd(inst.model, sigs, GRID))
        support, _, _ = support_graph(inv, ANALYTIC_DECISION)
        truth = perturbed_graph(moral_graph(inst.topology), inst.corrupt)
        mismatches += support.edges != truth.edges
    report(
        "3 (inverse support = perturbed graph)",
        mismatches == 0,
        f"{len(analytic_pool) - mismatches}/{len(analytic_pool)} exact",
    )


# ---------------------------------------------------------------------------
# criterion 4: classification and the four-pair phase table

def test_criterion_4_classification_and_phase_table(analytic_pool):
    misclassified = 0
    table_violations = 0
    for inst in analytic_pool:
        sigs = analytic_signatures(inst.model, inst.specs, GRID)
        inv = invert_spectrum(analytic_corrupted_psd(inst.model, sigs, GRID))
        rep = detect(inv, ANALYTIC_DECISION)
        if (
            rep.corrupt != inst.corrupt
            or rep.leaves != leaves(inst.topology)
            or rep.diagnostics
        ):
            misclassified += 1
        cut = ANALYTIC_DECISION.thresholds(inv)["phase"]
        for l in sorted(inst.corrupt):
            for p, q, r, s in _alignment_configs(inst.topology, l):
                scores = {
                    pair: phase_nonconstancy_score(inv, *pair, ANALYTIC_DECISION)
                    for pair in [(p, s), (p, r), (q, s), (q, r)]
                }
                if scores[(p, s)] >= 1e-6 * cut or any(
                    scores[pair] < cut for pair in [(p, r), (q, s), (q, r)]
                ):
                    table_violations += 1
    report(
        "4 (corrupt/leaf classification + phase table)",
        misclassified == 0 and table_violations == 0,
        f"{len(analytic_pool) - misclassified}/{len(analytic_pool)} classified, "
        f"{table_violations} phase-table violations",
    )


# ---------------------------------------------------------------------------
# criterion 5: end-to-end recovery, analytic and empirical

def test_criterion_5_exact_recovery(analytic_pool, chain_run):
    failures = 0
    for inst in analytic_pool:
        sigs = analytic_signatures(inst.model, inst.specs, GRID)
        psd = analytic_corrupted_psd(inst.model, sigs, GRID)
        rep = detect(invert_spectrum(psd), ANALYTIC_DECISION)
        est = hide_and_learn(psd, rep, ANALYTIC_DECISION)
        failures += est.graph.edges != inst.topology.edges or bool(est.diagnostics)
    empirical_exact = chain_run.final.edges == CHAIN_EDGES
    report(
        "5 (exact recovery)",
        failures == 0 and empirical_exact,
        f"analytic {len(analytic_pool) - failures}/{len(analytic_pool)}, "
        f"chain experiment at T={chain_run.samples:.0e} exact={empirical_exact}",
    )


def test_criterion_5_sweep_reports_rates(tmp_path):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(
        json.dumps(
            {
                "instances": 2,
                "nodes": [7, 9],
                "corrupt": [1, 1],
                "trajectories": [100_000, 1_000_000],
                "seed": 404,
                "welch": {"segment_length": 256},
            }
        )
    )
    code = main(["sweep", "--config", str(cfg), "--out", str(tmp_path)])
    rows = (tmp_path / "sweep_summary.csv").read_text().strip().splitlines()
    header, body = rows[0].split(","), rows[1:]
    rates = {}
    for t in ("100000", "1000000"):
        sub = [r.split(",") for r in body if r.split(",")[3] == t]
        rates[t] = sum(r[4] == "True" for r in sub) / len(sub)
    report(
        "5 (finite-sample sweep harness)",
        code == 0 and len(body) == 4 and "recovered" in header,
        f"reported rates: T=1e5 -> {rates['100000']:.2f}, T=1e6 -> {rates['1000000']:.2f}",
    )


# ---------------------------------------------------------------------------
# criterion 6: corruption signature estimation

def test_criterion_6_signatures():
    model, _ = chain7()
    panel = simulate(model, 1_000_000, seed=606)
    specs = [
        CorruptionSpec(node=3, kind="random_delay", p=0.7, t1=-2, t2=0),
        CorruptionSpec(node=1, kind="packet_drop", p=0.8),
        CorruptionSpec(node=5, kind="noisy_filter", taps=(1.0, -0.45, 0.15), noise_variance=0.25),
    ]
    corrupted = apply_corruption(panel_copy(panel), specs, seed=607)
    welch = FrequencyGrid(segment_length=256)
    d_ok = True
    for spec in specs:
        sig = estimate_signature(panel.data[spec.node], corrupted.data[spec.node], welch)
        d_ok &= bool(sig.d.min() >= 0.0)
    fir = estimate_signature(panel.data[5], corrupted.data[5], welch)
    w = fir.grid.frequencies
    taps = np.array(specs[2].taps)
    truth = np.sum(taps[None, :] * np.exp(-1j * np.outer(w, np.arange(3))), axis=1)
    rel = float((np.abs(fir.h - truth) / np.abs(truth)).max())
    report(
        "6 (corruption signatures)",
        d_ok and rel < 0.05,
        f"d >= 0 for all three models, FIR response error {rel:.3f} (< 0.05)",
    )


# ---------------------------------------------------------------------------
# criterion 7: negative controls stay loud

def _run_pipeline_loudness(model, specs):
    """Returns (crashed, silent_success) for an analytic pipeline run."""
    sigs = analytic_signatures(model, specs, GRID)
    psd = analytic_corrupted_psd(model, sigs, GRID)
    truth = model.topology.edges
    try:
        rep = detect(invert_spectrum(psd), ANALYTIC_DECISION)
        est = hide_and_learn(psd, rep, ANALYTIC_DECISION)
    except AssumptionViolation:
        return False, False
    diagnostics = rep.diagnostics + est.diagnostics
    correct = est.graph.edges == truth and rep.corrupt == frozenset(
        s.node for s in specs
    )
    return False, (not diagnostics and not correct)


def test_criterion_7_negative_controls():
    rng = np.random.default_rng(77)
    # corrupt node two hops from a leaf
    chain5 = UndirectedGraph.chain(5)
    near_leaf = (
        draw_model(rng, chain5),
        (CorruptionSpec(node=2, kind="random_delay", p=0.7, t1=-2, t2=0),),
    )
    # two corrupt nodes two hops apart
    chain9 = UndirectedGraph.chain(9)
    close_pair = (
        draw_model(rng, chain9),
        (
            CorruptionSpec(node=3, kind="random_delay", p=0.7, t1=-1, t2=0),
            CorruptionSpec(node=5, kind="random_delay", p=0.75, t1=2, t2=0),
        ),
    )
    outcomes = []
    for model, specs in (near_leaf, close_pair):
        crashed, silent = _run_pipeline_loudness(model, specs)
        outcomes.append((crashed, silent))
    ok = all(not crashed and not silent for crashed, silent in outcomes)
    report(
        "7 (assumption violations stay loud)",
        ok,
        f"near-leaf and close-pair controls: {outcomes} (crashed, silent-success)",
    )
