import tracemalloc

import numpy as np
import pytest

from treespect.corruption import CorruptionSignature
from treespect.detection import ANALYTIC_DECISION, phase_nonconstancy_score
from treespect.graphs import bfs_distances
from treespect.instances import (
    adversarial_instance,
    draw_delay_spec,
    random_instance,
)
from treespect.ltisim import analytic_inverse_psd, analytic_psd
from treespect.oracles import (
    analytic_corrupted_psd,
    analytic_signatures,
    woodbury_chain_inverse,
)
from treespect.spectral import (
    FrequencyGrid,
    WelchParams,
    estimate_cpsd,
    invert_spectrum,
)
from treespect.streams import apply_corruption, simulate

from conftest import chain7, one_step_inverse, reference_woodbury

GRID = FrequencyGrid.welch_bins(256)


@pytest.fixture(scope="module")
def chain_setup():
    model, specs = chain7()
    sigs = analytic_signatures(model, specs, GRID)
    return model, specs, sigs


def relative_gap(a, b):
    return float(np.abs(a - b).max() / np.abs(b).max())


# ---------------------------------------------------------------------------
# signatures

def test_signatures_share_one_lyapunov_solve(monkeypatch):
    # every random_delay signature reads the same state covariance, so a
    # model with several specs solves the Lyapunov equation once
    from treespect import ltisim
    from treespect.corruption import analytic_signature
    from treespect.instances import draw_delay_spec, draw_model, tree_with_deep_nodes

    rng = np.random.default_rng(8)
    tree, marked = tree_with_deep_nodes(rng, 20, 4)
    model = draw_model(rng, tree)
    specs = [draw_delay_spec(rng, v) for v in marked]
    calls = []
    real = ltisim.discrete_lyapunov
    monkeypatch.setattr(
        ltisim, "discrete_lyapunov", lambda *a: calls.append(1) or real(*a)
    )
    sigs = analytic_signatures(model, specs, GRID)
    assert len(calls) == 1
    for spec in specs:
        fresh = ltisim.GenerativeModel(
            model.topology, model.coupling, model.self_dynamics,
            model.noise_variance, model.labels,
        )
        ref = analytic_signature(spec, GRID, fresh)
        np.testing.assert_array_equal(sigs[spec.node].h, ref.h)
        np.testing.assert_array_equal(sigs[spec.node].d, ref.d)
    assert len(calls) == 1 + len(specs)


# ---------------------------------------------------------------------------
# corrupted PSD

def test_trivial_signatures_give_clean_psd(chain_setup):
    model, _, _ = chain_setup
    trivial = {i: CorruptionSignature.trivial(GRID) for i in range(3)}
    psd = analytic_corrupted_psd(model, trivial, GRID)
    np.testing.assert_allclose(psd.values, analytic_psd(model, GRID).values, atol=1e-12)


def test_corrupted_entries_follow_signature(chain_setup):
    model, _, sigs = chain_setup
    clean = analytic_psd(model, GRID)
    corr = analytic_corrupted_psd(model, sigs, GRID)
    h = sigs[3].h
    np.testing.assert_allclose(
        corr.values[:, 3, 3], np.abs(h) ** 2 * clean.values[:, 3, 3] + sigs[3].d, atol=1e-12
    )
    # uncorrupted pairs keep the clean cross-spectra: no additive term
    np.testing.assert_allclose(corr.values[:, 1, 5], clean.values[:, 1, 5], atol=1e-14)
    np.testing.assert_allclose(corr.values[:, 1, 3], clean.values[:, 1, 3] * np.conj(h), atol=1e-12)


def test_corrupted_psd_matches_empirical_estimate(chain_setup):
    model, specs, _ = chain_setup
    panel = simulate(model, 1_000_000, seed=51)
    corrupted = apply_corruption(panel, list(specs), seed=52)
    est = estimate_cpsd(corrupted, WelchParams(segment_length=256))
    ana = analytic_corrupted_psd(model, analytic_signatures(model, specs, est.grid), est.grid)
    rel = np.linalg.norm(est.values - ana.values, axis=(1, 2)) / np.linalg.norm(
        ana.values, axis=(1, 2)
    )
    assert rel.max() < 0.2
    assert rel.mean() < 0.06


# ---------------------------------------------------------------------------
# Woodbury chain

def test_no_corruption_chain_returns_clean_inverse(chain_setup):
    model, _, _ = chain_setup
    inv, absorbed = woodbury_chain_inverse(model, {}, GRID)
    assert absorbed == ()
    np.testing.assert_allclose(
        inv.values, analytic_inverse_psd(model, GRID).values, atol=1e-12
    )


def test_chain_inverse_equals_dense_inverse(chain_setup):
    model, _, sigs = chain_setup
    dense = invert_spectrum(analytic_corrupted_psd(model, sigs, GRID))
    wood, absorbed = woodbury_chain_inverse(model, sigs, GRID)
    assert relative_gap(wood.values, dense.values) < 1e-9
    assert absorbed == (3,)


@pytest.mark.parametrize("seed", [101, 202, 303])
def test_chain_inverse_matches_dense_on_random_instances(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 13))
    k = int(rng.integers(1, min(3, (n - 4) // 3) + 1))
    inst = random_instance(rng, n, k)
    sigs = analytic_signatures(inst.model, inst.specs, GRID)
    dense = invert_spectrum(analytic_corrupted_psd(inst.model, sigs, GRID))
    wood, _ = woodbury_chain_inverse(inst.model, sigs, GRID)
    assert relative_gap(wood.values, dense.values) < 1e-9


def assert_matches_full_matrix_downdates(model, sigs):
    wood, absorbed = woodbury_chain_inverse(model, sigs, GRID)
    expected, expected_flags = reference_woodbury(model, sigs, GRID)
    assert absorbed == tuple(sorted(sigs))
    assert np.array_equal(wood.values, expected, equal_nan=True)
    np.testing.assert_array_equal(wood.flagged, expected_flags)


@pytest.mark.parametrize("seed", [31, 32, 33, 34])
def test_downdates_on_the_two_hop_ball_equal_full_matrix_downdates(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(13, 31))
    inst = random_instance(rng, n, int(rng.integers(1, min(4, (n - 4) // 3) + 1)))
    assert_matches_full_matrix_downdates(inst.model, analytic_signatures(inst.model, inst.specs, GRID))


@pytest.mark.parametrize("seed", [41, 42, 43])
def test_downdates_on_the_two_hop_ball_hold_for_adjacent_corrupt_nodes(seed):
    # the restriction does not lean on the three-hop rule: corrupt backbone
    # nodes 3, 4 and 5 are neighbours, and node 4's response vanishes at
    # one bin, so a flagged NaN bin rides through every downdate
    rng = np.random.default_rng(seed)
    inst = adversarial_instance(rng, int(rng.integers(9, 20)))
    specs = [draw_delay_spec(rng, v) for v in (3, 4, 5)]
    sigs = analytic_signatures(inst.model, specs, GRID)
    h = sigs[4].h.copy()
    h[10] = 0.0
    sigs[4] = CorruptionSignature(GRID, h, sigs[4].d)
    assert_matches_full_matrix_downdates(inst.model, sigs)


def test_zero_additive_terms_leave_the_rescaled_clean_inverse():
    # the property one_step_inverse relies on: a d = 0 downdate is a no-op,
    # so only the multiplicative rescaling of the clean inverse remains
    rng = np.random.default_rng(29)
    inst = random_instance(rng, 13, 2)
    sigs = analytic_signatures(inst.model, inst.specs, GRID)
    zeroed = {
        v: CorruptionSignature(GRID, sig.h, np.zeros(GRID.size)) for v, sig in sigs.items()
    }
    inv, absorbed = woodbury_chain_inverse(inst.model, zeroed, GRID)
    h = np.ones((GRID.size, inst.model.n_nodes), dtype=complex)
    for v, sig in sigs.items():
        h[:, v] = sig.h
    clean = analytic_inverse_psd(inst.model, GRID).values
    np.testing.assert_array_equal(
        inv.values, clean / (np.conj(h[:, :, None]) * h[:, None, :])
    )
    assert not inv.flagged.any()
    assert absorbed == tuple(sorted(sigs))


def test_first_step_phase_structure(chain_setup):
    # after absorbing the corrupt node, the leaf-to-2-hop entry is still a
    # zero-phase constant while the corrupt node's own entries rotate
    model, _, sigs = chain_setup
    psi1 = one_step_inverse(model, sigs, 3, GRID)
    leaf_two_hop = psi1.entry(0, 2)
    assert np.abs(leaf_two_hop.imag).max() < 1e-12
    corrupt_edge = psi1.entry(3, 2)
    w = phase_nonconstancy_score(psi1, 3, 2, ANALYTIC_DECISION)
    assert w > ANALYTIC_DECISION.thresholds(psi1)["phase"]
    assert np.abs(corrupt_edge.imag).max() > 1e-3


def test_candidate_rows_settle_after_one_update():
    # for leaves and corrupt nodes, the full inverse equals the one-step
    # inverse whose first update is the nearest corrupt node
    rng = np.random.default_rng(17)
    inst = random_instance(rng, 13, 2)
    model = inst.model
    sigs = analytic_signatures(model, inst.specs, GRID)
    full, _ = woodbury_chain_inverse(model, sigs, GRID)
    leaves = model.topology.leaves()
    for i in sorted(leaves | inst.corrupt):
        dist = bfs_distances(model.topology, i)
        nearest = min(inst.corrupt, key=lambda v: dist[v])
        psi1 = one_step_inverse(model, sigs, nearest, GRID)
        gap = np.abs(full.values[:, i, :] - psi1.values[:, i, :]).max()
        assert gap < 1e-9 * np.abs(full.values).max()


def test_far_pair_locality_around_each_corrupt_node():
    # entries between the two sides of a corrupt node depend only on that
    # node's update: p-q-l-r-s configurations settle after one step
    rng = np.random.default_rng(23)
    inst = random_instance(rng, 13, 2)
    model = inst.model
    sigs = analytic_signatures(model, inst.specs, GRID)
    full, _ = woodbury_chain_inverse(model, sigs, GRID)
    adj = model.topology.adjacency()
    for l in sorted(inst.corrupt):
        psi1 = one_step_inverse(model, sigs, l, GRID)
        dist = bfs_distances(model.topology, l)
        for q in adj[l]:
            for r in adj[l]:
                if q == r:
                    continue
                for p in adj[q] - {l}:
                    for s in adj[r] - {l}:
                        for a, b in [(p, r), (p, s), (q, r), (q, s)]:
                            gap = abs(
                                full.values[:, a, b] - psi1.values[:, a, b]
                            ).max()
                            assert gap < 1e-9 * np.abs(full.values).max()


def test_vanishing_response_flags_frequencies(chain_setup):
    model, _, _ = chain_setup
    h = np.ones(GRID.size, dtype=complex)
    h[10] = 0.0  # response zero at an isolated frequency
    sigs = {3: CorruptionSignature(GRID, h, np.full(GRID.size, 0.5))}
    inv, _ = woodbury_chain_inverse(model, sigs, GRID)
    assert inv.flagged[10]
    assert inv.flagged.sum() == 1


def test_chain_memory_stays_a_few_arrays():
    # the chain downdates one working inverse in place; keeping a copy per
    # absorbed node would cost k more F x n x n arrays
    from treespect.instances import draw_delay_spec, draw_model, tree_with_deep_nodes

    rng = np.random.default_rng(3)
    tree, marked = tree_with_deep_nodes(rng, 40, 8)
    model = draw_model(rng, tree)
    sigs = analytic_signatures(model, [draw_delay_spec(rng, v) for v in marked], GRID)
    array_bytes = GRID.size * 40 * 40 * np.dtype(np.complex128).itemsize
    tracemalloc.start()
    try:
        _, absorbed = woodbury_chain_inverse(model, sigs, GRID)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(absorbed) == 8
    assert peak < 4 * array_bytes
