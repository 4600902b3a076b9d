import json
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from treespect import streams
from treespect.errors import DataError, NumericalError
from treespect.graphs import UndirectedGraph
from treespect.instances import tree_with_deep_nodes
from treespect.ltisim import (
    GenerativeModel,
    analytic_inverse_psd,
    analytic_psd,
    discrete_lyapunov,
    model_from_dict,
    model_to_dict,
    stationary_autocovariance,
)
from treespect.spectral import FrequencyGrid
from treespect.streams import simulate

from conftest import bfs_distances, draw_ar_model, moral_graph, random_tree


def two_node_model():
    return GenerativeModel(
        UndirectedGraph(2, [(0, 1)]),
        {(0, 1): 0.5, (1, 0): 0.4},
        ((0.0,), (0.0,)),
        np.ones(2),
    )


def random_stable_model(rng, n=6, ar=False):
    return draw_ar_model(rng, random_tree(rng, n), ar)


# ---------------------------------------------------------------------------
# model validation

def test_rejects_unstable_model():
    with pytest.raises(NumericalError):
        GenerativeModel(
            UndirectedGraph(2, [(0, 1)]),
            {(0, 1): 1.2, (1, 0): 1.1},
            ((0.0,), (0.0,)),
            np.ones(2),
        )


def test_rejects_zero_coupling_and_bad_sigma():
    g = UndirectedGraph(2, [(0, 1)])
    with pytest.raises(DataError):
        GenerativeModel(g, {(0, 1): 0.0, (1, 0): 0.4}, ((0.0,), (0.0,)), np.ones(2))
    with pytest.raises(DataError):
        GenerativeModel(g, {(0, 1): 0.5, (1, 0): 0.4}, ((0.0,), (0.0,)), np.array([1.0, 0.0]))


def test_companion_of_higher_order_dynamics():
    g = UndirectedGraph(2, [(0, 1)])
    m = GenerativeModel(g, {(0, 1): 0.3, (1, 0): 0.2}, ((0.2, 0.1), (0.1,)), np.ones(2))
    C = m.companion_matrix()
    assert C.shape == (4, 4)
    # row for node 0: self lags 0.2, 0.1 and coupling at its own degree (2)
    assert C[0, 0] == 0.2 and C[0, 2] == 0.1 and C[0, 3] == 0.3
    # node 1 has degree 1, coupling enters at lag 1
    assert C[1, 0] == 0.2 and C[1, 1] == 0.1


# ---------------------------------------------------------------------------
# simulation

def test_simulation_deterministic():
    m = two_node_model()
    a = simulate(m, 2_000, seed=7)
    b = simulate(m, 2_000, seed=7)
    assert np.array_equal(a.data, b.data)
    c = simulate(m, 2_000, seed=8)
    assert not np.array_equal(a.data, c.data)


def stepped(monkeypatch, *args, **kwargs):
    """`simulate` through the stepping loop: no eigenbasis is good enough."""
    steps = []
    step = streams._step_block
    with monkeypatch.context() as m:
        m.setattr(streams, "EIGEN_COND_CAP", 0.0)
        m.setattr(streams, "_step_block", lambda *a: steps.append(a) or step(*a))
        panel = simulate(*args, **kwargs)
    assert steps, "the eigen path ran instead of the stepping loop"
    return panel


def test_eigen_and_loop_paths_agree(monkeypatch):
    monkeypatch.setattr("treespect.streams.BLOCK", 701)
    rng = np.random.default_rng(1)
    for _ in range(3):
        m = random_stable_model(rng, n=int(rng.integers(2, 6)), ar=True)
        fast = simulate(m, 3_000, seed=4)
        slow = stepped(monkeypatch, m, 3_000, seed=4)
        np.testing.assert_allclose(fast.data, slow.data, atol=1e-9)


@pytest.mark.parametrize(
    "b21, dynamics, complex_modes",
    [
        (-0.5, ((0.3,), (0.2,)), 2),  # one conjugate pair
        (0.4, ((0.3,), (0.2,)), 0),  # real modes only
        (0.4, ((0.3,), (0.2, -0.1)), 2),  # a real mode and a conjugate pair
    ],
)
def test_eigen_path_real_and_conjugate_modes(monkeypatch, b21, dynamics, complex_modes):
    m = GenerativeModel(
        UndirectedGraph(2, [(0, 1)]),
        {(0, 1): 0.5, (1, 0): b21},
        dynamics,
        np.ones(2),
    )
    lam = np.linalg.eigvals(m.companion_matrix())
    assert np.count_nonzero(lam.imag) == complex_modes
    monkeypatch.setattr("treespect.streams.BLOCK", 701)
    slow = stepped(monkeypatch, m, 3_000, seed=4, burn_in=900)

    def no_loop(*args):
        raise AssertionError("the stepping loop ran instead of the eigen path")

    monkeypatch.setattr("treespect.streams._step_block", no_loop)
    fast = simulate(m, 3_000, seed=4, burn_in=900)
    assert fast.data.flags.c_contiguous and fast.data.shape == (2, 3_000)
    np.testing.assert_allclose(fast.data, slow.data, rtol=0, atol=1e-9)


def test_two_node_covariance_matches_lyapunov_oracle():
    # frozen from the discrete Lyapunov solve P = B P B' + I for this model
    expected_r0 = np.array([[1.30208333, 0.0], [0.0, 1.20833333]])
    expected_r1 = np.array([[0.0, 0.60416667], [0.52083333, 0.0]])
    m = two_node_model()
    oracle = stationary_autocovariance(m, [0, 1])
    np.testing.assert_allclose(oracle[0], expected_r0, atol=1e-8)
    np.testing.assert_allclose(oracle[1], expected_r1, atol=1e-8)

    t = 400_000
    x = simulate(m, t, seed=2).data
    r0 = x @ x.T / t
    r1 = x[:, 1:] @ x[:, :-1].T / (t - 1)
    # three standard errors, with Bartlett-style variance from the oracle lags
    rr = stationary_autocovariance(m, list(range(-30, 31)))
    var00 = sum(rr[k][0, 0] ** 2 + rr[k][0, 0] * rr[k][0, 0] for k in rr) / t
    tol = 3 * np.sqrt(2 * var00)
    assert np.abs(r0 - expected_r0).max() < tol
    assert np.abs(r1 - expected_r1).max() < tol


def lyapunov_residual(C, Q, P):
    return np.linalg.norm(C @ P @ C.T + Q - P) / np.linalg.norm(P)


def relative_gap(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


@pytest.mark.parametrize("n,k", [(7, 1), (40, 8), (200, 40)])
@pytest.mark.parametrize("order", [1, 2])
def test_doubling_lyapunov_matches_scipy_on_model_companions(n, k, order):
    rng = np.random.default_rng(n + order)
    tree, _ = tree_with_deep_nodes(rng, n, k)
    model = draw_ar_model(rng, tree, ar=order > 1)
    if order > 1:
        # a second self lag on every node moves every coupling to lag 2:
        # p = 2, with a spectral radius near sqrt(0.8)
        dyn = tuple(c + (0.2 * c[0],) for c in model.self_dynamics)
        model = GenerativeModel(tree, model.coupling, dyn, model.noise_variance)
    C = model.companion_matrix()
    assert C.shape == (order * n, order * n)
    Q = np.zeros_like(C)
    Q[:n, :n] = np.diag(model.noise_variance)
    P = discrete_lyapunov(C, Q)
    assert np.array_equal(P, P.T)
    assert relative_gap(P, scipy.linalg.solve_discrete_lyapunov(C, Q)) <= 1e-12
    assert lyapunov_residual(C, Q, P) <= 1e-13
    assert np.array_equal(model.state_covariance, P)


def extended_doubling(C, Q, squarings=24):
    """The same sum in long double, as an independent rounding reference."""
    P, D = Q.astype(np.longdouble), C.astype(np.longdouble)
    for _ in range(squarings):
        P, D = P + D @ P @ D.T, D @ D
    return P


def test_doubling_lyapunov_near_the_unit_circle():
    rng = np.random.default_rng(0)
    M = rng.standard_normal((30, 30))
    A = rng.standard_normal((30, 30))
    Q = A @ A.T
    gauss = 0.998 * M / np.abs(np.linalg.eigvals(M)).max()
    # every mode at the radius: the slowest decay the squaring count must cover
    orth = 0.998 * np.linalg.qr(M)[0]
    for C in (gauss, orth):
        P = discrete_lyapunov(C, Q)
        assert lyapunov_residual(C, Q, P) <= 1e-13
        if np.finfo(np.longdouble).eps < np.finfo(np.float64).eps:
            assert relative_gap(P, extended_doubling(C, Q)) <= 1e-13
    # scipy's Schur-based solve is itself 1.8e-12 off the long-double sum on
    # `orth` (5e-13 on `gauss`, where the doubling is within 7e-15), so only
    # the Gaussian draw is compared with it
    reference = scipy.linalg.solve_discrete_lyapunov(gauss, Q)
    assert relative_gap(discrete_lyapunov(gauss, Q), reference) <= 1e-12


@pytest.mark.parametrize("radius,message", [(1.0, "did not converge"), (1.5, "diverged")])
def test_doubling_lyapunov_refuses_unstable_systems(radius, message):
    rng = np.random.default_rng(5)
    M = rng.standard_normal((6, 6))
    C = radius * M / np.abs(np.linalg.eigvals(M)).max()
    with pytest.raises(NumericalError, match=message):
        discrete_lyapunov(C, np.eye(6))


def test_decoupled_model_has_no_cross_correlation():
    m = GenerativeModel(
        UndirectedGraph(3),
        {},
        ((0.5,), (0.3,), (-0.4,)),
        np.ones(3),
    )
    x = simulate(m, 100_000, seed=9).data
    c = np.corrcoef(x)
    off = c[~np.eye(3, dtype=bool)]
    assert np.abs(off).max() < 0.02


def test_burn_in_changes_prefix():
    m = two_node_model()
    a = simulate(m, 1_000, seed=3, burn_in=0)
    b = simulate(m, 1_000, seed=3, burn_in=500)
    assert not np.array_equal(a.data, b.data)


# ---------------------------------------------------------------------------
# analytic spectra

def test_decoupled_psd_diagonal():
    m = GenerativeModel(UndirectedGraph(2), {}, ((0.5,), (0.0,)), np.array([2.0, 3.0]))
    grid = FrequencyGrid.welch_bins(32)
    psd = analytic_psd(m, grid)
    z = np.exp(1j * grid.frequencies)
    np.testing.assert_allclose(
        psd.values[:, 0, 0].real, 2.0 / np.abs(z - 0.5) ** 2, atol=1e-12
    )
    np.testing.assert_allclose(psd.values[:, 0, 1], 0, atol=1e-14)


def test_analytic_psd_memory_stays_three_arrays():
    # A^-1, its conjugate transpose and the product; the Hermitization
    # runs in place once the two factors are freed
    grid = FrequencyGrid.welch_bins(256)
    model = random_stable_model(np.random.default_rng(40), n=40)
    array_bytes = grid.size * 40 * 40 * np.dtype(np.complex128).itemsize
    tracemalloc.start()
    try:
        psd = analytic_psd(model, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert psd.values.shape == (grid.size, 40, 40)
    assert peak < 3.5 * array_bytes


def test_psd_conjugate_symmetric_and_positive():
    rng = np.random.default_rng(5)
    m = random_stable_model(rng, n=5, ar=True)
    grid = FrequencyGrid.welch_bins(64)
    psd = analytic_psd(m, grid)
    gap = np.linalg.norm(psd.values - np.conj(np.swapaxes(psd.values, 1, 2)), axis=(1, 2))
    assert np.max(gap / np.linalg.norm(psd.values, axis=(1, 2))) < 1e-10
    eig = np.linalg.eigvalsh(psd.values)
    assert eig.min() > 0


def test_inverse_psd_zero_beyond_two_hops():
    rng = np.random.default_rng(7)
    for _ in range(5):
        m = random_stable_model(rng, n=int(rng.integers(4, 9)), ar=True)
        grid = FrequencyGrid.welch_bins(32)
        inv = analytic_inverse_psd(m, grid)
        for i in range(m.n_nodes):
            dist = bfs_distances(m.topology, i)
            for j in range(m.n_nodes):
                if dist[j] >= 3:
                    assert np.abs(inv.entry(i, j)).max() == 0.0


def test_inverse_psd_two_hop_entries_real():
    m = random_stable_model(np.random.default_rng(11), n=7)
    grid = FrequencyGrid.welch_bins(32)
    inv = analytic_inverse_psd(m, grid)
    for i in range(7):
        dist = bfs_distances(m.topology, i)
        for j in range(7):
            if dist[j] == 2:
                e = inv.entry(i, j)
                assert np.abs(e.imag).max() < 1e-12
                # constant across frequency as well
                assert np.ptp(e.real) < 1e-12


def test_inverse_times_psd_is_identity():
    rng = np.random.default_rng(13)
    for _ in range(5):
        m = random_stable_model(rng, n=int(rng.integers(3, 12)), ar=True)
        grid = FrequencyGrid.welch_bins(32)
        psd = analytic_psd(m, grid)
        inv = analytic_inverse_psd(m, grid)
        prod = np.einsum("fij,fjk->fik", inv.values, psd.values)
        eye = np.eye(m.n_nodes)
        rel = np.abs(prod - eye).max() / np.abs(inv.values).max()
        assert rel < 1e-9


def test_inverse_psd_matches_four_case_closed_form():
    # Expanding (I-G)* Phi_e^-1 (I-G) entrywise, per frequency:
    #   (i,i):   |S_i|^2/sigma_i^2 + sum_{k~i} b_ki^2/sigma_k^2
    #   (i,j):   -b_ij conj(S_i)/sigma_i^2 - b_ji S_j/sigma_j^2  for edges i-j
    #   (i,j):   b_ki b_kj/sigma_k^2  for i, j two hops apart through k
    #   (i,j):   exactly 0 beyond two hops
    # Asymmetric couplings and unequal variances make a sign or transpose
    # slip in B show.
    tree = UndirectedGraph(7, [(0, 1), (1, 2), (2, 3), (1, 4), (4, 5), (2, 6)])
    rng = np.random.default_rng(29)
    coupling = {}
    for a, b in sorted(tree.edges):
        coupling[(a, b)] = float(rng.uniform(0.1, 0.3))
        coupling[(b, a)] = -float(rng.uniform(0.1, 0.3))
    dyn = tuple((float(a),) for a in rng.uniform(-0.4, 0.4, size=7))
    sig = rng.uniform(0.5, 2.0, size=7)
    m = GenerativeModel(tree, coupling, dyn, sig)
    grid = FrequencyGrid.welch_bins(32)
    z = np.exp(1j * grid.frequencies)
    S = [z - c[0] for c in dyn]
    b = coupling
    inv = analytic_inverse_psd(m, grid)
    for i in range(7):
        dist = bfs_distances(tree, i)
        for j in range(7):
            if i == j:
                want = np.abs(S[i]) ** 2 / sig[i] + sum(
                    b[(k, i)] ** 2 / sig[k] for k in tree.neighbors(i)
                )
            elif dist[j] == 1:
                want = -b[(i, j)] * np.conj(S[i]) / sig[i] - b[(j, i)] * S[j] / sig[j]
            elif dist[j] == 2:
                (k,) = tree.neighbors(i) & tree.neighbors(j)
                want = np.full(grid.size, b[(k, i)] * b[(k, j)] / sig[k])
            else:
                assert np.all(inv.entry(i, j) == 0.0)
                continue
            np.testing.assert_allclose(inv.entry(i, j), want, rtol=0, atol=1e-13)


def test_inverse_psd_support_is_moral_graph():

    rng = np.random.default_rng(17)
    for _ in range(5):
        m = random_stable_model(rng, n=int(rng.integers(3, 10)))
        grid = FrequencyGrid.welch_bins(32)
        inv = analytic_inverse_psd(m, grid)
        support = {
            (i, j)
            for i in range(m.n_nodes)
            for j in range(i + 1, m.n_nodes)
            if np.abs(inv.entry(i, j)).max() > 1e-9
        }
        assert support == set(moral_graph(m.topology).edges)


def test_leaf_phase_signature():
    # leaf-to-neighbor entries rotate with frequency; leaf-to-2-hop entries
    # are real constants
    m = GenerativeModel(
        UndirectedGraph.chain(3),
        {(0, 1): 0.5, (1, 0): 0.36, (1, 2): 0.6, (2, 1): 0.95},
        ((0.0,),) * 3,
        np.ones(3),
    )
    grid = FrequencyGrid.welch_bins(64)
    inv = analytic_inverse_psd(m, grid)
    leaf_edge = inv.entry(0, 1)
    angles = np.angle(leaf_edge[grid.interior_mask()])
    assert np.ptp(angles) > 0.5
    two_hop = inv.entry(0, 2)
    assert np.abs(two_hop.imag).max() < 1e-12


# ---------------------------------------------------------------------------
# model files

def test_model_roundtrip(tmp_path):
    rng = np.random.default_rng(23)
    m = random_stable_model(rng, n=5, ar=True)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model_to_dict(m)))
    back = model_from_dict(json.loads(path.read_text()))
    assert back.topology.edges == m.topology.edges
    assert back.coupling == m.coupling
    assert back.self_dynamics == m.self_dynamics
    np.testing.assert_allclose(back.noise_variance, m.noise_variance)


def test_model_dict_defaults():
    payload = {
        "labels": ["a", "b"],
        "edges": [{"a": "a", "b": "b", "ab": 0.5, "ba": 0.4}],
    }
    m = model_from_dict(payload)
    assert m.self_dynamics == ((0.0,), (0.0,))
    np.testing.assert_allclose(m.noise_variance, [1.0, 1.0])
    assert model_to_dict(m)["edges"][0]["ab"] == 0.5


def test_malformed_model_raises():
    with pytest.raises(DataError):
        model_from_dict({"labels": ["a", "b"], "edges": [{"a": "a"}]})
