import numpy as np
import pytest
from scipy.signal import csd

from treespect.errors import DataError, NumericalError
from treespect.graphs import UndirectedGraph
from treespect.ltisim import GenerativeModel, analytic_psd, simulate
from treespect.panel import TimeSeriesPanel
from treespect.spectral import (
    COND_CAP,
    FrequencyGrid,
    SpectralMatrix,
    WelchParams,
    estimate_cpsd,
    invert_spectrum,
    load_spectra_binary,
    marginal_inverse_psd,
    save_spectra_binary,
)


def white_panel(n=3, t=60_000, seed=5, sigma=2.0):
    rng = np.random.default_rng(seed)
    return TimeSeriesPanel(sigma * rng.standard_normal((n, t)), [str(i) for i in range(n)])


def chain3_model(b01=0.6, b10=0.4, b12=0.5, b21=0.7):
    return GenerativeModel(
        UndirectedGraph.chain(3),
        {(0, 1): b01, (1, 0): b10, (1, 2): b12, (2, 1): b21},
        ((0.0,), (0.0,), (0.0,)),
        np.ones(3),
    )


# ---------------------------------------------------------------------------
# grids

def test_welch_bins_grid_symmetric():
    grid = FrequencyGrid.welch_bins(64)
    assert grid.size == 33
    assert grid.frequencies[-1] == pytest.approx(np.pi)
    assert grid.frequencies[0] == 0.0
    # the implied negative half: every bin but 0 and pi occurs twice in (-pi, pi]
    np.testing.assert_array_equal(grid.multiplicity, [1] + [2] * 31 + [1])
    assert grid.multiplicity.sum() == 64


def test_grid_validation():
    with pytest.raises(DataError):
        FrequencyGrid(np.linspace(0.1, 1.0, 4))
    with pytest.raises(DataError):
        FrequencyGrid(np.linspace(-4.0, 4.0, 32))
    with pytest.raises(DataError):  # a two-sided grid
        FrequencyGrid(2 * np.pi * np.arange(-7, 9) / 16)


def test_interior_mask_excludes_band_edges():
    grid = FrequencyGrid.welch_bins(32)
    mask = grid.interior_mask()
    w = grid.frequencies
    assert not mask[np.abs(w) < 2.1 * grid.spacing].any()
    assert not mask[np.abs(w) > np.pi - 2.1 * grid.spacing].any()
    assert mask.sum() > 0


# ---------------------------------------------------------------------------
# Welch estimation

def test_white_noise_diagonal_flat():
    panel = white_panel(sigma=2.0)
    params = WelchParams(segment_length=128)
    s = estimate_cpsd(panel, params)
    diag = s.values[:, range(3), range(3)].real
    assert np.abs(diag.mean() - 4.0) < 0.15
    # off-diagonal is zero up to estimation noise ~ sigma^2/sqrt(segments)
    noise = 4.0 / np.sqrt(params.segment_count(panel.n_samples))
    assert np.abs(s.values[:, 0, 1]).mean() < 2 * noise


def test_autospectrum_real_nonnegative():
    s = estimate_cpsd(white_panel(), WelchParams(segment_length=128))
    for i in range(s.n_nodes):
        e = s.entry(i, i)
        assert np.abs(e.imag).max() < 1e-12
        assert e.real.min() >= 0


def test_hermitian_by_construction():
    s = estimate_cpsd(white_panel(), WelchParams(segment_length=128))
    gap = np.linalg.norm(s.values - np.conj(np.swapaxes(s.values, 1, 2)), axis=(1, 2))
    assert np.max(gap / np.linalg.norm(s.values, axis=(1, 2))) < 1e-14


def test_conjugate_symmetry_across_zero():
    # the two-sided estimate holds the stored half at omega >= 0 and its
    # conjugate at -omega, so the half grid loses nothing
    panel = white_panel(n=2, t=30_000, seed=11)
    L = 128
    mine = estimate_cpsd(panel, WelchParams(segment_length=L)).entry(0, 1)
    x = panel.data - panel.data.mean(axis=1, keepdims=True)
    f, pxy = csd(
        x[1], x[0], fs=1.0, window="hann", nperseg=L, noverlap=L // 2,
        detrend=False, return_onesided=False, scaling="density",
    )
    k = np.rint(f * L).astype(int)  # 0..L/2-1, then -L/2..-1
    np.testing.assert_allclose(pxy[k >= 0], mine[:L // 2], rtol=0, atol=1e-12)
    np.testing.assert_allclose(pxy[k == -L // 2], mine[L // 2], rtol=0, atol=1e-12)
    np.testing.assert_allclose(pxy[k < 0][1:], np.conj(mine[L // 2 - 1:0:-1]), rtol=0, atol=1e-12)


def test_matches_scipy_csd():
    panel = white_panel(n=2, t=30_000, seed=11)
    L = 256
    mine = estimate_cpsd(panel, WelchParams(segment_length=L))
    x = panel.data - panel.data.mean(axis=1, keepdims=True)
    # our convention transforms E[x_i[n+k] x_j[n]], which is scipy's csd with
    # the argument order swapped; scipy's one-sided density counts each bin
    # as often as the two-sided spectrum holds it
    f, pxy = csd(
        x[1], x[0], fs=1.0, window="hann", nperseg=L, noverlap=L // 2,
        detrend=False, return_onesided=True, scaling="density",
    )
    np.testing.assert_allclose(2 * np.pi * f, mine.grid.frequencies, rtol=0, atol=1e-12)
    np.testing.assert_allclose(
        pxy / mine.grid.multiplicity, mine.entry(0, 1), rtol=0, atol=1e-12
    )


def test_matches_scipy_csd_across_chunks():
    # at n=3, L=4096 the ~64 MB workspace bound gives chunks of 682
    # segments; 800 segments make one full chunk and one partial chunk
    n, L = 3, 4096
    params = WelchParams(segment_length=L)
    t = L + 799 * params.hop
    assert params.segment_count(t) == 800
    panel = white_panel(n=n, t=t, seed=13)
    offset = np.array([[-3.0], [0.5], [7.0]])  # one mean per record, not per chunk
    panel = panel.with_channels(panel.data + offset)
    mine = estimate_cpsd(panel, params)
    x = panel.data - panel.data.mean(axis=1, keepdims=True)
    tol = 1e-12 * np.abs(mine.values).max()
    for i in range(n):
        for j in range(i, n):
            _, pxy = csd(
                x[j], x[i], fs=1.0, window="hann", nperseg=L, noverlap=L // 2,
                detrend=False, return_onesided=True, scaling="density",
            )
            np.testing.assert_allclose(
                pxy / mine.grid.multiplicity, mine.entry(i, j), rtol=0, atol=tol
            )


def test_too_short_panel_rejected():
    with pytest.raises(DataError):
        estimate_cpsd(white_panel(t=900), WelchParams(segment_length=256))


def test_estimate_tracks_analytic_psd():
    model = chain3_model()
    panel = simulate(model, 200_000, seed=21)
    est = estimate_cpsd(panel, WelchParams(segment_length=256))
    ana = analytic_psd(model, est.grid)
    rel = np.linalg.norm(est.values - ana.values, axis=(1, 2)) / np.linalg.norm(
        ana.values, axis=(1, 2)
    )
    assert rel.max() < 0.15  # regression bound measured at this T and segment length


def test_estimate_error_shrinks_with_t():
    # consistency needs the segment length to grow with the record: at a
    # fixed length the window bias floors the error (~3% here at 64)
    model = chain3_model()
    errs = []
    for t, seg in ((10_000, 64), (100_000, 256), (1_000_000, 1024)):
        panel = simulate(model, t, seed=33)
        est = estimate_cpsd(panel, WelchParams(segment_length=seg))
        ana = analytic_psd(model, est.grid)
        errs.append(
            float(
                np.linalg.norm(est.values - ana.values)
                / np.linalg.norm(ana.values)
            )
        )
    assert errs[2] < errs[1] < errs[0]
    # regression bound for the million-sample estimate, pinned once measured
    assert errs[2] < 0.04


# ---------------------------------------------------------------------------
# inversion (on 30-sample segments: 16 bins, k = 0..15)

def test_invert_identity():
    grid = FrequencyGrid.welch_bins(30)
    eye = np.broadcast_to(np.eye(3), (16, 3, 3)).astype(complex)
    s = SpectralMatrix(grid, eye.copy(), ["a", "b", "c"])
    inv = invert_spectrum(s)
    np.testing.assert_allclose(inv.values, eye, atol=1e-14)


def test_invert_diagonal_reciprocal():
    grid = FrequencyGrid.welch_bins(30)
    d = np.linspace(0.5, 2.0, 16)
    vals = np.einsum("f,ij->fij", d, np.eye(2)).astype(complex)
    inv = invert_spectrum(SpectralMatrix(grid, vals, ["a", "b"]))
    np.testing.assert_allclose(inv.values[:, 0, 0].real, 1 / d, atol=1e-12)


def test_singular_frequencies_flagged():
    grid = FrequencyGrid.welch_bins(30)
    vals = np.broadcast_to(np.eye(2), (16, 2, 2)).astype(complex).copy()
    vals[3] = 0.0
    inv = invert_spectrum(SpectralMatrix(grid, vals, ["a", "b"]))
    assert inv.flagged[3]
    assert not inv.flagged[[i for i in range(16) if i != 3]].any()


def test_all_singular_raises():
    grid = FrequencyGrid.welch_bins(30)
    vals = np.zeros((16, 2, 2), dtype=complex)
    with pytest.raises(NumericalError):
        invert_spectrum(SpectralMatrix(grid, vals, ["a", "b"]))


def _hermitian_with_eigenvalues(rng, eigenvalues):
    n = len(eigenvalues)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return (q * np.asarray(eigenvalues)) @ np.conj(q.T)


def test_conditioning_flags_match_svd_reference():
    # eigenvalue-based conditioning must flag exactly the bins an SVD
    # condition number would, right at the cap
    rng = np.random.default_rng(11)
    grid = FrequencyGrid.welch_bins(30)
    vals = np.empty((16, 4, 4), dtype=complex)
    for f in range(14):
        target = COND_CAP * (1 + 1e-3 if f % 2 else 1 - 1e-3)
        sign = -1.0 if f % 4 >= 2 else 1.0  # half the bins are indefinite
        vals[f] = _hermitian_with_eigenvalues(rng, [1.0, sign * 0.3, 0.01, 1.0 / target])
    vals[14] = np.diag([1.0, 2.0, 3.0, 0.0])  # exactly singular
    vals[15] = np.diag([1.0, 1.0, 1.0, 1e-3 / COND_CAP])  # far over the cap
    s = SpectralMatrix(grid, vals, ["a", "b", "c", "d"])
    reference = np.linalg.cond(vals)
    expected = ~np.isfinite(reference) | (reference > COND_CAP)
    inv = invert_spectrum(s)
    np.testing.assert_array_equal(inv.flagged, expected)
    assert np.isnan(inv.values[expected]).all()
    assert np.isfinite(inv.values[~expected]).all()
    np.testing.assert_array_equal(inv.flagged[:14], np.arange(14) % 2 == 1)
    assert inv.flagged[14] and inv.flagged[15]


# ---------------------------------------------------------------------------
# marginalization

def test_marginal_over_all_nodes_is_full_inverse():
    model = chain3_model()
    grid = FrequencyGrid.welch_bins(32)
    full = invert_spectrum(analytic_psd(model, grid))
    marg = marginal_inverse_psd(full, [0, 1, 2])
    np.testing.assert_allclose(marg.values, full.values, atol=1e-10)


def test_marginal_hiding_middle_node_matches_schur_oracle():
    # hiding the middle of a 3-chain must couple the endpoints: the Schur
    # complement of the full inverse equals the dense inverse of the
    # observed submatrix of the PSD
    model = chain3_model()
    grid = FrequencyGrid.welch_bins(32)
    psd = analytic_psd(model, grid)
    obs = [0, 2]
    oracle = invert_spectrum(psd.submatrix(obs)).values
    marg = marginal_inverse_psd(invert_spectrum(psd), obs)
    np.testing.assert_allclose(marg.values, oracle, atol=1e-10)
    # spurious endpoint coupling is present at essentially every frequency
    assert np.abs(marg.entry(0, 1)).min() > 1e-6


@pytest.mark.parametrize("n,k", [(15, 3), (40, 8)])
def test_marginal_matches_dense_submatrix_inverse(n, k):
    from treespect.instances import draw_delay_spec, draw_model, tree_with_deep_nodes
    from treespect.oracles import analytic_corrupted_psd, analytic_signatures

    grid = FrequencyGrid.welch_bins(128)
    rng = np.random.default_rng(100 + n)
    for _ in range(2):
        tree, marked = tree_with_deep_nodes(rng, n, k)
        model = draw_model(rng, tree)
        specs = [draw_delay_spec(rng, v) for v in marked]
        psd = analytic_corrupted_psd(model, analytic_signatures(model, specs, grid), grid)
        pre = np.zeros(grid.size, dtype=bool)
        pre[[5, 40]] = True
        psd = SpectralMatrix(grid, psd.values, psd.labels, pre)
        obs = sorted(set(range(n)) - set(marked))
        dense = invert_spectrum(psd.submatrix(obs))
        marg = marginal_inverse_psd(invert_spectrum(psd), obs)
        assert marg.labels == dense.labels
        np.testing.assert_array_equal(marg.flagged, dense.flagged)
        assert marg.flagged[[5, 40]].all()
        assert np.isnan(marg.values[marg.flagged]).all()
        ok = ~marg.flagged
        gap = np.abs(marg.values[ok] - dense.values[ok]).max()
        assert gap <= 1e-10 * np.abs(dense.values[ok]).max()


def test_marginal_needs_two_nodes():
    model = chain3_model()
    inv = invert_spectrum(analytic_psd(model, FrequencyGrid.welch_bins(32)))
    with pytest.raises(DataError):
        marginal_inverse_psd(inv, [1])


# ---------------------------------------------------------------------------
# file formats

def test_spectra_binary_roundtrip(tmp_path):
    s = estimate_cpsd(white_panel(t=20_000), WelchParams(segment_length=128))
    path = tmp_path / "s.rtsm"
    save_spectra_binary(s, path)
    back = load_spectra_binary(path)
    assert back.labels == s.labels
    assert np.array_equal(back.values, s.values)
    assert np.array_equal(back.grid.frequencies, s.grid.frequencies)


def test_spectra_csv_exports(tmp_path):
    from treespect.spectral import save_magnitude_phase_csv

    s = estimate_cpsd(white_panel(n=2, t=20_000), WelchParams(segment_length=64))
    mp_path = tmp_path / "magphase.csv"
    save_magnitude_phase_csv(s, mp_path)
    rows = mp_path.read_text().strip().splitlines()
    assert rows[0] == "omega,node_i,node_j,magnitude,phase"
    _, _, _, mag, _ = rows[1].split(",")
    assert float(mag) == abs(s.values[0, 0, 0])
