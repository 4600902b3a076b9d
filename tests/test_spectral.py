import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from scipy.signal import csd, get_window

from treespect import spectral
from treespect.errors import DataError, NumericalError
from treespect.graphs import UndirectedGraph
from treespect.ltisim import GenerativeModel, analytic_psd
from treespect.panel import PanelReader, TimeSeriesPanel, save_panel
from treespect.spectral import (
    COND_CAP,
    FrequencyGrid,
    SpectralMatrix,
    estimate_cpsd,
    invert_spectrum,
    load_spectra_binary,
    marginal_inverse_psd,
    save_spectra_binary,
)
from treespect.streams import simulate

from conftest import multiplicity, reference_inverse


def submatrix(s: SpectralMatrix, indices) -> SpectralMatrix:
    """The spectrum of the channels `indices` of `s`, in that order."""
    idx = list(indices)
    return SpectralMatrix(
        s.grid, s.values[:, idx][:, :, idx], [s.labels[i] for i in idx], s.flagged.copy()
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
    np.testing.assert_array_equal(multiplicity(grid), [1] + [2] * 31 + [1])
    assert multiplicity(grid).sum() == 64


def test_grid_is_its_segment_length():
    for bad in (14, 17, 0, -16, 16.0, True):
        with pytest.raises(DataError, match="segment length"):
            FrequencyGrid.welch_bins(bad)
    grid = FrequencyGrid.welch_bins(256)
    assert grid == FrequencyGrid(256) == FrequencyGrid(np.int64(256))
    assert grid != FrequencyGrid.welch_bins(128)
    assert grid.frequencies is grid.frequencies and not grid.frequencies.flags.writeable


def test_interior_mask_excludes_band_edges():
    grid = FrequencyGrid.welch_bins(32)
    mask = grid.interior_mask()
    w = grid.frequencies
    spacing = 2 * np.pi / 32
    assert not mask[np.abs(w) < 2.1 * spacing].any()
    assert not mask[np.abs(w) > np.pi - 2.1 * spacing].any()
    assert mask.sum() > 0


def test_grid_masks_match_the_frequency_formulas():
    # the interior mask is index arithmetic; it must agree with the same
    # rule written on the frequencies, with the bin spacing taken as the
    # median gap, for every even segment length the grid admits up to 8192
    for L in range(16, 8193, 2):
        grid = FrequencyGrid.welch_bins(L)
        w = 2.0 * np.pi * np.arange(L // 2 + 1) / L
        assert grid.frequencies.tobytes() == w.tobytes()
        margin = spectral.BAND_EDGE_BINS * float(np.median(np.diff(w))) + 1e-12
        interior = (w > margin) & (w < np.pi - margin)
        assert np.array_equal(grid.interior_mask(), interior), L


# ---------------------------------------------------------------------------
# Welch estimation

def test_white_noise_diagonal_flat():
    panel = white_panel(sigma=2.0)
    params = FrequencyGrid(segment_length=128)
    s = estimate_cpsd(panel, params)
    diag = s.values[:, range(3), range(3)].real
    assert np.abs(diag.mean() - 4.0) < 0.15
    # off-diagonal is zero up to estimation noise ~ sigma^2/sqrt(segments)
    noise = 4.0 / np.sqrt(params.segment_count(panel.n_samples))
    assert np.abs(s.values[:, 0, 1]).mean() < 2 * noise


def test_autospectrum_real_nonnegative():
    s = estimate_cpsd(white_panel(), FrequencyGrid(segment_length=128))
    for i in range(s.n_nodes):
        e = s.entry(i, i)
        assert np.abs(e.imag).max() < 1e-12
        assert e.real.min() >= 0


def test_hermitian_by_construction():
    s = estimate_cpsd(white_panel(), FrequencyGrid(segment_length=128))
    gap = np.linalg.norm(s.values - np.conj(np.swapaxes(s.values, 1, 2)), axis=(1, 2))
    assert np.max(gap / np.linalg.norm(s.values, axis=(1, 2))) < 1e-14


def test_conjugate_symmetry_across_zero():
    # the two-sided estimate holds the stored half at omega >= 0 and its
    # conjugate at -omega, so the half grid loses nothing
    panel = white_panel(n=2, t=30_000, seed=11)
    L = 128
    mine = estimate_cpsd(panel, FrequencyGrid(segment_length=L)).entry(0, 1)
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
    assert_matches_scipy_csd(256)


def test_matches_scipy_csd_at_an_even_length_not_a_power_of_two():
    # the grid takes any even L >= 16; only a config insists on a power of two
    assert_matches_scipy_csd(96)


def assert_matches_scipy_csd(L):
    panel = white_panel(n=2, t=30_000, seed=11)
    mine = estimate_cpsd(panel, FrequencyGrid(segment_length=L))
    assert mine.grid == FrequencyGrid(L)
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
        pxy / multiplicity(mine.grid), mine.entry(0, 1), rtol=0, atol=1e-12
    )


def two_step_demeaned(data):
    """`data` less its row means, taken in two steps so that the reference
    does not round the mean: first subtract a sample, which is exact while
    a row stays within a factor of two of it, then the `math.fsum` mean."""
    x = data - data[:, :1]
    return x - np.array([[math.fsum(row) / row.size] for row in x])


@pytest.mark.parametrize("scale", [1.0, 1e3, 1e6], ids=["offset-1", "offset-1e3", "offset-1e6"])
def test_matches_scipy_csd_across_chunks(scale):
    # at n=3, L=4096 the ~4 MB workspace bound gives chunks of 42
    # segments; 800 segments make 19 full chunks and one partial chunk
    n, L = 3, 4096
    params = FrequencyGrid(segment_length=L)
    t = L + 799 * params.hop
    assert params.segment_count(t) == 800
    panel = white_panel(n=n, t=t, seed=13)
    offset = scale * np.array([[-3.0], [0.5], [7.0]])  # one mean per record, not per chunk
    panel = TimeSeriesPanel(panel.data + offset, panel.labels)
    mine = estimate_cpsd(panel, params)
    x = two_step_demeaned(panel.data)
    tol = 1e-12 * np.abs(mine.values).max()
    for i in range(n):
        for j in range(i, n):
            _, pxy = csd(
                x[j], x[i], fs=1.0, window="hann", nperseg=L, noverlap=L // 2,
                detrend=False, return_onesided=True, scaling="density",
            )
            np.testing.assert_allclose(
                pxy / multiplicity(mine.grid), mine.entry(i, j), rtol=0, atol=tol
            )


def serial_chunk_loop(panel, params, shift):
    """The Welch sum on one thread, of segments less `shift`, one value per
    channel: same chunks, same bin-major operands."""
    n, t = panel.data.shape
    L, bins = params.segment_length, params.segment_length // 2 + 1
    n_seg = params.segment_count(t)
    segments = sliding_window_view(panel.data, L, axis=1)[:, ::params.hop]
    chunk = max(8, spectral.WORKSPACE // (n * bins))
    acc = np.zeros((bins, n, n), dtype=np.complex128)
    for lo in range(0, n_seg, chunk):
        seg = segments[:, lo:lo + chunk] - shift[:, None, None]
        seg *= params.window
        F = np.ascontiguousarray(np.fft.rfft(seg, axis=-1).transpose(2, 0, 1))
        acc += F @ np.conj(F).transpose(0, 2, 1)
    acc *= 1.0 / (n_seg * np.sum(params.window**2))
    return acc, chunk


@pytest.mark.parametrize(
    "n, L, n_seg, chunks",
    [
        (2, 64, 155, [155]),  # one chunk
        (7, 4096, 37, [18, 18, 1]),  # a one-segment last chunk leaves one half empty
        (3, 2048, 125, [85, 40]),  # an odd segment count in a chunk
        (7, 1024, 164, [73, 73, 18]),  # the chain7 benchmark's shape, whose last chunk is 18
        # halves of 4 (then 2 and 3) segments in tiles of 3, 8193 bins in groups of 3276
        (5, 16384, 13, [8, 5]),
    ],
    ids=["one-chunk", "one-segment-tail", "odd-chunk", "benchmark-shape", "ragged-tiles"],
)
def test_estimate_cpsd_matches_serial_chunk_loop(n, L, n_seg, chunks):
    params = FrequencyGrid(segment_length=L)
    t = L + (n_seg - 1) * params.hop
    panel = white_panel(n=n, t=t, seed=n)
    # a constant shift moves bins 0 and 1 only: the bins above see the same
    # operands as segments less the first segment's mean, and bins 0 and 1,
    # once corrected, match segments less the channel mean to rounding
    ref, chunk = serial_chunk_loop(panel, params, panel.data[:, :L].mean(axis=1))
    demeaned, _ = serial_chunk_loop(panel, params, panel.data.mean(axis=1))
    assert [min(chunk, n_seg - lo) for lo in range(0, n_seg, chunk)] == chunks
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # hand the interpreter lock between workers often
    try:
        mine, again = (estimate_cpsd(panel, params).values for _ in range(2))
    finally:
        sys.setswitchinterval(interval)
    assert mine.tobytes() == again.tobytes()
    assert np.array_equal(mine[2:], ref[2:])
    np.testing.assert_allclose(
        mine[:2], demeaned[:2], rtol=0, atol=1e-14 * np.abs(demeaned).max()
    )


def test_estimate_cpsd_keeps_one_chunk_workspace():
    # F (bins, n, chunk) is the only chunk-sized buffer; beside it sit two
    # threads' 2 MiB segment tiles and 1 MiB sample spans and the 2 MiB
    # conjugated group of bins. A segment copy of the chunk or a conjugated
    # copy of F would each add as much as F again
    n, L = 7, 1024
    params = FrequencyGrid(segment_length=L)
    bins = L // 2 + 1
    chunk = spectral.WORKSPACE // (n * bins)
    panel = white_panel(n=n, t=L + 2 * chunk * params.hop, seed=7)
    assert params.segment_count(panel.data.shape[1]) > chunk
    tracemalloc.start()
    try:
        estimate_cpsd(panel, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    f_bytes = bins * n * chunk * np.dtype(np.complex128).itemsize
    assert peak < f_bytes + 5 * 2**21


def test_estimate_cpsd_reads_its_source_once(tmp_path, monkeypatch):
    # at the chain7 shape, one pass reads every sample once, plus the first
    # segment for the shift, the tail from the last segment's second half
    # on and one hop per tile; a second pass would double the bytes read
    n, L = 7, 1024
    params = FrequencyGrid(segment_length=L)
    panel = white_panel(n=n, t=L + 163 * params.hop, seed=7)
    fill, read = PanelReader._fill, []

    def counted(self, out, i, lo):
        read.append(out.nbytes)
        fill(self, out, i, lo)

    monkeypatch.setattr(PanelReader, "_fill", counted)
    with PanelReader(save_panel(panel, tmp_path / "panel.bin")) as reader:
        s = estimate_cpsd(reader, params)
    assert sum(read) <= 1.1 * panel.data.nbytes
    assert s.values.tobytes() == estimate_cpsd(panel, params).values.tobytes()


def test_estimate_cpsd_joins_its_threads_and_checks_before_starting(monkeypatch):
    before = threading.active_count()
    estimate_cpsd(white_panel(t=20_000), FrequencyGrid(segment_length=128))
    assert threading.active_count() == before

    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool started before the input check")

    monkeypatch.setattr(spectral, "ThreadPoolExecutor", no_pool)
    with pytest.raises(DataError, match="need >= 8"):
        estimate_cpsd(white_panel(t=900), FrequencyGrid(segment_length=256))


@pytest.mark.parametrize("L", [16, 256, 1024, 4096])
def test_welch_window_is_scipy_hann_bit_for_bit(L):
    assert FrequencyGrid(segment_length=L).window.tobytes() == get_window("hann", L).tobytes()


def test_too_short_panel_rejected():
    with pytest.raises(DataError):
        estimate_cpsd(white_panel(t=900), FrequencyGrid(segment_length=256))


def test_estimate_tracks_analytic_psd():
    model = chain3_model()
    panel = simulate(model, 200_000, seed=21)
    est = estimate_cpsd(panel, FrequencyGrid(segment_length=256))
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
        est = estimate_cpsd(panel, FrequencyGrid(segment_length=seg))
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


def _stack_with_conditions(rng, n, conditions):
    """One Hermitian bin per condition number: eigenvalue magnitudes from 1
    down to 1/cond, with random signs, so many bins are indefinite."""
    vals = np.empty((len(conditions), n, n), dtype=complex)
    for f, cond in enumerate(conditions):
        signs = rng.choice([-1.0, 1.0], size=n)
        vals[f] = _hermitian_with_eigenvalues(rng, signs * np.geomspace(1.0, 1.0 / cond, n))
    return vals


@pytest.mark.parametrize("n", [4, 12])
@pytest.mark.parametrize("case", ["spread", "flagged-input", "singular"])
def test_inverse_matches_eigvalsh_everywhere_reference(monkeypatch, case, n):
    # the norm bound may only spare eigvalsh where it cannot change a flag:
    # flags and inverse bytes match eigvalsh on every bin, on conditions
    # from 1e9 to 1e15 and right at the cap and at half of it
    rng = np.random.default_rng(n)
    grid = FrequencyGrid.welch_bins(62)
    conditions = np.geomspace(1e9, 1e15, grid.size)
    conditions[[3, 8, 13, 18]] = [
        COND_CAP * (1 - 1e-3), COND_CAP * (1 + 1e-3), COND_CAP / 2 * (1 - 1e-3), COND_CAP / 2 * (1 + 1e-3),
    ]
    vals = _stack_with_conditions(rng, n, conditions)
    flagged = np.zeros(grid.size, dtype=bool)
    if case == "flagged-input":
        flagged[[0, 8, 20]] = True
    if case == "singular":  # stops the stacked inversion: every bin gets eigvalsh
        vals[5] = np.diag(np.arange(n, dtype=float))
    s = SpectralMatrix(grid, vals, [str(i) for i in range(n)], flagged)
    expected, expected_flags = reference_inverse(s)
    seen = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: seen.append(len(a)) or eigvalsh(a))
    inv = s.inverse
    np.testing.assert_array_equal(inv.flagged, expected_flags)
    assert inv.values.tobytes() == expected.tobytes()
    assert 0 < expected_flags.sum() < grid.size
    assert len(seen) == 1
    assert seen[0] == grid.size if case == "singular" else 0 < seen[0] < grid.size


def test_inverse_of_a_nan_bin_raises_like_the_reference():
    # eigvalsh does not converge on a bin holding a NaN; the inverse refuses
    # the bin by name before it gets there
    rng = np.random.default_rng(3)
    grid = FrequencyGrid.welch_bins(30)
    vals = _stack_with_conditions(rng, 4, np.geomspace(1e2, 1e14, grid.size))
    vals[6, 0, 1] = np.nan
    s = SpectralMatrix(grid, vals, ["a", "b", "c", "d"])
    with pytest.raises(np.linalg.LinAlgError):
        reference_inverse(s)
    with pytest.raises(DataError, match="first at bin 6"):
        s.inverse


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_inverse_ignores_what_a_flagged_bin_holds(bad):
    # a flagged bin is excluded, so a non-finite value there changes nothing
    rng = np.random.default_rng(4)
    grid = FrequencyGrid.welch_bins(30)
    vals = _stack_with_conditions(rng, 4, np.geomspace(1e2, 1e14, grid.size))
    flagged = np.zeros(grid.size, dtype=bool)
    flagged[[6, 9]] = True
    expected = SpectralMatrix(grid, vals.copy(), list("abcd"), flagged).inverse
    vals[6, 0, 1] = bad
    vals[9] = bad
    inv = SpectralMatrix(grid, vals, list("abcd"), flagged).inverse
    assert inv.values.tobytes() == expected.values.tobytes()
    np.testing.assert_array_equal(inv.flagged, expected.flagged)


def test_eigvalsh_sees_exactly_the_undecided_bins(monkeypatch):
    # for Hermitian M, cond <= ||M||_1 ||M^-1||_1 <= n cond: bins with cond
    # <= 1e6 are decided by the bound, bins with cond >= 0.6 COND_CAP are not
    rng = np.random.default_rng(17)
    grid = FrequencyGrid.welch_bins(62)
    undecided = rng.random(grid.size) < 0.5
    conditions = np.where(
        undecided,
        rng.uniform(0.6, 1000.0, grid.size) * COND_CAP,
        10.0 ** rng.uniform(0.0, 6.0, grid.size),
    )
    vals = _stack_with_conditions(rng, 6, conditions)
    seen = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: seen.append(a.copy()) or eigvalsh(a))
    inv = SpectralMatrix(grid, vals, list("abcdef")).inverse
    assert len(seen) == 1
    np.testing.assert_array_equal(seen[0], spectral.hermitize(vals.copy())[undecided])
    np.testing.assert_array_equal(inv.flagged, undecided & (conditions > COND_CAP))


def test_inverse_is_computed_once_per_spectrum():
    s = analytic_psd(chain3_model(), FrequencyGrid.welch_bins(32))
    inv = invert_spectrum(s)
    assert invert_spectrum(s) is inv
    assert s.inverse is inv


def test_inverted_spectrum_is_read_only():
    # the cached inverse would go stale if the spectrum could change under it
    s = analytic_psd(chain3_model(), FrequencyGrid.welch_bins(32))
    s.values[0, 0, 0] += 1.0  # writable until first inverted
    inv = invert_spectrum(s)
    for arr in (s.values, s.flagged, inv.values, inv.flagged):
        with pytest.raises(ValueError):
            arr[0] = arr[1]


def test_rebuilt_spectrum_gets_its_own_inverse():
    grid = FrequencyGrid.welch_bins(32)
    s = analytic_psd(chain3_model(), grid)
    inv = invert_spectrum(s)
    pre = np.zeros(grid.size, dtype=bool)
    pre[[3, 7]] = True
    rebuilt = SpectralMatrix(grid, s.values, s.labels, pre)
    assert rebuilt.values is s.values
    rinv = invert_spectrum(rebuilt)
    assert rinv is not inv
    np.testing.assert_array_equal(rinv.flagged, pre)
    assert not inv.flagged.any()
    ok = ~pre
    np.testing.assert_array_equal(rinv.values[ok], inv.values[ok])
    assert np.isnan(rinv.values[pre]).all()


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
    oracle = invert_spectrum(submatrix(psd, obs)).values
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
        dense = invert_spectrum(submatrix(psd, obs))
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
    s = estimate_cpsd(white_panel(t=20_000), FrequencyGrid(segment_length=128))
    path = tmp_path / "s.rtsm"
    save_spectra_binary(s, path)
    back = load_spectra_binary(path)
    assert back.labels == s.labels
    assert np.array_equal(back.values, s.values)
    assert np.array_equal(back.grid.frequencies, s.grid.frequencies)


def test_spectra_binary_refuses_non_finite_unflagged_bins(tmp_path):
    s = estimate_cpsd(white_panel(t=20_000), FrequencyGrid(segment_length=128))
    values = s.values.copy()
    values[3, 0, 1] = np.inf
    values[9, 1, 1] = np.nan
    flagged = np.zeros(s.grid.size, dtype=bool)
    flagged[3] = True
    path = tmp_path / "s.rtsm"
    save_spectra_binary(SpectralMatrix(s.grid, values, s.labels, flagged), path)
    with pytest.raises(DataError, match="1 unflagged frequencies .first at bin 9"):
        load_spectra_binary(path)
    flagged[9] = True
    save_spectra_binary(SpectralMatrix(s.grid, values, s.labels, flagged), path)
    assert np.array_equal(load_spectra_binary(path).flagged, flagged)
