"""Frequency grids, spectral matrices, Welch cross-PSD estimation and
per-frequency matrix inversion.

Conventions: unit sample interval, and cross-spectra defined as the
transform of E[x_i[n+k] x_j[n]] so that the matrix at each frequency is
Hermitian and, for a stable system, positive definite.  The processes are
real-valued, so the matrix at -omega is the conjugate of the one at omega:
a spectrum is stored once, on angular frequencies in [0, pi], and its
negative half is implied.
"""

from __future__ import annotations

import json
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DataError, NumericalError
from .panel import (
    PanelReader, TimeSeriesPanel, check_layout, expect_payload, read_exact, read_labels
)

SPECTRA_MAGIC = b"RTSM"
BAND_EDGE_BINS = 2  # bins this many spacings from omega = 0 or pi are not interior
COND_CAP = 1e12  # inversion flags a bin whose 2-norm condition number exceeds this
WORKSPACE = 2**18  # complex entries of the Welch workspace F, ~4 MB
MIN_WELCH_SEGMENTS = 8  # fewest segments a Welch estimate averages


@dataclass(frozen=True)
class FrequencyGrid:
    """The DFT bins k = 0..L/2 of a Hann-windowed Welch segment of length L,
    which overlaps the next by half (`hop` = L/2), at angular frequencies
    2 pi k / L in [0, pi]: one half of a spectrum whose other half, at
    -omega, is the conjugate.  Two grids are equal when their L are."""

    segment_length: int

    def __post_init__(self):
        L = self.segment_length
        if isinstance(L, bool) or not isinstance(L, (int, np.integer)) or L < 16 or L % 2:
            raise DataError(f"segment length must be an even integer >= 16, got {L!r}")

    @classmethod
    def welch_bins(cls, segment_length: int) -> "FrequencyGrid":
        """The bins of the Welch segment length `segment_length`."""
        return cls(segment_length)

    @property
    def size(self) -> int:
        return self.segment_length // 2 + 1

    @property
    def hop(self) -> int:
        return self.segment_length // 2

    @property
    def window(self) -> np.ndarray:
        """The periodic Hann taper of length L (scipy's `get_window("hann", L)`)."""
        L = self.segment_length
        return 0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, L + 1)[:-1])

    def segment_count(self, n_samples: int) -> int:
        if n_samples < self.segment_length:
            return 0
        return 1 + (n_samples - self.segment_length) // self.hop

    @cached_property
    def frequencies(self) -> np.ndarray:
        w = 2.0 * np.pi * np.arange(self.size) / self.segment_length
        w.flags.writeable = False
        return w

    def interior_mask(self) -> np.ndarray:
        """True more than `BAND_EDGE_BINS` bins away from omega = 0 and
        omega = pi, where real-valued data pins the phase and phase tests
        lose power."""
        k = np.arange(self.size)
        return (k > BAND_EDGE_BINS) & (k < self.size - 1 - BAND_EDGE_BINS)


@dataclass(frozen=True)
class SpectralMatrix:
    """Per-frequency N x N complex matrix field over a half grid; the
    matrix at -omega is the conjugate of the one at omega.

    `flagged` marks frequencies that downstream decisions must skip
    (e.g. inversion exceeded the conditioning cap there).
    """

    grid: FrequencyGrid
    values: np.ndarray
    labels: tuple[str, ...]
    flagged: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.complex128)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "labels", tuple(str(x) for x in self.labels))
        if values.ndim != 3 or values.shape[1] != values.shape[2]:
            raise DataError("values must have shape (n_freq, N, N)")
        if values.shape[0] != self.grid.size:
            raise DataError("values and grid disagree on frequency count")
        if len(self.labels) != values.shape[1]:
            raise DataError("label count does not match matrix size")
        flagged = self.flagged
        if flagged is None:
            flagged = np.zeros(self.grid.size, dtype=bool)
        flagged = np.asarray(flagged, dtype=bool)
        if flagged.shape != (self.grid.size,):
            raise DataError("flagged mask must have one entry per frequency")
        object.__setattr__(self, "flagged", flagged)

    @property
    def n_nodes(self) -> int:
        return self.values.shape[1]

    def entry(self, i: int, j: int) -> np.ndarray:
        return self.values[:, i, j]

    @cached_property
    def inverse(self) -> "SpectralMatrix":
        """Per-frequency inverse of M, Hermitized on both sides, computed
        on first access and shared by every later one.

        Frequencies whose 2-norm condition number exceeds `COND_CAP` (1e12)
        are flagged and excluded from downstream decision rules rather than
        aborting the run.  Each bin is inverted first; for Hermitian M,
        ||M||_2 <= ||M||_1, so P = ||M||_1 ||M^-1||_1 bounds the condition
        number from above, and a bin with a finite P <= COND_CAP / 2 is
        under the cap.  Only the other bins get `eigvalsh`: the singular
        values of a Hermitian matrix are its eigenvalue magnitudes, so their
        ratio is the condition number itself.  If an exactly singular bin
        stops the inversion, every bin gets `eigvalsh` and the flagged ones
        are replaced by the identity before inverting.  Bins flagged on input
        are replaced by it from the start, so they may hold anything; a
        non-finite value in any other bin is a `DataError` naming the bin.
        Once inverted, this spectrum's `values` and `flagged` and those of
        the inverse are read-only, so the shared inverse cannot go stale.
        """
        mats = self.values.copy()
        mats[self.flagged] = np.eye(self.n_nodes)
        hermitize(mats)
        try:
            inv = np.linalg.inv(mats)
        except np.linalg.LinAlgError:  # an exactly singular bin
            inv = None
            undecided = np.ones(self.grid.size, dtype=bool)
        else:
            # the computed inverse is off by about n eps cond relative, ~1e-2
            # at n = 100 near the cap: a computed P <= COND_CAP / 2 still
            # puts the condition number under the cap
            with np.errstate(over="ignore", invalid="ignore"):
                undecided = ~(_norm1(mats) * _norm1(inv) <= COND_CAP / 2)
        flagged = self.flagged.copy()
        if undecided.any():
            # a non-finite value leaves P non-finite, so its bin is undecided
            _refuse_non_finite(mats, np.flatnonzero(undecided), "spectrum")
            flagged[undecided] |= _over_cap(mats[undecided])
        if flagged.all():
            raise NumericalError("all frequencies singular")
        if inv is None:
            mats[flagged] = np.eye(self.n_nodes)
            inv = np.linalg.inv(mats)
        hermitize(inv)
        inv[flagged] = np.nan
        for a in (self.values, self.flagged, inv, flagged):
            a.flags.writeable = False
        return SpectralMatrix(self.grid, inv, self.labels, flagged)


def _refuse_non_finite(values: np.ndarray, bins: np.ndarray, source: str) -> None:
    """Raise a `DataError` if any of the unflagged frequency `bins` of
    `values` holds a non-finite entry, naming the first such bin."""
    bad = bins[~np.isfinite(values[bins]).all(axis=(1, 2))]
    if bad.size:
        raise DataError(
            f"{source}: non-finite values at {bad.size} unflagged frequencies "
            f"(first at bin {bad[0]})"
        )


def _norm1(m: np.ndarray) -> np.ndarray:
    """Per-frequency 1-norm, the largest column sum of magnitudes."""
    return np.abs(m).sum(axis=1).max(axis=1)


def _over_cap(mats: np.ndarray) -> np.ndarray:
    """Per-frequency: is the Hermitian matrix's 2-norm condition number,
    from `eigvalsh`, over `COND_CAP` or not finite?"""
    lam = np.abs(np.linalg.eigvalsh(mats))
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = lam.max(axis=1) / lam.min(axis=1)
    return ~np.isfinite(cond) | (cond > COND_CAP)


def estimate_cpsd(source: TimeSeriesPanel | PanelReader, grid: FrequencyGrid) -> SpectralMatrix:
    """Welch-averaged cross power spectral density on `grid` for all channel
    pairs of `source`, an in-memory panel or a panel file open for reading.

    Segments of the grid's length L, any even L >= 16, are strided views of
    the samples, shifted and windowed one chunk at a time, transformed once
    per channel, and averaged as per-bin outer products F_k F_k^H, so the
    estimate is Hermitian by construction. The real FFT gives the grid's
    bins k = 0..L/2, the whole spectrum. The shift is the first segment's
    channel means. A constant moves only bins 0 and 1 of a periodic-Hann
    segment, by L/2 and -L/4 times itself, so at the end those two bins are
    corrected in closed form for the channel means, from their summed
    segment transforms and the sum of the shifted samples; the shift keeps
    that correction small, so a large offset cancels in the samples.

    One forward pass reads the source once, in chunk order. Two threads
    transform half of each chunk's segments each, a tile of a few segments
    at a time: each reads the tile's sample span (a view of an in-memory
    panel, a read of a file into a ~2 MB buffer of its own) and writes the
    real FFT straight into a bin-major workspace F of shape (L/2+1, N,
    chunk) through a ~2 MB scratch buffer. The main thread then conjugates
    a ~2 MB group of F's bins at a time into a small buffer and adds F_k
    conj(F_k)^T into the accumulator; with the segment axis contiguous,
    that product is one BLAS call per bin. F, about 4 MB, is the only
    chunk-sized workspace and is allocated once per call; the tiles and the
    group stay in cache, so memory does not grow with the record. The chunk
    length depends only on N and L, and the chunks are summed in order, so
    every FFT line and every bin's product sees the same operands as a
    serial loop would, and the estimate depends neither on how the work is
    split nor on where the samples come from.
    """
    n, t = source.n_channels, source.n_samples
    L, hop = grid.segment_length, grid.hop
    n_seg = grid.segment_count(t)
    if n_seg < MIN_WELCH_SEGMENTS:
        raise DataError(
            f"{t} samples give {n_seg} Welch segments of length {L}; "
            f"need >= {MIN_WELCH_SEGMENTS}"
        )
    window = grid.window
    scale = 1.0 / (n_seg * np.sum(window**2))
    bins = L // 2 + 1
    acc = np.zeros((bins, n, n), dtype=np.complex128)
    low = np.zeros((2, n), dtype=np.complex128)  # bins 0 and 1, summed over segments
    # bound F to ~4 MB regardless of trajectory length; tiles and groups to ~2 MB
    chunk = max(8, WORKSPACE // (n * bins))
    width = min(chunk, n_seg)
    tile = min(width, max(1, 2**18 // (n * L)))
    group = min(bins, max(1, 2**17 // (n * width)))
    F = np.empty((bins, n, width), dtype=np.complex128)
    g = np.empty((group, n, width), dtype=np.complex128)
    shift = source.read(0, L).mean(axis=1, keepdims=True)

    def transform(lo, a, b):  # returns the sum of its segments' first hops, shifted
        seg = np.empty((n, tile, L))
        span = np.empty((n, (tile + 1) * hop))
        total = np.zeros(n)
        for c in range(a, b, tile):
            d = min(c + tile, b)
            start = (lo + c) * hop
            samples = source.read(start, start + (d - c + 1) * hop, span)
            x = seg[:, :d - c]
            np.subtract(sliding_window_view(samples, L, axis=1)[:, ::hop], shift[:, None], out=x)
            total += x[:, :, :hop].sum(axis=(1, 2))
            x *= window
            np.fft.rfft(x, axis=-1, out=F[:, :, c:d].transpose(1, 2, 0))
        return total

    total = np.zeros(n)
    with ThreadPoolExecutor(max_workers=2) as pool:
        for lo in range(0, n_seg, chunk):
            m = min(chunk, n_seg - lo)
            total += sum(pool.map(transform, (lo, lo), (0, m // 2), (m // 2, m)))
            low += F[:2, :, :m].sum(axis=2)
            for k0 in range(0, bins, group):
                k1 = min(k0 + group, bins)
                h = g[:k1 - k0, :, :m]
                np.conjugate(F[k0:k1, :, :m], out=h)
                acc[k0:k1] += F[k0:k1, :, :m] @ h.transpose(0, 2, 1)
    total += (source.read(n_seg * hop, t) - shift).sum(axis=1)
    delta = total / t  # the channel mean less the shift
    # a segment less delta transforms to F_k - W_k delta, W the window's DFT
    for k, m in ((0, L / 2 * delta), (1, -L / 4 * delta)):
        d = np.outer(low[k], m)
        acc[k] += n_seg * np.outer(m, m) - (d + d.conj().T)
    acc *= scale
    return SpectralMatrix(grid, acc, source.labels)


def hermitize(m: np.ndarray) -> np.ndarray:
    """(M + M^H) / 2 per frequency, in place; returns `m`."""
    m += np.conj(np.swapaxes(m, 1, 2))
    m *= 0.5
    return m


def invert_spectrum(s: SpectralMatrix) -> SpectralMatrix:
    """`s.inverse`: the per-frequency inverse, computed once per spectrum."""
    return s.inverse


def marginal_inverse_psd(inv: SpectralMatrix, observed: Sequence[int]) -> SpectralMatrix:
    """Inverse of the PSD's principal submatrix over the observed nodes.

    This marginalizes the hidden nodes out; it is not the submatrix of the
    full inverse K but its Schur complement K_oo - K_oh K_hh^-1 K_ho, one
    k x k solve per frequency for k hidden nodes.  Frequencies flagged in
    `inv` stay flagged and come out NaN.
    """
    obs = sorted(observed)
    if len(obs) < 2:
        raise DataError("need at least two observed nodes")
    hid = sorted(set(range(inv.n_nodes)) - set(obs))
    flagged = inv.flagged.copy()
    marg = inv.values[np.ix_(np.arange(inv.grid.size), obs, obs)]
    if hid:
        ok = np.flatnonzero(~flagged)
        k_hh = inv.values[np.ix_(ok, hid, hid)]
        k_ho = inv.values[np.ix_(ok, hid, obs)]
        k_oh = inv.values[np.ix_(ok, obs, hid)]
        try:
            marg[ok] -= k_oh @ np.linalg.solve(k_hh, k_ho)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"hidden block of the inverse is singular: {exc}") from exc
        hermitize(marg)
    marg[flagged] = np.nan
    return SpectralMatrix(inv.grid, marg, [inv.labels[i] for i in obs], flagged)


# ---------------------------------------------------------------------------
# file formats

def save_spectra_binary(s: SpectralMatrix, path: str | Path) -> None:
    blob = json.dumps(list(s.labels)).encode()
    with Path(path).open("wb") as fh:
        fh.write(SPECTRA_MAGIC)
        fh.write(struct.pack("<QQI", s.grid.size, s.n_nodes, len(blob)))
        fh.write(blob)
        fh.write(np.ascontiguousarray(s.grid.frequencies, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(s.flagged, dtype="u1").tobytes())
        fh.write(np.ascontiguousarray(s.values, dtype="<c16").tobytes())


def load_spectra_binary(path: str | Path) -> SpectralMatrix:
    with Path(path).open("rb") as fh:
        magic = fh.read(4)
        if magic != SPECTRA_MAGIC:
            raise DataError(f"{path}: not a spectra file (bad magic {magic!r})")
        f, n, blob_len = struct.unpack("<QQI", read_exact(fh, 20, path))
        if f < 9:
            raise DataError(f"{path}: {f} frequency bins, need >= 9")
        labels = check_layout(n, f, read_labels(fh, blob_len, path), path)
        expect_payload(fh, f * (9 + 16 * n * n), path)
        grid = FrequencyGrid.welch_bins(2 * (f - 1))
        if read_exact(fh, f * 8, path) != grid.frequencies.astype("<f8").tobytes():
            raise DataError(
                f"{path}: frequencies are not the {f} Welch bins on [0, pi] "
                f"of segment length {grid.segment_length}"
            )
        flagged = np.frombuffer(read_exact(fh, f, path), dtype="u1").astype(bool)
        values = np.frombuffer(read_exact(fh, f * n * n * 16, path), dtype="<c16")
        values = values.reshape(f, n, n)
    _refuse_non_finite(values, np.flatnonzero(~flagged), str(path))
    return SpectralMatrix(grid, values.copy(), labels, flagged)

