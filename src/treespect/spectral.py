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
from .panel import PanelReader, TimeSeriesPanel, expect_payload, read_exact, read_labels

SPECTRA_MAGIC = b"RTSM"
BAND_EDGE_BINS = 2  # bins this many spacings from omega = 0 or pi are not interior
COND_CAP = 1e12  # inversion flags a bin whose 2-norm condition number exceeds this
WORKSPACE = 2**22  # complex entries of the Welch workspace F, ~64 MB


@dataclass(frozen=True)
class FrequencyGrid:
    """Strictly increasing angular frequencies in [0, pi], one half of a
    spectrum whose other half, at -omega, is the conjugate."""

    frequencies: np.ndarray

    def __post_init__(self):
        freqs = np.asarray(self.frequencies, dtype=np.float64)
        object.__setattr__(self, "frequencies", freqs)
        if freqs.ndim != 1 or freqs.size < 8:
            raise DataError("frequency grid needs at least 8 points")
        if np.any(np.diff(freqs) <= 0):
            raise DataError("frequencies must be strictly increasing")
        if freqs[0] < -1e-12 or freqs[-1] > np.pi + 1e-12:
            raise DataError("frequencies must lie in [0, pi]")

    @classmethod
    def welch_bins(cls, segment_length: int) -> "FrequencyGrid":
        """DFT bin frequencies 2 pi k / L, k = 0..L/2, of a length-L segment."""
        if segment_length < 16 or segment_length % 2:
            raise DataError("segment length must be even and >= 16")
        k = np.arange(segment_length // 2 + 1)
        return cls(2.0 * np.pi * k / segment_length)

    @property
    def size(self) -> int:
        return self.frequencies.size

    @property
    def spacing(self) -> float:
        return float(np.median(np.diff(self.frequencies)))

    @property
    def multiplicity(self) -> np.ndarray:
        """How often each bin occurs in the two-sided spectrum on (-pi, pi]:
        once at omega = 0 and omega = pi, twice (as +-omega) elsewhere."""
        w = self.frequencies
        return np.where((w < 1e-12) | (w > np.pi - 1e-12), 1, 2)

    def interior_mask(self) -> np.ndarray:
        """True more than `BAND_EDGE_BINS` spacings away from omega = 0 and
        omega = pi, where real-valued data pins the phase and phase tests
        lose power."""
        margin = BAND_EDGE_BINS * self.spacing + 1e-12
        w = self.frequencies
        return (w > margin) & (w < np.pi - margin)

    def close_to(self, other: "FrequencyGrid") -> bool:
        return self.size == other.size and np.allclose(
            self.frequencies, other.frequencies, atol=1e-12
        )


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

    def submatrix(self, indices: Sequence[int]) -> "SpectralMatrix":
        idx = list(indices)
        vals = self.values[:, idx, :][:, :, idx]
        return SpectralMatrix(
            self.grid, vals, [self.labels[i] for i in idx], self.flagged.copy()
        )

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
        are replaced by the identity before inverting.  Once inverted, this
        spectrum's `values` and `flagged` and those of the inverse are
        read-only, so the shared inverse cannot go stale.
        """
        mats = hermitize(self.values.copy())
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


@dataclass(frozen=True)
class WelchParams:
    """Welch segment length L; segments are Hann-windowed and overlap by
    50 %, so `hop` is L/2."""

    segment_length: int = 1024

    def __post_init__(self):
        L = self.segment_length
        if isinstance(L, bool) or not isinstance(L, int) or L < 16 or (L & (L - 1)) != 0:
            raise DataError(f"segment_length must be a power of two >= 16, got {L!r}")

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


def estimate_cpsd(source: TimeSeriesPanel | PanelReader, params: WelchParams) -> SpectralMatrix:
    """Welch-averaged cross power spectral density for all channel pairs of
    `source`, an in-memory panel or a panel file open for reading.

    Segments are strided views of the samples, demeaned and windowed one
    chunk at a time, transformed once per channel, and averaged as per-bin
    outer products F_k F_k^H, so the estimate is Hermitian by construction.
    The real FFT gives bins k = 0..L/2, which is the whole spectrum: the
    bins at -omega are the conjugates.

    The channel means come first, one row at a time; a file source is read
    row by row for them, into F's memory if a row fits there, so the mean
    pass holds at most one row of its own.  Then two threads
    demean, window and transform half of each chunk's segments each, a tile
    of a few segments at a time: each reads the tile's sample span (a view
    of an in-memory panel, a read of a file into a ~2 MB buffer of its own)
    and writes the real FFT straight into a bin-major workspace F of shape
    (L/2+1, N, chunk) through a ~2 MB scratch buffer. The main thread then
    conjugates a ~2 MB group of F's bins at a time into a small buffer
    and adds F_k conj(F_k)^T into the accumulator; with the segment axis
    contiguous, that product is one BLAS call per bin. F is the only
    chunk-sized workspace and is allocated once per call; the tiles and
    the group stay in cache. The chunk length depends only on N and L,
    and the chunks are summed in order, so every FFT line and every bin's
    product sees the same operands as a serial loop would, and the
    estimate depends neither on how the work is split nor on where the
    samples come from.
    """
    n, t = source.n_channels, source.n_samples
    L, hop = params.segment_length, params.hop
    n_seg = params.segment_count(t)
    if n_seg < 8:
        raise DataError(
            f"{t} samples give {n_seg} Welch segments of length {L}; need >= 8"
        )
    window = params.window
    scale = 1.0 / (n_seg * np.sum(window**2))
    bins = L // 2 + 1
    acc = np.zeros((bins, n, n), dtype=np.complex128)
    # bound F to ~64 MB regardless of trajectory length; tiles and groups to ~2 MB
    chunk = max(8, WORKSPACE // (n * bins))
    width = min(chunk, n_seg)
    tile = min(width, max(1, 2**18 // (n * L)))
    group = min(bins, max(1, 2**17 // (n * width)))
    F = np.empty((bins, n, width), dtype=np.complex128)
    g = np.empty((group, n, width), dtype=np.complex128)
    # a file's rows are read into F's memory when they fit: a freed row
    # buffer under malloc's mmap threshold would stay resident beside F
    room = F.view(np.float64).reshape(-1)
    room = room if room.size >= t else None
    mean = np.array([source.row(i, out=room).mean() for i in range(n)])[:, None, None]

    def transform(lo, a, b):
        seg = np.empty((n, tile, L))
        span = np.empty((n, (tile + 1) * hop))
        for c in range(a, b, tile):
            d = min(c + tile, b)
            start = (lo + c) * hop
            samples = source.read(start, start + (d - c + 1) * hop, span)
            x = seg[:, :d - c]
            np.subtract(sliding_window_view(samples, L, axis=1)[:, ::hop], mean, out=x)
            x *= window
            np.fft.rfft(x, axis=-1, out=F[:, :, c:d].transpose(1, 2, 0))

    with ThreadPoolExecutor(max_workers=2) as pool:
        for lo in range(0, n_seg, chunk):
            m = min(chunk, n_seg - lo)
            list(pool.map(transform, (lo, lo), (0, m // 2), (m // 2, m)))
            for k0 in range(0, bins, group):
                k1 = min(k0 + group, bins)
                h = g[:k1 - k0, :, :m]
                np.conjugate(F[k0:k1, :, :m], out=h)
                acc[k0:k1] += F[k0:k1, :, :m] @ h.transpose(0, 2, 1)
    acc *= scale
    return SpectralMatrix(FrequencyGrid.welch_bins(L), acc, source.labels)


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
        labels = read_labels(fh, blob_len, path)
        expect_payload(fh, f * (9 + 16 * n * n), path)
        freqs = np.frombuffer(read_exact(fh, f * 8, path), dtype="<f8")
        flagged = np.frombuffer(read_exact(fh, f, path), dtype="u1").astype(bool)
        values = np.frombuffer(read_exact(fh, f * n * n * 16, path), dtype="<c16")
        values = values.reshape(f, n, n)
    bad = ~flagged & ~np.isfinite(values).all(axis=(1, 2))
    if bad.any():
        raise DataError(
            f"{path}: non-finite values at {int(bad.sum())} unflagged frequencies "
            f"(first at bin {int(np.argmax(bad))})"
        )
    return SpectralMatrix(FrequencyGrid(freqs.copy()), values.copy(), labels, flagged)

