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
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.signal import get_window

from .errors import DataError, NumericalError
from .panel import TimeSeriesPanel, expect_payload, read_exact, read_labels

SPECTRA_MAGIC = b"RTSM"
WELCH_WINDOW = "hann"  # Welch taper; segments overlap by half, so the hop is L/2
BAND_EDGE_BINS = 2  # bins this many spacings from omega = 0 or pi are not interior
COND_CAP = 1e12  # inversion flags a bin whose 2-norm condition number exceeds this


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


@dataclass(frozen=True)
class WelchParams:
    """Welch segment length L; segments are Hann-windowed (`WELCH_WINDOW`)
    and overlap by 50 %, so `hop` is L/2."""

    segment_length: int = 1024

    def __post_init__(self):
        L = self.segment_length
        if L < 16 or (L & (L - 1)) != 0:
            raise DataError("segment_length must be a power of two >= 16")

    @property
    def hop(self) -> int:
        return self.segment_length // 2

    def segment_count(self, n_samples: int) -> int:
        if n_samples < self.segment_length:
            return 0
        return 1 + (n_samples - self.segment_length) // self.hop


def estimate_cpsd(panel: TimeSeriesPanel, params: WelchParams) -> SpectralMatrix:
    """Welch-averaged cross power spectral density for all channel pairs.

    Segments are strided views of the panel, demeaned and windowed one
    chunk at a time, transformed once per channel, and averaged as per-bin
    outer products F_k F_k^H, so the estimate is Hermitian by construction.
    The real FFT gives bins k = 0..L/2, which is the whole spectrum: the
    bins at -omega are the conjugates.
    """
    n, t = panel.data.shape
    L = params.segment_length
    n_seg = params.segment_count(t)
    if n_seg < 8:
        raise DataError(
            f"{t} samples give {n_seg} Welch segments of length {L}; need >= 8"
        )
    window = get_window(WELCH_WINDOW, L)
    scale = 1.0 / (n_seg * np.sum(window**2))
    mean = panel.data.mean(axis=1)[:, None, None]
    segments = sliding_window_view(panel.data, L, axis=1)[:, ::params.hop]

    half = L // 2
    acc = np.zeros((half + 1, n, n), dtype=np.complex128)
    # bound the FFT workspace to ~64 MB regardless of trajectory length
    chunk = max(8, int(2**22 / max(1, n * (half + 1))))
    for lo in range(0, n_seg, chunk):
        seg = segments[:, lo:lo + chunk] - mean
        seg *= window
        F = np.fft.rfft(seg, axis=-1).transpose(2, 0, 1)
        acc += F @ np.conj(F).transpose(0, 2, 1)
    acc *= scale
    return SpectralMatrix(FrequencyGrid.welch_bins(L), acc, panel.labels)


def invert_spectrum(s: SpectralMatrix) -> SpectralMatrix:
    """Per-frequency inverse of M, Hermitized on both sides.

    Frequencies whose condition number exceeds `COND_CAP` (1e12) are
    flagged and excluded from downstream decision rules rather than
    aborting the run.  The singular values of a Hermitian matrix are its
    eigenvalue magnitudes, so the 2-norm condition number comes from
    `eigvalsh` instead of an SVD.
    """
    n = s.n_nodes
    mats = 0.5 * (s.values + np.conj(np.swapaxes(s.values, 1, 2)))
    lam = np.abs(np.linalg.eigvalsh(mats))
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = lam.max(axis=1) / lam.min(axis=1)
    flagged = s.flagged | ~np.isfinite(cond) | (cond > COND_CAP)
    if flagged.all():
        raise NumericalError("all frequencies singular")
    mats[flagged] = np.eye(n)
    inv = np.linalg.inv(mats)
    inv = 0.5 * (inv + np.conj(np.swapaxes(inv, 1, 2)))
    inv[flagged] = np.nan
    return SpectralMatrix(s.grid, inv, s.labels, flagged)


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
        marg = 0.5 * (marg + np.conj(np.swapaxes(marg, 1, 2)))
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
    return SpectralMatrix(FrequencyGrid(freqs.copy()), values.copy(), labels, flagged)


def save_magnitude_phase_csv(s: SpectralMatrix, path: str | Path) -> None:
    """Plot-ready long format: omega, node_i, node_j, magnitude, phase."""
    with Path(path).open("w") as fh:
        fh.write("omega,node_i,node_j,magnitude,phase\n")
        for fi, w in enumerate(s.grid.frequencies):
            for i in range(s.n_nodes):
                for j in range(i, s.n_nodes):
                    v = s.values[fi, i, j]
                    fh.write(
                        f"{float(w)!r},{s.labels[i]},{s.labels[j]},"
                        f"{float(abs(v))!r},{float(np.angle(v))!r}\n"
                    )
