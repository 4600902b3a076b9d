"""Frequency grids, spectral matrices, Welch cross-PSD estimation and
per-frequency matrix inversion.

Conventions: unit sample interval, angular frequencies in (-pi, pi], and
cross-spectra defined as the transform of E[x_i[n+k] x_j[n]] so that the
matrix at each frequency is Hermitian and, for a stable system, positive
definite.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy.signal import get_window

from .errors import DataError, NumericalError
from .panel import TimeSeriesPanel

SPECTRA_MAGIC = b"RTSM"


@dataclass(frozen=True)
class FrequencyGrid:
    """Strictly increasing angular frequencies in (-pi, pi]."""

    frequencies: np.ndarray
    symmetric: bool = True

    def __post_init__(self):
        freqs = np.asarray(self.frequencies, dtype=np.float64)
        object.__setattr__(self, "frequencies", freqs)
        if freqs.ndim != 1 or freqs.size < 8:
            raise DataError("frequency grid needs at least 8 points")
        if np.any(np.diff(freqs) <= 0):
            raise DataError("frequencies must be strictly increasing")
        if freqs[0] <= -np.pi - 1e-12 or freqs[-1] > np.pi + 1e-12:
            raise DataError("frequencies must lie in (-pi, pi]")
        if self.symmetric:
            interior = freqs[(np.abs(freqs) > 1e-12) & (freqs < np.pi - 1e-12)]
            have = set(np.round(freqs, 12))
            if any(round(-w, 12) not in have for w in interior):
                raise DataError("grid marked symmetric but not closed under negation")

    @classmethod
    def welch_bins(cls, segment_length: int) -> "FrequencyGrid":
        """DFT bin frequencies of a length-L segment, mapped into (-pi, pi]."""
        if segment_length < 16 or segment_length % 2:
            raise DataError("segment length must be even and >= 16")
        half = segment_length // 2
        k = np.arange(-(half - 1), half + 1)
        return cls(2.0 * np.pi * k / segment_length)

    @property
    def size(self) -> int:
        return self.frequencies.size

    @property
    def spacing(self) -> float:
        return float(np.median(np.diff(self.frequencies)))

    def interior_mask(self, edge_bins: int = 2) -> np.ndarray:
        """True away from omega = 0 and omega = +-pi, where real-valued data
        pins the phase and phase tests lose power."""
        margin = edge_bins * self.spacing + 1e-12
        w = np.abs(self.frequencies)
        return (w > margin) & (w < np.pi - margin)

    def close_to(self, other: "FrequencyGrid") -> bool:
        return self.size == other.size and np.allclose(
            self.frequencies, other.frequencies, atol=1e-12
        )


@dataclass(frozen=True)
class SpectralMatrix:
    """Per-frequency N x N complex matrix field over a grid.

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

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise DataError(f"no node labelled {label!r}") from None

    def submatrix(self, indices: Sequence[int]) -> "SpectralMatrix":
        idx = list(indices)
        vals = self.values[:, idx, :][:, :, idx]
        return SpectralMatrix(
            self.grid, vals, [self.labels[i] for i in idx], self.flagged.copy()
        )

    def hermitian_error(self) -> float:
        """Max over frequencies of ||M - M*||_F / ||M||_F."""
        diff = np.linalg.norm(self.values - np.conj(np.swapaxes(self.values, 1, 2)), axis=(1, 2))
        norm = np.linalg.norm(self.values, axis=(1, 2))
        return float(np.max(diff / np.maximum(norm, 1e-300)))


@dataclass(frozen=True)
class WelchParams:
    """Averaged-periodogram settings for cross-spectral estimation."""

    segment_length: int = 1024
    overlap_fraction: float = 0.5
    window: str = "hann"

    def __post_init__(self):
        L = self.segment_length
        if L < 16 or (L & (L - 1)) != 0:
            raise DataError("segment_length must be a power of two >= 16")
        if not 0.0 <= self.overlap_fraction < 1.0:
            raise DataError("overlap_fraction must be in [0, 1)")

    @property
    def hop(self) -> int:
        h = int(round(self.segment_length * (1.0 - self.overlap_fraction)))
        return max(1, h)

    def segment_count(self, n_samples: int) -> int:
        if n_samples < self.segment_length:
            return 0
        return 1 + (n_samples - self.segment_length) // self.hop


def estimate_cpsd(panel: TimeSeriesPanel, params: WelchParams) -> SpectralMatrix:
    """Welch-averaged cross power spectral density for all channel pairs.

    Segments are windowed, transformed once per channel, and averaged as
    outer products, so the estimate is Hermitian by construction.  Output
    lives on the symmetric DFT-bin grid of the segment length.
    """
    n, t = panel.data.shape
    L = params.segment_length
    n_seg = params.segment_count(t)
    if n_seg < 8:
        raise DataError(
            f"{t} samples give {n_seg} Welch segments of length {L}; need >= 8"
        )
    window = get_window(params.window, L, fftbins=True).astype(np.float64)
    scale = 1.0 / (n_seg * np.sum(window**2))
    x = panel.data - panel.data.mean(axis=1, keepdims=True)

    half = L // 2
    acc = np.zeros((n, n, half + 1), dtype=np.complex128)
    # bound the FFT workspace to ~64 MB regardless of trajectory length
    chunk = max(8, int(2**22 / max(1, n * (half + 1))))
    starts = np.arange(n_seg) * params.hop
    for lo in range(0, n_seg, chunk):
        sel = starts[lo:lo + chunk]
        seg = x[:, sel[:, None] + np.arange(L)] * window
        F = np.fft.rfft(seg, axis=-1)
        acc += np.einsum("isk,jsk->ijk", F, np.conj(F))
    acc *= scale

    grid = FrequencyGrid.welch_bins(L)
    values = np.empty((L, n, n), dtype=np.complex128)
    # grid order: k = -(L/2-1) .. L/2 ; negative bins are conjugate mirrors
    values[half - 1:] = np.moveaxis(acc, 2, 0)
    values[:half - 1] = np.conj(np.moveaxis(acc[:, :, 1:half][:, :, ::-1], 2, 0))
    return SpectralMatrix(grid, values, panel.labels)


def invert_spectrum(
    s: SpectralMatrix, ridge: float = 0.0, cond_cap: float = 1e12
) -> SpectralMatrix:
    """Per-frequency inverse of (M + ridge*I), Hermitized on both sides.

    Frequencies whose condition number exceeds `cond_cap` are flagged and
    excluded from downstream decision rules rather than aborting the run.
    The singular values of a Hermitian matrix are its eigenvalue
    magnitudes, so the 2-norm condition number comes from `eigvalsh`
    instead of an SVD.
    """
    if ridge < 0:
        raise DataError("ridge must be nonnegative")
    n = s.n_nodes
    mats = 0.5 * (s.values + np.conj(np.swapaxes(s.values, 1, 2)))
    mats += ridge * np.eye(n)
    lam = np.abs(np.linalg.eigvalsh(mats))
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = lam.max(axis=1) / lam.min(axis=1)
    flagged = s.flagged | ~np.isfinite(cond) | (cond > cond_cap)
    if flagged.all():
        raise NumericalError("all frequencies singular beyond ridge repair")
    mats[flagged] = np.eye(n)
    inv = np.linalg.inv(mats)
    inv = 0.5 * (inv + np.conj(np.swapaxes(inv, 1, 2)))
    inv[flagged] = np.nan
    return SpectralMatrix(s.grid, inv, s.labels, flagged)


def auto_ridge(s: SpectralMatrix) -> float:
    """Tiny Tikhonov level for ill-conditioned estimates."""
    diag = np.abs(s.values[:, range(s.n_nodes), range(s.n_nodes)])
    return 1e-10 * float(np.median(diag))


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
        f, n, blob_len = struct.unpack("<QQI", fh.read(20))
        labels = json.loads(fh.read(blob_len).decode())
        freqs = np.frombuffer(fh.read(f * 8), dtype="<f8")
        flagged = np.frombuffer(fh.read(f), dtype="u1").astype(bool)
        values = np.frombuffer(fh.read(f * n * n * 16), dtype="<c16").reshape(f, n, n)
    return SpectralMatrix(FrequencyGrid(freqs.copy()), values.copy(), labels, flagged)


def save_spectra_csv(s: SpectralMatrix, path: str | Path) -> None:
    """Long format: omega, node_i, node_j, re, im (upper triangle + diagonal)."""
    with Path(path).open("w") as fh:
        fh.write("omega,node_i,node_j,re,im\n")
        for fi, w in enumerate(s.grid.frequencies):
            for i in range(s.n_nodes):
                for j in range(i, s.n_nodes):
                    v = s.values[fi, i, j]
                    fh.write(
                        f"{float(w)!r},{s.labels[i]},{s.labels[j]},"
                        f"{float(v.real)!r},{float(v.imag)!r}\n"
                    )


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
