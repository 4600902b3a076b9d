"""Stochastic data-stream corruption models and their spectral signatures
(`streams.apply_corruption` applies them to a panel).

Every supported model leaves a corrupted stream u whose cross- and auto-
spectra relative to the clean stream x factor as

    Phi_ux = h(w) Phi_xx,      Phi_uu = |h(w)|^2 Phi_xx + d(w),

with d real and nonnegative.  The pair (h, d) is the corruption's
signature; estimating it from data never needs the model internals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DataError, NumericalError
from .ltisim import GenerativeModel, stationary_autocovariance
from .panel import TimeSeriesPanel
from .spectral import FrequencyGrid, WelchParams, estimate_cpsd

KINDS = ("none", "random_delay", "packet_drop", "noisy_filter")


def _is_finite_number(v) -> bool:
    """A finite int or float; booleans are refused."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


@dataclass(frozen=True)
class CorruptionSpec:
    """Perturbation attached to one node's data stream."""

    node: int
    kind: str
    p: float | None = None
    t1: int | None = None
    t2: int | None = None
    taps: tuple[float, ...] | None = None
    noise_variance: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DataError(f"unknown corruption kind {self.kind!r}")
        if self.taps is not None:
            object.__setattr__(self, "taps", tuple(float(v) for v in self.taps))
        if self.kind in ("random_delay", "packet_drop") and not (
            _is_finite_number(self.p) and 0 < self.p <= 1
        ):
            raise DataError(f"{self.kind} needs probability 0 < p <= 1, got p={self.p!r}")
        if self.kind == "random_delay":
            shifts = (self.t1, self.t2)
            if not all(isinstance(t, int) and not isinstance(t, bool) for t in shifts):
                raise DataError(
                    f"random_delay needs integer shifts t1, t2, got {self.t1!r}, {self.t2!r}"
                )
            if self.t1 == 0 and self.t2 == 0:
                raise DataError("random_delay needs a nonzero shift")
        elif self.kind == "noisy_filter":
            if not self.taps:
                raise DataError("noisy_filter needs FIR taps")
            if not all(map(math.isfinite, self.taps)):
                raise DataError(f"noisy_filter needs finite taps, got {list(self.taps)!r}")
            v = self.noise_variance
            if not (_is_finite_number(v) and v >= 0):
                raise DataError(f"noisy_filter needs a finite noise_variance >= 0, got {v!r}")

    def to_dict(self, labels: Sequence[str] | None = None) -> dict:
        out: dict = {"node": labels[self.node] if labels else self.node, "kind": self.kind}
        for key in ("p", "t1", "t2", "noise_variance"):
            v = getattr(self, key)
            if v is not None:
                out[key] = v
        if self.taps is not None:
            out["taps"] = list(self.taps)
        return out

    @classmethod
    def from_dict(cls, payload: dict, labels: Sequence[str] | None = None) -> "CorruptionSpec":
        node = payload["node"]
        if labels is not None:
            node = list(labels).index(str(node))
        return cls(
            node=int(node),
            kind=str(payload["kind"]),
            p=payload.get("p"),
            t1=payload.get("t1"),
            t2=payload.get("t2"),
            taps=tuple(payload["taps"]) if "taps" in payload else None,
            noise_variance=payload.get("noise_variance"),
        )


# ---------------------------------------------------------------------------
# signatures

@dataclass(frozen=True)
class CorruptionSignature:
    """Multiplicative response h and additive spectrum d over a grid."""

    grid: FrequencyGrid
    h: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        h = np.asarray(self.h, dtype=np.complex128)
        d = np.asarray(self.d, dtype=np.float64)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "d", d)
        if h.shape != (self.grid.size,) or d.shape != (self.grid.size,):
            raise DataError("signature arrays must match the grid")
        if np.any(d < 0):
            raise DataError("additive spectrum d must be nonnegative")

    @classmethod
    def trivial(cls, grid: FrequencyGrid) -> "CorruptionSignature":
        return cls(grid, np.ones(grid.size, dtype=complex), np.zeros(grid.size))


def estimate_signature(
    clean: np.ndarray, corrupt: np.ndarray, params: WelchParams
) -> CorruptionSignature:
    """Estimate (h, d) of one corrupted channel from paired observations.

    h = est Phi_ux / est Phi_xx, and d = est Phi_uu - |h|^2 est Phi_xx
    floored at zero (the theory guarantees d >= 0; only estimation noise
    can push it below).
    """
    clean = np.asarray(clean, dtype=float)
    corrupt = np.asarray(corrupt, dtype=float)
    if clean.shape != corrupt.shape or clean.ndim != 1:
        raise DataError("clean and corrupt channels must be equal-length 1-D series")
    pair = TimeSeriesPanel(np.vstack([clean, corrupt]), ["x", "u"])
    spec = estimate_cpsd(pair, params)
    phi_xx = spec.entry(0, 0).real
    floor = 1e-12 * float(np.max(np.abs(phi_xx)))
    if np.any(phi_xx <= floor):
        raise NumericalError("clean-channel spectrum vanishes on the grid")
    h = spec.entry(1, 0) / phi_xx
    d = np.maximum(spec.entry(1, 1).real - np.abs(h) ** 2 * phi_xx, 0.0)
    return CorruptionSignature(spec.grid, h, d)


def analytic_signature(
    spec: CorruptionSpec, grid: FrequencyGrid, model: GenerativeModel | None = None
) -> CorruptionSignature:
    """Exact signature where the corruption model admits one in closed form.

    random_delay needs the generating model, because its additive level
    depends on the clean autocovariance; packet_drop has no closed-form d
    here and must be estimated from data.
    """
    w = grid.frequencies
    if spec.kind == "none":
        return CorruptionSignature.trivial(grid)
    if spec.kind == "noisy_filter":
        taps = np.asarray(spec.taps)
        h = np.sum(taps[None, :] * np.exp(-1j * np.outer(w, np.arange(taps.size))), axis=1)
        return CorruptionSignature(grid, h, np.full(grid.size, float(spec.noise_variance)))
    if spec.kind == "random_delay":
        if model is None:
            raise DataError("random_delay signature needs the generating model")
        h = spec.p * np.exp(1j * w * spec.t1) + (1 - spec.p) * np.exp(1j * w * spec.t2)
        lag = abs(spec.t1 - spec.t2)
        R = stationary_autocovariance(model, [0, lag])
        r0 = R[0][spec.node, spec.node]
        rlag = R[lag][spec.node, spec.node]
        level = 2.0 * spec.p * (1 - spec.p) * (r0 - rlag)
        return CorruptionSignature(grid, h, np.full(grid.size, max(level, 0.0)))
    raise DataError(f"no closed-form signature for kind {spec.kind!r}")
