"""Bidirectional linear network dynamics: model definition and exact
analytic PSD / inverse-PSD of the clean system (trajectories are drawn by
`streams.simulate`).

Each node i obeys, in transfer-function form,

    S_i(z) x_i = sum_j b_ij x_j + w_i,

with monic S_i(z) = z^m - a_1 z^(m-1) - ... - a_m, couplings b_ij nonzero
exactly on the topology edges (both directions), and independent white
noise w_i of variance sigma_i^2.  At each frequency omega this is one
system A x = w with A(omega) = diag(S_i(e^{j omega})) - B, so with
Sigma = diag(sigma^2) the exact spectra are

    Phi = A^-1 Sigma A^-*,    Phi^-1 = A* Sigma^-1 A.

A is nonzero only on the diagonal and the edges, so Phi^-1 is exactly
zero between nodes more than two hops apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np
from scipy.linalg import solve_discrete_lyapunov

from .errors import DataError, NumericalError
from .graphs import UndirectedGraph
from .spectral import FrequencyGrid, SpectralMatrix

STABILITY_MARGIN = 1e-3
DEFAULT_BURN_IN = 10_000


def _companion(
    topology: UndirectedGraph,
    coupling: Mapping[tuple[int, int], float],
    self_dynamics: Sequence[Sequence[float]],
) -> np.ndarray:
    """Companion matrix of the equivalent vector autoregression.

    Its lag matrices A_k, k=1..p, hold the self terms at their own lag and
    the coupling on row i at lag m_i (the degree of S_i), which reproduces
    S_i x_i = sum b_ij x_j + w_i up to a statistically irrelevant time
    shift of the white noise.
    """
    n, p = topology.node_count, max(len(c) for c in self_dynamics)
    A = np.zeros((p, n, n))
    for i, coeffs in enumerate(self_dynamics):
        m = len(coeffs)
        for k, a in enumerate(coeffs, start=1):
            A[k - 1, i, i] = a
        for j in topology.neighbors(i):
            A[m - 1, i, j] = coupling[(i, j)]
    C = np.zeros((n * p, n * p))
    C[:n] = A.transpose(1, 0, 2).reshape(n, n * p)
    if p > 1:
        C[n:, :-n] = np.eye(n * (p - 1))
    return C


def spectral_radius(
    topology: UndirectedGraph,
    coupling: Mapping[tuple[int, int], float],
    self_dynamics: Sequence[Sequence[float]],
) -> float:
    """Largest eigenvalue magnitude of the system's companion matrix; the
    system is stable when it is below 1."""
    C = _companion(topology, coupling, self_dynamics)
    return float(np.max(np.abs(np.linalg.eigvals(C))))


@dataclass(frozen=True)
class GenerativeModel:
    """Tree-structured (or more generally sparse) bidirectional LTI system."""

    topology: UndirectedGraph
    coupling: Mapping[tuple[int, int], float]
    self_dynamics: tuple[tuple[float, ...], ...]
    noise_variance: np.ndarray
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        n = self.topology.node_count
        object.__setattr__(self, "coupling", dict(self.coupling))
        object.__setattr__(
            self, "self_dynamics", tuple(tuple(float(a) for a in c) for c in self.self_dynamics)
        )
        sig = np.asarray(self.noise_variance, dtype=np.float64)
        object.__setattr__(self, "noise_variance", sig)
        labels = tuple(str(x) for x in self.labels) or tuple(str(i + 1) for i in range(n))
        object.__setattr__(self, "labels", labels)

        if len(labels) != n or len(set(labels)) != n:
            raise DataError("need one unique label per node")
        if sig.shape != (n,) or not np.all(np.isfinite(sig) & (sig > 0)):
            raise DataError("noise variances must be finite and positive, one per node")
        if len(self.self_dynamics) != n or any(len(c) < 1 for c in self.self_dynamics):
            raise DataError("each node needs self-dynamics coefficients (degree >= 1)")
        for i, coeffs in enumerate(self.self_dynamics):
            if not all(map(math.isfinite, coeffs)):
                raise DataError(
                    f"self_dynamics of node {labels[i]} must be finite, got {list(coeffs)!r}"
                )
        expected = set()
        for a, b in self.topology.edges:
            expected.update([(a, b), (b, a)])
        if set(self.coupling) != expected:
            raise DataError("coupling keys must be exactly the directed edge pairs")
        for (a, b), v in self.coupling.items():
            if not (math.isfinite(v) and v != 0.0):
                raise DataError(
                    f"coupling {labels[a]}->{labels[b]} must be finite and nonzero, got {v!r}"
                )
        rho = spectral_radius(self.topology, self.coupling, self.self_dynamics)
        if rho > 1.0 - STABILITY_MARGIN:
            raise NumericalError(
                f"model unstable or too close to marginal (spectral radius {rho:.6f})"
            )

    @property
    def n_nodes(self) -> int:
        return self.topology.node_count

    def companion_matrix(self) -> np.ndarray:
        return _companion(self.topology, self.coupling, self.self_dynamics)

    @cached_property
    def state_covariance(self) -> np.ndarray:
        """Stationary covariance P of the companion state, from the discrete
        Lyapunov equation P = C P C^T + Q; solved once per model, read-only."""
        n = self.n_nodes
        C = self.companion_matrix()
        Q = np.zeros_like(C)
        Q[:n, :n] = np.diag(self.noise_variance)
        P = solve_discrete_lyapunov(C, Q)
        P.setflags(write=False)
        return P


# ---------------------------------------------------------------------------
# analytic spectra

def _system_matrix(model: GenerativeModel, grid: FrequencyGrid) -> np.ndarray:
    """A(omega) = diag(S_i(e^{j omega})) - B on the grid, shape (n_freq, N, N)."""
    n = model.n_nodes
    z = np.exp(1j * grid.frequencies)
    A = np.zeros((grid.size, n, n), dtype=np.complex128)
    for (i, j), b in model.coupling.items():
        A[:, i, j] = -b
    for i, coeffs in enumerate(model.self_dynamics):
        m = len(coeffs)
        s = z**m
        for k, a in enumerate(coeffs, start=1):
            s = s - a * z ** (m - k)
        A[:, i, i] = s
    return A


def analytic_psd(model: GenerativeModel, grid: FrequencyGrid) -> SpectralMatrix:
    """Exact PSD A^-1 Sigma A^-* on the grid."""
    try:
        Ainv = np.linalg.inv(_system_matrix(model, grid))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"A = diag(S) - B singular on the grid: {exc}") from exc
    vals = (Ainv * model.noise_variance) @ np.conj(np.swapaxes(Ainv, 1, 2))
    vals = 0.5 * (vals + np.conj(np.swapaxes(vals, 1, 2)))
    return SpectralMatrix(grid, vals, model.labels)


def analytic_inverse_psd(model: GenerativeModel, grid: FrequencyGrid) -> SpectralMatrix:
    """Exact inverse PSD A* Sigma^-1 A, a product with no inversion.

    Entry (i, j) sums conj(A_ki) A_kj / sigma_k^2 over k; every term of a
    pair more than two hops apart has an exact-zero factor, so the entry is
    exactly 0.
    """
    A = _system_matrix(model, grid)
    Ah = np.conj(np.swapaxes(A, 1, 2))
    A /= model.noise_variance[:, None]
    return SpectralMatrix(grid, Ah @ A, model.labels)


def stationary_autocovariance(model: GenerativeModel, lags: Sequence[int]) -> dict[int, np.ndarray]:
    """Exact R(k) = E[x[t+k] x[t]^T] from the companion Lyapunov equation."""
    n = model.n_nodes
    C = model.companion_matrix()
    P = model.state_covariance
    out: dict[int, np.ndarray] = {}
    for k in sorted(set(abs(int(l)) for l in lags)):
        R = np.linalg.matrix_power(C, k) @ P
        out[k] = R[:n, :n]
    return {int(l): (out[l] if l >= 0 else out[-l].T) for l in lags}


# ---------------------------------------------------------------------------
# model files

def model_to_dict(model: GenerativeModel) -> dict:
    labs = model.labels
    return {
        "labels": list(labs),
        "edges": [
            {
                "a": labs[a],
                "b": labs[b],
                "ab": model.coupling[(a, b)],
                "ba": model.coupling[(b, a)],
            }
            for a, b in sorted(model.topology.edges)
        ],
        "self_dynamics": {labs[i]: list(c) for i, c in enumerate(model.self_dynamics)},
        "noise_variance": {labs[i]: float(v) for i, v in enumerate(model.noise_variance)},
    }


def model_from_dict(payload: Mapping) -> GenerativeModel:
    try:
        labels = [str(x) for x in payload["labels"]]
        index = {lab: i for i, lab in enumerate(labels)}
        n = len(labels)
        edges = []
        coupling: dict[tuple[int, int], float] = {}
        for e in payload["edges"]:
            a, b = index[str(e["a"])], index[str(e["b"])]
            edges.append((a, b))
            coupling[(a, b)] = float(e["ab"])
            coupling[(b, a)] = float(e["ba"])
        dyn_raw = payload.get("self_dynamics", {})
        dynamics = tuple(tuple(float(v) for v in dyn_raw.get(lab, [0.0])) for lab in labels)
        var_raw = payload.get("noise_variance", {})
        sigma = np.array([float(var_raw.get(lab, 1.0)) for lab in labels])
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed model description: {exc}") from exc
    topo = UndirectedGraph.from_edges(n, edges)
    return GenerativeModel(topo, coupling, dynamics, sigma, tuple(labels))
