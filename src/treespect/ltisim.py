"""Bidirectional linear network dynamics: model definition, trajectory
simulation, and exact analytic PSD / inverse-PSD of the clean system.

Each node i obeys, in transfer-function form,

    S_i(z) x_i = sum_j b_ij x_j + w_i,

with monic S_i(z) = z^m - a_1 z^(m-1) - ... - a_m, couplings b_ij nonzero
exactly on the topology edges (both directions), and independent white
noise w_i of variance sigma_i^2.  Equivalently x = G(z) x + e with
G_ij = b_ij / S_i and e_i = w_i / S_i.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np
from scipy.linalg import solve_discrete_lyapunov
from scipy.signal import lfilter

from .errors import DataError, NumericalError
from .graphs import UndirectedGraph
from .panel import TimeSeriesPanel
from .spectral import FrequencyGrid, SpectralMatrix

STABILITY_MARGIN = 1e-3
DEFAULT_BURN_IN = 10_000


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
        if sig.shape != (n,) or np.any(sig <= 0):
            raise DataError("noise variances must be positive, one per node")
        if len(self.self_dynamics) != n or any(len(c) < 1 for c in self.self_dynamics):
            raise DataError("each node needs self-dynamics coefficients (degree >= 1)")
        expected = set()
        for a, b in self.topology.edges:
            expected.update([(a, b), (b, a)])
        if set(self.coupling) != expected:
            raise DataError("coupling keys must be exactly the directed edge pairs")
        if any(v == 0.0 for v in self.coupling.values()):
            raise DataError("couplings on edges must be nonzero")
        rho = self.spectral_radius()
        if rho > 1.0 - STABILITY_MARGIN:
            raise NumericalError(
                f"model unstable or too close to marginal (spectral radius {rho:.6f})"
            )

    @property
    def n_nodes(self) -> int:
        return self.topology.node_count

    @property
    def order(self) -> int:
        return max(len(c) for c in self.self_dynamics)

    def lag_matrices(self) -> np.ndarray:
        """A_k, k=1..p, of the equivalent vector autoregression.

        Self terms sit at their own lag; the coupling on row i enters at lag
        m_i (the degree of S_i), which reproduces S_i x_i = sum b_ij x_j + w_i
        up to a statistically irrelevant time shift of the white noise.
        """
        n, p = self.n_nodes, self.order
        A = np.zeros((p, n, n))
        for i, coeffs in enumerate(self.self_dynamics):
            m = len(coeffs)
            for k, a in enumerate(coeffs, start=1):
                A[k - 1, i, i] = a
            for j in self.topology.neighbors(i):
                A[m - 1, i, j] = self.coupling[(i, j)]
        return A

    def companion_matrix(self) -> np.ndarray:
        n, p = self.n_nodes, self.order
        A = self.lag_matrices()
        C = np.zeros((n * p, n * p))
        C[:n] = A.transpose(1, 0, 2).reshape(n, n * p)
        if p > 1:
            C[n:, :-n] = np.eye(n * (p - 1))
        return C

    def spectral_radius(self) -> float:
        return float(np.max(np.abs(np.linalg.eigvals(self.companion_matrix()))))

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

    def self_response(self, grid: FrequencyGrid) -> np.ndarray:
        """S_i(e^{j w}) for every node, shape (n_freq, N)."""
        z = np.exp(1j * grid.frequencies)
        out = np.empty((grid.size, self.n_nodes), dtype=np.complex128)
        for i, coeffs in enumerate(self.self_dynamics):
            m = len(coeffs)
            s = z**m
            for k, a in enumerate(coeffs, start=1):
                s = s - a * z ** (m - k)
            out[:, i] = s
        return out

    def transfer_matrix(self, grid: FrequencyGrid) -> np.ndarray:
        """G(e^{j w}) with G_ij = b_ij / S_i, shape (n_freq, N, N)."""
        n = self.n_nodes
        S = self.self_response(grid)
        B = np.zeros((n, n))
        for (i, j), b in self.coupling.items():
            B[i, j] = b
        return B[None, :, :] / S[:, :, None]


# ---------------------------------------------------------------------------
# simulation

def _step_block(C, state, w_block):
    n, m = w_block.shape
    out = np.empty((n, m))
    for t in range(m):
        state = C @ state
        state[:n] += w_block[:, t]
        out[:, t] = state[:n]
    return out, state


def simulate(
    model: GenerativeModel,
    length: int,
    seed: int,
    burn_in: int = DEFAULT_BURN_IN,
    block: int = 250_000,
    force_loop: bool = False,
) -> TimeSeriesPanel:
    """Draw one trajectory of the network with Gaussian innovations.

    The companion-form recursion is run through its eigenbasis so each mode
    is a scalar first-order filter; this is exact and fast for long records.
    A direct stepping loop (`force_loop`, also the automatic fallback when
    the eigenbasis is ill-conditioned) runs the recursion verbatim.  Both
    paths consume the identical noise stream.  The first `burn_in` samples
    are discarded to reach stationarity, and output is bit-reproducible for
    a fixed (model, length, seed).
    """
    if length < 1:
        raise DataError("trajectory length must be >= 1")
    n = model.n_nodes
    C = model.companion_matrix()
    dim = C.shape[0]
    total = burn_in + length
    rng = np.random.default_rng(seed)
    sigma = np.sqrt(model.noise_variance)

    lam, V = np.linalg.eig(C.astype(np.complex128))
    cond = np.linalg.cond(V)
    use_eigen = not force_loop and np.isfinite(cond) and cond < 1e8
    if use_eigen:
        Vin = np.linalg.inv(V)[:, :n]  # noise enters the top N state rows
        Vout = V[:n, :]
        zi = np.zeros((dim, 1), dtype=np.complex128)
    else:
        state = np.zeros(dim)

    x = np.empty((n, total))
    done = 0
    while done < total:
        m = min(block, total - done)
        w = rng.standard_normal((n, m)) * sigma[:, None]
        if use_eigen:
            u = Vin @ w.astype(np.complex128)
            y = np.empty_like(u)
            for k in range(dim):
                y[k], zi[k] = lfilter([1.0], [1.0, -lam[k]], u[k], zi=zi[k])
            x[:, done:done + m] = (Vout @ y).real
        else:
            x[:, done:done + m], state = _step_block(C, state, w)
        done += m

    x = x[:, burn_in:]
    if not np.all(np.isfinite(x)):
        raise NumericalError("simulation produced non-finite samples")
    return TimeSeriesPanel(x, model.labels)


# ---------------------------------------------------------------------------
# analytic spectra

def analytic_psd(model: GenerativeModel, grid: FrequencyGrid) -> SpectralMatrix:
    """Exact PSD (I-G)^-1 Phi_e (I-G)^-* on the grid."""
    n = model.n_nodes
    S = model.self_response(grid)
    G = model.transfer_matrix(grid)
    M = np.eye(n)[None, :, :] - G
    phi_e = model.noise_variance[None, :] / np.abs(S) ** 2
    try:
        Minv = np.linalg.inv(M)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"I - G singular on the grid: {exc}") from exc
    vals = (Minv * phi_e[:, None, :]) @ np.conj(np.swapaxes(Minv, 1, 2))
    vals = 0.5 * (vals + np.conj(np.swapaxes(vals, 1, 2)))
    return SpectralMatrix(grid, vals, model.labels)


def analytic_inverse_psd(model: GenerativeModel, grid: FrequencyGrid) -> SpectralMatrix:
    """Exact inverse PSD assembled entrywise, never by matrix inversion.

    Expanding (I-G)* Phi_e^-1 (I-G) gives, per frequency:

      (i,i):  |S_i|^2/sigma_i^2 + sum_{k~i} b_ki^2/sigma_k^2
      (i,j):  -b_ij conj(S_i)/sigma_i^2 - b_ji S_j/sigma_j^2   for edges i-j
              + sum over common neighbors k of b_ki b_kj/sigma_k^2
      zero for pairs more than two hops apart.

    On a tree this is exactly the four-case 1-hop/2-hop/diagonal/zero form;
    the common-neighbor sum also covers non-tree sparsity patterns.
    """
    n = model.n_nodes
    S = model.self_response(grid)
    sig = model.noise_variance
    adj = model.topology.adjacency()
    vals = np.zeros((grid.size, n, n), dtype=np.complex128)
    for i in range(n):
        vals[:, i, i] = np.abs(S[:, i]) ** 2 / sig[i] + sum(
            model.coupling[(k, i)] ** 2 / sig[k] for k in adj[i]
        )
    for i in range(n):
        for j in range(i + 1, n):
            entry = np.zeros(grid.size, dtype=np.complex128)
            if j in adj[i]:
                entry = entry - model.coupling[(i, j)] * np.conj(S[:, i]) / sig[i]
                entry = entry - model.coupling[(j, i)] * S[:, j] / sig[j]
            common = sum(
                model.coupling[(k, i)] * model.coupling[(k, j)] / sig[k]
                for k in adj[i] & adj[j]
            )
            entry = entry + common
            vals[:, i, j] = entry
            vals[:, j, i] = np.conj(entry)
    return SpectralMatrix(grid, vals, model.labels)


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


def save_model(model: GenerativeModel, path) -> None:
    with open(path, "w") as fh:
        json.dump(model_to_dict(model), fh, indent=2, sort_keys=True)


def load_model(path) -> GenerativeModel:
    with open(path) as fh:
        return model_from_dict(json.load(fh))
