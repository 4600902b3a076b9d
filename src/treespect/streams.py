"""Time series: trajectory simulation and stream corruption.

This is the only module that filters sample streams, so it is the only one
that imports `scipy.signal`; the model, the exact spectra and the
corruption specs and signatures load with numpy alone.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from scipy.signal import lfilter

from .corruption import CorruptionSpec
from .errors import DataError, NumericalError
from .ltisim import DEFAULT_BURN_IN, GenerativeModel
from .panel import TimeSeriesPanel


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
    Real modes are filtered in real arithmetic.  Complex modes come in
    conjugate pairs whose outputs are conjugate, so only the member with
    positive imaginary part is filtered and contributes twice its real part.
    A direct stepping loop (`force_loop`, also the automatic fallback when
    the eigenbasis is ill-conditioned) runs the recursion verbatim.  Both
    paths consume the identical noise stream, drawn in blocks of `block`
    samples.  The first `burn_in` samples are run to reach stationarity but
    never stored, so the returned panel is contiguous and holds exactly
    `length` samples; output is bit-reproducible for a fixed (model,
    length, seed).
    """
    if length < 1:
        raise DataError("trajectory length must be >= 1")
    n = model.n_nodes
    C = model.companion_matrix()
    total = burn_in + length
    rng = np.random.default_rng(seed)
    sigma = np.sqrt(model.noise_variance)

    lam, V = np.linalg.eig(C)
    cond = np.linalg.cond(V)
    use_eigen = not force_loop and np.isfinite(cond) and cond < 1e8
    if use_eigen:
        Vin = np.linalg.inv(V)[:, :n]  # noise enters the top N state rows
        real = np.flatnonzero(lam.imag == 0)
        pair = np.flatnonzero(lam.imag > 0)
        lam_r, lam_c = lam[real].real, lam[pair]
        Vin_r, Vin_c = Vin[real].real, Vin[pair]
        Vout_r, Vout_c = V[:n, real].real, 2.0 * V[:n, pair]
        zi_r = np.zeros((real.size, 1))
        zi_c = np.zeros((pair.size, 1), dtype=np.complex128)
    else:
        state = np.zeros(C.shape[0])

    x = np.empty((n, length))
    done = 0
    while done < total:
        m = min(block, total - done)
        w = rng.standard_normal((n, m))
        w *= sigma[:, None]
        lo, hi = max(done - burn_in, 0), max(done + m - burn_in, 0)
        skip = m - (hi - lo)  # leading block columns still in burn-in
        dest = x[:, lo:hi]
        if use_eigen:
            u = Vin_r @ w
            for k in range(real.size):
                u[k], zi_r[k] = lfilter([1.0], [1.0, -lam_r[k]], u[k], zi=zi_r[k])
            np.matmul(Vout_r, u[:, skip:], out=dest)
            if pair.size:
                u = Vin_c @ w
                for k in range(pair.size):
                    u[k], zi_c[k] = lfilter([1.0], [1.0, -lam_c[k]], u[k], zi=zi_c[k])
                dest += (Vout_c @ u[:, skip:]).real
        else:
            out, state = _step_block(C, state, w)
            dest[:] = out[:, skip:]
        done += m

    if not np.all(np.isfinite(x)):
        raise NumericalError("simulation produced non-finite samples")
    return TimeSeriesPanel(x, model.labels)


# ---------------------------------------------------------------------------
# corruption

def _corrupt_channel(x: np.ndarray, spec: CorruptionSpec, rng: np.random.Generator) -> np.ndarray:
    t = x.size
    if spec.kind == "none":
        return x
    if spec.kind == "random_delay":
        idx = np.where(rng.random(t) < spec.p, spec.t1, spec.t2)
        idx += np.arange(t)
        np.clip(idx, 0, t - 1, out=idx)  # boundary samples clamp
        return x[idx]
    if spec.kind == "packet_drop":
        kept = rng.random(t) < spec.p
        kept[0] = True  # recursion base case u[0] = x[0]
        idx = np.where(kept, np.arange(t), 0)
        np.maximum.accumulate(idx, out=idx)
        return x[idx]
    if spec.kind == "noisy_filter":
        out = lfilter(np.asarray(spec.taps), [1.0], x)
        if spec.noise_variance > 0:
            out = out + np.sqrt(spec.noise_variance) * rng.standard_normal(t)
        return out
    raise DataError(f"unknown corruption kind {spec.kind!r}")


def apply_corruption(
    panel: TimeSeriesPanel, specs: Sequence[CorruptionSpec], seed: int
) -> TimeSeriesPanel:
    """Rewrite the listed channels of `panel.data` in place with their
    corrupted versions and return the same panel; a caller that still needs
    the clean samples passes a copy.

    Every spec is checked before any channel is written.  A corrupted
    channel is checked for finite samples before it is written, so the
    panel never holds a non-finite one.  Randomness is drawn from
    independent per-node streams keyed by (seed, node), so adding or
    removing one spec never reshuffles the others.
    """
    nodes = [s.node for s in specs]
    if len(set(nodes)) != len(nodes):
        raise DataError("at most one corruption spec per node")
    for s in specs:
        if not 0 <= s.node < panel.n_channels:
            raise DataError(f"corruption spec references invalid node {s.node}")
    for s in specs:
        rng = np.random.default_rng([seed, s.node])
        channel = _corrupt_channel(panel.data[s.node], s, rng)
        if not np.all(np.isfinite(channel)):
            raise DataError("panel contains non-finite samples")
        panel.data[s.node] = channel
    return panel
