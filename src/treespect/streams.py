"""Time series: trajectory simulation and stream corruption, in blocks.

Simulation runs on blocks of `BLOCK` samples of every channel, corruption
on blocks of `ROW_BLOCK` samples of one channel; both carry their state
from one block to the next, so a stage can stream a trajectory of any
length through the panel files.  `simulate` and `apply_corruption` collect
the same blocks into an in-memory panel.

This is the only module that filters sample streams, so it is the only one
that imports `scipy.signal`; the model, the exact spectra and the
corruption specs and signatures load with numpy alone.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np
from scipy.signal import lfilter

from .corruption import CorruptionSpec
from .errors import DataError, NumericalError
from .ltisim import DEFAULT_BURN_IN, GenerativeModel
from .panel import TimeSeriesPanel

BLOCK = 250_000  # samples per simulated block; it sets how the noise draws fill the panel
ROW_BLOCK = 1 << 16  # samples per corrupted block of one channel


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


def simulate_blocks(
    model: GenerativeModel,
    length: int,
    seed: int,
    burn_in: int = DEFAULT_BURN_IN,
    block: int | None = None,
    force_loop: bool = False,
) -> Iterator[tuple[int, np.ndarray]]:
    """Draw one trajectory of the network with Gaussian innovations, as
    (lo, samples lo..lo+m of every channel) pairs in time order.

    The companion-form recursion is run through its eigenbasis so each mode
    is a scalar first-order filter; this is exact and fast for long records.
    Real modes are filtered in real arithmetic.  Complex modes come in
    conjugate pairs whose outputs are conjugate, so only the member with
    positive imaginary part is filtered and contributes twice its real part.
    A direct stepping loop (`force_loop`, also the automatic fallback when
    the eigenbasis is ill-conditioned) runs the recursion verbatim.  Both
    paths consume the identical noise stream, drawn in blocks of `block`
    samples (`BLOCK` if None), and carry the filter state across blocks.
    The first `burn_in` samples are run to reach stationarity but never
    yielded, so the blocks hold exactly `length` samples; each is a new
    array, checked for finite samples, and the output is bit-reproducible
    for a fixed (model, length, seed, block).
    """
    if length < 1:
        raise DataError("trajectory length must be >= 1")
    return _simulated(model, length, seed, burn_in, block or BLOCK, force_loop)


def _simulated(model, length, seed, burn_in, block, force_loop):
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

    done = 0
    while done < total:
        m = min(block, total - done)
        w = rng.standard_normal((n, m))
        w *= sigma[:, None]
        lo, hi = max(done - burn_in, 0), max(done + m - burn_in, 0)
        skip = m - (hi - lo)  # leading block columns still in burn-in
        done += m
        if use_eigen:
            u = Vin_r @ w
            for k in range(real.size):
                u[k], zi_r[k] = lfilter([1.0], [1.0, -lam_r[k]], u[k], zi=zi_r[k])
            out = Vout_r @ u[:, skip:]
            if pair.size:
                u = Vin_c @ w
                for k in range(pair.size):
                    u[k], zi_c[k] = lfilter([1.0], [1.0, -lam_c[k]], u[k], zi=zi_c[k])
                out += (Vout_c @ u[:, skip:]).real
        else:
            out, state = _step_block(C, state, w)
            out = out[:, skip:]
        if hi == lo:
            continue
        if not np.isfinite(out).all():
            raise NumericalError("simulation produced non-finite samples")
        yield lo, out


def simulate(
    model: GenerativeModel,
    length: int,
    seed: int,
    burn_in: int = DEFAULT_BURN_IN,
    block: int | None = None,
    force_loop: bool = False,
) -> TimeSeriesPanel:
    """The trajectory of `simulate_blocks` as one contiguous panel."""
    blocks = simulate_blocks(model, length, seed, burn_in, block, force_loop)
    x = np.empty((model.n_nodes, length))
    for lo, samples in blocks:
        x[:, lo:lo + samples.shape[1]] = samples
    return TimeSeriesPanel(x, model.labels)


# ---------------------------------------------------------------------------
# corruption
#
# Each corrupter maps the blocks of one channel to the blocks of its
# corrupted version.  The per-node random stream is drawn block by block,
# which gives the same values as one draw over the whole channel, and the
# state that crosses a block boundary is carried, so the output is the
# same for any split into blocks.

def _delayed(blocks, spec: CorruptionSpec, rng, t: int):
    """u[j] = x[j + t1] with probability p, else x[j + t2], the index
    clamped to the record.  Output lags input by the look-ahead, and the
    last look-back + look-ahead input samples are kept for the next block."""
    back, ahead = max(0, -spec.t1, -spec.t2), max(0, spec.t1, spec.t2)
    kept, base, done = np.empty(0), 0, 0  # `kept` holds x[base:base + kept.size]
    for x in blocks:
        kept = np.concatenate([kept, x])
        have = base + kept.size
        stop = t if have == t else max(done, have - ahead)
        if stop == done:
            continue
        idx = np.where(rng.random(stop - done) < spec.p, spec.t1, spec.t2)
        idx += np.arange(done, stop)
        np.clip(idx, 0, t - 1, out=idx)  # boundary samples clamp
        idx -= base
        yield kept[idx]
        done = stop
        cut = max(0, done - back - base)
        kept, base = kept[cut:], base + cut


def _dropped(blocks, spec: CorruptionSpec, rng):
    """u[j] = x[j] if packet j arrives (probability p), else u[j - 1];
    u[0] = x[0].  The last output sample carries into the next block."""
    last = None
    for x in blocks:
        arrived = rng.random(x.size) < spec.p
        if last is None:
            arrived[0] = True  # recursion base case u[0] = x[0]
        idx = np.where(arrived, np.arange(x.size), -1)
        np.maximum.accumulate(idx, out=idx)
        out = x[idx]
        if last is not None:
            out[idx < 0] = last
        last = out[-1]
        yield out


def _filtered(blocks, spec: CorruptionSpec, rng, t: int):
    """The FIR filter `taps` plus white noise of `noise_variance`.

    `lfilter` filters a whole channel as np.convolve(taps, x), one dot
    product per output sample.  Each block is convolved the same way behind
    the last len(taps) input samples, so every output sample is the same dot
    product, summed in the same order: np.convolve sums in another order when
    its second operand is not longer than the first, so input is held back
    until it is.  Carrying `lfilter`'s `zi` instead would round differently
    at block edges.
    """
    taps = np.asarray(spec.taps)
    y, lead, seen = np.empty(0), 0, 0  # input from `lead` samples before the next output
    for x in blocks:
        y = np.concatenate([y, x])
        seen += x.size
        if y.size <= taps.size and seen < t:
            continue
        out = np.convolve(taps, y)[lead:y.size]
        lead = min(y.size, taps.size)
        y = y[y.size - lead:]
        if spec.noise_variance > 0:
            out = out + np.sqrt(spec.noise_variance) * rng.standard_normal(out.size)
        yield out


def _corrupted(blocks, spec: CorruptionSpec, rng, t: int):
    if spec.kind == "random_delay":
        out = _delayed(blocks, spec, rng, t)
    elif spec.kind == "packet_drop":
        out = _dropped(blocks, spec, rng)
    elif spec.kind == "noisy_filter":
        out = _filtered(blocks, spec, rng, t)
    else:
        raise DataError(f"unknown corruption kind {spec.kind!r}")
    for samples in out:
        if not np.isfinite(samples).all():
            raise DataError("panel contains non-finite samples")
        yield samples


def corrupted_blocks(source, specs: Sequence[CorruptionSpec], seed: int):
    """The corrupted panel of `source` (a `TimeSeriesPanel` or a
    `PanelReader`) as (channel, lo, samples) triples in file order: channel
    by channel, `ROW_BLOCK` input samples at a time.

    Every spec is checked before the first triple.  Channels without a
    spec, or with kind `none`, pass through as read; a corrupted block is
    checked for finite samples.  Randomness is drawn from independent
    per-node streams keyed by (seed, node), so adding or removing one spec
    never reshuffles the others.
    """
    nodes = [s.node for s in specs]
    if len(set(nodes)) != len(nodes):
        raise DataError("at most one corruption spec per node")
    for s in specs:
        if not 0 <= s.node < source.n_channels:
            raise DataError(f"corruption spec references invalid node {s.node}")
    return _corrupted_rows(source, {s.node: s for s in specs if s.kind != "none"}, seed)


def _corrupted_rows(source, specs: dict, seed: int):
    t = source.n_samples
    for i in range(source.n_channels):
        blocks = (source.row(i, lo, min(lo + ROW_BLOCK, t)) for lo in range(0, t, ROW_BLOCK))
        if i in specs:
            blocks = _corrupted(blocks, specs[i], np.random.default_rng([seed, i]), t)
        lo = 0
        for samples in blocks:
            yield i, lo, samples
            lo += samples.size


def apply_corruption(
    panel: TimeSeriesPanel, specs: Sequence[CorruptionSpec], seed: int
) -> TimeSeriesPanel:
    """Rewrite the listed channels of `panel.data` in place with their
    corrupted versions (see `corrupted_blocks`) and return the same panel;
    a caller that still needs the clean samples passes a copy.

    Every spec is checked before any channel is written, and a channel is
    written only once all of its corrupted samples are in and finite, so
    the panel never holds a non-finite one.
    """
    corrupt = {s.node for s in specs if s.kind != "none"}
    parts = []
    for i, lo, samples in corrupted_blocks(panel, specs, seed):
        if i not in corrupt:
            continue
        parts.append(samples)
        if lo + samples.size == panel.n_samples:
            panel.data[i] = np.concatenate(parts)
            parts = []
    return panel
