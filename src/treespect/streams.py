"""Time series: trajectory simulation and stream corruption, in blocks.

Simulation draws noise in blocks of `BLOCK` samples of every channel and
yields it filtered `SPAN` samples at a time, corruption runs on blocks of
`ROW_BLOCK` samples of one channel; both carry their state from one block
to the next, so a stage can stream a trajectory of any length through the
panel files.  `simulate` and `apply_corruption` collect the same blocks
into an in-memory panel.

Like every module of the package, it needs numpy alone: the modal filters
run as a blocked scan (`_scan`), not through `scipy.signal`.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from .corruption import CorruptionSpec
from .errors import DataError, NumericalError
from .ltisim import DEFAULT_BURN_IN, GenerativeModel
from .panel import TimeSeriesPanel

BLOCK = 250_000  # samples per simulated block; it sets how the noise draws fill the panel
ROW_BLOCK = 1 << 16  # samples per corrupted block of one channel
SCAN = 32  # samples per chunk of the modal scan
SPAN = 1 << 15  # samples per scan call and per simulated piece, which keeps buffers small
EIGEN_COND_CAP = 1e8  # simulation steps the recursion if the eigenbasis is worse conditioned


# ---------------------------------------------------------------------------
# simulation

def _scan(u, lam, y0):
    """Row k of y[t] = lam[k] y[t - 1] + u[t], from y[-1] = y0[k], for every
    row at once; `u` is overwritten.

    Within chunks of `SCAN` samples each output is a dot product with powers
    of lam, so the chunks go through one batched matmul by the Toeplitz
    matrix of those powers.  The state s entering a chunk is added to the
    chunk's first input as lam s, as `lfilter`'s `zi` would be.  The
    entering states follow the same recurrence in lam**SCAN over the chunk
    ends computed from a zero state, so they come from this scan one level up.
    """
    k, m = u.shape
    nb = -(-m // SCAN)
    if nb * SCAN > m:  # the last chunk is padded with zeros
        u = np.concatenate([u, np.zeros((k, nb * SCAN - m), u.dtype)], axis=1)
    x = u.reshape(k, nb, SCAN)
    p = lam[:, None] ** np.arange(SCAN + 1)
    i, j = np.tril_indices(SCAN)
    T = np.zeros((k, SCAN, SCAN), dtype=lam.dtype)
    T[:, j, i] = p[:, i - j]  # input j reaches output i >= j as lam^(i - j)
    if nb > 1:
        ends = x[:, :-1] @ p[:, SCAN - 1::-1, None]
        x[:, 1:, 0] += lam[:, None] * _scan(ends[:, :, 0], p[:, SCAN], y0)
    x[:, 0, 0] += lam * y0
    return (x @ T).reshape(k, nb * SCAN)[:, :m]


def _modal_block(w, groups):
    """The samples of every channel driven by the noise block `w`, yielded
    `SPAN` samples at a time as each span is filtered, each a new array.
    Each of `groups` is (Vin, lam, y, Vout): modes `lam` with noise entering
    through `Vin` and leaving through `Vout`, and `y` their last values,
    updated in place for the next span.  The first group holds the real
    modes and writes the output; the others add to it."""
    for lo in range(0, w.shape[1], SPAN):
        noise = w[:, lo:lo + SPAN]
        for g, (Vin, lam, y, Vout) in enumerate(groups):
            modes = _scan(Vin @ noise, lam, y)
            y[:] = modes[:, -1]
            if g == 0:
                span = Vout @ modes
            else:
                span += (Vout @ modes).real
        yield span


def _step_block(C, state, w):
    """The samples of every channel driven by the noise block `w`, stepping
    the companion recursion one sample at a time from `state`, which is
    updated in place; yielded `SPAN` samples at a time, each a new array."""
    n = w.shape[0]
    for lo in range(0, w.shape[1], SPAN):
        noise = w[:, lo:lo + SPAN]
        out = np.empty(noise.shape)
        for t in range(noise.shape[1]):
            state[:] = C @ state
            state[:n] += noise[:, t]
            out[:, t] = state[:n]
        yield out


def simulate_blocks(
    model: GenerativeModel,
    length: int,
    seed: int,
    burn_in: int = DEFAULT_BURN_IN,
) -> Iterator[tuple[int, np.ndarray]]:
    """Draw one trajectory of the network with Gaussian innovations, as
    (lo, samples lo..lo+m of every channel) pairs in time order, m at most
    `SPAN`.

    The companion-form recursion is run through its eigenbasis so each mode
    is a scalar first-order filter, and `_scan` runs every mode's filter at
    once; this is exact up to rounding and fast for long records.
    Real modes are filtered in real arithmetic.  Complex modes come in
    conjugate pairs whose outputs are conjugate, so only the member with
    positive imaginary part is filtered and contributes twice its real part.
    When the eigenbasis is ill-conditioned (condition number not under
    `EIGEN_COND_CAP`) or C is defective, a direct stepping loop runs the
    recursion verbatim instead.  Both paths consume the identical noise
    stream, drawn in blocks of `BLOCK` samples, carry the filter state
    across blocks, and yield each `SPAN` samples as soon as they are
    filtered, so no output block is held.
    The first `burn_in` samples are run to reach stationarity but never
    yielded, so the pieces hold exactly `length` samples; each is a new
    array, checked for finite samples, and the output is bit-reproducible
    for a fixed (model, length, seed).
    """
    if length < 1:
        raise DataError("trajectory length must be >= 1")
    return _simulated(model, length, seed, burn_in)


def _simulated(model, length, seed, burn_in):
    n = model.n_nodes
    C = model.companion_matrix()
    total = burn_in + length
    rng = np.random.default_rng(seed)
    sigma = np.sqrt(model.noise_variance)

    lam, V = np.linalg.eig(C)
    cond = np.linalg.cond(V)
    use_eigen = np.isfinite(cond) and cond < EIGEN_COND_CAP
    if use_eigen:
        Vin = np.linalg.inv(V)[:, :n]  # noise enters the top N state rows
        real = np.flatnonzero(lam.imag == 0)
        pair = np.flatnonzero(lam.imag > 0)
        groups = [(Vin[real].real, lam[real].real, np.zeros(real.size), V[:n, real].real)]
        if pair.size:
            groups.append((Vin[pair], lam[pair], np.zeros(pair.size, complex), 2.0 * V[:n, pair]))
    else:
        state = np.zeros(C.shape[0])

    done = 0  # samples filtered, burn-in included
    while done < total:
        w = rng.standard_normal((n, min(BLOCK, total - done)))
        w *= sigma[:, None]
        spans = _modal_block(w, groups) if use_eigen else _step_block(C, state, w)
        for out in spans:
            skip = min(max(burn_in - done, 0), out.shape[1])  # columns still in burn-in
            done += out.shape[1]
            if skip == out.shape[1]:
                continue
            out = out[:, skip:]
            if not np.isfinite(out).all():
                raise NumericalError("simulation produced non-finite samples")
            yield done - burn_in - out.shape[1], out
        del w, spans  # so the next draw reuses this block's memory instead of growing the heap


def simulate(
    model: GenerativeModel,
    length: int,
    seed: int,
    burn_in: int = DEFAULT_BURN_IN,
) -> TimeSeriesPanel:
    """The trajectory of `simulate_blocks` as one contiguous panel."""
    blocks = simulate_blocks(model, length, seed, burn_in)
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

    A whole-channel FIR filter (`scipy.signal.lfilter`, the tests'
    reference) is np.convolve(taps, x), one dot product per output sample.
    Each block is convolved the same way behind the last len(taps) input
    samples, so every output sample is the same dot product, summed in the
    same order: np.convolve sums in another order when its second operand is
    not longer than the first, so input is held back until it is.  Carrying
    `lfilter`'s `zi` instead would round differently at block edges.
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
