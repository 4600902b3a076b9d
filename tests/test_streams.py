import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import treespect
from treespect import streams
from treespect.corruption import CorruptionSpec
from treespect.graphs import UndirectedGraph
from treespect.ltisim import STABILITY_MARGIN, GenerativeModel
from treespect.panel import TimeSeriesPanel

from conftest import whole_channel_corruption

ANALYTIC_MODULES = (
    "config", "instances", "ltisim", "corruption", "oracles", "spectral", "detection",
    "reconstruction",
)


def loads_module(imports: str, prefix: str) -> bool:
    """Whether running `imports` loads module `prefix` or one under it, in a
    fresh interpreter: this test process has loaded scipy already."""
    src = str(Path(treespect.__file__).resolve().parents[1])
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    code = (
        f"import sys\n{imports}\n"
        f"print(any(m == {prefix!r} or m.startswith({prefix!r} + '.') for m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.splitlines()[-1] == "True"


def test_analytic_path_does_not_import_scipy_signal():
    modules = ", ".join(f"treespect.{m}" for m in ANALYTIC_MODULES)
    assert not loads_module(f"import treespect, {modules}", "scipy.signal")


def test_exact_instance_end_to_end_loads_no_scipy():
    # instance -> signatures -> corrupted PSD -> inverse -> detect ->
    # hide_and_learn -> Woodbury, numpy alone
    run = """
import numpy as np
import treespect as ts
inst = ts.random_instance(np.random.default_rng(1), 15, 3)
grid = ts.FrequencyGrid.welch_bins(64)
sigs = ts.analytic_signatures(inst.model, inst.specs, grid)
psd = ts.analytic_corrupted_psd(inst.model, sigs, grid)
report = ts.detect(ts.invert_spectrum(psd), ts.ANALYTIC_DECISION)
estimate = ts.hide_and_learn(psd, report, ts.ANALYTIC_DECISION)
wood, _ = ts.woodbury_chain_inverse(inst.model, sigs, grid)
assert estimate.graph.edges == inst.topology.edges and not estimate.diagnostics
assert np.allclose(wood.values, psd.inverse.values, rtol=0, atol=1e-9)
"""
    assert not loads_module(run, "scipy")


def test_pipeline_end_to_end_loads_no_scipy(tmp_path):
    # simulate -> corrupt -> spectra -> detect -> learn on chain7_quick
    run = f"""
from treespect.cli import main
from treespect.config import bundled_config_path
config = str(bundled_config_path("chain7_quick"))
assert main(["pipeline", "--config", config, "--out", {str(tmp_path)!r}]) == 0
"""
    assert not loads_module(run, "scipy")
    assert (tmp_path / "topology.json").exists()


def test_package_exports_the_stream_functions():
    from treespect import apply_corruption, simulate

    assert simulate is streams.simulate
    assert apply_corruption is streams.apply_corruption


RADIUS = 1.0 - STABILITY_MARGIN  # the largest mode magnitude a model may have


def sequential_modes(u, lam, y0):
    """y[t] = lam y[t - 1] + u[t] per row, one sample after another in
    float64 (or complex128), from y[-1] = y0."""
    y = np.empty_like(u)
    prev = np.array(y0, dtype=u.dtype)
    for t in range(u.shape[1]):
        prev = lam * prev + u[:, t]
        y[:, t] = prev
    return y


def row_relative_gap(a, ref):
    """The largest deviation of a row of `a` from that row of `ref`, over
    the row's largest magnitude."""
    return (np.abs(a - ref).max(axis=1) / np.abs(ref).max(axis=1)).max()


@pytest.mark.parametrize(
    "m", [1, 5, streams.SCAN - 1, streams.SCAN, streams.SCAN + 1, 701, 9_973]
)
def test_scan_matches_the_sequential_recursion(m):
    # real and complex modes up to the stability margin, from a carried state;
    # lengths below one chunk, at it, and off every multiple of it
    rng = np.random.default_rng(m)
    lam_r = np.array([RADIUS, -RADIUS, 0.5, -0.2, 0.0])
    lam_c = RADIUS * np.exp(1j * np.array([1e-3, 0.3, 2.0, np.pi - 1e-3]))
    u_c = rng.standard_normal((4, m)) + 1j * rng.standard_normal((4, m))
    cases = [
        (lam_r, rng.standard_normal((5, m)), 20.0 * rng.standard_normal(5)),
        (lam_c, u_c, 20.0 * (rng.standard_normal(4) + 1j * rng.standard_normal(4))),
    ]
    for lam, u, y0 in cases:
        y = streams._scan(u.copy(), lam, y0)
        assert y.dtype == u.dtype and y.shape == u.shape
        assert row_relative_gap(y, sequential_modes(u, lam, y0)) <= 1e-13


def near_margin_model() -> GenerativeModel:
    """A 3-node chain with a real mode and a conjugate pair near `RADIUS`."""
    r, theta = 0.9975, 0.4
    return GenerativeModel(
        UndirectedGraph(3, [(0, 1), (1, 2)]),
        {(0, 1): 0.01, (1, 0): 0.01, (1, 2): -0.01, (2, 1): 0.01},
        ((0.998,), (2 * r * np.cos(theta), -r * r), (-0.99,)),
        np.array([1.0, 0.5, 2.0]),
    )


def sequential_simulation(model, length, seed, burn_in, block):
    """The eigenbasis simulation with each mode filtered one sample after
    another over the whole record, from noise drawn in blocks of `block`
    samples as `simulate_blocks` draws it."""
    n, total = model.n_nodes, burn_in + length
    rng = np.random.default_rng(seed)
    sigma = np.sqrt(model.noise_variance)[:, None]
    w = np.hstack([
        sigma * rng.standard_normal((n, min(block, total - lo))) for lo in range(0, total, block)
    ])
    lam, V = np.linalg.eig(model.companion_matrix())
    y = sequential_modes(np.linalg.inv(V)[:, :n] @ w, lam, np.zeros(lam.size))
    return (V[:n] @ y[:, burn_in:]).real


@pytest.mark.parametrize("block, burn_in, length", [
    (701, 0, 3_000),
    (701, 701, 3_000),  # burn-in ends on a block edge
    (701, 1_500, 3_000),  # ... and inside the third block
    (9_973, 9_972, 12_000),  # the first block yields one sample
    (9_973, 5, 25_000),
    (streams.SPAN + 7_000, 3, 75_000),  # blocks longer than one scan call
    # blocks of three scan calls, burn-in ending inside the first block's second span
    (2 * streams.SPAN + 5_000, streams.SPAN + 1_234, 40_000),
])
def test_simulation_carries_the_scan_state_across_blocks(monkeypatch, block, burn_in, length):
    model = near_margin_model()
    assert np.abs(np.linalg.eigvals(model.companion_matrix())).max() > 0.998
    monkeypatch.setattr(streams, "BLOCK", block)
    pieces = list(streams.simulate_blocks(model, length, seed=12, burn_in=burn_in))
    # each scan call's output is yielded as it is filtered: pieces at most
    # SPAN wide, back to back in time over exactly [0, length)
    ends = [lo + samples.shape[1] for lo, samples in pieces]
    assert [lo for lo, _ in pieces] == [0] + ends[:-1] and ends[-1] == length
    assert all(0 < samples.shape[1] <= streams.SPAN for _, samples in pieces)
    expected = sequential_simulation(model, length, 12, burn_in, block)
    assert row_relative_gap(np.hstack([x for _, x in pieces]), expected) <= 1e-13


def test_simulation_draws_every_block_into_one_buffer(monkeypatch):
    # a fresh array per block would leave the freed blocks in the heap,
    # under the later stages' work
    outs = []
    default_rng = np.random.default_rng

    class Recording:
        def __init__(self, seed):
            self.rng = default_rng(seed)

        def standard_normal(self, size=None, out=None):
            outs.append(out)
            return self.rng.standard_normal(size, out=out)

    monkeypatch.setattr(np.random, "default_rng", Recording)
    monkeypatch.setattr(streams, "BLOCK", 9_973)
    pieces = list(streams.simulate_blocks(near_margin_model(), 25_000, seed=12, burn_in=5))
    assert sum(x.shape[1] for _, x in pieces) == 25_000
    assert len(outs) == 3
    assert all(out is not None and np.shares_memory(out, outs[0]) for out in outs)


BLOCK_EDGE_SPECS = (
    CorruptionSpec(node=0, kind="random_delay", p=0.5, t1=-4, t2=3),
    CorruptionSpec(node=1, kind="random_delay", p=0.5, t1=6, t2=2),
    CorruptionSpec(node=2, kind="packet_drop", p=0.4),
    CorruptionSpec(node=3, kind="noisy_filter", taps=(0.6, -0.3, 0.2, 0.1), noise_variance=0.5),
    CorruptionSpec(node=4, kind="noisy_filter", taps=np.linspace(-1, 1, 21), noise_variance=0.0),
)


@pytest.mark.parametrize("block", [1, 2, 4, 5, 21, 22, 997])
def test_corruption_does_not_depend_on_the_block_split(monkeypatch, block):
    # blocks shorter than the filter, as long as it, and ending one short of
    # the record all give the whole-record computation's bytes
    x = np.random.default_rng(0).standard_normal((5, 3_001))
    monkeypatch.setattr(streams, "ROW_BLOCK", block)
    panel = streams.apply_corruption(TimeSeriesPanel(x.copy(), list("abcde")), BLOCK_EDGE_SPECS, 9)
    for spec in BLOCK_EDGE_SPECS:
        rng = np.random.default_rng([9, spec.node])
        expected = whole_channel_corruption(x[spec.node], spec, rng)
        assert panel.data[spec.node].tobytes() == expected.tobytes(), spec.kind
