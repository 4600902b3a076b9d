import os
import subprocess
import sys
from pathlib import Path

import treespect
from treespect import streams

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
    return out.stdout.strip() == "True"


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


def test_cli_imports_scipy_signal():
    assert loads_module("import treespect.cli", "scipy.signal")


def test_package_resolves_stream_functions_lazily():
    from treespect import apply_corruption, simulate

    assert simulate is streams.simulate
    assert apply_corruption is streams.apply_corruption
