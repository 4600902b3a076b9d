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


def loads_scipy_signal(imports: str) -> bool:
    """Whether `imports` pulls in scipy.signal, in a fresh interpreter: this
    test process has loaded it already."""
    src = str(Path(treespect.__file__).resolve().parents[1])
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    code = f"import sys\n{imports}\nprint('scipy.signal' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.strip() == "True"


def test_analytic_path_does_not_import_scipy_signal():
    modules = ", ".join(f"treespect.{m}" for m in ANALYTIC_MODULES)
    assert not loads_scipy_signal(f"import treespect, {modules}")


def test_cli_imports_scipy_signal():
    assert loads_scipy_signal("import treespect.cli")


def test_package_resolves_stream_functions_lazily():
    from treespect import apply_corruption, simulate

    assert simulate is streams.simulate
    assert apply_corruption is streams.apply_corruption
