import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import treespect
from treespect.errors import AssumptionViolation

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_run_chain7_failure_exits_with_its_code(tmp_path):
    # 2000 samples give 2 Welch segments of the default 1024; 8 are needed,
    # and the pipeline refuses such a config when it loads it
    env = dict(os.environ, PYTHONPATH=str(Path(treespect.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "run_chain7.py"), "--samples", "2000",
         "--out", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith(
        "error: trajectory_length 2000 too short for Welch segments of 1024"
    )
    assert "Traceback" not in proc.stderr


def test_run_chain7_narrates_no_report_of_an_earlier_run(tmp_path, monkeypatch, capsys):
    # a run that fails before detect narrates nothing from the reports an
    # earlier run left in --out
    stale = {"support_edges": [{"a": "1", "b": "7"}], "candidates": ["7"], "corrupt": ["7"],
             "leaves": [], "leaf_edges": []}
    (tmp_path / "detection.json").write_text(json.dumps(stale))
    monkeypatch.setattr(sys, "argv", ["run_chain7.py", "--samples", "2000",
                                      "--out", str(tmp_path)])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(SCRIPTS / "run_chain7.py"), run_name="__main__")
    assert exc.value.code == 2
    out = capsys.readouterr().out
    assert "support graph" not in out and "corrupt nodes" not in out
    assert not (tmp_path / "detection.json").exists()


def test_run_chain7_keeps_detection_when_reconstruction_fails(tmp_path, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssumptionViolation("only 0 observed nodes remain")

    monkeypatch.setattr("treespect.cli.hide_and_learn", refuse)
    monkeypatch.setattr(sys, "argv", ["run_chain7.py", "--samples", "20000",
                                      "--segment", "256", "--out", str(tmp_path)])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(SCRIPTS / "run_chain7.py"), run_name="__main__")
    assert exc.value.code == 5
    captured = capsys.readouterr()
    assert "error: only 0 observed nodes remain" in captured.err
    assert "corrupt nodes: ['4']" in captured.out
    assert "recovered topology" not in captured.out
    assert (tmp_path / "detection.json").exists()
    assert (tmp_path / "detection.dot").exists()
    assert not (tmp_path / "topology.json").exists()


@pytest.mark.parametrize(
    "codes, expected",
    [([2, 0], 2), ([0, 5], 5), ([3, 5], 3), ([0, 0], 0)],
    ids=["main-fails", "negative-fails", "both-fail", "both-pass"],
)
def test_run_sweep_exits_with_first_nonzero_code(tmp_path, monkeypatch, codes, expected):
    returned = iter(codes)
    monkeypatch.setattr("treespect.cli.main", lambda argv: next(returned))
    monkeypatch.setattr(sys, "argv", ["run_sweep.py", "--out", str(tmp_path)])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(SCRIPTS / "run_sweep.py"), run_name="__main__")
    assert exc.value.code == expected


@pytest.mark.parametrize("value", ["1e6", "0", "-3", "fast"])
def test_run_sweep_refuses_a_bad_trajectory(tmp_path, monkeypatch, capsys, value):
    def refuse(argv):
        raise AssertionError(f"ran {argv}")

    monkeypatch.setattr("treespect.cli.main", refuse)
    monkeypatch.setattr(sys, "argv", ["run_sweep.py", "--trajectories", "analytic", value,
                                      "--out", str(tmp_path)])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(SCRIPTS / "run_sweep.py"), run_name="__main__")
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --trajectories: must be 'analytic' or an integer >= 1, got {value!r}" in err
    assert "Traceback" not in err
