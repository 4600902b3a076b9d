"""Tests of the benchmark's own code:  python3 -m pytest benchmark -q"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Tracer, covered, self_times  # noqa: E402
from stats import (  # noqa: E402
    percentile,
    quartile_spread,
    summarize,
    tail_percentile,
    valid_metric_name,
)


def fake_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_nested_and_back_to_back_children():
    # parent [0, 10]; children [1, 3] and [3, 6] back to back;
    # grandchild [4, 5] inside the second child
    tracer = Tracer("r", clock=fake_clock([0, 1, 3, 3, 4, 5, 6, 10]))
    with tracer.span("parent"):
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            with tracer.span("c"):
                pass
    by_name = tracer.self_time_by_name()
    assert by_name == {"parent": 5, "a": 2, "b": 2, "c": 1}
    parent = next(s for s in tracer.spans if s.name == "parent")
    assert parent.parent is None
    assert {s.parent for s in tracer.spans if s.name in "ab"} == {parent.span_id}
    assert {s.run_id for s in tracer.spans} == {"r"}
    assert tracer.top_level_time(0, 10) == 10
    assert tracer.top_level_time(2, 4) == 2


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span(0, "p", 0.0, 10.0, None, "r"),
        Span(1, "x", 1.0, 5.0, 0, "r"),
        Span(2, "y", 4.0, 7.0, 0, "r"),
        Span(3, "z", 9.0, 12.0, 0, "r"),  # clipped to the parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10 - 6 - 1)
    assert covered([(0, 1), (1, 2), (5, 6)], 0, 10) == 3
    assert covered([], 0, 1) == 0


def test_patch_records_spans_counts_and_restores():
    def double(x):
        return 2 * x

    mod = types.SimpleNamespace(double=double)
    stages = {"s": double}
    tracer = Tracer("r")
    tracer.patch(mod, "double", "m.double", lambda result, x: {"m.calls": 1, "m.sum": result})
    tracer.patch_item(stages, "s", "m.stage")
    assert mod.double(3) == 6 and mod.double(4) == 8 and stages["s"](1) == 2
    assert tracer.counts == {"m.calls": 2, "m.sum": 14}
    assert [s.name for s in tracer.spans] == ["m.double", "m.double", "m.stage"]
    tracer.close()
    assert mod.double is double and stages["s"] is double


def test_failed_call_records_span_but_no_count():
    def boom():
        raise ValueError("x")

    tracer = Tracer("r")
    wrapped = tracer.wrap(boom, "m.boom", lambda result: {"m.ok": 1})
    with pytest.raises(ValueError):
        wrapped()
    assert [s.name for s in tracer.spans] == ["m.boom"] and tracer.counts == {}


def test_percentile_and_tail_rule():
    assert percentile([4, 1, 3, 2], 50) == 2.5
    assert percentile([1, 2, 3, 4, 5], 90) == pytest.approx(4.6)
    # a percentile is reported only with >= 10 samples beyond it
    assert tail_percentile(3) is None
    assert tail_percentile(39) is None
    assert tail_percentile(40) == 75.0
    assert tail_percentile(100) == 90.0
    assert tail_percentile(199) == 90.0
    assert tail_percentile(200) == 95.0
    assert tail_percentile(1000) == 99.0
    assert tail_percentile(10000) == 99.9
    assert summarize([3.0, 1.0, 2.0]) == {"median": 2.0, "n": 3}
    s = summarize(range(1, 101))
    assert (s["median"], s["n"], s["p"]) == (50.5, 100, 90.0)
    assert s["tail"] == pytest.approx(90.1)


def test_quartile_spread():
    assert quartile_spread([10.0] * 10) == 0.0
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    assert quartile_spread(values) == pytest.approx((8.25 - 2.75) / 5.5)


@pytest.mark.parametrize("name", ["wall_s", "cli.sweep_row_s.max", "a-b_9.x", "9x"])
def test_valid_metric_names(name):
    assert valid_metric_name(name)


@pytest.mark.parametrize("name", ["", "a b", "x/y", "rate%", "é", "a" * 65])
def test_invalid_metric_names(name):
    assert not valid_metric_name(name)


def test_catalogue_matches_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    for name in [*run.END_TO_END, *layers.PER_LAYER, *workloads.WORKLOADS]:
        assert valid_metric_name(name), name


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_seed_gives_identical_inputs(name, tmp_path):
    setup = workloads.WORKLOADS[name].setup
    dirs = [tmp_path / d for d in ("a", "b", "c")]
    for d in dirs:
        d.mkdir()
    _, first = setup(5, dirs[0])
    _, again = setup(5, dirs[1])
    _, other = setup(6, dirs[2])
    assert first == again
    assert first != other


def test_trajectory_key_and_blas_budget():
    assert [workloads.trajectory_key(t) for t in ("analytic", 100000, 1000000, 250)] == [
        "analytic", "t1e5", "t1e6", "t250",
    ]
    assert run.blas_threads(2, 2) == 1
    assert run.blas_threads(2, 1) == 2
    assert run.blas_threads(1, 2) == 1
    assert run.blas_threads(8, 3) == 2


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "chain7_pipeline",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
