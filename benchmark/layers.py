"""Which treespect functions the traced run wraps, and the per-layer metrics
computed from the recorded spans.

A function is wrapped under the name its caller looks it up by: `cli.py`
imports `simulate` into its own namespace, so `treespect.cli.simulate` is
wrapped, and so on.  The benchmark's own calls go through module
attributes (`treespect.oracles.woodbury_chain_inverse`), which are wrapped
too.  Span names are `<layer>.<operation>`, where the layer is the module
under `src/treespect/` that owns the function.
"""

from __future__ import annotations

import os
import statistics

from spans import Tracer


def _size_of_result(key):
    return lambda result, *a, **kw: {key: os.path.getsize(result)}


def _size_of_first_arg(key):
    return lambda result, path, *a, **kw: {key: os.path.getsize(path)}


def _samples(result, *a, **kw):
    return {"ltisim.samples_generated": result.n_samples}


def _welch_segments(result, panel, params, *a, **kw):
    return {"spectral.welch_segments": params.segment_count(panel.n_samples)}


def _matrices(result, *a, **kw):
    return {"spectral.matrices_inverted": result.grid.size}


def _woodbury_steps(result, *a, **kw):
    return {"oracles.woodbury_steps": len(result[1])}


def _support_edges(result, *a, **kw):
    return {"detection.support_edges": len(result.support_graph.edges)}


def _placements(result, *a, **kw):
    return {
        "reconstruction.placement_trials": len(result.placements),
        "reconstruction.placements_adopted": sum(t.adopted for t in result.placements),
    }


def _one(key):
    return lambda result, *a, **kw: {key: 1}


# (module, attribute, span name, counter)
PATCHES = (
    ("cli", "load_config", "config.load", None),
    ("cli", "_sweep_row", "cli.sweep_row", None),
    ("cli", "simulate", "ltisim.simulate", _samples),
    ("cli", "apply_corruption", "corruption.apply", None),
    ("cli", "save_panel", "panel.save", _size_of_result("panel.bytes_written")),
    ("cli", "load_panel", "panel.load", _size_of_first_arg("panel.bytes_read")),
    ("cli", "sha256_file", "config.sha256", _size_of_first_arg("config.bytes_hashed")),
    ("cli", "estimate_cpsd", "spectral.estimate_cpsd", _welch_segments),
    ("cli", "save_spectra_binary", "spectral.rtsm_io", None),
    ("cli", "load_spectra_binary", "spectral.rtsm_io", None),
    ("cli", "invert_spectrum", "spectral.invert", _matrices),
    ("cli", "detect", "detection.detect", _support_edges),
    ("cli", "hide_and_learn", "reconstruction.hide_and_learn", None),
    ("cli", "analytic_signatures", "corruption.signatures", None),
    ("cli", "analytic_corrupted_psd", "oracles.corrupted_psd", None),
    ("cli", "random_instance", "instances.random_instance",
     _one("instances.accepted")),
    ("oracles", "analytic_signatures", "corruption.signatures", None),
    ("oracles", "analytic_corrupted_psd", "oracles.corrupted_psd", None),
    ("oracles", "woodbury_chain_inverse", "oracles.woodbury", _woodbury_steps),
    ("oracles", "analytic_psd", "ltisim.analytic_psd", None),
    ("oracles", "analytic_inverse_psd", "ltisim.analytic_inverse_psd", None),
    ("corruption", "stationary_autocovariance", "ltisim.autocovariance", None),
    ("spectral", "invert_spectrum", "spectral.invert", _matrices),
    ("detection", "detect", "detection.detect", _support_edges),
    ("detection", "phase_nonconstancy_score", "detection.phase_test",
     _one("detection.phase_tests")),
    ("reconstruction", "hide_and_learn", "reconstruction.hide_and_learn", None),
    ("reconstruction", "invert_spectrum", "spectral.invert", _matrices),
    ("reconstruction", "marginal_inverse_psd", "spectral.marginal_inverse", None),
    ("reconstruction", "place_corrupt_nodes", "reconstruction.place", _placements),
    ("reconstruction", "phase_nonconstancy_score", "detection.phase_test",
     _one("detection.phase_tests")),
    ("instances", "draw_model", "instances.draw", _one("instances.draws")),
    ("instances", "analytic_signatures", "corruption.signatures", None),
    ("instances", "woodbury_chain_inverse", "oracles.woodbury", _woodbury_steps),
    ("instances", "analytic_corrupted_psd", "oracles.corrupted_psd", None),
    ("instances", "marginal_inverse_psd", "spectral.marginal_inverse", None),
    ("instances", "phase_nonconstancy_score", "detection.phase_test",
     _one("detection.phase_tests")),
)
STAGES = ("simulate", "corrupt", "spectra", "detect", "learn")

SPAN_NAMES = tuple(dict.fromkeys(
    [p[2] for p in PATCHES] + [f"cli.stage_{s}" for s in STAGES]
))
# exact counts; each must repeat between runs of one invocation
COUNTS = {
    "ltisim.samples_generated": "count",
    "panel.bytes_written": "B",
    "panel.bytes_read": "B",
    "config.bytes_hashed": "B",
    "spectral.welch_segments": "count",
    "spectral.matrices_inverted": "count",
    "oracles.woodbury_steps": "count",
    "detection.phase_tests": "count",
    "detection.support_edges": "count",
    "reconstruction.placement_trials": "count",
    "instances.draws": "count",
}
RATIOS = {
    "reconstruction.adopted_ratio": ("reconstruction.placements_adopted",
                                     "reconstruction.placement_trials"),
    "instances.accept_ratio": ("instances.accepted", "instances.draws"),
}
# name -> unit of every metric the traced run reports
PER_LAYER = {
    **{f"{name}_s": "s" for name in SPAN_NAMES},
    **COUNTS,
    **{name: "ratio" for name in RATIOS},
    "cli.sweep_row_s.median": "s",
    "cli.sweep_row_s.max": "s",
    "trace.coverage": "ratio",
    "trace.overhead_s": "s",
}


def instrument(run_id: str) -> Tracer:
    """Wrap every function in PATCHES and the cli.STAGES entries."""
    import importlib

    tracer = Tracer(run_id)
    for module, attr, name, counter in PATCHES:
        tracer.patch(importlib.import_module(f"treespect.{module}"), attr, name, counter)
    cli = importlib.import_module("treespect.cli")
    for stage in STAGES:
        tracer.patch_item(cli.STAGES, stage, f"cli.stage_{stage}")
    return tracer


def layer_metrics(tracer: Tracer, windows) -> dict[str, float]:
    """Per-layer metrics of one traced operation.

    `trace.coverage` is the share of the operation's timed windows covered
    by top-level spans; `trace.overhead_s` needs untraced runs and is
    filled in by the parent.
    """
    self_s = tracer.self_time_by_name()
    out = {f"{name}_s": self_s.get(name, 0.0) for name in SPAN_NAMES}
    out.update({name: tracer.counts.get(name, 0) for name in COUNTS})
    for name, (num, den) in RATIOS.items():
        total = tracer.counts.get(den, 0)
        out[name] = tracer.counts.get(num, 0) / total if total else 0.0
    rows = tracer.durations("cli.sweep_row")
    out["cli.sweep_row_s.median"] = statistics.median(rows) if rows else 0.0
    out["cli.sweep_row_s.max"] = max(rows, default=0.0)
    wall = sum(hi - lo for lo, hi in windows)
    covered = sum(tracer.top_level_time(lo, hi) for lo, hi in windows)
    out["trace.coverage"] = covered / wall if wall > 0 else 0.0
    return out
