"""Command-line pipeline: simulate | corrupt | spectra | detect | learn |
pipeline | sweep.

Every stage reads the experiment config plus its input files from the
output directory, writes its own artifacts, and records a manifest with
parameter echo and input/output SHA-256 hashes.  The panel files are the
stages' working store: simulate writes its trajectory a scan span at a
time, corrupt reads the clean panel and writes the corrupted one a row
block at a time, and spectra reads spans of that, so no stage holds a
whole panel or a whole row and memory does not grow with the trajectory.
A panel is written to a temporary name that replaces the artifact only
when the stage succeeds.  Simulate hashes its panel by reading the
finished file back, on its own thread; corrupt hashes its rows as it
writes them, in file order, on a helper thread.  Within one `pipeline`
run, corrupt and spectra take their input's hash from the stage that
wrote it, so no panel is hashed twice; a stage run alone hashes its input
file on a helper thread while it works.  Detect and learn take the
spectra stage's `SpectralMatrix` in memory, so a `pipeline` run inverts
its spectrum once; they still hash the spectra file for their manifests.
Spectra and reports are hashed from their files.  Exit codes: 0 ok,
2 config, 3 data, 4 numerical, 5 assumption violation.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import hashlib
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .config import (
    ExperimentConfig,
    is_count,
    load_config,
    read_chunks,
    refuse_unknown_keys,
    sha256_file,
    sha256_parts,
    welch_params,
)
from .detection import (
    ANALYTIC_DECISION,
    EdgeDecisionParams,
    detect,
    report_from_dict,
    report_to_dot,
    report_to_json,
)
from .errors import ConfigError, DataError, TreespectError
from .instances import adversarial_instance, random_instance
from .oracles import analytic_corrupted_psd, analytic_signatures
from .panel import PanelReader, PanelWriter
from .panel import load_panel, save_panel  # noqa: F401  wrapped by benchmark/layers.py
from .reconstruction import estimate_to_dot, estimate_to_json, hide_and_learn
from .spectral import (
    FrequencyGrid,
    estimate_cpsd,
    invert_spectrum,
    load_spectra_binary,
    save_spectra_binary,
)
from .streams import apply_corruption, corrupted_blocks, simulate, simulate_blocks

PANEL_CLEAN = "panel_clean.bin"
PANEL_CORRUPT = "panel_corrupt.bin"
SPECTRA = "spectra_corrupt.rtsm"
DETECTION_JSON = "detection.json"
DETECTION_DOT = "detection.dot"
TOPOLOGY_JSON = "topology.json"
TOPOLOGY_DOT = "topology.dot"


def _digests(paths) -> dict[str, str]:
    """File name -> SHA-256 of each file, hashed on the calling thread; for
    the small spectra and report files."""
    return {p.name: sha256_file(p) for p in paths}


def _write_manifest(out: Path, stage: str, cfg: ExperimentConfig, inputs, outputs, extra=None):
    """`inputs` and `outputs` map file names to their SHA-256 digests."""
    manifest = {
        "stage": stage,
        "version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "config": cfg.to_dict(),
        "inputs": inputs,
        "outputs": outputs,
    }
    manifest.update(extra or {})
    path = out / f"manifest_{stage}.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return path


def _require(path: Path, hint: str) -> Path:
    if not path.exists():
        raise DataError(f"missing {path.name}; run `{hint}` first")
    return path


# Corrupt's row hashing and the hash of a stage's input panel run on the
# stage's helper thread (hashlib and file I/O release the GIL), so they
# overlap the stage's own work.  Panels are hashed with sha256_parts, never
# sha256_file: the benchmark's tracer wraps this module's sha256_file, for
# the small files, and its span stack is the main thread's.
#
# `handoff` maps a panel file name to its SHA-256 for a panel an earlier
# stage of the same run wrote; the stage that reads it pops the entry, so no
# stage hashes its input again.  Under `SPECTRA` it holds the
# spectra stage's estimate, which detect reads and learn pops.

def _input_digest(handoff: dict, path: Path, hint: str, helper: ThreadPoolExecutor):
    """A function returning the SHA-256 of the panel file at `path`: the
    upstream stage's output digest if it ran in this process, else the
    file's, hashed on `helper` meanwhile."""
    _require(path, hint)
    if path.name in handoff:
        digest = handoff.pop(path.name)
        return lambda: digest
    return helper.submit(sha256_parts, read_chunks(path)).result


def _in_order(helper: ThreadPoolExecutor, call, items) -> None:
    """Run `call(*item)` on `helper` for each of `items`, in order and one
    at a time, while the caller makes the next item."""
    pending = None
    try:
        for item in items:
            if pending is not None:
                pending.result()
            pending = helper.submit(call, *item)
    finally:
        if pending is not None:
            pending.result()


def stage_simulate(cfg: ExperimentConfig, out: Path, handoff: dict) -> list[Path]:
    blocks = simulate_blocks(cfg.model, cfg.trajectory_length, cfg.seed, burn_in=cfg.burn_in)
    path = out / PANEL_CLEAN
    with PanelWriter(path, cfg.model.labels, cfg.trajectory_length) as writer:
        for lo, block in blocks:
            writer.put(lo, block)
    # blocks land at their offsets in every row, out of file order, so the
    # file is hashed once it is complete
    digest = sha256_parts(read_chunks(path))
    handoff[path.name] = digest
    _write_manifest(out, "simulate", cfg, {}, {path.name: digest})
    return [path]


def stage_corrupt(cfg: ExperimentConfig, out: Path, handoff: dict) -> list[Path]:
    src = out / PANEL_CLEAN
    path = out / PANEL_CORRUPT
    # two helpers: a stage run alone hashes its input on one while the
    # other hashes the output
    with ThreadPoolExecutor(max_workers=2) as helper:
        src_digest = _input_digest(handoff, src, "treespect simulate", helper)
        with PanelReader(src) as reader:
            with PanelWriter(path, reader.labels, reader.n_samples) as writer:

                def written():
                    for i, lo, samples in corrupted_blocks(reader, cfg.corruption, cfg.seed):
                        writer.write(i, lo, samples)
                        yield (samples,)

                # rows come in file order, so the file is hashed as written
                digest = hashlib.sha256(writer.header)
                _in_order(helper, digest.update, written())
    handoff[path.name] = digest.hexdigest()
    _write_manifest(
        out, "corrupt", cfg, {src.name: src_digest()}, {path.name: handoff[path.name]}
    )
    return [path]


def stage_spectra(cfg: ExperimentConfig, out: Path, handoff: dict) -> list[Path]:
    src = out / PANEL_CORRUPT
    with ThreadPoolExecutor(max_workers=1) as helper:
        src_digest = _input_digest(handoff, src, "treespect corrupt", helper)
        with PanelReader(src) as reader:
            spectra = estimate_cpsd(reader, cfg.welch)
    path = out / SPECTRA
    save_spectra_binary(spectra, path)
    handoff[SPECTRA] = spectra
    _write_manifest(out, "spectra", cfg, {src.name: src_digest()}, _digests([path]))
    return [path]


def _decision(cfg: ExperimentConfig) -> EdgeDecisionParams:
    """The decision rule of the run's spectrum: its Welch segment count."""
    return EdgeDecisionParams(cfg.welch.segment_count(cfg.trajectory_length))


def stage_detect(cfg: ExperimentConfig, out: Path, handoff: dict) -> list[Path]:
    src = _require(out / SPECTRA, "treespect spectra")
    spectra = handoff.get(SPECTRA) or load_spectra_binary(src)
    inverse = invert_spectrum(spectra)
    report = detect(inverse, _decision(cfg))
    jpath = out / DETECTION_JSON
    jpath.write_text(report_to_json(report))
    dpath = out / DETECTION_DOT
    dpath.write_text(report_to_dot(report))
    _write_manifest(
        out, "detect", cfg, _digests([src]), _digests([jpath, dpath]),
        extra={"flagged_frequencies": int(inverse.flagged.sum())},
    )
    return [jpath, dpath]


def stage_learn(cfg: ExperimentConfig, out: Path, handoff: dict) -> list[Path]:
    spath = _require(out / SPECTRA, "treespect spectra")
    rpath = _require(out / DETECTION_JSON, "treespect detect")
    spectra = handoff.pop(SPECTRA, None) or load_spectra_binary(spath)
    try:
        payload = json.loads(rpath.read_text())
    except json.JSONDecodeError as exc:
        raise DataError(f"{rpath.name} is not valid JSON: {exc}") from exc
    report = report_from_dict(payload, spectra.labels)
    estimate = hide_and_learn(spectra, report, _decision(cfg))
    jpath = out / TOPOLOGY_JSON
    jpath.write_text(estimate_to_json(estimate))
    dpath = out / TOPOLOGY_DOT
    dpath.write_text(estimate_to_dot(estimate))
    _write_manifest(out, "learn", cfg, _digests([spath, rpath]), _digests([jpath, dpath]))
    return [jpath, dpath]


STAGES = {
    "simulate": stage_simulate,
    "corrupt": stage_corrupt,
    "spectra": stage_spectra,
    "detect": stage_detect,
    "learn": stage_learn,
}


def run_stages(names, cfg: ExperimentConfig, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    handoff: dict = {}
    for name in names:
        t0 = time.perf_counter()
        written = STAGES[name](cfg, out, handoff)
        dt = time.perf_counter() - t0
        files = ", ".join(p.name for p in written)
        print(f"[{name}] {dt:.1f}s -> {files}")


# ---------------------------------------------------------------------------
# sweep

SWEEP_KEYS = frozenset({
    "instances", "nodes", "corrupt", "trajectories", "seed", "violate_assumption", "welch",
})


def _is_range(v) -> bool:
    return isinstance(v, list) and len(v) == 2 and all(map(is_count, v)) and v[0] <= v[1]


def _is_trajectory(v) -> bool:
    return v == "analytic" or (is_count(v) and v > 0)


def _sweep_value(payload: dict, key: str, default, valid, expected: str):
    """`payload[key]` (or the default) if `valid` accepts it, else a
    ConfigError naming the key."""
    value = payload.get(key, default)
    if not valid(value):
        raise ConfigError(f"sweep config {key!r} must be {expected}, got {value!r}")
    return value


def _max_corrupt(n: int, hi_k: int) -> int:
    """Most corrupt nodes a sweep draws on an n-node tree: k of them need
    3k + 4 nodes."""
    return min(hi_k, max(0, (n - 4) // 3))


def _sweep_row(task) -> dict:
    idx, n, k, trajectory, cfg_payload, violate = task
    rng = np.random.default_rng([cfg_payload["seed"], idx])
    welch = cfg_payload["welch"]
    row = {
        "instance": idx,
        "n_nodes": n,
        "n_corrupt": k,
        "trajectory": trajectory,
        "recovered": False,
        "n_diagnostics": 0,
        "diagnostics": "",
        "error": "",
    }
    try:
        inst = adversarial_instance(rng, n) if violate else random_instance(rng, n, k)
        row["n_nodes"] = inst.model.n_nodes
        row["n_corrupt"] = len(inst.corrupt)
        if trajectory == "analytic":
            decision = ANALYTIC_DECISION
            grid = FrequencyGrid.welch_bins(min(welch.segment_length, 256))
            sigs = analytic_signatures(inst.model, inst.specs, grid)
            psd = analytic_corrupted_psd(inst.model, sigs, grid)
        else:
            decision = EdgeDecisionParams(welch.segment_count(trajectory))
            panel = simulate(inst.model, trajectory, seed=int(rng.integers(2**31)))
            panel = apply_corruption(panel, list(inst.specs), seed=int(rng.integers(2**31)))
            psd = estimate_cpsd(panel, welch)
        report = detect(invert_spectrum(psd), decision)
        estimate = hide_and_learn(psd, report, decision)
        diags = list(report.diagnostics) + list(estimate.diagnostics)
        row["recovered"] = bool(
            estimate.graph.edges == inst.topology.edges and not diags
        )
        row["n_diagnostics"] = len(diags)
        row["diagnostics"] = ";".join(sorted({d.kind for d in diags}))
    except TreespectError as exc:
        row["error"] = type(exc).__name__
    return row


def cmd_sweep(args) -> int:
    path = Path(args.config)
    if not path.exists():
        raise ConfigError(f"sweep config not found: {path}")
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    refuse_unknown_keys(payload, SWEEP_KEYS, "sweep config")
    count = _sweep_value(payload, "instances", 0, is_count, "an integer >= 0")
    pair = "a [low, high] pair of integers >= 0"
    # a panel holds at least two channels
    lo_n, hi_n = _sweep_value(
        payload, "nodes", [7, 15], lambda v: _is_range(v) and v[0] >= 2,
        "a [low, high] pair of integers >= 2",
    )
    lo_k, hi_k = _sweep_value(payload, "corrupt", [1, 3], _is_range, pair)
    if lo_k > _max_corrupt(lo_n, hi_k):
        raise ConfigError(
            f"sweep config 'corrupt' low {lo_k} is more than a {lo_n}-node tree can host"
        )
    trajectories = _sweep_value(
        payload, "trajectories", ["analytic"],
        lambda v: isinstance(v, list) and all(map(_is_trajectory, v)),
        'a list of "analytic" or sample counts >= 1',
    )
    seed = _sweep_value(payload, "seed", 0, is_count, "an integer >= 0")
    if args.seed is not None:
        if not is_count(args.seed):
            raise ConfigError(f"--seed must be an integer >= 0, got {args.seed}")
        seed = args.seed
    if args.threads < 1:
        raise ConfigError(f"--threads must be an integer >= 1, got {args.threads}")
    violate = _sweep_value(
        payload, "violate_assumption", False, lambda v: isinstance(v, bool), "true or false"
    )
    cfg_payload = {"seed": seed, "welch": welch_params(payload)}

    rng = np.random.default_rng(cfg_payload["seed"])
    tasks = []
    for idx in range(count):
        n = int(rng.integers(lo_n, hi_n + 1))
        k = int(rng.integers(lo_k, _max_corrupt(n, hi_k) + 1))
        for trajectory in trajectories:
            tasks.append((idx, n, k, trajectory, cfg_payload, violate))

    # the pool forks all its workers at the first submit, so never ask for
    # more than there are rows or cores
    workers = min(args.threads, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_row, tasks))
    else:
        rows = [_sweep_row(t) for t in tasks]

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    summary = out / "sweep_summary.csv"
    fields = [
        "instance", "n_nodes", "n_corrupt", "trajectory",
        "recovered", "n_diagnostics", "diagnostics", "error",
    ]
    with summary.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)
    for trajectory in trajectories:
        sub = [r for r in rows if r["trajectory"] == trajectory]
        if sub:
            rate = sum(r["recovered"] for r in sub) / len(sub)
            print(f"trajectory={trajectory}: recovery rate {rate:.3f} ({len(sub)} runs)")
    print(f"wrote {summary}")
    return 0


# ---------------------------------------------------------------------------
# entry point

def _make_stage_cmd(names):
    def run(args) -> int:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        run_stages(names, cfg, Path(args.out))
        return 0

    return run


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treespect",
        description="Learn tree topologies of bidirectional LTI networks "
        "from corrupted time series.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    stage_sets = {
        "simulate": ["simulate"],
        "corrupt": ["corrupt"],
        "spectra": ["spectra"],
        "detect": ["detect"],
        "learn": ["learn"],
        "pipeline": ["simulate", "corrupt", "spectra", "detect", "learn"],
    }
    for name, names in stage_sets.items():
        p = sub.add_parser(name, help=f"run the {name} stage")
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.set_defaults(func=_make_stage_cmd(names))

    p = sub.add_parser("sweep", help="randomized recovery-rate sweep")
    p.add_argument("--config", required=True, help="sweep config JSON")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override sweep seed")
    p.add_argument("--threads", type=int, default=1, help="worker processes")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TreespectError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
