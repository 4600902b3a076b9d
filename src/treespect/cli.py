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
when the stage succeeds.  Each panel is hashed once per run, from its
finished file, on the run's one helper thread, which also writes the
manifests in stage order; a stage that reads a panel written earlier in
the same run takes that hash, and a stage run alone hashes its input panel
while it works.  Detect and learn take the spectra stage's
`SpectralMatrix` in memory, so a `pipeline` run inverts its spectrum once;
they refuse a spectra file from another Welch segment length.  Learn
detects again on that one inverse and refuses a `detection.json` whose
bytes are not that report's, so it never learns from another run's
detection.  Spectra and reports are hashed from their files on the main
thread.  Each manifest's `run` object records what the stage cost: its
wall `seconds`, the process's `peak_rss_mb` when it ended, and
`hash_seconds`, the helper's time to hash each panel it names (a panel
that one stage writes and the next reads is hashed once, and both
manifests show that time).  `run` changes
from run to run and is no part of the digests.  Exit codes: 0 ok, 2 config,
3 data, 4 numerical, 5 assumption violation.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import json
import os
import resource
import sys
import time
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .config import (
    ExperimentConfig,
    check_welch_length,
    is_count,
    load_config,
    read_chunks,
    read_json,
    refuse_unknown_keys,
    sha256_file,
    sha256_parts,
    welch_params,
)
from .detection import (
    ANALYTIC_DECISION,
    EdgeDecisionParams,
    detect,
    report_to_dot,
    report_to_json,
)
from .errors import ConfigError, DataError, TreespectError
from .instances import adversarial_instance, max_deep_nodes, random_instance
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


def _write_manifest(
    out: Path, stage: str, cfg: ExperimentConfig, entries: dict, run: dict
) -> None:
    """Write `manifest_<stage>.json` from the stage's `entries`, whose
    `inputs` and `outputs` map file names to SHA-256 digests or, for the
    panels, to futures of (digest, seconds) that the helper has already run,
    and from `run`, the stage's cost, to which the panels' hash seconds are
    added."""
    manifest = {
        "stage": stage,
        "version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "config": cfg.to_dict(),
        **entries,
    }
    hashed = {}
    for key in ("inputs", "outputs"):
        manifest[key] = {}
        for name, d in entries[key].items():
            if isinstance(d, Future):
                d, hashed[name] = d.result()
            manifest[key][name] = d
    manifest["run"] = {**run, "hash_seconds": hashed}
    path = out / f"manifest_{stage}.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True))


def _require(path: Path, hint: str) -> Path:
    if not path.exists():
        raise DataError(f"missing {path.name}; run `{hint}` first")
    if not path.is_file():
        raise DataError(f"{path} is not a readable file; run `{hint}` again")
    return path


# A stage returns its manifest's entries; `run_stages` hands them to the
# run's one helper thread, which writes the manifests in stage order.  The
# helper also hashes each panel from its finished file (hashlib and file I/O
# release the GIL), so the hash overlaps the next stage's work.  It hashes
# with sha256_parts, never sha256_file: the benchmark's tracer wraps this
# module's sha256_file, for the small files, and its span stack is the main
# thread's.
#
# `handoff` maps a panel file name to the future of its SHA-256 for a panel
# an earlier stage of the same run wrote; the stage that reads it pops the
# entry, so no panel is hashed twice.  Under `SPECTRA` it holds the spectra
# stage's estimate, which detect reads and learn pops.

def _hash_panel(helper: ThreadPoolExecutor, path: Path) -> Future:
    """The SHA-256 of the finished panel file at `path` and the seconds it
    took, hashed on `helper`."""
    def timed():
        t0 = time.perf_counter()
        return sha256_parts(read_chunks(path)), time.perf_counter() - t0

    return helper.submit(timed)


def _input_digest(handoff: dict, path: Path, hint: str, helper: ThreadPoolExecutor) -> Future:
    """The `_hash_panel` future of the input panel at `path`: the one its
    writer submitted in this run, else one submitted now."""
    _require(path, hint)
    return handoff.pop(path.name, None) or _hash_panel(helper, path)


def stage_simulate(cfg: ExperimentConfig, out: Path, handoff: dict, helper) -> dict:
    blocks = simulate_blocks(cfg.model, cfg.trajectory_length, cfg.seed, burn_in=cfg.burn_in)
    path = out / PANEL_CLEAN
    with PanelWriter(path, cfg.model.labels, cfg.trajectory_length) as writer:
        for lo, block in blocks:
            writer.put(lo, block)
    handoff[path.name] = _hash_panel(helper, path)
    return {"inputs": {}, "outputs": {path.name: handoff[path.name]}}


def stage_corrupt(cfg: ExperimentConfig, out: Path, handoff: dict, helper) -> dict:
    src = out / PANEL_CLEAN
    src_digest = _input_digest(handoff, src, "treespect simulate", helper)
    path = out / PANEL_CORRUPT
    with PanelReader(src) as reader:
        with PanelWriter(path, reader.labels, reader.n_samples) as writer:
            for i, lo, samples in corrupted_blocks(reader, cfg.corruption, cfg.seed):
                writer.write(i, lo, samples)
    handoff[path.name] = _hash_panel(helper, path)
    return {"inputs": {src.name: src_digest}, "outputs": {path.name: handoff[path.name]}}


def stage_spectra(cfg: ExperimentConfig, out: Path, handoff: dict, helper) -> dict:
    src = out / PANEL_CORRUPT
    src_digest = _input_digest(handoff, src, "treespect corrupt", helper)
    with PanelReader(src) as reader:
        spectra = estimate_cpsd(reader, cfg.welch)
    path = out / SPECTRA
    save_spectra_binary(spectra, path)
    handoff[SPECTRA] = spectra
    return {"inputs": {src.name: src_digest}, "outputs": _digests([path])}


def _decision(cfg: ExperimentConfig, spectra, path: Path) -> EdgeDecisionParams:
    """The decision rule of the run's spectrum: its Welch segment count.  A
    DataError if the spectrum from `path` is on another Welch grid, whose
    segment count would be another."""
    if spectra.grid != cfg.welch:
        raise DataError(
            f"{path} holds spectra of Welch segment length "
            f"{spectra.grid.segment_length}, but the config's segment_length is "
            f"{cfg.welch.segment_length}; run `treespect spectra` again"
        )
    return EdgeDecisionParams(cfg.welch.segment_count(cfg.trajectory_length))


def stage_detect(cfg: ExperimentConfig, out: Path, handoff: dict, helper) -> dict:
    src = _require(out / SPECTRA, "treespect spectra")
    spectra = handoff.get(SPECTRA) or load_spectra_binary(src)
    decision = _decision(cfg, spectra, src)
    inverse = invert_spectrum(spectra)
    report = detect(inverse, decision)
    jpath = out / DETECTION_JSON
    jpath.write_text(report_to_json(report))
    dpath = out / DETECTION_DOT
    dpath.write_text(report_to_dot(report))
    return {
        "inputs": _digests([src]),
        "outputs": _digests([jpath, dpath]),
        "flagged_frequencies": int(inverse.flagged.sum()),
    }


def stage_learn(cfg: ExperimentConfig, out: Path, handoff: dict, helper) -> dict:
    spath = _require(out / SPECTRA, "treespect spectra")
    rpath = _require(out / DETECTION_JSON, "treespect detect")
    spectra = handoff.pop(SPECTRA, None) or load_spectra_binary(spath)
    decision = _decision(cfg, spectra, spath)
    report = detect(invert_spectrum(spectra), decision)
    if report_to_json(report).encode() != rpath.read_bytes():
        raise DataError(
            f"{rpath} is not the detection of {spath} under this config; "
            "run `treespect detect` again"
        )
    estimate = hide_and_learn(spectra, report, decision)
    jpath = out / TOPOLOGY_JSON
    jpath.write_text(estimate_to_json(estimate))
    dpath = out / TOPOLOGY_DOT
    dpath.write_text(estimate_to_dot(estimate))
    return {"inputs": _digests([spath, rpath]), "outputs": _digests([jpath, dpath])}


STAGES = {
    "simulate": stage_simulate,
    "corrupt": stage_corrupt,
    "spectra": stage_spectra,
    "detect": stage_detect,
    "learn": stage_learn,
}


def _output_dir(out: Path) -> Path:
    """`out`, made if absent; a ConfigError naming it if it cannot be a
    directory."""
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out {out} is not a usable directory: {exc.strerror}") from exc
    return out


def _peak_rss_mb() -> float:
    """This process's peak resident set so far, in MiB; Linux reports it in
    KiB, macOS in bytes."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1 << 20 if sys.platform == "darwin" else 1 << 10)


def run_stages(names, cfg: ExperimentConfig, out: Path) -> None:
    """Run the stages `names` in order with one helper thread, which hashes
    the panels and writes the manifests, each with the stage's cost; a
    stage that fails still leaves the manifests of the stages before it."""
    _output_dir(out)
    handoff: dict = {}
    manifests = []
    with ThreadPoolExecutor(max_workers=1) as helper:
        for name in names:
            t0 = time.perf_counter()
            entries = STAGES[name](cfg, out, handoff, helper)
            dt = time.perf_counter() - t0
            run = {"seconds": dt, "peak_rss_mb": _peak_rss_mb()}
            manifests.append(helper.submit(_write_manifest, out, name, cfg, entries, run))
            print(f"[{name}] {dt:.1f}s -> {', '.join(entries['outputs'])}")
    for job in manifests:
        job.result()


# ---------------------------------------------------------------------------
# sweep

SWEEP_KEYS = frozenset({
    "instances", "nodes", "corrupt", "trajectories", "seed", "violate_assumption", "welch",
})

# the columns of sweep_summary.csv, in order; `_sweep_row` starts each row
# from its task and a row that recovered nothing
SWEEP_COLUMNS = (
    "instance", "n_nodes", "n_corrupt", "trajectory",
    "recovered", "n_diagnostics", "diagnostics", "error",
)


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


def _sweep_row(task) -> dict:
    idx, n, k, trajectory, seed, welch, violate = task
    rng = np.random.default_rng([seed, idx])
    row = dict(zip(SWEEP_COLUMNS, (idx, n, k, trajectory, False, 0, "", "")))
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
    payload = read_json(Path(args.config), "sweep config")
    refuse_unknown_keys(payload, SWEEP_KEYS, "sweep config")
    count = _sweep_value(payload, "instances", 0, is_count, "an integer >= 0")
    pair = "a [low, high] pair of integers >= 0"
    # a panel holds at least two channels
    lo_n, hi_n = _sweep_value(
        payload, "nodes", [7, 15], lambda v: _is_range(v) and v[0] >= 2,
        "a [low, high] pair of integers >= 2",
    )
    lo_k, hi_k = _sweep_value(payload, "corrupt", [1, 3], _is_range, pair)
    if lo_k > min(hi_k, max_deep_nodes(lo_n)):
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
    welch = welch_params(payload)
    for trajectory in (t for t in trajectories if t != "analytic"):
        check_welch_length(trajectory, welch)

    rng = np.random.default_rng(seed)
    tasks = []
    for idx in range(count):
        n = int(rng.integers(lo_n, hi_n + 1))
        k = int(rng.integers(lo_k, min(hi_k, max_deep_nodes(n)) + 1))
        for trajectory in trajectories:
            tasks.append((idx, n, k, trajectory, seed, welch, violate))
    out = _output_dir(Path(args.out))

    # the pool forks all its workers at the first submit, so never ask for
    # more than there are rows or cores
    workers = min(args.threads, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_row, tasks))
    else:
        rows = [_sweep_row(t) for t in tasks]

    summary = out / "sweep_summary.csv"
    with summary.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=SWEEP_COLUMNS)
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

    stage_sets = {name: [name] for name in STAGES} | {"pipeline": list(STAGES)}
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
