"""Command-line pipeline: simulate | corrupt | spectra | detect | learn |
pipeline | sweep.

Every stage reads the experiment config plus the files `INPUTS` names
from the output directory, writes its own artifacts, and records a
manifest with parameter echo and input/output SHA-256 hashes.
`run_stages` checks that each input exists and hashes it before the stage
starts, and hashes the files the stage wrote after it ends, so a stage
only does its work.  The panel files are the stages' working store:
simulate writes its trajectory a scan span at a time, corrupt reads the
clean panel and writes the corrupted one a row block at a time, and
spectra reads spans of that, so no stage holds a whole panel or a whole
row and memory does not grow with the trajectory.  A panel is written to
a temporary name that replaces the artifact only when the stage succeeds.
Each file is hashed once per run: a panel from its finished file on the
run's one helper thread, which also writes the manifests in stage order,
and the spectra and reports on the main thread.  A stage run alone hashes
its input panel while it works.  Detect and learn take the spectra
stage's `SpectralMatrix` in memory.  A stage refuses an
input written under another config where the input shows it: corrupt and
spectra a panel of other labels or another sample count, detect and learn
a spectrum of other labels or Welch segment length, or one whose
`manifest_spectra.json` records another trajectory_length.  A panel drawn
with other coefficients, seed or burn-in still passes.  Learn detects
again and refuses a `detection.json` whose bytes are not that report's.
Each manifest's `run` records the stage's wall `seconds`, the process's
`peak_rss_mb` when it ended, and `hash_seconds`, the helper's time to
hash each panel it names; it changes from run to run and is no part of
the digests.  Exit codes: 0 ok, 2 config, 3 data, 4 numerical, 5
assumption violation.
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
PANELS = frozenset({PANEL_CLEAN, PANEL_CORRUPT})

# the files each stage reads from the output directory, and the stage that
# writes each one
INPUTS = {
    "simulate": {},
    "corrupt": {PANEL_CLEAN: "simulate"},
    "spectra": {PANEL_CORRUPT: "corrupt"},
    "detect": {SPECTRA: "spectra"},
    "learn": {SPECTRA: "spectra", DETECTION_JSON: "detect"},
}
WRITER = {name: stage for files in INPUTS.values() for name, stage in files.items()}


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


def _require(path: Path, hint: str) -> None:
    if not path.exists():
        raise DataError(f"missing {path.name}; run `{hint}` first")
    if not path.is_file():
        raise DataError(f"{path} is not a readable file; run `{hint}` again")


def _stale(path: Path, held: str, wanted: str) -> DataError:
    """The refusal of the input at `path`, which holds `held` where the
    config asks for `wanted`: its writer must run again."""
    return DataError(
        f"{path} holds {held}, but the config's {wanted}; "
        f"run `treespect {WRITER[path.name]}` again"
    )


def _check_source(cfg: ExperimentConfig, path: Path, labels, n_samples=None) -> None:
    """A DataError unless the panel or spectrum at `path` has the config's
    labels and, if `n_samples` is given, its trajectory_length."""
    if labels != cfg.model.labels:
        raise _stale(path, f"labels {list(labels)}", f"model labels are {list(cfg.model.labels)}")
    if n_samples not in (None, cfg.trajectory_length):
        raise _stale(path, f"{n_samples} samples", f"trajectory_length is {cfg.trajectory_length}")


def _check_record_length(cfg: ExperimentConfig, path: Path) -> None:
    """A DataError if the spectra stage's manifest next to the spectrum at
    `path` records another trajectory_length than the config's, from which
    the decision rule counts the Welch segments; nothing if it is absent."""
    manifest = path.with_name("manifest_spectra.json")
    if not manifest.is_file():
        return
    try:
        held = json.loads(manifest.read_bytes())["config"]["trajectory_length"]
    except (OSError, ValueError, LookupError, TypeError) as exc:
        raise DataError(
            f"{manifest} records no trajectory_length; run `treespect spectra` again"
        ) from exc
    if held != cfg.trajectory_length:
        raise _stale(
            path, f"spectra of {held} samples (per {manifest.name})",
            f"trajectory_length is {cfg.trajectory_length}",
        )


# A stage returns the names of the files it wrote and its manifest's extra
# entries.  The run's one helper thread hashes each panel from its finished
# file (hashlib and file I/O release the GIL), so the hash overlaps the next
# stage's work.  It hashes with sha256_parts, never sha256_file: the
# benchmark's tracer wraps this module's sha256_file, for the small files,
# and its span stack is the main thread's.  `handoff` holds, under
# `SPECTRA`, the spectra stage's estimate, which detect and learn take.

def _hash_panel(helper: ThreadPoolExecutor, path: Path) -> Future:
    """The SHA-256 of the finished panel file at `path` and the seconds it
    took, hashed on `helper`."""
    def timed():
        t0 = time.perf_counter()
        return sha256_parts(read_chunks(path)), time.perf_counter() - t0

    return helper.submit(timed)


def stage_simulate(cfg: ExperimentConfig, out: Path, handoff: dict) -> tuple[list, dict]:
    blocks = simulate_blocks(cfg.model, cfg.trajectory_length, cfg.seed, burn_in=cfg.burn_in)
    with PanelWriter(out / PANEL_CLEAN, cfg.model.labels, cfg.trajectory_length) as writer:
        for lo, block in blocks:
            writer.put(lo, block)
    return [PANEL_CLEAN], {}


def stage_corrupt(cfg: ExperimentConfig, out: Path, handoff: dict) -> tuple[list, dict]:
    with PanelReader(out / PANEL_CLEAN) as reader:
        _check_source(cfg, reader.path, reader.labels, reader.n_samples)
        with PanelWriter(out / PANEL_CORRUPT, reader.labels, reader.n_samples) as writer:
            for i, lo, samples in corrupted_blocks(reader, cfg.corruption, cfg.seed):
                writer.write(i, lo, samples)
    return [PANEL_CORRUPT], {}


def stage_spectra(cfg: ExperimentConfig, out: Path, handoff: dict) -> tuple[list, dict]:
    with PanelReader(out / PANEL_CORRUPT) as reader:
        _check_source(cfg, reader.path, reader.labels, reader.n_samples)
        spectra = estimate_cpsd(reader, cfg.welch)
    save_spectra_binary(spectra, out / SPECTRA)
    handoff[SPECTRA] = spectra
    return [SPECTRA], {}


def _detection(cfg: ExperimentConfig, out: Path, handoff: dict):
    """The run's spectrum, its decision rule, the count of its flagged
    frequencies and its detection report, from one inverse.  The spectrum
    is the spectra stage's of this run, else the `SPECTRA` file.  Either is
    refused if it is on another Welch grid (the decision rule counts the
    config's segments) or has other labels; the file also if its manifest
    records another trajectory_length."""
    path = out / SPECTRA
    spectra = handoff.get(SPECTRA)
    if spectra is None:
        _check_record_length(cfg, path)
        spectra = load_spectra_binary(path)
    if spectra.grid != cfg.welch:
        raise _stale(
            path, f"spectra of Welch segment length {spectra.grid.segment_length}",
            f"segment_length is {cfg.welch.segment_length}",
        )
    _check_source(cfg, path, spectra.labels)
    decision = EdgeDecisionParams(cfg.welch.segment_count(cfg.trajectory_length))
    inverse = invert_spectrum(spectra)
    return spectra, decision, int(inverse.flagged.sum()), detect(inverse, decision)


def stage_detect(cfg: ExperimentConfig, out: Path, handoff: dict) -> tuple[list, dict]:
    _, _, flagged, report = _detection(cfg, out, handoff)
    (out / DETECTION_JSON).write_text(report_to_json(report))
    (out / DETECTION_DOT).write_text(report_to_dot(report))
    return [DETECTION_JSON, DETECTION_DOT], {"flagged_frequencies": flagged}


def stage_learn(cfg: ExperimentConfig, out: Path, handoff: dict) -> tuple[list, dict]:
    spectra, decision, _, report = _detection(cfg, out, handoff)
    rpath = out / DETECTION_JSON
    if report_to_json(report).encode() != rpath.read_bytes():
        raise DataError(
            f"{rpath} is not the detection of {out / SPECTRA} under this config; "
            "run `treespect detect` again"
        )
    estimate = hide_and_learn(spectra, report, decision)
    (out / TOPOLOGY_JSON).write_text(estimate_to_json(estimate))
    (out / TOPOLOGY_DOT).write_text(estimate_to_dot(estimate))
    return [TOPOLOGY_JSON, TOPOLOGY_DOT], {}


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
    """Run the stages `names` in order.  Each stage's INPUTS must exist;
    they are hashed before it starts, unless this run wrote them, and the
    files it wrote after it ends.  One helper thread hashes the panels and
    writes the manifests, each with the stage's cost; a stage that fails
    still leaves the manifests of the stages before it."""
    _output_dir(out)
    handoff: dict = {}
    digests: dict = {}  # file name -> its digest in this run, or a panel's future of it
    manifests = []
    with ThreadPoolExecutor(max_workers=1) as helper:
        def digest(name: str):
            path = out / name
            return _hash_panel(helper, path) if name in PANELS else sha256_file(path)

        for name in names:
            t0 = time.perf_counter()
            for src, writer in INPUTS[name].items():
                _require(out / src, f"treespect {writer}")
            inputs = {src: digests.get(src) or digest(src) for src in INPUTS[name]}
            written, extra = STAGES[name](cfg, out, handoff)
            outputs = {dst: digest(dst) for dst in written}
            digests.update(outputs)
            dt = time.perf_counter() - t0
            run = {"seconds": dt, "peak_rss_mb": _peak_rss_mb()}
            entries = {"inputs": inputs, "outputs": outputs, **extra}
            manifests.append(helper.submit(_write_manifest, out, name, cfg, entries, run))
            print(f"[{name}] {dt:.1f}s -> {', '.join(outputs)}")
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
