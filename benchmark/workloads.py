"""One benchmark operation, run in a fresh interpreter by `run.py`.

    python3 benchmark/workloads.py --workload NAME --seed N --trace 0|1 \
        --threads N --workdir DIR --result FILE

The process imports treespect from the checkout's `src/`, makes the
workload's inputs from the seed (set-up ends here), runs the operation
through the package's public entry points, checks the outputs, and writes
one JSON result.  With --trace 1 every layer function is wrapped, from
outside the package, in a span recorder (see `layers.py`).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import resource
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CHAIN7_SAMPLES = 3_000_000
# (nodes, corrupt nodes) per analytic instance, drawn without margin filtering
ANALYTIC_BATCH = ((40, 8),) * 4 + ((100, 20),)
ANALYTIC_BINS = 256
# relative agreement demanded of the Woodbury chain against dense inversion
WOODBURY_RTOL = 1e-11
SWEEP_CONFIG = {
    "instances": 4,
    "nodes": [7, 15],
    "corrupt": [1, 3],
    "trajectories": ["analytic", 100_000, 1_000_000],
    "welch": {"segment_length": 256},
}
RATE_LINE = "trajectory={}: recovery rate {:.3f} ({} runs)"


@dataclass
class Outcome:
    """What one operation did, as the parent process aggregates it."""

    windows: list[tuple[float, float]] = field(default_factory=list)
    work_units: float = 0.0
    attempted: int = 0
    failed: int = 0
    recovered: int = 0
    recoverable: int = 0
    rates: dict[str, float] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)
    fingerprint: str = ""

    @property
    def wall_s(self) -> float:
        return sum(hi - lo for lo, hi in self.windows)


def sha256_bytes(*blobs: bytes) -> str:
    digest = hashlib.sha256()
    for blob in blobs:
        digest.update(blob)
    return digest.hexdigest()


def trajectory_key(trajectory) -> str:
    """'analytic' or 't1e5'-style name of a sweep trajectory."""
    if trajectory == "analytic":
        return "analytic"
    t = int(trajectory)
    exp = len(str(t)) - 1
    return f"t1e{exp}" if t == 10**exp else f"t{t}"


# ---------------------------------------------------------------------------
# chain7_pipeline: `treespect pipeline` on the bundled 7-node chain

def setup_chain7(seed: int, workdir: Path):
    from treespect import config

    payload = json.loads(config.bundled_config_path("chain7").read_text())
    payload["trajectory_length"] = CHAIN7_SAMPLES
    payload["seed"] = seed
    path = workdir / "chain7.json"
    blob = json.dumps(payload, indent=2, sort_keys=True).encode()
    path.write_bytes(blob)
    config.load_config(path)
    return path, blob


def run_chain7(path: Path, workdir: Path, threads: int) -> Outcome:
    from treespect import cli

    out = workdir / "out"
    t0 = time.perf_counter()
    rc = cli.main(["pipeline", "--config", str(path), "--out", str(out)])
    t1 = time.perf_counter()
    res = Outcome(
        windows=[(t0, t1)], work_units=CHAIN7_SAMPLES / 1e6, attempted=1, recoverable=1
    )
    if rc != 0:
        res.failed = 1
        res.errors.append(f"pipeline exited {rc}")
        return res
    topo_blob = (out / "topology.json").read_bytes()
    det_blob = (out / "detection.json").read_bytes()
    topo, det = json.loads(topo_blob), json.loads(det_blob)
    edges = sorted(tuple(sorted((e["a"], e["b"]), key=int)) for e in topo["edges"])
    chain = [(str(i), str(i + 1)) for i in range(1, 7)]
    if edges != chain:
        res.errors.append(f"topology edges {edges} are not the chain 1-...-7")
    if det["corrupt"] != ["4"] or det["leaves"] != ["1", "7"]:
        res.errors.append(
            f"detection reports corrupt {det['corrupt']} leaves {det['leaves']}, "
            "expected corrupt ['4'] leaves ['1', '7']"
        )
    res.recovered = int(edges == chain and not topo["diagnostics"])
    res.fingerprint = sha256_bytes(topo_blob, det_blob)
    return res


# ---------------------------------------------------------------------------
# analytic_large: exact spectra on unfiltered large instances

def setup_analytic(seed: int, workdir: Path):
    import numpy as np
    from treespect import instances, ltisim, spectral

    rng = np.random.default_rng(seed)
    batch = []
    for n, k in ANALYTIC_BATCH:
        tree, marked = instances.tree_with_deep_nodes(rng, n, k)
        model = instances.draw_model(rng, tree)
        specs = tuple(instances.draw_delay_spec(rng, v) for v in marked)
        batch.append(instances.Instance(model, specs))
    grid = spectral.FrequencyGrid.welch_bins(ANALYTIC_BINS)
    blob = json.dumps(
        [
            [ltisim.model_to_dict(i.model), [s.to_dict() for s in i.specs]]
            for i in batch
        ],
        sort_keys=True,
    ).encode()
    return (batch, grid), blob


def run_analytic(inputs, workdir: Path, threads: int) -> Outcome:
    import numpy as np
    from treespect import detection, errors, oracles, reconstruction, spectral

    batch, grid = inputs
    res = Outcome(work_units=len(batch), attempted=len(batch), recoverable=len(batch))
    outputs = []
    for idx, inst in enumerate(batch):
        t0 = time.perf_counter()
        try:
            sigs = oracles.analytic_signatures(inst.model, inst.specs, grid)
            psd = oracles.analytic_corrupted_psd(inst.model, sigs, grid)
            inv = spectral.invert_spectrum(psd)
            report = detection.detect(inv, detection.ANALYTIC_DECISION)
            est = reconstruction.hide_and_learn(psd, report, detection.ANALYTIC_DECISION)
            wood, steps = oracles.woodbury_chain_inverse(inst.model, sigs, grid)
            del steps
        except errors.TreespectError as exc:
            res.windows.append((t0, time.perf_counter()))
            res.failed += 1
            outputs.append(f"{idx}:{type(exc).__name__}")
            continue
        res.windows.append((t0, time.perf_counter()))
        ok = ~(inv.flagged | wood.flagged)
        dense = inv.values[ok]
        rel = np.max(np.abs(wood.values[ok] - dense)) / np.max(np.abs(dense))
        if not rel <= WOODBURY_RTOL:
            res.errors.append(
                f"instance {idx}: Woodbury inverse differs from dense by {rel:.3g} "
                f"(relative), limit {WOODBURY_RTOL:g}"
            )
        diagnostics = report.diagnostics + est.diagnostics
        res.recovered += int(est.graph.edges == inst.topology.edges and not diagnostics)
        outputs.append(
            f"{idx}:{sorted(est.graph.edges)}:{sorted(report.corrupt)}:"
            f"{sorted(d.kind for d in diagnostics)}"
        )
    res.fingerprint = sha256_bytes("\n".join(outputs).encode())
    return res


# ---------------------------------------------------------------------------
# sweep_mixed: `treespect sweep` on the README sweep shape

def setup_sweep(seed: int, workdir: Path):
    path = workdir / "sweep.json"
    blob = json.dumps(dict(SWEEP_CONFIG, seed=seed), indent=2, sort_keys=True).encode()
    path.write_bytes(blob)
    return path, blob


def run_sweep(path: Path, workdir: Path, threads: int) -> Outcome:
    from treespect import cli

    out = workdir / "out"
    printed = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(printed):
        rc = cli.main(
            ["sweep", "--config", str(path), "--out", str(out), "--threads", str(threads)]
        )
    t1 = time.perf_counter()
    trajectories = SWEEP_CONFIG["trajectories"]
    expected_rows = SWEEP_CONFIG["instances"] * len(trajectories)
    res = Outcome(windows=[(t0, t1)], attempted=expected_rows)
    if rc != 0:
        res.failed = expected_rows
        res.errors.append(f"sweep exited {rc}")
        return res
    blob = (out / "sweep_summary.csv").read_bytes()
    rows = list(csv.DictReader(io.StringIO(blob.decode())))
    if len(rows) != expected_rows:
        res.errors.append(f"sweep CSV has {len(rows)} rows, expected {expected_rows}")
    lines = printed.getvalue().splitlines()
    for trajectory in trajectories:
        sub = [r for r in rows if r["trajectory"] == str(trajectory)]
        rate = sum(r["recovered"] == "True" for r in sub) / max(1, len(sub))
        if RATE_LINE.format(trajectory, rate, len(sub)) not in lines:
            res.errors.append(f"printed rate for trajectory {trajectory} disagrees with the CSV")
        res.rates[trajectory_key(trajectory)] = rate
    res.work_units = len(rows)
    res.failed = sum(1 for r in rows if r["error"])
    res.recoverable = len(rows)
    res.recovered = sum(r["recovered"] == "True" for r in rows)
    res.fingerprint = sha256_bytes(blob)
    return res


@dataclass(frozen=True)
class Workload:
    name: str
    setup: object
    run: object
    work_unit: str  # name of the work-per-second metric in the report
    unit: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload("chain7_pipeline", setup_chain7, run_chain7, "msamples_per_s", "Msamples/s"),
        Workload("analytic_large", setup_analytic, run_analytic, "instances_per_s", "instances/s"),
        Workload("sweep_mixed", setup_sweep, run_sweep, "rows_per_s", "rows/s"),
    )
}


# ---------------------------------------------------------------------------
# entry point

def versions() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError):
        openblas = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
    }


def peak_rss_mb() -> float:
    """This process's peak RSS plus that of its largest reaped child (the
    sweep's pool workers); Linux reports both in KiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--threads", type=int, default=1)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    args = ap.parse_args(argv)

    import treespect

    src = (ROOT / "src").resolve()
    if src not in Path(treespect.__file__).resolve().parents:
        print(f"treespect imported from {treespect.__file__}, not {src}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    args.workdir.mkdir(parents=True, exist_ok=True)
    inputs, input_blob = workload.setup(args.seed, args.workdir)
    setup_end = time.monotonic()

    tracer = None
    if args.trace:
        from layers import instrument

        tracer = instrument(f"{args.workload}-{args.seed}")
    try:
        outcome = workload.run(inputs, args.workdir, args.threads)
    finally:
        if tracer is not None:
            tracer.close()

    result = {
        "setup_end": setup_end,
        "inputs": sha256_bytes(input_blob),
        "wall_s": outcome.wall_s,
        "outcome": {
            k: getattr(outcome, k)
            for k in (
                "work_units", "attempted", "failed", "recovered", "recoverable",
                "rates", "errors", "fingerprint",
            )
        },
        "peak_rss_mb": peak_rss_mb(),
        "versions": versions(),
        "layers": None,
    }
    if tracer is not None:
        from layers import layer_metrics

        result["layers"] = layer_metrics(tracer, outcome.windows)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
