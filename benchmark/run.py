"""treespect benchmark: one workload, measured for a fixed time.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each operation runs in its own
interpreter (`workloads.py`), importing treespect from `src/`, so set-up
time and peak memory are measured per operation.  Operations repeat, with
identical inputs made from the seed, until `--seconds` have passed; the
metrics are medians over them.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0
the metrics are the end-to-end ones; with --trace 1 untraced and traced
operations alternate and the metrics are the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import COUNTS, PER_LAYER  # noqa: E402
from stats import summarize  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "work_per_s": "1/s",
}
SWEEP_WORKERS = 2
MIN_OPS = 3  # untraced operations per run; traced runs make 2 pairs at least
OP_TIMEOUT_S = 150
LAST_START_S = 110  # no operation starts later, so a run ends within 180 s


def blas_threads(nproc: int, workers: int) -> int:
    """BLAS threads per process so that workers x threads <= nproc."""
    return max(1, nproc // workers)


def run_op(workload, seed, trace, workers, env, workdir: Path) -> dict:
    """One operation in a fresh process group; returns its result record."""
    workdir.mkdir(parents=True)
    result_path = workdir / "result.json"
    cmd = [
        sys.executable, str(HERE / "workloads.py"),
        "--workload", workload, "--seed", str(seed), "--trace", str(trace),
        "--threads", str(workers), "--workdir", str(workdir / "work"),
        "--result", str(result_path),
    ]
    spawned = time.monotonic()
    proc = subprocess.Popen(
        cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=OP_TIMEOUT_S)
        error = None if proc.returncode == 0 else f"exit code {proc.returncode}"
    except subprocess.TimeoutExpired:
        error = f"timed out after {OP_TIMEOUT_S} s"
        stdout, stderr = b"", b""
    finally:
        # also ends anything the operation left behind in its process group
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    try:
        if error is None:
            record = json.loads(result_path.read_text())
            record["setup_s"] = record["setup_end"] - spawned
            return record
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    tail = stderr.decode(errors="replace").strip().splitlines()[-5:]
    print(f"operation failed ({error}): " + " | ".join(tail), file=sys.stderr)
    return {"crashed": error}


def aggregate(records) -> tuple[bool, int, int, list[str], list[dict]]:
    """Correctness, attempted and failed counts, the problems found, and
    the records of the operations that completed."""
    problems: list[str] = []
    attempted = failed = 0
    for rec in records:
        if "crashed" in rec:
            attempted += 1
            failed += 1
            problems.append(f"operation crashed: {rec['crashed']}")
            continue
        out = rec["outcome"]
        attempted += out["attempted"]
        failed += out["failed"]
        problems += out["errors"]
    ok = [r for r in records if "crashed" not in r]
    for key, what in (("inputs", "inputs"), ("fingerprint", "outputs")):
        values = {r["inputs"] if key == "inputs" else r["outcome"][key] for r in ok}
        if len(values) > 1:
            problems.append(f"nondeterminism: {what} differ between operations")
    layers = [r["layers"] for r in ok if r["layers"] is not None]
    for name in COUNTS:
        if len({lay[name] for lay in layers}) > 1:
            problems.append(
                f"nondeterminism: {name} differs between traced operations: "
                f"{[lay[name] for lay in layers]}"
            )
    return not problems and bool(ok), attempted, failed, problems, ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    # turn a termination request into SystemExit, so `finally` blocks kill
    # the running operation's process group and remove the scratch files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (ROOT / "src" / "treespect" / "__init__.py").is_file():
        print(f"no treespect sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    nproc = len(os.sched_getaffinity(0))
    sweep = args.workload == "sweep_mixed"
    # spans recorded inside pool workers would be lost: trace the sweep in-process
    workers = min(SWEEP_WORKERS, nproc) if sweep and not args.trace else 1
    threads = blas_threads(nproc, workers)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)

    scratch = ROOT / ".bench_work" / f"run-{os.getpid()}"
    plan = [0, 1] if args.trace else [0]
    records = []
    start = time.monotonic()
    try:
        while True:
            for trace in plan:
                rec = run_op(
                    args.workload, args.seed, trace, workers, env,
                    scratch / f"op{len(records)}",
                )
                records.append(rec)
            elapsed = time.monotonic() - start
            rounds = len(records) // len(plan)
            enough = rounds >= (2 if args.trace else MIN_OPS) and elapsed >= args.seconds
            if enough or elapsed >= LAST_START_S:
                break
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass

    correct, attempted, failed, problems, ok = aggregate(records)
    versions = ok[0]["versions"] if ok else {}
    print(
        f"# workload={args.workload} seed={args.seed} trace={args.trace} "
        f"operations={len(records)} nproc={nproc} sweep_workers={workers if sweep else '-'} "
        f"blas_threads={threads} "
        + " ".join(f"{k}={v}" for k, v in versions.items())
    )
    if sweep and args.trace:
        print("# traced sweep runs --threads 1 in-process: pool-worker spans would be lost")
    for problem in problems:
        print(f"# FAIL {problem}")

    metrics: dict[str, dict] = {}

    def report(name, values, unit, publish=True, verbose=False):
        if name in COUNTS:  # exact, and checked equal across operations
            value, how = values[0], f"exact, {len(values)} operations"
        else:
            s = summarize(values)
            value, how = s["median"], f"median of {s['n']}"
            if "p" in s:
                how += f", p{s['p']:g} {s['tail']:.6g}"
        shown = str(value) if name in COUNTS else f"{value:.6g}"
        print(f"{name:34s} {shown} {unit}  ({how})")
        if verbose:
            print(" " * 35 + " ".join(f"{v:.4g}" for v in values))
        if publish:
            metrics[name] = {"value": value, "unit": unit}

    untraced = [r for r in ok if r["layers"] is None]
    if not args.trace and untraced:
        rates = [r["outcome"]["work_units"] / r["wall_s"] for r in untraced]
        values = {
            "wall_s": [r["wall_s"] for r in untraced],
            "setup_s": [r["setup_s"] for r in untraced],
            "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
            "work_per_s": rates,
        }
        for name, unit in END_TO_END.items():
            report(name, values[name], unit, verbose=True)
        report(workload.work_unit, rates, workload.unit, publish=False)
        outs = [r["outcome"] for r in untraced]
        recoverable = sum(o["recoverable"] for o in outs)
        print(f"{'recovery_rate':34s} {sum(o['recovered'] for o in outs) / recoverable:.6g} "
              f"share  ({recoverable} recoveries attempted)")
        for key in outs[0]["rates"]:
            rate = statistics.fmean(o["rates"][key] for o in outs)
            print(f"{'recovery_rate.' + key:34s} {rate:.6g} share")
    if attempted:
        print(f"{'error_rate':34s} {failed / attempted:.6g} share  ({failed} of {attempted} failed)")
    traced = [r for r in ok if r["layers"] is not None]
    if args.trace and traced and untraced:
        for name, unit in PER_LAYER.items():
            if name != "trace.overhead_s":
                report(name, [r["layers"][name] for r in traced], unit)
        overhead = statistics.median([r["wall_s"] for r in traced]) - statistics.median(
            [r["wall_s"] for r in untraced]
        )
        print(f"{'trace.overhead_s':34s} {overhead:.6g} s  (median traced minus untraced wall_s)")
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        coverage = metrics["trace.coverage"]["value"]
        if coverage < 0.9:
            correct = False
            print(f"# FAIL top-level spans cover {coverage:.3f} of wall_s, need >= 0.9")

    correct = bool(correct and metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
