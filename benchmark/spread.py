"""Run one workload once per seed and report each end-to-end metric's
spread: (Q3 - Q1) / median over the runs, against the bound in
BENCHMARK.json.

    python3 benchmark/spread.py --workload chain7_pipeline --seeds 1 2 3 4 5
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from stats import quartile_spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args(argv)

    values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode != 0 or not result["correct"]:
            print(proc.stdout, proc.stderr, file=sys.stderr)
            return 1
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
        ), flush=True)
        for name in values:
            values[name].append(result["metrics"][name]["value"])

    for m in spec["end_to_end"]:
        xs = values[m["name"]]
        spread = quartile_spread(xs) if len(xs) >= 2 else float("nan")
        flag = "ok" if spread <= m["bound"] / 3 else ("within bound" if spread <= m["bound"] else "TOO WIDE")
        print(f"{m['name']:14s} median {statistics.median(xs):.6g} {m['unit']}  "
              f"spread {spread:.4f}  bound {m['bound']}  {flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
