#!/usr/bin/env python3
"""Randomized recovery-rate sweep over Assumption-satisfying instances,
analytic and finite-sample, plus a negative-control batch that violates the
3-hop placement rule.

    python scripts/run_sweep.py --instances 20 --out out/sweep

Exits with the first nonzero exit code of its two `treespect sweep` runs.
"""

import argparse
import json
import sys
from pathlib import Path

from treespect.cli import main as cli_main


def trajectory(value: str):
    """`analytic`, or a sample count >= 1 as an int."""
    if value == "analytic":
        return value
    try:
        count = int(value)
    except ValueError:
        count = 0
    if count < 1:
        raise argparse.ArgumentTypeError(
            f"must be 'analytic' or an integer >= 1, got {value!r}"
        )
    return count


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--instances", type=int, default=20)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--threads", type=int, default=1)
    ap.add_argument("--trajectories", nargs="+", type=trajectory,
                    default=["analytic", 100_000, 1_000_000])
    ap.add_argument("--out", type=Path, default=Path("out/sweep"))
    args = ap.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)

    base = {
        "instances": args.instances,
        "nodes": [7, 15],
        "corrupt": [1, 3],
        "trajectories": args.trajectories,
        "seed": args.seed,
        "welch": {"segment_length": 256},
    }
    cfg = args.out / "sweep_config.json"
    cfg.write_text(json.dumps(base, indent=2))
    print("== assumption-satisfying instances ==")
    code = cli_main(["sweep", "--config", str(cfg), "--out", str(args.out / "main"),
                     "--threads", str(args.threads)])

    negative = dict(base, instances=max(4, args.instances // 4),
                    violate_assumption=True, trajectories=["analytic"])
    ncfg = args.out / "sweep_negative_config.json"
    ncfg.write_text(json.dumps(negative, indent=2))
    print("== negative controls (corrupt nodes two hops apart) ==")
    negative_code = cli_main(["sweep", "--config", str(ncfg),
                              "--out", str(args.out / "negative"),
                              "--threads", str(args.threads)])
    return code or negative_code


if __name__ == "__main__":
    sys.exit(main())
