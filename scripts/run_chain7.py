#!/usr/bin/env python3
"""Run the 7-node corrupted-chain experiment end to end and narrate each
stage: support graph, candidate set, corrupt/leaf split, marginal support,
separation pruning, and placement.

The run is `treespect pipeline` on the bundled `chain7` config with
`--samples`, `--seed` and `--segment` in place of the config's own values,
which are their defaults.  The config it ran (`config.json`), both panels,
the spectra, the reports and the manifests stay in `--out`; at 10^7
samples the panels take 1.1 GB.  The narration is read from the reports;
the run first removes the reports an earlier run left in `--out`, so a run
that fails early narrates none of them.

    python scripts/run_chain7.py --samples 10000000 --out out/chain7

A failed run prints `error: <message>`, narrates the reports it wrote
before failing, and exits with the library's code: 2 config, 3 data,
4 numerical, 5 assumption violation.
"""

import argparse
import json
import sys
import time
from pathlib import Path

from treespect.cli import DETECTION_DOT, DETECTION_JSON, TOPOLOGY_DOT, TOPOLOGY_JSON
from treespect.cli import main as cli_main
from treespect.config import bundled_config_path


def edge_names(order, edges):
    """`a-b, ...` for label pairs, sorted by node index."""
    pairs = sorted(edges, key=lambda e: (order[e[0]], order[e[1]]))
    return ", ".join(f"{a}-{b}" for a, b in pairs)


def narrate(out: Path, labels) -> None:
    order = {label: i for i, label in enumerate(labels)}
    if (out / DETECTION_JSON).exists():
        report = json.loads((out / DETECTION_JSON).read_text())
        support = [(e["a"], e["b"]) for e in report["support_edges"]]
        print(f"\nsupport graph edges: {edge_names(order, support)}")
        print(f"clique-neighborhood candidates: {sorted(report['candidates'])}")
        print(f"corrupt nodes: {sorted(report['corrupt'])}")
        print(f"leaf nodes: {sorted(report['leaves'])}")
        print(f"certified leaf edges: {edge_names(order, report['leaf_edges'])}")
    if (out / TOPOLOGY_JSON).exists():
        estimate = json.loads((out / TOPOLOGY_JSON).read_text())
        print(f"\nmarginal support (corrupt hidden): "
              f"{edge_names(order, estimate['observed_support_edges'])}")
        comps = [sorted(c) for c in estimate["components_before_placement"]]
        print(f"components after pruning: {comps}")
        edges = [(e["a"], e["b"]) for e in estimate["edges"]]
        print(f"recovered topology: {edge_names(order, edges)}")
        print(f"is a tree: {estimate['is_tree']}   "
              f"diagnostics: {len(estimate['diagnostics'])}")


def main(argv=None) -> int:
    base = json.loads(bundled_config_path("chain7").read_text())
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--samples", type=int, default=base["trajectory_length"])
    ap.add_argument("--seed", type=int, default=base["seed"])
    ap.add_argument("--segment", type=int, default=base["welch"]["segment_length"])
    ap.add_argument("--out", type=Path, default=Path("out/chain7"))
    args = ap.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)

    config = dict(base, trajectory_length=args.samples, seed=args.seed,
                  welch=dict(base["welch"], segment_length=args.segment))
    path = args.out / "config.json"
    path.write_text(json.dumps(config, indent=2, sort_keys=True))
    for name in (DETECTION_JSON, DETECTION_DOT, TOPOLOGY_JSON, TOPOLOGY_DOT):
        (args.out / name).unlink(missing_ok=True)

    print(f"treespect pipeline on {args.samples:.1e} samples of the 7-node chain ...")
    t0 = time.perf_counter()
    code = cli_main(["pipeline", "--config", str(path), "--out", str(args.out)])
    narrate(args.out, base["model"]["labels"])
    if code == 0:
        print(f"elapsed: {time.perf_counter() - t0:.1f}s")
        print(f"artifacts in {args.out}/")
    return code


if __name__ == "__main__":
    sys.exit(main())
