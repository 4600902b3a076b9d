#!/usr/bin/env python3
"""Run the 7-node corrupted-chain experiment end to end and narrate each
stage: support graph, candidate set, corrupt/leaf split, marginal support,
separation pruning, and placement.

    python scripts/run_chain7.py --samples 10000000 --out out/chain7

A failed run prints `error: <message>` and exits with the library's code:
2 config, 3 data, 4 numerical, 5 assumption violation.
"""

import argparse
import sys
import time
from pathlib import Path

from treespect.detection import EdgeDecisionParams, detect, report_to_dot, report_to_json
from treespect.errors import TreespectError
from treespect.instances import chain7_corruption, chain7_model
from treespect.reconstruction import (
    estimate_to_dot,
    estimate_to_json,
    hide_and_learn,
)
from treespect.spectral import WelchParams, estimate_cpsd, invert_spectrum
from treespect.streams import apply_corruption, simulate


def edge_names(labels, edges):
    return ", ".join(f"{labels[a]}-{labels[b]}" for a, b in sorted(edges))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--samples", type=int, default=10_000_000)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--segment", type=int, default=1024)
    ap.add_argument("--out", type=Path, default=Path("out/chain7"))
    args = ap.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)

    model = chain7_model()
    labels = model.labels
    params = EdgeDecisionParams()
    t0 = time.perf_counter()

    print(f"simulating {args.samples:.1e} samples of the 7-node chain ...")
    panel = simulate(model, args.samples, seed=args.seed)
    corrupted = apply_corruption(panel, list(chain7_corruption()), seed=args.seed)
    print("estimating cross-spectra ...")
    psd = estimate_cpsd(corrupted, WelchParams(segment_length=args.segment))
    inv = invert_spectrum(psd)

    report = detect(inv, params)
    # written before reconstruction, so a run that fails there keeps its evidence
    (args.out / "detection.json").write_text(report_to_json(report))
    (args.out / "detection.dot").write_text(report_to_dot(report))
    print(f"\nsupport graph edges: {edge_names(labels, report.support_graph.edges)}")
    print(f"clique-neighborhood candidates: {sorted(labels[i] for i in report.candidates)}")
    print(f"corrupt nodes: {sorted(labels[i] for i in report.corrupt)}")
    print(f"leaf nodes: {sorted(labels[i] for i in report.leaves)}")
    print(f"certified leaf edges: {edge_names(labels, report.leaf_edges)}")

    estimate = hide_and_learn(psd, report, params)
    print(f"\nmarginal support (corrupt hidden): "
          f"{edge_names(labels, estimate.observed_support.edges)}")
    comps = [sorted(labels[v] for v in c) for c in estimate.components_before_placement]
    print(f"components after pruning: {comps}")
    print(f"recovered topology: {edge_names(labels, estimate.graph.edges)}")
    print(f"is a tree: {estimate.is_tree()}   diagnostics: {len(estimate.diagnostics)}")
    print(f"elapsed: {time.perf_counter() - t0:.1f}s")

    (args.out / "topology.json").write_text(estimate_to_json(estimate))
    (args.out / "topology.dot").write_text(estimate_to_dot(estimate))
    print(f"artifacts in {args.out}/")


if __name__ == "__main__":
    try:
        main()
    except TreespectError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(exc.exit_code)
