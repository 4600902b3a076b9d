"""Summary statistics for benchmark samples, in the standard library only."""

from __future__ import annotations

import math
import re
import statistics

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")
# a percentile is reported only with at least this many samples beyond it
TAIL_SAMPLES = 10
# candidates in tenths of a percent, so the rule is exact integer arithmetic
CANDIDATE_PERMILLE = (999, 990, 950, 900, 750)


def valid_metric_name(name: str) -> bool:
    return METRIC_NAME.fullmatch(name) is not None and len(name) <= 64


def percentile(values, p: float) -> float:
    """Linear-interpolation percentile (numpy's default rule)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n: int) -> float | None:
    """Highest candidate percentile with >= TAIL_SAMPLES samples above it."""
    for q in CANDIDATE_PERMILLE:
        if n * (1000 - q) >= TAIL_SAMPLES * 1000:
            return q / 10
    return None


def summarize(values) -> dict:
    """Median, sample count and the highest reportable tail percentile."""
    xs = list(values)
    out = {"median": statistics.median(xs), "n": len(xs)}
    p = tail_percentile(len(xs))
    if p is not None:
        out["p"] = p
        out["tail"] = percentile(xs, p)
    return out


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, with quartiles from statistics.quantiles(n=4)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med
