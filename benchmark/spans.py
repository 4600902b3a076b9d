"""In-memory span tracer that instruments treespect from the outside.

Each instrumented function is replaced, in the module namespace its caller
looks it up in, by a wrapper that records a span (name, start, end, parent,
run id) and optional exact counters.  Spans stay in memory; the caller
reads them when the run ends.  Nothing inside `src/` is modified.
"""

from __future__ import annotations

import functools
import itertools
import time
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the time its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.span_id: (s.end - s.start) - covered(children.get(s.span_id, ()), s.start, s.end)
        for s in spans
    }


@dataclass
class Tracer:
    """Records spans and counters for one run; restores patches on close."""

    run_id: str
    clock: object = time.perf_counter
    spans: list[Span] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)
    _stack: list[int] = field(default_factory=list)
    _ids: itertools.count = field(default_factory=itertools.count)
    _patched: list[tuple[object, str, object]] = field(default_factory=list)

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def span(self, name: str):
        return _SpanContext(self, name)

    def wrap(self, fn, name: str, counter=None):
        """`fn` recording a span per call; `counter(result, *args, **kw)`
        returns {counter name: increment} for calls that return."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if counter is not None:
                for key, amount in counter(result, *args, **kwargs).items():
                    self.count(key, amount)
            return result

        return wrapper

    def patch(self, module, attr: str, name: str, counter=None) -> None:
        original = getattr(module, attr)
        self._patched.append((module, attr, original))
        setattr(module, attr, self.wrap(original, name, counter))

    def patch_item(self, mapping: dict, key: str, name: str) -> None:
        original = mapping[key]
        self._patched.append((mapping, key, original))
        mapping[key] = self.wrap(original, name)

    def close(self) -> None:
        for target, key, original in reversed(self._patched):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._patched.clear()

    def self_time_by_name(self) -> dict[str, float]:
        out: dict[str, float] = {}
        selfs = self_times(self.spans)
        for s in self.spans:
            out[s.name] = out.get(s.name, 0.0) + selfs[s.span_id]
        return out

    def durations(self, name: str) -> list[float]:
        return [s.end - s.start for s in self.spans if s.name == name]

    def top_level_time(self, lo: float, hi: float) -> float:
        """Time within [lo, hi] covered by spans that have no parent."""
        return covered(
            [(s.start, s.end) for s in self.spans if s.parent is None], lo, hi
        )


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        self.span_id = next(t._ids)
        self.parent = t._stack[-1] if t._stack else None
        t._stack.append(self.span_id)
        self.start = t.clock()
        return self

    def __exit__(self, *exc):
        t = self.tracer
        end = t.clock()
        t._stack.pop()
        t.spans.append(Span(self.span_id, self.name, self.start, end, self.parent, t.run_id))
        return False
