"""In-memory span tracing around the public calls into each pathkf module,
plus the statistics the benchmark derives from spans.

The tracer never edits the package's source. It replaces a function or
method at the binding its callers look it up through (``pathkf.cli.run_pkf``
for the CLI batch path, ``pathkf.bench.run_pkf`` for the comparison table,
and so on) and puts the original back when tracing ends. Spans are kept in a
list and written out once, after the measurement.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, NamedTuple

#: Percentiles offered for a timing's tail, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: Samples that must lie beyond a reported tail percentile.
TAIL_MIN_BEYOND = 10


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root span
    series: str | None


def layer_of(name: str) -> str:
    """A span name is ``<layer>.<call>``; the layer is the pathkf module."""
    return name.split(".", 1)[0]


@dataclass(frozen=True)
class Binding:
    """One place a public callable is looked up from, and its span name.

    ``series_of`` extracts the series id from the call's arguments for calls
    that start the work on one series; other spans inherit their parent's.
    ``after`` inspects a call's arguments and result to bump counters.
    """

    owner: object
    attr: str
    span: str
    series_of: Callable | None = None
    after: Callable | None = None


class Tracer:
    """Records spans and counters while its bindings are installed."""

    def __init__(self, bindings: list[Binding]):
        self.bindings = bindings
        self.spans: list[Span] = []
        self.counters: dict[str, int] = {}
        self._stack: list[tuple[int, str | None]] = []
        self._saved: list[tuple[object, str, object]] = []

    def count(self, key: str, amount: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _wrap(self, binding: Binding, original):
        spans = self.spans
        stack = self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = len(spans)
            parent, series = stack[-1] if stack else (-1, None)
            if binding.series_of is not None:
                series = binding.series_of(args)
            spans.append(None)  # reserve the slot so children point at it
            stack.append((index, series))
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = Span(binding.span, start, end, parent, series)
            if binding.after is not None:
                binding.after(self, args, result)
            return result

        return traced

    def __enter__(self) -> Tracer:
        for binding in self.bindings:
            original = getattr(binding.owner, binding.attr)
            self._saved.append((binding.owner, binding.attr, original))
            setattr(binding.owner, binding.attr, self._wrap(binding, original))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write_csv(self, path: str) -> None:
        """Spans as ``name,start_us,end_us,parent,series``, start order."""
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(["name", "start_us", "end_us", "parent", "series"])
            for s in self.spans:
                writer.writerow(
                    [s.name, f"{(s.start - t0) * 1e6:.3f}", f"{(s.end - t0) * 1e6:.3f}",
                     s.parent, "" if s.series is None else s.series]
                )


def covered(start: float, end: float, intervals) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``.

    Intervals may overlap each other and may stick out of the window.
    """
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part its direct children cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [s.end - s.start - covered(s.start, s.end, kids) for s, kids in zip(spans, children)]


def entry_self_times(spans: list[Span]) -> dict[str, float]:
    """Self time per layer-entry span name, summed over the run.

    A layer entry is a span whose parent lies in another layer (or that has
    no parent). The self time of everything nested below an entry inside
    the same layer is charged to that entry, so ``models.predict_path``
    includes the scans it runs and excludes nothing but calls into other
    layers.
    """
    own = self_times(spans)
    entry = list(range(len(spans)))
    totals: dict[str, float] = {}
    for i, s in enumerate(spans):
        if s.parent >= 0 and layer_of(spans[s.parent].name) == layer_of(s.name):
            entry[i] = entry[s.parent]  # parents precede children in the list
        name = spans[entry[i]].name
        totals[name] = totals.get(name, 0.0) + own[i]
    return totals


def _rank(pct: float, n: int) -> int:
    """1-based nearest rank; rounding keeps 99.9% of 10000 at rank 9990."""
    return max(1, math.ceil(round(pct * n / 100.0, 9)))


def percentile(samples, pct: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(samples)
    return ordered[_rank(pct, len(ordered)) - 1]


def tail_percentile(samples) -> tuple[float, float]:
    """The highest ladder percentile with at least ten samples beyond it.

    Returns ``(pct, value)``. Below twenty samples no percentile qualifies
    and the median is returned as the best available tail.
    """
    n = len(samples)
    if n == 0:
        raise ValueError("no samples")
    for pct in TAIL_LADDER:
        if n - _rank(pct, n) >= TAIL_MIN_BEYOND:
            return pct, percentile(samples, pct)
    return 50.0, percentile(samples, 50.0)


def parallel_efficiency(serial_s: float, parallel_s: float, jobs: int) -> float:
    """Speed-up over the serial run divided by the worker count."""
    if serial_s <= 0 or parallel_s <= 0 or jobs < 1:
        raise ValueError("times must be positive and jobs at least 1")
    return serial_s / (jobs * parallel_s)
