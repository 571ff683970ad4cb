"""In-memory spans and counters recorded around calls into scenefix layers.

The program is not instrumented: the benchmark replaces, for the length
of a traced batch, the module attributes that scenefix code looks up at
call time (``scenefix.pipeline.perceive``, ``scenefix.wire.parse_expression``
and so on) with wrappers that open a span, call the original and close
the span. A span is ``[name, start, end, parent, sample_id, round]``;
``parent`` is the index of the enclosing span or -1. Spans of one sample
share its id and round.

A layer's self time is its spans' duration minus the part of each span
that its direct children cover, so nested layers are never counted twice.
"""

from __future__ import annotations

import functools
import json
from collections import Counter, defaultdict
from time import perf_counter

NAME, START, END, PARENT, SAMPLE, ROUND = range(6)


def covered(start: float, end: float, intervals) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_time(start: float, end: float, child_intervals) -> float:
    """Span duration minus the part of it covered by child spans."""
    return (end - start) - covered(start, end, child_intervals)


def self_times(spans) -> dict[str, float]:
    """Total self time per span name."""
    children = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    totals: dict[str, float] = defaultdict(float)
    for i, span in enumerate(spans):
        totals[span[NAME]] += self_time(span[START], span[END], children.get(i, ()))
    return dict(totals)


class Tracer:
    """Records spans and counters; installs and removes the wrappers."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.sample_id: str | None = None
        self.round = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.sample_id, self.round])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][END] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, after=None, on_error=None):
        """``fn`` inside a span; ``after(counts, args, kwargs, result)`` and
        ``on_error(counts, exc)`` update the counters."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(tracer.counts, exc)
                raise
            finally:
                tracer.close(idx)
            if after is not None:
                after(tracer.counts, args, kwargs, result)
            return result

        return traced

    def count(self, fn, after):
        """``fn`` with an ``after`` counter hook but no span."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(self.counts, args, kwargs, result)
            return result

        return counted

    def patch(self, module, attr: str, replacement) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def unpatch(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, sample, rnd in self.spans:
                fh.write(json.dumps(
                    {"name": name, "start": start, "end": end, "parent": parent,
                     "sample": sample, "round": rnd}
                ) + "\n")
