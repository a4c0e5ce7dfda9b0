"""Span recorder for the traced run and the self-time table built from it.

A span covers one call across a layer boundary: its name, start and end
(``time.perf_counter`` seconds), the span that was open when it began, and
the run it belongs to.  Spans stay in memory and are written out when the
run ends.  The run is single-threaded, so spans nest strictly and a span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    run: str
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return asdict(self)


class Recorder:
    """Collects the spans of one run."""

    def __init__(self, run: str):
        self.run = run
        self.spans: list[Span] = []
        self._open: list[Span] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1].id if self._open else None
        s = Span(len(self.spans), name, parent, self.run, time.perf_counter())
        self.spans.append(s)
        self._open.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn, count=None):
        """``fn`` inside a span; ``count(args, result)`` gives its counters.

        The counters are taken after the span closes, so their cost lands in
        the caller's self time and in the tracing overhead, not in ``name``.
        """
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
            if count is not None:
                s.counts = count(args, result)
            return result
        return wrapper


def self_times(spans) -> dict:
    """Self time per span name, summed over every span of that name."""
    covered: dict = {}
    for s in spans:
        if s.parent is not None:
            covered[s.parent] = covered.get(s.parent, 0.0) + s.duration
    out: dict = {}
    for s in spans:
        out[s.name] = out.get(s.name, 0.0) + s.duration - covered.get(s.id, 0.0)
    return out


def total_counts(spans, name: str) -> dict:
    """Counters of every span called ``name``, summed key by key."""
    out: dict = {}
    for s in spans:
        if s.name == name:
            for key, value in s.counts.items():
                out[key] = out.get(key, 0) + value
    return out
