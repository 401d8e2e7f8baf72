"""In-memory spans around rbfuq's public functions, and their self times.

A span records its name, start, end, parent and attributes.  Wrappers
are installed where the callers look the functions up (module
attributes such as ``rbfuq.study.assemble_gram``), so the program runs
unchanged and the spans nest as the calls do.  Spans stay in memory
until the run writes them out.
"""
from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records one span per wrapped call; single-threaded callers only."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []

    def wrap(self, fn, name: str, attrs=None):
        """``fn`` recording a span; ``attrs(args, kwargs, result)`` adds attributes."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else None
            span = Span(name, self.clock(), float("nan"), parent)
            self.spans.append(span)
            self._open.append(len(self.spans) - 1)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span.end = self.clock()
                self._open.pop()
                if attrs is not None:
                    span.attrs = attrs(args, kwargs, result)

        return traced

    @contextmanager
    def patched(self, targets):
        """Install wrappers for ``(module, attribute, span name, attrs)`` targets."""
        saved = []
        try:
            for module, attr, name, attrs in targets:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, name, attrs))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> list:
    """Each span's duration less the part of it that its children cover."""
    children = [[] for _ in spans]
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return [
        s.duration - covered_length(kids, s.start, s.end)
        for s, kids in zip(spans, children)
    ]
