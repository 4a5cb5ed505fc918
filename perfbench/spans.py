"""In-memory span tracer for the dispdecomp benchmark.

The tracer wraps functions from outside the package: each call through a
wrapper records one span (name, start, end, parent, failed, attrs) in a list
kept in memory. Parents come from a call stack, so the spans of one
benchmark iteration form a tree. Self time and per-name totals are derived
from that list after the iteration, never while it runs.

Nothing here imports dispdecomp; which functions to wrap is decided by the
caller (see workloads.TRACED).
"""
from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable


@dataclass(frozen=True)
class Span:
    """One recorded call: parent is the index of the enclosing span, or -1."""

    name: str
    start: float
    end: float
    parent: int
    failed: bool = False
    attrs: dict[str, float] | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    """Collects spans from wrapped callables; single-threaded by design."""

    spans: list[Span | None] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        attrs: Callable[..., dict[str, float]] | None = None,
    ) -> Callable[..., Any]:
        """A wrapper around fn that records a span named name per call.

        attrs, when given, is called with the same arguments after the call
        has returned and the clock has stopped; its dict is stored on the
        span (e.g. computed sizes taken from the arguments).
        """
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            failed = True
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                end = perf_counter()
                stack.pop()
                extra = attrs(*args, **kwargs) if attrs is not None else None
                spans[index] = Span(name, start, end, parent, failed, extra)

        return traced

    def take(self) -> list[Span]:
        """Return the finished spans and start a fresh list."""
        if self._stack:
            raise RuntimeError("take() called while spans are still open")
        done: list[Span] = list(self.spans)  # type: ignore[arg-type]
        self.spans.clear()
        return done


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover.

    Child intervals are clipped to the parent and merged before they are
    subtracted, so overlapping children are not counted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(index, ())):
            start = max(start, cursor)
            end = min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        out.append(span.duration - covered)
    return out


@dataclass
class NameTotals:
    """Per-name aggregate over the spans of one iteration."""

    calls: int = 0
    seconds: float = 0.0
    self_seconds: float = 0.0
    failed: int = 0
    attrs: dict[str, float] = field(default_factory=dict)


def totals_by_name(spans: list[Span]) -> dict[str, NameTotals]:
    """Calls, inclusive and self seconds, failures and summed attrs per name."""
    selfs = self_times(spans)
    out: dict[str, NameTotals] = {}
    for span, own in zip(spans, selfs):
        agg = out.setdefault(span.name, NameTotals())
        agg.calls += 1
        agg.seconds += span.duration
        agg.self_seconds += own
        agg.failed += span.failed
        for key, value in (span.attrs or {}).items():
            agg.attrs[key] = agg.attrs.get(key, 0.0) + value
    return out


def write_spans(path: str, iterations: list[list[Span]]) -> None:
    """Write spans as JSON lines; iteration is the trace id they share."""
    with open(path, "w", encoding="utf-8") as fh:
        for iteration, spans in enumerate(iterations):
            for index, s in enumerate(spans):
                record = {
                    "iteration": iteration,
                    "id": index,
                    "parent": s.parent,
                    "name": s.name,
                    "start": s.start,
                    "end": s.end,
                    "failed": s.failed,
                }
                if s.attrs:
                    record["attrs"] = s.attrs
                fh.write(json.dumps(record) + "\n")
