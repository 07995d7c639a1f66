"""Spans recorded by the benchmark around its own calls into arithfn.

A span has a name (the ``<module>.<function>`` that was called), an optional
tag (the per-layer metric it feeds), a start and an end on the
``time.perf_counter`` clock, its parent span and an operation id.  Spans live
in memory until the run ends and are then written out with their self times.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from collections import defaultdict
from typing import NamedTuple, Optional


class Span(NamedTuple):
    id: int
    parent: Optional[int]
    op: Optional[int]
    name: str
    tag: Optional[str]
    start: float
    end: float


class Tracer:
    """Records nested spans; the innermost open span is the parent of a new one."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._next_op = 0

    def new_op(self) -> int:
        """A fresh operation id; spans of one operation share it."""
        self._next_op += 1
        return self._next_op

    @contextlib.contextmanager
    def span(self, name: str, tag: Optional[str] = None, op: Optional[int] = None):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(sid, parent, op, name, tag, start, end))


_NULL_SPAN = contextlib.nullcontext()


class NullTracer:
    """The untraced path: same calls, no records."""

    def new_op(self) -> Optional[int]:
        return None

    def span(self, name: str, tag: Optional[str] = None, op: Optional[int] = None):
        return _NULL_SPAN


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    return {s.id: (s.end - s.start) - child_time[s.id] for s in spans}


def tagged_medians(spans: list[Span]) -> dict[str, float]:
    """Tag -> median over operations of the summed self time of that tag's spans.

    Spans that share a tag and an operation id are one sample, so a probe that
    makes several calls for one measurement reports their total.
    """
    selfs = self_times(spans)
    per_op: dict[str, dict] = defaultdict(lambda: defaultdict(float))
    for s in spans:
        if s.tag is not None:
            key = s.op if s.op is not None else ("span", s.id)
            per_op[s.tag][key] += selfs[s.id]
    return {tag: statistics.median(ops.values()) for tag, ops in per_op.items()}


def layer_self_seconds(spans: list[Span]) -> dict[str, float]:
    """Summed self time per layer, the part of the span name before the first dot."""
    selfs = self_times(spans)
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s.name.split(".", 1)[0]] += selfs[s.id]
    return dict(out)


def spans_to_json(spans: list[Span]) -> list[dict]:
    selfs = self_times(spans)
    return [{**s._asdict(), "self": selfs[s.id]} for s in spans]
