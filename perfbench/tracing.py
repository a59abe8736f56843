"""Spans around the benchmark's calls into each orthobound layer.

A span has a name, start, end, parent span and op id.  Spans stay in
memory and are written out as JSON lines when the run ends.  A span's self
time is its duration minus the part of it that its child spans cover.
No span sits inside the package: every span wraps a call made from here.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from checks import all_finite, median

SETUP_OP = -1


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: int
    error: bool = False
    nbytes: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class _Open:
    __slots__ = ("tracer", "index")

    def __init__(self, tracer, index):
        self.tracer = tracer
        self.index = index

    def __enter__(self):
        return self.tracer.spans[self.index]

    def __exit__(self, exc_type, exc, tb):
        span = self.tracer.spans[self.index]
        span.end = time.perf_counter()
        if exc_type is not None:
            span.error = True
        self.tracer._stack.pop()
        return False


class Tracer:
    def __init__(self):
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self.op = SETUP_OP

    def span(self, name: str, nbytes: int = 0) -> _Open:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, 0.0, 0.0, parent, self.op, nbytes=nbytes))
        index = len(self.spans) - 1
        self._stack.append(index)
        self.spans[index].start = time.perf_counter()
        return _Open(self, index)

    def call(self, name: str, fn, *args, nbytes: int = 0, swallow: bool = False, **kwargs):
        """fn(*args, **kwargs) inside a span; a non-finite result marks an error.

        With ``swallow`` an exception is recorded on the span and None is
        returned, for extra calls that must not fail the op around them.
        """
        try:
            with self.span(name, nbytes) as span:
                out = fn(*args, **kwargs)
        except Exception:
            if swallow:
                return None
            raise
        parts = out if isinstance(out, tuple) else (out,)
        if not all_finite(*(p for p in parts if isinstance(p, (float, complex, np.ndarray)))):
            span.error = True
        return out

    def last(self, name: str) -> Optional[Span]:
        for span in reversed(self.spans):
            if span.name == name:
                return span
        return None

    def self_times(self) -> List[float]:
        children: Dict[int, List[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        out = []
        for i, span in enumerate(self.spans):
            covered, reach = 0.0, span.start
            for c in sorted(children.get(i, ()), key=lambda s: s.start):
                lo, hi = max(c.start, reach), min(c.end, span.end)
                if hi > lo:
                    covered += hi - lo
                reach = max(reach, hi)
            out.append(span.duration - covered)
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.op, s.error]) + "\n")


def function_metrics(tracer: Tracer, names) -> Dict[str, Dict[str, float]]:
    """calls, self_s, p50_us and errors for each span name in ``names``."""
    self_s = tracer.self_times()
    out = {}
    for name in names:
        idx = [i for i, s in enumerate(tracer.spans) if s.name == name]
        out[name] = {
            "calls": len(idx),
            "self_s": sum(self_s[i] for i in idx),
            "p50_us": median([tracer.spans[i].duration for i in idx]) * 1e6 if idx else 0.0,
            "errors": sum(tracer.spans[i].error for i in idx),
        }
    return out
