"""In-memory spans recorded by the benchmark around its calls into the layers.

A span is (id, parent id, name, start, end) on the ``time.perf_counter``
clock.  Spans stay in a list until the run ends.  When tracing is off,
:meth:`Tracer.span` hands back one shared no-op context, so an untraced
run pays a method call per layer call and nothing else.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from typing import Dict, List

import numpy as np

_NOOP = nullcontext()


class _Span:
    __slots__ = ("tracer", "name", "span_id", "parent_id", "start", "end")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self.tracer = tracer
        self.name = name
        self.start = 0.0
        self.end = 0.0

    def __enter__(self) -> "_Span":
        stack = self.tracer.stack
        self.parent_id = stack[-1] if stack else None
        self.span_id = len(self.tracer.spans)
        self.tracer.spans.append(self)
        stack.append(self.span_id)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        self.end = time.perf_counter()
        self.tracer.stack.pop()

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans when ``enabled``; otherwise every span is a no-op."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[_Span] = []
        self.stack: List[int] = []

    def span(self, name: str):  # type: ignore[no-untyped-def]
        return _Span(self, name) if self.enabled else _NOOP

    def durations(self, name: str) -> List[float]:
        """Durations in seconds of every finished span called ``name``."""
        return [s.seconds for s in self.spans if s.name == name]

    def busy_s(self, name: str) -> float:
        return float(sum(self.durations(name)))

    def unattributed_frac(self, root: str) -> float:
        """Share of the ``root`` span that none of its child spans covers.

        Children of one parent never overlap (they run one after the
        other in a single thread), so their durations add up.
        """
        return 1.0 - sum(self.shares(root).values())

    def shares(self, root: str) -> Dict[str, float]:
        """Share of the ``root`` span taken by each name among its child spans."""
        roots = [s for s in self.spans if s.name == root]
        if len(roots) != 1:
            raise ValueError(f"expected one {root!r} span, found {len(roots)}")
        top = roots[0]
        shares: Dict[str, float] = {}
        for s in self.spans:
            if s.parent_id == top.span_id:
                shares[s.name] = shares.get(s.name, 0.0) + s.seconds / top.seconds
        return shares


def summarize_ms(prefix: str, seconds: List[float]) -> Dict[str, float]:
    """p50 and p90 of a list of durations, in ms (0 when the list is empty)."""
    if not seconds:
        return {f"{prefix}_ms_p50": 0.0, f"{prefix}_ms_p90": 0.0}
    p50, p90 = np.percentile(np.asarray(seconds) * 1e3, [50, 90])
    return {f"{prefix}_ms_p50": float(p50), f"{prefix}_ms_p90": float(p90)}
