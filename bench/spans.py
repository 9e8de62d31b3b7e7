"""In-memory spans recorded around the benchmark's calls into the package.

A span is (id, name, start_ns, end_ns, parent_id).  The module of a span is
the first dotted part of its name.  Spans stay in memory until the
repetition ends; the caller writes them out.
"""

from __future__ import annotations

import contextlib
import time

clock_ns = time.perf_counter_ns


class Tracer:
    """Records nested spans for one repetition."""

    def __init__(self):
        self.spans: list[list] = []  # [id, name, start_ns, end_ns, parent_id]
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([sid, name, clock_ns(), None, parent])
        self._stack.append(sid)
        return sid

    def end(self, sid: int) -> int:
        """Close the innermost span (which must be `sid`); returns its length in ns."""
        if not self._stack or self._stack[-1] != sid:
            raise RuntimeError(f"span {sid} closed out of order")
        self._stack.pop()
        span = self.spans[sid]
        span[3] = clock_ns()
        return span[3] - span[2]

    @contextlib.contextmanager
    def span(self, name: str):
        sid = self.begin(name)
        try:
            yield
        finally:
            self.end(sid)

    def record(self, name: str, start_ns: int, end_ns: int) -> int:
        """Add an already-timed leaf span under the open span (for hot loops)."""
        parent = self._stack[-1] if self._stack else None
        self.spans.append([len(self.spans), name, start_ns, end_ns, parent])
        return end_ns - start_ns


def tree_problems(spans: list[list]) -> list[str]:
    """Structural problems of one repetition's span list: it must be a tree
    with exactly one root, closed spans, and children inside their parent."""
    problems = []
    roots = [s for s in spans if s[4] is None]
    if len(roots) != 1:
        problems.append(f"{len(roots)} root spans, expected exactly 1")
    ids = {s[0] for s in spans}
    for sid, name, start, end, parent in spans:
        if end is None or end < start:
            problems.append(f"span {name!r} not closed")
        elif parent is not None:
            if parent not in ids:
                problems.append(f"span {name!r} has unknown parent {parent}")
                continue
            p = spans[parent]
            if p[3] is not None and not (p[2] <= start and end <= p[3]):
                problems.append(f"span {name!r} lies outside its parent {p[1]!r}")
    return problems


def self_seconds_by_module(spans: list[list]) -> dict[str, float]:
    """Per-module self time: each span's length minus the time its children
    cover (children of one span never overlap: the benchmark is one thread)."""
    child_ns = [0] * len(spans)
    for sid, _, start, end, parent in spans:
        if parent is not None:
            child_ns[parent] += end - start
    out: dict[str, float] = {}
    for sid, name, start, end, _ in spans:
        module = name.split(".", 1)[0]
        out[module] = out.get(module, 0.0) + (end - start - child_ns[sid]) / 1e9
    return out
