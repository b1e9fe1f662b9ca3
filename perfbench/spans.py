"""In-memory spans and call counters installed from outside the program.

Each wrapped function records one span per call: its name, start, end and
the span that was open when it was called.  Counted-only wrappers bump a
counter and record no span, for functions called too often to time.
Wrappers replace module attributes for the lifetime of an ``installed``
block and are removed afterwards, so untraced runs execute the original
functions with no extra cost.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []      # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def timed(self, name: str, fn, on_result=None, on_error=()):
        """Wrap fn in a span named ``name`` that also counts calls.

        ``on_result(counts, result)`` runs after a normal return.  Each
        ``(exception type, counter key)`` pair in ``on_error`` counts raises
        of that type; the exception still propagates.
        """
        spans, counts, stack, clock = self.spans, self.counts, self._open, self.clock
        calls = name + ".calls"

        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            counts[calls] += 1
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                for kind, key in on_error:
                    if isinstance(exc, kind):
                        counts[key] += 1
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(counts, result)
            return result

        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts
        calls = name + ".calls"

        def wrapper(*args, **kwargs):
            counts[calls] += 1
            return fn(*args, **kwargs)

        return wrapper

    def patch(self, owner, attr: str, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    @contextmanager
    def installed(self, install):
        """Run ``install(self)`` to patch, and undo every patch on exit."""
        try:
            install(self)
            yield self
        finally:
            while self._patches:
                owner, attr, original = self._patches.pop()
                setattr(owner, attr, original)


def union_length(intervals) -> float:
    """Total length covered by a set of [start, end] intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[str, float]:
    """Per name, the summed span durations minus the union of child spans."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out: dict[str, float] = {}
    for index, (name, start, end, _parent) in enumerate(spans):
        inner = [(max(s, start), min(e, end)) for s, e in children.get(index, ())]
        busy = union_length([(s, e) for s, e in inner if e > s])
        out[name] = out.get(name, 0.0) + (end - start) - busy
    return out
