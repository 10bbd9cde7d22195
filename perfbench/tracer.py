"""In-memory span tracer that wraps layer entry points from the outside.

The program under test carries no instrumentation of its own.  A
:class:`Tracer` replaces a layer's public functions with thin wrappers
(:meth:`Tracer.wrap`) that open a span around each call, and puts the
originals back on :meth:`Tracer.restore`.  Spans record layer, name, start,
end, parent and thread; they stay in memory and are written out when the
run ends (:meth:`Tracer.dump`).

A span's **self time** is its duration minus the time its direct children
cover.  Children on one thread never overlap each other (a thread runs one
call at a time), so that covered time is the plain sum of their durations.
Re-entering the layer that is already innermost on the thread (for
example ``score_many`` calling ``forward_batch``) opens no second span, so
a layer's inclusive time never counts the same interval twice.
"""

from __future__ import annotations

import functools
import json
import math
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional


@dataclass
class Span:
    layer: str
    name: str
    start: float
    thread: int
    parent: Optional[int]
    index: int
    end: float = float("nan")
    child_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


_MISSING = object()


class Tracer:
    """Span and counter registry for one traced run."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[tuple] = []

    # ------------------------------------------------------------------ #
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, layer: str, name: str) -> Span:
        stack = self._stack()
        with self._lock:
            span = Span(layer, name, self.clock(), threading.get_ident(),
                        stack[-1].index if stack else None, len(self.spans))
            self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1].child_s += span.duration

    def call(self, layer: str, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span, unless ``layer`` is already innermost."""
        stack = self._stack()
        if stack and stack[-1].layer == layer:
            return fn(*args, **kwargs)
        span = self.open(layer, name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(span)

    def count(self, key: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counts[key] += amount

    # ------------------------------------------------------------------ #
    def wrap(self, owner: Any, attr: str, layer: str, *,
             counter: Optional[Callable[..., None]] = None,
             snapshot: Optional[Callable[..., Any]] = None,
             span: bool = True) -> None:
        """Replace ``owner.attr`` by a traced wrapper of the same callable.

        ``owner`` is the object the program looks the name up on at call
        time: a module for module-level functions imported by name, a class
        for methods, or an instance for a per-object method.  After the
        call, ``counter(tracer, args, kwargs, result, before)`` records
        counts, where ``before`` is ``snapshot(args)`` taken before the call
        (``None`` without a snapshot).  ``span=False`` counts without timing.
        """
        in_dict = attr in vars(owner)
        original = vars(owner)[attr] if in_dict else getattr(owner, attr)
        name = f"{getattr(owner, '__name__', type(owner).__name__)}.{attr}"
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            before = snapshot(args) if snapshot is not None else None
            if span:
                result = tracer.call(layer, name, original, *args, **kwargs)
            else:
                result = original(*args, **kwargs)
            if counter is not None:
                counter(tracer, args, kwargs, result, before)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original if in_dict else _MISSING))

    def restore(self) -> None:
        """Put every wrapped name back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    def layer_totals(self, spans: Optional[List[Span]] = None) -> Dict[str, Dict[str, float]]:
        """Per layer: span count, inclusive seconds and self seconds."""
        totals: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0.0, "s": 0.0, "self_s": 0.0})
        for span in self.spans if spans is None else spans:
            entry = totals[span.layer]
            entry["calls"] += 1
            entry["s"] += span.duration
            entry["self_s"] += span.self_s
        return dict(totals)

    def structure_problems(self, start: float, end: float) -> List[str]:
        """Spans that are open, leave ``[start, end]`` or disagree with their tree.

        Every span must be closed inside the window and lie inside its
        parent on the parent's thread, and the child time it was charged
        when its children closed must equal the summed durations of the
        spans that name it as their parent.
        """
        problems: List[str] = []
        by_index = {span.index: span for span in self.spans}
        children: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            # Written so that a NaN end (an open span) fails the test.
            if not start <= span.start <= span.end <= end:
                problems.append(f"span {span.index} {span.name} not closed inside the window")
            if span.parent is None:
                continue
            children[span.parent] += span.duration
            parent = by_index.get(span.parent)
            if parent is None or parent.thread != span.thread \
                    or not parent.start <= span.start <= span.end <= parent.end:
                problems.append(f"span {span.index} {span.name} lies outside its parent")
        for span in self.spans:
            if not math.isclose(span.child_s, children[span.index],
                                rel_tol=1e-9, abs_tol=1e-12):
                problems.append(f"span {span.index} {span.name} was charged "
                                f"{span.child_s!r} s of children, which last "
                                f"{children[span.index]!r} s")
        return problems

    def reconcile(self, start: float, end: float) -> Dict[str, object]:
        """The reported self times plus the unattributed remainder against the wall.

        The two sides are measured apart.  Per thread, the self times are
        the per-layer ``self_s`` totals the run reports (each span's
        duration minus the child time charged to it), and the unattributed
        remainder is the part of ``[start, end]`` that the union of the
        thread's top-level span intervals leaves uncovered.  On a well-formed
        trace they add up to the wall; overlapping top-level spans, a span
        missing from the record or child time charged to the wrong span
        make them disagree.  ``error`` is the largest
        ``|sum(self) + unattributed - wall| / wall`` over the threads; the
        other figures are those of the thread whose spans cover the most
        time (the stage's compute thread).  ``problems`` lists what
        :meth:`structure_problems` finds.
        """
        wall = end - start
        by_thread: Dict[int, List[Span]] = defaultdict(list)
        for span in self.spans:
            by_thread[span.thread].append(span)
        best: Dict[str, object] = {"wall_s": wall, "self_sum_s": 0.0,
                                   "unattributed_s": wall}
        error, best_covered = 0.0, -1.0
        for spans in by_thread.values():
            self_sum = sum(totals["self_s"] for totals in self.layer_totals(spans).values())
            covered = covered_length(
                [(s.start, s.end) for s in spans if s.parent is None], start, end)
            unattributed = wall - covered
            thread_error = abs(self_sum + unattributed - wall) / wall if wall > 0 else 0.0
            # Unlike max(), keeps a NaN error (an open span) once seen.
            if math.isnan(thread_error) or thread_error > error:
                error = thread_error
            if covered > best_covered:
                best_covered = covered
                best = {"wall_s": wall, "self_sum_s": self_sum,
                        "unattributed_s": unattributed}
        problems = self.structure_problems(start, end)
        return {**best, "error": error, "threads": len(by_thread),
                "problems": len(problems), "problem_sample": problems[:10]}

    def dump(self, path) -> None:
        """Write every span (start/end relative to the first) as JSON lines."""
        origin = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps({
                    "index": span.index, "parent": span.parent,
                    "layer": span.layer, "name": span.name,
                    "thread": span.thread,
                    "start": span.start - origin, "end": span.end - origin,
                    "self_s": span.self_s,
                }) + "\n")


def covered_length(intervals: List[tuple], start: float, end: float) -> float:
    """Length of the union of ``intervals``, each clipped to ``[start, end]``."""
    covered, reach = 0.0, start
    for low, high in sorted((max(a, start), min(b, end)) for a, b in intervals):
        if high <= reach or math.isnan(high):
            continue
        covered += high - max(low, reach)
        reach = high
    return covered
