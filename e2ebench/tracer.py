"""An in-memory span recorder that traces a program from the outside.

The benchmark's traced run replaces public entry points of the program
with thin wrappers (:meth:`Tracer.wrap`), runs the workload, and puts
every original back (:meth:`Tracer.restore`).  The program itself is not
edited and an untraced run installs nothing.

Each call of a wrapped entry point becomes one :class:`Span`: name,
start, end, the span that was open on the same thread when it began
(its parent), the thread, and a request id shared by the spans of one
request.  A span's *self time* is its duration minus the part of it that
its child spans cover (:func:`self_times`).

Calls made in a forked child process (the engine's pool workers) run the
original function untraced: the spans of the parent are the only ones
recorded.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import threading
import time
from collections import defaultdict

__all__ = ["Span", "Tracer", "covered_length", "self_times"]


class Span:
    """One call of a wrapped entry point."""

    __slots__ = (
        "id", "name", "start", "end", "parent", "thread", "request", "phase",
        "counts", "inside", "first_item",
    )

    def __init__(self, id, name, start, parent, thread, request, phase):
        self.id = id
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.thread = thread
        self.request = request
        self.phase = phase
        #: counters recorded at this boundary (rows computed, copies added, ...)
        self.counts: dict[str, float] = {}
        #: for spans around an iterator: time spent inside ``next()``
        self.inside = 0.0
        #: for spans around an iterator: when the first item came out
        self.first_item = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "thread": self.thread,
            "request": self.request,
            "phase": self.phase,
            "counts": self.counts,
        }


class Tracer:
    """Records spans around wrapped entry points, in memory.

    ``request`` and ``phase`` are set by the benchmark as it goes: a
    span that starts with no parent takes the current ``request`` (unless
    its wrapper names its own request) and every span records the
    current ``phase``.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.request = None
        self.phase = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._pid = os.getpid()
        #: (owner, attribute, original or None when it was inherited)
        self._patches: list[tuple[object, object, object]] = []

    # ------------------------------------------------------------------
    # span bookkeeping
    # ------------------------------------------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _begin(self, name: str, request=None) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if request is None:
            request = parent.request if parent is not None else self.request
        span = Span(
            next(self._ids), name, time.perf_counter(),
            None if parent is None else parent.id,
            threading.get_ident(), request, self.phase,
        )
        stack.append(span)
        return span

    def _finish(self, span: Span) -> None:
        span.end = time.perf_counter()
        self.spans.append(span)

    # ------------------------------------------------------------------
    # wrapping
    # ------------------------------------------------------------------
    def wrap(self, owner, attr, name: str, *, before=None, after=None,
             request=None) -> None:
        """Replace ``owner.attr`` (or ``owner[attr]`` for a dict) with a
        traced wrapper.

        ``before(args, kwargs)`` runs before the call and its value is
        handed to ``after(state, args, kwargs, result)``, which returns a
        dict of counters stored on the span.  ``request()`` gives the
        span a request id of its own (its children inherit it).
        Classmethods and staticmethods keep their descriptor type.  A
        call that returns a generator is traced until the generator is
        exhausted or closed.
        """
        is_dict = isinstance(owner, dict)
        original = owner[attr] if is_dict else inspect.getattr_static(owner, attr)
        # an inherited attribute is shadowed while traced, then removed again
        own = is_dict or attr in vars(owner)
        if isinstance(original, (classmethod, staticmethod)):
            fn = original.__func__
        else:
            fn = original
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != tracer._pid:
                return fn(*args, **kwargs)
            state = before(args, kwargs) if before is not None else None
            span = tracer._begin(name, request() if request is not None else None)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._stack().pop()
                tracer._finish(span)
                raise
            tracer._stack().pop()
            if after is not None:
                span.counts.update(after(state, args, kwargs, result) or {})
            if inspect.isgenerator(result):
                return tracer._iterate(span, result)
            tracer._finish(span)
            return result

        if isinstance(original, classmethod):
            replacement = classmethod(traced)
        elif isinstance(original, staticmethod):
            replacement = staticmethod(traced)
        else:
            replacement = traced
        if is_dict:
            owner[attr] = replacement
        else:
            setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original if own else None))

    def _iterate(self, span: Span, gen):
        """Keep ``span`` open while ``gen`` is consumed; it is the parent
        of whatever runs inside each ``next()``."""
        stack = self._stack()
        try:
            while True:
                stack.append(span)
                t0 = time.perf_counter()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    t1 = time.perf_counter()
                    span.inside += t1 - t0
                    stack.pop()
                if span.first_item is None:
                    span.first_item = t1
                span.counts["items"] = span.counts.get("items", 0) + 1
                yield item
        finally:
            gen.close()
            self._finish(span)

    def restore(self) -> None:
        """Put every wrapped entry point back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            elif original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def write_jsonl(self, path) -> None:
        """Write every finished span as one JSON object per line."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_dict()) + "\n")


def covered_length(lo: float, hi: float, intervals) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {
        span.id: span.duration - covered_length(span.start, span.end, children[span.id])
        for span in spans
    }
