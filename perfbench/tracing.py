"""Span tracing from outside the program under test.

:class:`Tracer` wraps public entry points (methods on classes, functions
on modules) with a timing shim.  Each call becomes a span: name, start,
end, parent span and the burst the harness was driving when it started.
Spans are kept in memory, in flat arrays, and written out once at exit.

A span's *self time* is its duration minus the time its child spans
cover.  Self times of all spans add up to the duration of the top-level
spans, which is what lets per-layer self time reconcile with end-to-end
time per frame.

Install wrappers *before* building the system under test: objects built
earlier hold bound methods and callables captured at build time, which
keep calling whatever was installed then.  :meth:`Tracer.restore` puts
every original attribute back (an inherited attribute is deleted again,
so the class resolves it through its bases as before).
"""

from __future__ import annotations

import array
import gc
import gzip
import inspect
import time
from collections.abc import Callable, Iterator
from pathlib import Path
from typing import Any

#: Spans kept in memory for the exit dump; aggregates cover every span.
MAX_RECORDED_SPANS = 200_000


class Tracer:
    """Wrap entry points, record spans, aggregate self time per name."""

    def __init__(self, *, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        #: Per name: summed self time, summed duration, call count and
        #: the item count its ``items`` probe reported.
        self.self_ns: list[int] = []
        self.total_ns: list[int] = []
        self.calls: list[int] = []
        self.items: list[int] = []
        #: Burst id the harness is driving (stamped on every span).
        self.burst = 0
        self.spans_seen = 0
        self._stack: list[list[int]] = []
        self._patches: list[tuple[Any, str, bool, Any]] = []
        self._span_name = array.array("l")
        self._span_start = array.array("q")
        self._span_end = array.array("q")
        self._span_parent = array.array("q")
        self._span_burst = array.array("q")
        self._span_id = array.array("q")

    # -- names and aggregates ---------------------------------------------

    def name_id(self, name: str) -> int:
        """Index of *name* in the aggregate lists (registered on first use)."""
        index = self._ids.get(name)
        if index is None:
            index = self._ids[name] = len(self.names)
            self.names.append(name)
            self.self_ns.append(0)
            self.total_ns.append(0)
            self.calls.append(0)
            self.items.append(0)
        return index

    def snapshot(self) -> dict[str, tuple[int, int, int, int]]:
        """Per name: (self ns, total ns, calls, items) so far."""
        return {
            name: (self.self_ns[i], self.total_ns[i], self.calls[i], self.items[i])
            for i, name in enumerate(self.names)
        }

    # -- wrapping ---------------------------------------------------------

    def wrap(
        self,
        fn: Callable,
        name: str,
        *,
        items: Callable[[tuple, Any], int] | None = None,
        after: Callable[[tuple, Any], None] | None = None,
    ) -> Callable:
        """A traced stand-in for *fn*.  *items* maps (args, result) to a
        work count added to the name's item total; *after* observes
        (args, result) once the span has closed."""
        index = self.name_id(name)
        stack = self._stack
        clock = self.clock
        self_ns, total_ns, calls, counts = (
            self.self_ns,
            self.total_ns,
            self.calls,
            self.items,
        )
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            span = tracer.spans_seen
            tracer.spans_seen = span + 1
            parent = stack[-1][0] if stack else -1
            cell = [span, 0]
            stack.append(cell)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_ns[index] += duration - cell[1]
                total_ns[index] += duration
                calls[index] += 1
                if stack:
                    stack[-1][1] += duration
                if span < MAX_RECORDED_SPANS:
                    tracer._record(span, index, start, end, parent)
            if items is not None:
                counts[index] += items(args, result)
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _record(self, span: int, index: int, start: int, end: int, parent: int) -> None:
        self._span_id.append(span)
        self._span_name.append(index)
        self._span_start.append(start)
        self._span_end.append(end)
        self._span_parent.append(parent)
        self._span_burst.append(self.burst)

    def patch(self, owner: Any, attr: str, name: str, **options: Any) -> None:
        """Replace ``owner.attr`` (a class or a module) with a traced
        wrapper; class- and static-method descriptors stay descriptors."""
        namespace = vars(owner)
        had = attr in namespace
        raw = namespace[attr] if had else inspect.getattr_static(owner, attr)
        if isinstance(raw, classmethod):
            replacement: Any = classmethod(self.wrap(raw.__func__, name, **options))
        elif isinstance(raw, staticmethod):
            replacement = staticmethod(self.wrap(raw.__func__, name, **options))
        else:
            replacement = self.wrap(raw, name, **options)
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, had, raw))

    def patch_instance(self, obj: Any, attr: str, name: str, **options: Any) -> None:
        """Trace *attr* on one instance only, under its own span name.

        Wraps the class's untraced function (bypassing a class-level
        wrapper) bound to *obj*, so the instance reports to *name* alone."""
        raw = inspect.getattr_static(type(obj), attr)
        fn = getattr(raw, "__wrapped__", raw)
        setattr(obj, attr, self.wrap(fn.__get__(obj), name, **options))
        self._patches.append((obj, attr, False, None))

    def restore(self) -> None:
        """Put back every attribute :meth:`patch` replaced, newest first."""
        while self._patches:
            owner, attr, had, raw = self._patches.pop()
            if had:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)

    # -- the exit dump ----------------------------------------------------

    @property
    def recorded(self) -> int:
        """Spans held in memory (the first :data:`MAX_RECORDED_SPANS` observed)."""
        return len(self._span_id)

    def spans(self) -> Iterator[tuple[int, str, int, int, int, int]]:
        """Recorded spans as (span, name, start_ns, end_ns, parent,
        burst); parent -1 marks a top-level span."""
        names = self.names
        for i in range(len(self._span_id)):
            yield (
                self._span_id[i],
                names[self._span_name[i]],
                self._span_start[i],
                self._span_end[i],
                self._span_parent[i],
                self._span_burst[i],
            )

    def write_spans(self, path: Path) -> Path:
        """Write the recorded spans to *path* as gzip CSV."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span,name,start_ns,end_ns,parent,burst\n")
            for row in self.spans():
                out.write(",".join(map(str, row)) + "\n")
        return path


def self_times(spans: list[tuple[int, int, int, int]]) -> dict[int, int]:
    """Self time per span from ``(span, start, end, parent)`` rows: the
    span's duration minus the durations of its direct children.  The
    reference arithmetic the tracer's online aggregation must match."""
    child_ns: dict[int, int] = {}
    for _span, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] = child_ns.get(parent, 0) + (end - start)
    return {
        span: (end - start) - child_ns.get(span, 0)
        for span, start, end, _parent in spans
    }


class GcMonitor:
    """Counts full (generation-2) collections and their pause time
    through ``gc.callbacks`` while installed."""

    def __init__(self) -> None:
        self.gen2_count = 0
        self.gen2_ns = 0
        self._started: int | None = None

    def __call__(self, phase: str, info: dict) -> None:
        if info.get("generation") != 2:
            return
        if phase == "start":
            self._started = time.perf_counter_ns()
        elif self._started is not None:
            self.gen2_count += 1
            self.gen2_ns += time.perf_counter_ns() - self._started
            self._started = None

    def __enter__(self) -> "GcMonitor":
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc: object) -> None:
        gc.callbacks.remove(self)
