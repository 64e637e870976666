"""In-memory span tracer that patches public functions from the outside.

The benchmark never edits the package under test.  A :class:`Tracer`
replaces a function *where its calling module binds it* (for example
``repro.core.population.solve_alignment``, the name the test engine looks
up at call time) with a wrapper that records one span per call, and puts
every original back on :meth:`Tracer.restore`.

A span is ``(name, start, end, parent, run)`` plus optional counters.
Parents are tracked per thread, so a span opened inside another span on
the same thread is its child; spans on other threads (daemon workers,
HTTP handlers) start their own trees and are tied to a request by their
``run`` identifier (:func:`adopt_across_threads` hangs them under the
request's first span).  Self time is a span's duration minus the part of
it that its children cover.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Any, Callable


@dataclass
class Span:
    """One timed call; ``parent`` indexes the enclosing span's position."""

    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    run: str = ""
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return [
        span.duration - covered(children[i], span.start, span.end)
        for i, span in enumerate(spans)
    ]


class Tracer:
    """Records spans in memory; installs and removes function wrappers."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[Any, str, Any, bool]] = []

    # -- spans -----------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def run(self) -> str:
        """The run or request id new spans on this thread are tagged with."""
        return getattr(self._local, "run", "")

    @run.setter
    def run(self, value: str) -> None:
        self._local.run = value

    def open(self, name: str) -> int:
        stack = self._stack()
        span = Span(
            name,
            time.perf_counter(),
            parent=stack[-1] if stack else None,
            run=self.run,
        )
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        return index

    def close(self, index: int, **counts: float) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        span.counts.update(counts)
        # A span opened before its thread knew the request (an HTTP handler
        # reads the body first) takes the id set while it ran.
        span.run = span.run or self.run
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()

    def span(self, name: str) -> "_SpanContext":
        return _SpanContext(self, name)

    # -- patching --------------------------------------------------------------

    def patch(
        self,
        owner: Any,
        attr: str,
        name: str,
        counts: Callable[..., dict[str, float]] | None = None,
        run: Callable[..., str] | None = None,
        context: bool = False,
    ) -> None:
        """Wrap ``owner.attr`` so every call records a span ``name``.

        ``counts(result, *args, **kwargs)`` returns counters to attach to
        the span.  ``run(*args, **kwargs)`` names the run or request the
        call belongs to; it tags this thread's spans from then on.
        Generator functions get one span per produced item, so the
        consumer's work between items is not charged to them.  With
        ``context=True`` the function returns a context manager and the
        span covers the ``with`` block.
        """
        original = getattr(owner, attr)
        own = attr in vars(owner)
        if context:
            wrapper = self._wrap_context(original, name, run)
        elif inspect.isgeneratorfunction(inspect.unwrap(original)):
            wrapper = self._wrap_generator(original, name, run)
        else:
            wrapper = self._wrap_call(original, name, counts)
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original, own))

    def restore(self) -> None:
        """Put every patched attribute back, most recent first."""
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def _wrap_call(self, fn, name, counts):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.close(index)
                raise
            tracer.close(
                index, **(counts(result, *args, **kwargs) if counts else {})
            )
            return result

        traced.__wrapped_by_tracer__ = True
        return traced

    def _wrap_generator(self, fn, name, run):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if run is not None:
                tracer.run = run(*args, **kwargs)
            items = fn(*args, **kwargs)
            try:
                while True:
                    index = tracer.open(name)
                    try:
                        item = next(items)
                    except StopIteration:
                        tracer.close(index)
                        return
                    except BaseException:
                        tracer.close(index)
                        raise
                    tracer.close(index, items=1)
                    yield item
            finally:
                items.close()

        traced.__wrapped_by_tracer__ = True
        return traced

    def _wrap_context(self, fn, name, run):
        tracer = self

        @functools.wraps(fn)
        @contextlib.contextmanager
        def traced(*args, **kwargs):
            if run is not None:
                tracer.run = run(*args, **kwargs)
            with tracer.span(name), fn(*args, **kwargs) as value:
                yield value

        traced.__wrapped_by_tracer__ = True
        return traced


class _SpanContext:
    """``with tracer.span(name) as s``: ``s.index`` locates the span."""

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name
        self.index = -1

    def __enter__(self) -> "_SpanContext":
        self.index = self.tracer.open(self.name)
        return self

    def __exit__(self, *exc_info) -> None:
        self.tracer.close(self.index)


def select(spans: list[Span], runs: set[str]) -> list[Span]:
    """The spans of ``runs``, with parent indices renumbered to match.

    A span's children carry its run id, so whole trees are kept or dropped.
    """
    index: dict[int, int] = {}
    kept: list[Span] = []
    for i, span in enumerate(spans):
        if span.run in runs:
            index[i] = len(kept)
            kept.append(span)
    return [
        replace(span, parent=index.get(span.parent)) for span in kept
    ]


def adopt_across_threads(spans: list[Span]) -> list[Span]:
    """Hang each run's later tree roots under the run's first root span.

    A request starts on the client thread and continues on a server
    thread, whose spans start a tree of their own.  A root span that
    starts while an earlier root of the same run is open becomes its
    child, so the waiting client span's self time excludes the server's
    work.  Spans without a run id are left alone.
    """
    first: dict[str, int] = {}
    linked = list(spans)
    for i, span in enumerate(spans):
        if span.parent is not None or not span.run:
            continue
        root = first.setdefault(span.run, i)
        if root != i and spans[root].start <= span.start < spans[root].end:
            linked[i] = replace(span, parent=root)
    return linked


def dump(spans: list[Span], path: Path) -> None:
    """Write one JSON object per span, with its self time, to ``path``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as handle:
        for span, own in zip(spans, self_times(spans)):
            record = asdict(span)
            record["self_s"] = own
            handle.write(json.dumps(record) + "\n")


def layer_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: call count, total and self seconds, summed counters."""
    totals: dict[str, dict[str, float]] = defaultdict(
        lambda: defaultdict(float)
    )
    for span, own in zip(spans, self_times(spans)):
        row = totals[span.name]
        row["calls"] += 1
        row["total_s"] += span.duration
        row["self_s"] += own
        for key, value in span.counts.items():
            row[key] += value
    return {name: dict(row) for name, row in totals.items()}
