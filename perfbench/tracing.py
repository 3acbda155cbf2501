"""In-memory spans around the program's public calls.

The traced run wraps each layer's public function where another layer
imports it (for example ``repro.net.tuner.decode_bucket``) and records
one span per call. Nothing under ``src/`` changes: wrappers are
installed on module attributes, instances or classes for the duration
of the run and removed afterwards.

Two kinds of record keep memory bounded:

* **spans** — ``(name, start, end, parent)`` for calls that matter one
  by one (a connect, a replan, a round). Spans of one walk or round
  share its root id.
* **leaf totals** — seconds and calls per ``(parent span, name)`` for
  hot leaf functions called tens of thousands of times (a scalar walk,
  an estimator update, a frame decode). They have no children, so their
  whole time is self time.

The current span travels in a :class:`contextvars.ContextVar`, so spans
opened inside concurrent asyncio tasks nest under their own walk.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Iterator

from .stats import covered, reconcile

#: Relative tolerance of the reconciliation check. The rows are built
#: from the same clock readings, so only float rounding separates them.
RECONCILE_TOLERANCE = 1e-6


def patch(
    stack: contextlib.ExitStack, owner: object, attr: str, replacement
) -> None:
    """Set ``owner.attr`` to ``replacement`` until ``stack`` closes."""
    own = attr in vars(owner)
    original = getattr(owner, attr)
    setattr(owner, attr, replacement)
    if own:
        stack.callback(setattr, owner, attr, original)
    else:
        # Shadowed a class attribute; deleting brings it back.
        stack.callback(delattr, owner, attr)


def layer_of(name: str) -> str:
    """``"net.fetch"`` → ``"net"``."""
    return name.split(".", 1)[0]


@contextlib.contextmanager
def root_span(
    recorder: "Recorder | None", name: str, start: float | None = None
) -> Iterator["Span | None"]:
    """A root span (a walk, chunk, round or set-up) around the block.

    Without a recorder (the untraced run) it does nothing and yields
    ``None``.
    """
    if recorder is None:
        yield None
        return
    span = recorder.begin(name, start, parent=None)
    try:
        with recorder.within(span):
            yield span
    finally:
        recorder.end(span)


def maybe_span(recorder: "Recorder | None", name: str):
    """``recorder.span(name)``, or nothing in the untraced run."""
    if recorder is None:
        return contextlib.nullcontext()
    return recorder.span(name)


class Span:
    __slots__ = ("id", "parent", "root", "name", "start", "end")

    def __init__(self, id, parent, root, name, start, end=None):
        self.id = id
        self.parent = parent
        self.root = root
        self.name = name
        self.start = start
        self.end = end

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans and leaf totals for one traced run."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.leaf: dict[tuple[int | None, str], list] = {}
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._current: contextvars.ContextVar[Span | None] = (
            contextvars.ContextVar("perfbench_span", default=None)
        )
        self._next_id = 1

    # -- spans ---------------------------------------------------------------
    def begin(
        self,
        name: str,
        start: float | None = None,
        *,
        parent: Span | None | bool = True,
    ) -> Span:
        """Open a span; ``parent=True`` nests it under the current span."""
        if parent is True:
            parent = self._current.get()
        span = Span(
            self._next_id,
            parent.id if parent else None,
            parent.root if parent else self._next_id,
            name,
            self.clock() if start is None else start,
        )
        self._next_id += 1
        self.spans.append(span)
        return span

    def end(self, span: Span, end: float | None = None) -> Span:
        span.end = self.clock() if end is None else end
        return span

    def record(
        self, name: str, start: float, end: float, *, parent: Span | None
    ) -> Span:
        """A span measured after the fact (a queue wait, a late start)."""
        return self.end(self.begin(name, start, parent=parent), end)

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """Time the block as a span and make it the current parent."""
        span = self.begin(name)
        token = self._current.set(span)
        try:
            yield span
        finally:
            self._current.reset(token)
            self.end(span)

    @contextlib.contextmanager
    def within(self, span: Span) -> Iterator[Span]:
        """Make an already open span the current parent."""
        token = self._current.set(span)
        try:
            yield span
        finally:
            self._current.reset(token)

    # -- wrappers ------------------------------------------------------------
    def wrap(
        self,
        func: Callable,
        name: str,
        *,
        leaf: bool = False,
        samples: bool = False,
        detached: bool = False,
    ) -> Callable:
        """A timing wrapper around ``func``.

        ``leaf`` adds the call to the per-parent totals instead of
        recording a span; ``samples`` also keeps each duration for
        percentiles; ``detached`` books the call outside every walk (for
        work another task does on the walk's behalf, like the station
        airing a frame).
        """
        clock = self.clock
        current = self._current
        totals = self.leaf
        kept = self.samples[name] if samples else None

        if not leaf:

            @functools.wraps(func)
            def spanned(*args, **kwargs):
                with self.span(name):
                    return func(*args, **kwargs)

            return spanned

        @functools.wraps(func)
        def timed(*args, **kwargs):
            started = clock()
            try:
                return func(*args, **kwargs)
            finally:
                seconds = clock() - started
                parent = None if detached else current.get()
                key = (parent.id if parent is not None else None, name)
                entry = totals.get(key)
                if entry is None:
                    totals[key] = [seconds, 1]
                else:
                    entry[0] += seconds
                    entry[1] += 1
                if kept is not None:
                    kept.append(seconds)

        return timed

    def patch(
        self,
        stack: contextlib.ExitStack,
        owner: object,
        attr: str,
        name: str,
        **options,
    ) -> None:
        """Replace ``owner.attr`` by a wrapper until ``stack`` closes."""
        patch(stack, owner, attr,
              self.wrap(getattr(owner, attr), name, **options))

    # -- reading -------------------------------------------------------------
    def named(self, name: str, root: str | None = None) -> list[Span]:
        """Spans called ``name``, optionally only under roots ``root``."""
        roots = (
            {s.id for s in self.spans if s.name == root} if root else None
        )
        return [
            span for span in self.spans
            if span.name == name and (roots is None or span.root in roots)
        ]

    def leaf_total(self, name: str) -> tuple[float, int]:
        seconds = calls = 0
        for (_, leaf_name), (total, count) in self.leaf.items():
            if leaf_name == name:
                seconds += total
                calls += count
        return seconds, calls

    def self_times(self) -> tuple[dict[str, float], list[str]]:
        """Self seconds per span or leaf name, plus problems found.

        A span's self time is its duration minus the union of its child
        spans' intervals and the leaf time booked under it. A negative
        self time means a child outlived its parent or children
        overlapped; such spans are reported, not hidden.
        """
        children: dict[int, list[Span]] = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent].append(span)
        leaf_under: dict[int | None, float] = defaultdict(float)
        for (parent, _), (seconds, _) in self.leaf.items():
            leaf_under[parent] += seconds
        own: dict[str, float] = defaultdict(float)
        problems = []
        for span in self.spans:
            kids = children.get(span.id, ())
            spent = sum(kid.seconds for kid in kids)
            union = covered((kid.start, kid.end) for kid in kids)
            value = span.seconds - union - leaf_under.get(span.id, 0.0)
            if spent - union > RECONCILE_TOLERANCE * max(span.seconds, 1e-9):
                problems.append(f"{span.name}#{span.id}: children overlap")
            if value < -RECONCILE_TOLERANCE * max(span.seconds, 1e-9):
                problems.append(f"{span.name}#{span.id}: negative self time")
            own[span.name] += value
        for (_, name), (seconds, _) in self.leaf.items():
            own[name] += seconds
        return dict(own), problems

    def reconciliation(self) -> dict:
        """Per-layer self time plus idle against the roots' wall time.

        Wall time is the summed duration of the root spans (walks,
        chunks, rounds, set-ups). Idle is the part of a root no child
        covers: the root's own self time. Leaf totals booked outside
        every root (``detached``) are listed but not part of the sum.
        """
        own, problems = self.self_times()
        roots = [s for s in self.spans if s.parent is None]
        root_names = {s.name for s in roots}
        wall = sum(s.seconds for s in roots)
        idle = sum(own.get(name, 0.0) for name in root_names)
        detached = {
            name for (parent, name) in self.leaf if parent is None
        }
        layers: dict[str, float] = defaultdict(float)
        for name, seconds in own.items():
            if name in root_names or name in detached:
                continue
            layers[layer_of(name)] += seconds
        total, error = reconcile(wall, layers, idle)
        return {
            "wall_s": wall,
            "idle_s": idle,
            "layers_s": dict(sorted(layers.items())),
            "sum_s": total,
            "relative_error": error,
            "tolerance": RECONCILE_TOLERANCE,
            "problems": problems,
            "ok": error <= RECONCILE_TOLERANCE and not problems,
            "outside_roots_s": {
                name: self.leaf_total(name)[0] for name in sorted(detached)
            },
        }

    def write(self, path: Path, summary: dict) -> None:
        """Write every span and leaf total, then the summary, as JSONL."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps({
                    "span": span.id, "parent": span.parent,
                    "root": span.root, "name": span.name,
                    "start": span.start, "end": span.end,
                }) + "\n")
            for (parent, name), (seconds, calls) in sorted(
                self.leaf.items(), key=lambda kv: (kv[0][0] or 0, kv[0][1])
            ):
                out.write(json.dumps({
                    "leaf": name, "parent": parent,
                    "seconds": seconds, "calls": calls,
                }) + "\n")
            out.write(json.dumps({"summary": summary}) + "\n")
