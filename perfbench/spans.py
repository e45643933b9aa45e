"""In-memory span tracing around the program's public entry points.

A :class:`Tracer` records one :class:`Span` per call of each wrapped
entry point: name, layer, start, end, parent span and run id, plus an
item count taken from the call's arguments. Spans stay in memory and
are written out once, at the end of the benchmark.

Wrappers are installed by replacing the attribute the program looks up
at call time (a class method, or a module-level function under every
``repro`` module that imported it by name), so the spans follow
whatever the program actually calls. They record only in the process
and thread that installed them: a forked worker or a helper thread
calls straight through.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Iterable

#: Layer name of the benchmark's own phase spans.
PHASE = "phase"


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    run_id: str
    count: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Target:
    """One entry point to wrap.

    ``owner`` is a class (wrap its attribute ``attr``) or a module path
    (wrap the function ``attr`` there and in every ``repro`` module that
    holds the same object). ``count`` maps the call's positional
    arguments (after ``self``) to the span's item count.
    """

    owner: object
    attr: str
    name: str
    layer: str
    count: Callable[[tuple], int] | None = None


def first_len(args: tuple) -> int:
    return len(args[0]) if args else 0


class Tracer:
    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._pid = os.getpid()
        self._thread = threading.get_ident()
        self._patches: list[tuple[object, str, object]] = []

    def _recording(self) -> bool:
        return os.getpid() == self._pid and threading.get_ident() == self._thread

    def open(self, name: str, layer: str, count: int = 0) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(
            Span(name, layer, time.perf_counter(), 0.0, parent, self.run_id, count)
        )
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed out of order (top {popped})")

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, fn: Callable, target: Target, is_method: bool) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer._recording():
                return fn(*args, **kwargs)
            rest = args[1:] if is_method else args
            count = target.count(rest) if target.count is not None else 0
            index = tracer.open(target.name, target.layer, count)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(index)

        return traced

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, targets: Iterable[Target]) -> None:
        for target in targets:
            if isinstance(target.owner, type):
                raw = target.owner.__dict__[target.attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(raw.__func__, target, True))
                elif isinstance(raw, staticmethod):
                    wrapped = staticmethod(self._wrap(raw.__func__, target, False))
                else:
                    wrapped = self._wrap(raw, target, True)
                self._patch(target.owner, target.attr, wrapped)
                continue
            home = sys.modules[str(target.owner)]
            original = getattr(home, target.attr)
            wrapped = self._wrap(original, target, False)
            for name, module in list(sys.modules.items()):
                if (name == "repro" or name.startswith("repro.")) and (
                    module.__dict__.get(target.attr) is original
                ):
                    self._patch(module, target.attr, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ---------------------------------------------------------------

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


# -- arithmetic over recorded spans --------------------------------------------


def covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def children_of(spans: list[Span]) -> list[list[int]]:
    kids: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span.parent >= 0:
            kids[span.parent].append(i)
    return kids


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    kids = children_of(spans)
    return [
        span.duration
        - covered(((spans[c].start, spans[c].end) for c in kids[i]), span.start, span.end)
        for i, span in enumerate(spans)
    ]


def uncovered_share(spans: list[Span], index: int) -> float:
    """Share of span ``index`` that none of its child spans covers."""
    span = spans[index]
    if span.duration <= 0:
        return 0.0
    kids = children_of(spans)[index]
    inside = covered(((spans[c].start, spans[c].end) for c in kids), span.start, span.end)
    return 1.0 - inside / span.duration
