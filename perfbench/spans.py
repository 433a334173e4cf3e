"""In-memory spans and self-time accounting for traced benchmark runs.

A span records a name, start, end, parent span, thread and run id. Spans
stay in memory and are written out once, when the run ends. A span's self
time is its duration minus the part of its interval covered by its direct
children; children on worker threads may overlap each other, so the covered
part is the length of the union of their intervals, not the sum.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    run_id: int
    attrs: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans. The thread that creates the tracer is the client
    thread; a span opened on any other thread (an executor worker) with no
    open span of its own is parented to the client's innermost open span."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run_id = 0
        self._client = threading.get_ident()
        self._client_stack: list[int] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._client:
            return self._client_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._client_stack[-1] if self._client_stack else None
        span = Span(name, time.perf_counter(), 0.0, parent, threading.get_ident(), self.run_id)
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def close(self, index: int) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter()
        stack = self._stack()
        if not stack or stack[-1] != index:
            raise RuntimeError(f"span {span.name} closed out of order")
        stack.pop()
        return span

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield self.spans[index]
        finally:
            self.close(index)

    def wrap(self, fn, name: str, observe=None):
        """fn wrapped in a span; observe(span, args, kwargs, result) may add
        attributes after the call returns."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                span = self.close(index)
            if observe is not None:
                observe(span, args, kwargs, result)
            return result

        return wrapper

    def write(self, path: Path) -> None:
        """One tab-separated line per span: id, name, start, end, parent,
        thread, run id, and its attributes as JSON (empty when none)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart\tend\tparent\tthread\trun_id\tattrs\n")
            for i, s in enumerate(self.spans):
                attrs = json.dumps(s.attrs) if s.attrs else ""
                parent = "" if s.parent is None else s.parent
                fh.write(f"{i}\t{s.name}\t{s.start:.9f}\t{s.end:.9f}\t{parent}\t{s.thread}\t{s.run_id}\t{attrs}\n")


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of [start, end) intervals clipped to [lo, hi)."""
    clipped = sorted((max(s, lo), min(e, hi)) for s, e in intervals if min(e, hi) > max(s, lo))
    total = 0.0
    cur_s = cur_e = None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Self time of every span, indexed like `spans`."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return [
        span.duration - union_length(children.get(i, ()), span.start, span.end)
        for i, span in enumerate(spans)
    ]


class Patcher:
    """Replaces attributes on modules or classes and puts them back."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, make):
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(getattr(owner, attr)))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
