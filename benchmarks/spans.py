"""Outside-in span recorder for the traced benchmark run.

Each layer is traced by replacing a public function with a wrapper at the
place where its consumer module looks it up (``zenodrive.protocol.eigh_many``,
``zenodrive.geometry.eigh_many``, ``LipkinModel.hamiltonian_many`` ...), so
the program itself is not edited.  A wrapper records one span (name, start,
end, parent, thread, run id) and adds to the counters of its layer.  Spans are
kept in memory and written out once, after the run.

Self time is reported in two forms:

- ``busy``: a span's duration minus the time its child spans cover, in its
  own thread.  Per-unit costs (microseconds per matrix or per point) use it.
- ``share``: the wall-clock share.  Each instant of the traced run is split
  equally among the innermost spans running at that instant, one per thread;
  an instant with no layer span running belongs to the root span.  These
  shares sum to the traced wall time exactly, also when ``--jobs`` runs rows
  on two threads at once.
"""
from __future__ import annotations

import functools
import json
import threading
import time
from dataclasses import dataclass

ROOT = "root"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    thread: int


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self.integrator_calls: list[dict] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._root: int | None = None
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def inside(self, name: str) -> int | None:
        """Index of the innermost open span called ``name`` in this thread."""
        for index in reversed(self._stack()):
            if self.spans[index].name == name:
                return index
        return None

    def add(self, key: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[key] = self.counters.get(key, 0) + amount

    def open(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else self._root
        span = Span(name, time.perf_counter(), 0.0, parent, threading.get_ident())
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack().pop()

    def run_root(self, fn):
        """Call ``fn()`` inside the root span; returns its result."""
        self._root = self.open(ROOT)
        try:
            return fn()
        finally:
            self.close(self._root)

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Replace ``owner.attr`` by a traced wrapper.

        ``count(args, kwargs, result)`` runs after the call, still inside the
        span, and adds to the counters.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = tracer.open(name)
            try:
                result = original(*args, **kwargs)
                tracer.add(f"{name}.calls")
                if count is not None:
                    count(args, kwargs, result)
                return result
            finally:
                tracer.close(index)

        self._patched.append((owner, attr, original))
        setattr(owner, attr, traced)

    def unwrap_all(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- analysis ------------------------------------------------------------

    def _self_segments(self):
        """Per thread, the intervals in which each span is the innermost one."""
        children: dict[int, list[int]] = {}
        for index, span in enumerate(self.spans):
            parent = span.parent
            if parent is not None and self.spans[parent].thread == span.thread:
                children.setdefault(parent, []).append(index)
        segments: dict[int, list[tuple[float, float, int]]] = {}
        for index, span in enumerate(self.spans):
            cursor = span.start
            out = segments.setdefault(span.thread, [])
            for child in children.get(index, ()):
                if self.spans[child].start > cursor:
                    out.append((cursor, self.spans[child].start, index))
                cursor = max(cursor, self.spans[child].end)
            if span.end > cursor:
                out.append((cursor, span.end, index))
        for out in segments.values():
            out.sort()
        return segments

    def self_times(self) -> tuple[dict[str, float], dict[str, float]]:
        """Return ``(share, busy)`` self time in seconds per span name."""
        segments = self._self_segments()
        busy: dict[str, float] = {}
        for out in segments.values():
            for start, end, index in out:
                name = self.spans[index].name
                busy[name] = busy.get(name, 0.0) + (end - start)

        root = self.spans[self._root]
        bounds = sorted({t for out in segments.values() for seg in out for t in seg[:2]})
        cursors = {thread: 0 for thread in segments}
        share: dict[str, float] = {}
        for lo, hi in zip(bounds, bounds[1:]):
            if hi <= root.start or lo >= root.end:
                continue
            active = []
            for thread, out in segments.items():
                k = cursors[thread]
                while k < len(out) and out[k][1] <= lo:
                    k += 1
                cursors[thread] = k
                if k < len(out) and out[k][0] <= lo and self.spans[out[k][2]].name != ROOT:
                    active.append(self.spans[out[k][2]].name)
            if not active:
                active = [ROOT]
            piece = (hi - lo) / len(active)
            for name in active:
                share[name] = share.get(name, 0.0) + piece
        return share, busy

    def dump(self, path) -> None:
        rows = [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "thread": s.thread,
                "run": self.run_id,
            }
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"run": self.run_id, "spans": rows, "counters": self.counters}, handle)
