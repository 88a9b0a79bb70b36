"""The traced run's span recorder and the cProfile-by-package split.

Spans are recorded from the benchmark's own files, around each call
into a layer (spans inside ``src/`` are a later change): name, start,
end, the span that caused it, and a run id shared by the spans of one
operation.  They stay in memory and are written once, at exit, as
Chrome-trace JSON (open in ui.perfetto.dev or chrome://tracing).

An untraced run uses :data:`OFF`, whose ``span`` is a no-op context,
so the measuring code reads the same either way.
"""

from __future__ import annotations

import cProfile
import contextlib
import itertools
import json
import os
import pstats
import time
from typing import Any, Dict, Iterator, List, Optional

#: ``src/repro/<package>`` names that get their own ``*.self_share``;
#: everything else (other repro packages, numpy, the stdlib, the
#: interpreter's own frames) is ``other``.
SHARE_LAYERS = ("engine", "core", "isa", "noc", "mem", "pim", "pgas",
                "runtime", "kernels")


class Span:
    __slots__ = ("sid", "name", "parent", "run", "tid", "start", "end")

    def __init__(self, sid: int, name: str, parent: Optional[int],
                 run: str, tid: int, start: float) -> None:
        self.sid = sid
        self.name = name
        self.parent = parent
        self.run = run
        self.tid = tid
        self.start = start
        self.end = start


class Recorder:
    """In-memory spans with parent links; one instance per traced run."""

    enabled = True

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count()
        self._stack: List[Span] = []
        self._t0 = time.perf_counter()
        self.profile = cProfile.Profile()

    @contextlib.contextmanager
    def span(self, name: str, run: str = "") -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        sp = Span(next(self._ids), name,
                  parent.sid if parent else None,
                  run or (parent.run if parent else ""), 1,
                  time.perf_counter())
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, start: float, end: float,
            parent: Optional[Span] = None, run: str = "", lane: int = 1) -> None:
        """Record a finished span directly.  For code whose operations
        interleave on one thread (the serve clients' coroutines), where
        a stack cannot tell which span caused which; ``lane`` becomes
        the trace's thread id so the interleaved spans do not overlap."""
        sp = Span(next(self._ids), name, parent.sid if parent else None,
                  run, lane, start)
        sp.end = end
        self.spans.append(sp)

    @contextlib.contextmanager
    def profiled(self) -> Iterator[None]:
        """Accumulate a cProfile over every block run under it."""
        self.profile.enable()
        try:
            yield
        finally:
            self.profile.disable()

    # -- reading back -------------------------------------------------------

    def total(self, name: str) -> float:
        """Summed duration in seconds of every span called ``name``."""
        return sum(s.end - s.start for s in self.spans if s.name == name)

    def self_times(self) -> Dict[int, float]:
        """Per span id: its duration minus what its direct children cover."""
        own = {s.sid: s.end - s.start for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def self_shares(self) -> Dict[str, float]:
        """Profiled self-time by ``repro.<package>``; the values sum to 1."""
        buckets = {name: 0.0 for name in SHARE_LAYERS}
        buckets["other"] = 0.0
        marker = os.sep + os.path.join("src", "repro") + os.sep
        stats = pstats.Stats(self.profile)
        for (filename, _line, _fn), row in stats.stats.items():
            tottime = row[2]
            layer = "other"
            at = filename.find(marker)
            if at >= 0:
                package = filename[at + len(marker):].split(os.sep)[0]
                if package in buckets:
                    layer = package
            buckets[layer] += tottime
        whole = sum(buckets.values())
        return {k: (v / whole if whole else 0.0) for k, v in buckets.items()}

    # -- export -------------------------------------------------------------

    def chrome_trace(self) -> Dict[str, Any]:
        events: List[Dict[str, Any]] = [{
            "name": "process_name", "ph": "M", "pid": 1, "tid": 1,
            "args": {"name": "benchmarks/spine"}}]
        own = self.self_times()
        for s in self.spans:
            events.append({
                "name": s.name, "cat": s.name.split(".")[0], "ph": "X",
                "pid": 1, "tid": s.tid,
                "ts": round((s.start - self._t0) * 1e6, 3),
                "dur": round((s.end - s.start) * 1e6, 3),
                "args": {"id": s.sid, "parent": s.parent, "run": s.run,
                         "self_us": round(own[s.sid] * 1e6, 3)},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump(self.chrome_trace(), fh)


class _Off:
    """The untraced stand-in: same surface, records nothing."""

    enabled = False

    @contextlib.contextmanager
    def span(self, name: str, run: str = "") -> Iterator[None]:
        yield None

    def add(self, *_args: Any, **_kwargs: Any) -> None:
        pass

    @contextlib.contextmanager
    def profiled(self) -> Iterator[None]:
        yield


OFF = _Off()


def validate_chrome(doc: Any) -> List[str]:
    """Problems with a Chrome-trace document (empty list = valid)."""
    problems = []
    events = doc.get("traceEvents") if isinstance(doc, dict) else None
    if not isinstance(events, list) or not events:
        return ["no traceEvents list"]
    ids = {e["args"]["id"] for e in events if e.get("ph") == "X"}
    for e in events:
        if e.get("ph") == "M":
            continue
        if e.get("ph") != "X":
            problems.append(f"unexpected phase {e.get('ph')!r}")
            continue
        for key in ("name", "ts", "dur", "pid", "tid"):
            if key not in e:
                problems.append(f"event without {key}: {e}")
        if e.get("dur", 0) < 0:
            problems.append(f"negative duration: {e['name']}")
        parent = e["args"].get("parent")
        if parent is not None and parent not in ids:
            problems.append(f"dangling parent {parent} on {e['name']}")
    return problems
