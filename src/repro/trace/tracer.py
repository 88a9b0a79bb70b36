"""The cycle-timeline tracer: cheap span/instant/counter recording.

A :class:`Trace` is a passive observer.  Components that support tracing
carry a ``_trace`` attribute that is ``None`` by default; the hot paths
guard every emission behind an ``is not None`` check, so a tracing-off
run executes exactly the seed's instruction stream (the golden-cycle
tests pin this).  When tracing is on, the tracer only *records* -- it
never schedules events or perturbs component state, so cycles are
bit-identical with tracing on or off (also pinned by a test).

The model: a flat table of **tracks** (one per tile, cache bank, HBM
channel, wormhole channel, ...), grouped into **process groups** (tiles /
cache / hbm / noc / runtime / metrics) for the Perfetto UI, plus a flat
list of event tuples:

* ``("X", track, name, ts, dur, args)`` -- a complete span;
* ``("i", track, name, ts, None, args)`` -- an instant;
* ``("C", track, name, ts, value, None)`` -- a counter sample.

Timestamps are simulation cycles; the Chrome export maps 1 cycle to 1 us
so Perfetto's time ruler reads directly in cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from .metrics import MetricsRegistry
from .perfetto import to_chrome, write_chrome
from .report import format_report, trace_report


@dataclass(frozen=True)
class TraceConfig:
    """Knobs for one tracing run.

    ``window`` is the metrics sampling period in cycles.  ``max_events``
    caps the in-memory timeline (counter samples are exempt); once hit,
    further spans are dropped and counted in ``Trace.dropped_events``.
    ``congestion_threshold`` is the per-packet NoC stall (cycles) above
    which a ``congested`` instant is recorded.
    """

    window: float = 100.0
    timeline: bool = True
    metrics: bool = True
    max_events: int = 2_000_000
    congestion_threshold: float = 16.0


class Trace:
    """One run's recorded timeline + metrics."""

    def __init__(self, config: Optional[TraceConfig] = None) -> None:
        self.config = config or TraceConfig()
        #: (group, name) per track; the index is the track id (= Chrome tid).
        self.tracks: List[Tuple[str, str]] = []
        self._track_ids: Dict[Tuple[str, str], int] = {}
        #: Flat event tuples -- see module docstring for the shapes.
        self.events: List[Tuple[Any, ...]] = []
        self.dropped_events = 0
        self.metrics = MetricsRegistry(self, window=self.config.window,
                                       enabled=self.config.metrics)
        self._timeline = self.config.timeline
        self._max_events = self.config.max_events
        # Runtime bookkeeping (launch spans, live-process counter).
        self._launches: List[Any] = []
        self._flushed_launches = 0
        self._live_processes = 0
        self.final_time: float = 0.0

    # -- track management ---------------------------------------------------

    def track(self, group: str, name: str) -> int:
        """Id of the ``(group, name)`` track, creating it on first use."""
        key = (group, name)
        tid = self._track_ids.get(key)
        if tid is None:
            tid = len(self.tracks)
            self._track_ids[key] = tid
            self.tracks.append(key)
        return tid

    # -- emission -----------------------------------------------------------

    def complete(self, track: int, name: str, ts: float, dur: float,
                 args: Any = None) -> None:
        """Record a complete span ``[ts, ts + dur)`` on ``track``."""
        if not self._timeline or len(self.events) >= self._max_events:
            self.dropped_events += 1
            return
        self.events.append(("X", track, name, ts, dur, args))

    def instant(self, track: int, name: str, ts: float,
                args: Any = None) -> None:
        """Record a point event on ``track``."""
        if not self._timeline or len(self.events) >= self._max_events:
            self.dropped_events += 1
            return
        self.events.append(("i", track, name, ts, None, args))

    def counter(self, track: int, name: str, ts: float, value: float) -> None:
        """Record a counter sample (exempt from the span cap)."""
        self.events.append(("C", track, name, ts, value, None))

    # -- engine hooks -------------------------------------------------------

    def engine_tick(self, now: float) -> None:
        """Called by the simulator once per dispatched event while tracing.

        Drives the windowed metrics sampler off the simulation clock
        without injecting sampler events into the queue (which would
        keep the queue from draining and could perturb event order).
        """
        metrics = self.metrics
        if now >= metrics.next_at:
            metrics.sample(now)

    def process_started(self, process: Any, now: float) -> None:
        self._live_processes += 1
        self.counter(self.track("engine", "processes"), "live_processes",
                     now, float(self._live_processes))

    def process_finished(self, process: Any, now: float) -> None:
        self._live_processes -= 1
        self.counter(self.track("engine", "processes"), "live_processes",
                     now, float(self._live_processes))

    def launch_started(self, handle: Any) -> None:
        """Record a kernel launch; its span is emitted by :meth:`finalize`."""
        self._launches.append(handle)
        self.instant(self.track("runtime", "launches"), f"launch {handle.name}",
                     handle.launch_time)

    # -- finalization -------------------------------------------------------

    def finalize(self, now: float) -> None:
        """Take a final metrics sample and flush finished-launch spans.

        Safe to call after every ``Session.run`` batch: already-flushed
        launches are not re-emitted.
        """
        self.final_time = max(self.final_time, now)
        self.metrics.sample(now)
        track = self.track("runtime", "launches")
        for handle in self._launches[self._flushed_launches:]:
            if handle.finished:
                self.complete(track, handle.name, handle.launch_time,
                              handle.cycles(),
                              {"tiles": len(handle.cores)})
        self._flushed_launches = len(self._launches)

    def _reader_state(self) -> Dict[str, Any]:
        """What :func:`repro.runtime.result.detached` keeps: the recorded
        timeline and samples, not the launch handles or the samplers."""
        return {"tracks": list(self.tracks),
                "_track_ids": dict(self._track_ids),
                "events": list(self.events),
                "dropped_events": self.dropped_events,
                "final_time": self.final_time,
                "metrics": self.metrics.frozen()}

    # -- export -------------------------------------------------------------

    def to_chrome(self) -> Dict[str, Any]:
        """The trace as a Chrome-trace (Perfetto-loadable) JSON object."""
        return to_chrome(self)

    def write_chrome(self, path: str) -> None:
        """Write the Chrome-trace JSON to ``path``."""
        write_chrome(self, path)

    def report(self) -> Dict[str, Any]:
        """Structured summary (see :mod:`repro.trace.report`)."""
        return trace_report(self)

    def summary(self) -> str:
        """Human-readable summary of the recorded timeline and metrics."""
        return format_report(trace_report(self))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Trace({len(self.tracks)} tracks, {len(self.events)} events, "
                f"{len(self.metrics.series)} metric series)")
