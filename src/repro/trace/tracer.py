"""The cycle-timeline tracer: cheap span/instant/counter recording.

A :class:`Trace` is a passive subscriber of the probe bus
(:mod:`repro.probe`): it overrides the points it turns into spans and
instants, and :meth:`Trace.bind` -- called by :func:`repro.probe.attach`
-- creates one track per tile / cache bank / HBM pseudo-channel / PIM
engine / wormhole channel / NoC plane and registers the metrics
samplers (engine queue depth, MSHR occupancy, hit rates, per-link-class
NoC utilization, HBM bus cycles).  The tracer only *records* -- it
never schedules events or perturbs component state, so cycles are
bit-identical with tracing on or off (pinned by a test).  Track, span
and instant names all live here, not in the model.

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

from ..noc.barrier import HwBarrierGroup
from ..probe import Probe
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


def _link_class(link: Any) -> str:
    if link.ruche:
        return "ruche"
    return "mesh-h" if link.horizontal else "mesh-v"


class Trace(Probe):
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
        #: Component -> its track id (a strip: one per channel).
        self._tracks: Dict[Any, Any] = {}
        self._threshold = self.config.congestion_threshold

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

    # -- wiring (called by repro.probe.attach) -----------------------------

    def bind(self, machine: Any) -> None:
        """Create the tracks and metric samplers of ``machine``."""
        sim = machine.sim
        memsys = machine.memsys
        tracks = self._tracks
        register = self.metrics.register
        register("engine", "queue_depth", sim.queue_depth)
        register("engine", "events_executed",
                 lambda: float(sim.events_executed), mode="delta")

        # One track per tile, row-major so Perfetto lists them naturally.
        for node in sorted(machine.cores, key=lambda xy: (xy[1], xy[0])):
            tracks[machine.cores[node]] = self.track(
                "tiles", f"tile {node[0]},{node[1]}")

        # Cache banks: occupancy spans on the bank port + MSHR samplers.
        for (cell_xy, bank_idx), bank in sorted(memsys.banks.items()):
            tracks[bank] = self.track(
                "cache", f"bank {cell_xy[0]},{cell_xy[1]}:{bank_idx}")
            register("cache", f"{bank.name}.mshr",
                     lambda bank=bank: float(len(bank.mshr)))
        for cell_xy in sorted(memsys.hbm):
            register("cache", f"hit_rate{cell_xy}",
                     lambda cell_xy=cell_xy:
                         memsys.cache_hit_rate(cell_xy) or 0.0)

        # HBM pseudo-channels: one track each, plus bus-cycle samplers.
        for cell_xy, channel in sorted(memsys.hbm.items()):
            tracks[channel] = self.track(
                "hbm", f"channel {cell_xy[0]},{cell_xy[1]}")
            register("hbm", f"{channel.name}.read_cycles",
                     lambda ch=channel: ch.read_cycles, mode="delta")
            register("hbm", f"{channel.name}.write_cycles",
                     lambda ch=channel: ch.write_cycles, mode="delta")

        # PIM engines (present only when the config enables PIM): one
        # track per engine with a span per command execution.
        for cell_xy, engine in sorted(memsys.pim_engines.items()):
            tracks[engine] = self.track(
                "pim", f"channel {cell_xy[0]},{cell_xy[1]}")
            register("pim", f"{engine.name}.mac_bank_ops",
                     lambda eng=engine: eng.counters.get("mac_bank_ops"),
                     mode="delta")

        # Wormhole strips: one track per physical channel (they
        # serialize through per-channel reservation, so spans never
        # overlap).
        for (cell_xy, side), strip in sorted(memsys.strips.items()):
            tracks[strip] = tuple(
                self.track("wormhole",
                           f"{side} {cell_xy[0]},{cell_xy[1]} ch{idx}")
                for idx in range(strip.num_channels))

        # NoC planes: per-link-class utilization samplers + congestion
        # instants (per-packet spans on shared links would overlap,
        # which the Chrome-trace nesting model cannot represent).
        for net in (memsys.req_net, memsys.resp_net):
            tracks[net] = self.track("noc", f"{net.name}-congestion")
            classes: Dict[str, List[Any]] = {}
            for link in net.topology.links():
                classes.setdefault(_link_class(link), []).append(link)
            for cls, links in sorted(classes.items()):
                register("noc", f"{net.name}.{cls}.busy",
                         lambda links=links:
                             sum(link.busy_cycles for link in links),
                         mode="delta")
                register("noc", f"{net.name}.{cls}.stall",
                         lambda links=links:
                             sum(link.stall_cycles for link in links),
                         mode="delta")

        # Barriers are created at launch time (``barrier_group``); the
        # runtime/launches track exists up front.
        self.track("runtime", "launches")

    # -- probe points ---------------------------------------------------------

    def event(self, now: float) -> None:
        """Drives the windowed metrics sampler off the simulation clock
        without injecting sampler events into the queue (which would
        keep the queue from draining and could perturb event order).
        """
        metrics = self.metrics
        if now >= metrics.next_at:
            metrics.sample(now)

    def process_started(self, process: Any, now: float) -> None:
        self._count_processes(1, now)

    def process_finished(self, process: Any, now: float) -> None:
        self._count_processes(-1, now)

    def _count_processes(self, delta: int, now: float) -> None:
        self._live_processes += delta
        self.counter(self.track("engine", "processes"), "live_processes",
                     now, float(self._live_processes))

    def launch(self, handle: Any) -> None:
        """Record a kernel launch; its span is emitted by :meth:`finalize`."""
        self._launches.append(handle)
        self.instant(self.track("runtime", "launches"), f"launch {handle.name}",
                     handle.launch_time)

    def barrier_group(self, group: Any, label: str) -> None:
        self._tracks[group] = self.track("runtime", f"barrier {label}")

    def barrier_release(self, group: Any, time: float) -> None:
        self.instant(
            self._tracks[group],
            "hw-release" if isinstance(group, HwBarrierGroup)
            else "sw-release",
            time, {"size": len(group.members), "epoch": group.epochs})

    def stall(self, core: Any, category: str, start: float,
              cycles: float) -> None:
        self.complete(self._tracks[core], category, start, cycles)

    def kernel_end(self, core: Any, time: float) -> None:
        """Whole-launch span; the tile's stall spans nest inside it."""
        self.complete(self._tracks[core], "kernel", core.start_time,
                      time - core.start_time)

    def cache_access(self, bank: Any, set_idx: int, line: int, hit: bool,
                     time: float, start: float, port_cycles: float,
                     is_write: bool = False, is_amo: bool = False,
                     retry: bool = False) -> None:
        # The span covers the port occupancy (reservation window);
        # refill latency shows up on the wormhole and HBM tracks.
        if retry:
            return
        if hit:
            name = "amo-hit" if is_amo else \
                "store-hit" if is_write else "load-hit"
        else:
            name = "amo-miss" if is_amo else \
                "store-miss" if is_write else "load-miss"
        self.complete(self._tracks[bank], name, start, port_cycles)

    def mshr_retry(self, bank: Any, line: int, time: float,
                   retry_at: float) -> None:
        self.instant(self._tracks[bank], "mshr-full", time)

    def hbm_access(self, channel: Any, bank_idx: int, row: int, time: float,
                   start: float, row_state: str, burst_start: float,
                   burst_cycles: float, done: float, ready_before: float,
                   ready_after: float, is_write: bool = False) -> None:
        # Bus bursts serialize through the Interval, so the spans on the
        # channel track never overlap.
        self.complete(self._tracks[channel], "write" if is_write else "read",
                      burst_start, burst_cycles,
                      {"bank": bank_idx, "row_state": row_state})

    def pim_command(self, engine: Any, cmd: Any, start: float,
                    done: float) -> None:
        self.complete(self._tracks[engine], cmd.name, start,
                      max(done - start, 1), {"cmd": cmd.name})

    def strip_transfer(self, strip: Any, channel_idx: int, time: float,
                       start: float, burst: float, done: float, bank_x: int,
                       nbytes: int = 0) -> None:
        self.complete(self._tracks[strip][channel_idx], "burst", start,
                      burst, {"bank": bank_x, "bytes": nbytes})

    def noc_send(self, net: Any, src: Any, dst: Any, flits: int, time: float,
                 report: Any) -> None:
        """Flag deliveries that stalled past the congestion threshold."""
        if report.stall_cycles >= self._threshold:
            self.instant(self._tracks[net], "congested", time,
                         {"src": tuple(src), "dst": tuple(dst),
                          "stall": report.stall_cycles,
                          "hops": report.hops})

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
