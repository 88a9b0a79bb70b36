"""One PDES shard: a single Cell's machine plus its window stepper.

A :class:`CellShard` wraps a sharded :class:`~repro.runtime.machine.Machine`
(``owned_cells={cell}``) built from a picklable :class:`ShardSpec`, so
the identical object runs in the coordinator's own process (worker 0)
or inside a forked worker.  Host-side setup is declarative -- kernels are
named by import path, pokes are ``(offset, value)`` pairs -- because a
shard may be constructed in a different process from the caller.

The stepper contract (:meth:`CellShard.advance`) is the whole sync
protocol from the shard's point of view: ingest this window's inbound
messages, run the local event engine up to the barrier, hand back the
outbound messages and the next local event time.
(:meth:`CellShard.advance_alone` is the same contract for a run of
windows the shard has to itself.)
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..arch import serialize
from ..arch.geometry import Coord
from ..audit import Auditor
from ..audit import attach as audit_attach
from ..isa.program import Kernel
from ..pgas import spaces
from ..runtime.machine import Machine
from ..runtime.result import collect
from ..sanitize import Sanitizer
from ..sanitize import attach as san_attach
from .channel import PdesError, ShardChannel


def resolve_kernel(ref: str) -> Kernel:
    """Import the :class:`Kernel` named by a ``module:attribute`` path."""
    module_name, _, attr = ref.partition(":")
    if not attr:
        from ..kernels.registry import SUITE

        if module_name in SUITE:
            return SUITE[module_name].kernel
        raise ValueError(
            f"kernel ref {ref!r} is neither a suite name "
            f"({sorted(SUITE)}) nor a 'module:attribute' path")
    obj = getattr(importlib.import_module(module_name), attr)
    if not isinstance(obj, Kernel):
        raise TypeError(f"{ref} is {type(obj).__name__}, not a Kernel")
    return obj


def kernel_ref(kern: Kernel) -> str:
    """The ``module:attribute`` path of a module-level :class:`Kernel`
    (the inverse of :func:`resolve_kernel`, for Session's front end)."""
    module_name = kern.factory.__module__
    module = importlib.import_module(module_name)
    for name, val in vars(module).items():
        if val is kern:
            return f"{module_name}:{name}"
    raise PdesError(
        f"kernel {kern.name!r} is not a module-level object in "
        f"{module_name}; PDES launches travel to workers by import path")


class PlanCell:
    """Host-side stand-in for a Cell before the shards exist.

    ``Session(cells=...)`` hands these out: ``malloc``/``local_dram``/
    ``group_dram`` are the same pure address arithmetic as the real
    :class:`~repro.runtime.cell.Cell`, and ``poke`` records a host write
    for the owning shard to apply at build time.  There is no ``peek``
    -- the memory doesn't exist until the run, and afterwards lives in
    the shard's collected payload.
    """

    HEAP_BASE = 4096  # matches Cell.HEAP_BASE

    def __init__(self, cell_xy: Coord,
                 record_poke: Any) -> None:
        self.cell_xy = cell_xy
        self._brk = self.HEAP_BASE
        self._record_poke = record_poke

    def malloc(self, nbytes: int, align: int = 64) -> int:
        if nbytes <= 0:
            raise ValueError("malloc needs a positive size")
        if align & (align - 1):
            raise ValueError("alignment must be a power of two")
        self._brk = (self._brk + align - 1) & ~(align - 1)
        offset = self._brk
        self._brk += nbytes
        return offset

    def local_dram(self, offset: int) -> int:
        return spaces.local_dram(offset)

    def group_dram(self, offset: int) -> int:
        return spaces.group_dram(self.cell_xy[0], self.cell_xy[1], offset)

    def poke(self, offset: int, value: int) -> None:
        self._record_poke(self.cell_xy, offset, value)

    def peek(self, offset: int) -> int:
        raise PdesError(
            "peek is not available on a PlanCell: shard memory exists "
            "only during the run; read it from the collected payload "
            "(CellsResult.shards[...]['atomic_mem'])")


@dataclass(frozen=True)
class LaunchSpec:
    """A declarative kernel launch on one Cell.

    ``kernel`` is a bare suite name (``"AES"``) or a ``module:attribute``
    import path to a module-level :class:`Kernel` (kernel objects close
    over generator functions, so they travel by reference, like orch job
    ``fn`` paths).  ``args`` must be picklable and is deep-owned by the
    shard (kernels mutate their args dicts).

    ``remote`` declares whether the kernel may touch foreign-Cell
    addresses.  ``remote=False`` is a *promise* of Cell-locality --
    enforced at runtime (the shard's channel raises :class:`PdesError`
    on any cross-Cell access) -- and when every launch on the chip makes
    it, the coordinator drops the window barriers entirely and free-runs
    each shard to completion: no message can ever exist, so there is
    nothing to synchronize.  The default ``True`` assumes nothing and
    always windows.
    """

    cell: Coord
    kernel: str
    args: Optional[Dict[str, Any]] = None
    group_shape: Optional[Tuple[int, int]] = None
    remote: bool = True


@dataclass(frozen=True)
class ShardSpec:
    """Everything needed to (re)build one shard in any process."""

    config: Dict[str, Any]  # arch.serialize.to_dict output
    cell: Coord
    launches: Tuple[LaunchSpec, ...] = ()
    pokes: Tuple[Tuple[int, int], ...] = ()  # (offset, value) on this Cell
    audit: bool = False
    sanitize: bool = False
    #: Price the intra-Cell legs of cross-Cell paths on this shard's own
    #: network planes (see ``ShardChannel.contention``).
    contention: bool = True


class StepReport:
    """What a shard tells the coordinator at each barrier."""

    __slots__ = ("cell", "now", "next_time", "outbox", "done")

    def __init__(self, cell: Coord, now: float, next_time: Optional[float],
                 outbox: List[Any], done: bool) -> None:
        self.cell = cell
        self.now = now
        self.next_time = next_time
        self.outbox = outbox
        self.done = done

    def __reduce__(self):
        return (StepReport, (self.cell, self.now, self.next_time,
                             self.outbox, self.done))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"StepReport(cell={self.cell}, now={self.now}, "
                f"next={self.next_time}, out={len(self.outbox)}, "
                f"done={self.done})")


class CellShard:
    """One Cell's event engine, steppable in conservative windows."""

    def __init__(self, spec: ShardSpec) -> None:
        self.spec = spec
        self.cell_xy = tuple(spec.cell)
        config = serialize.from_dict(spec.config)
        self.machine = Machine(config, owned_cells=[self.cell_xy])
        self.channel = ShardChannel(self.machine, self.cell_xy)
        self.channel.contention = spec.contention
        # remote=False on *every* launch turns the promise into a trap:
        # initiating any cross-Cell request from this shard raises.
        # (Replies to inbound requests are still allowed -- they are the
        # other side's traffic, not ours.)
        self.channel.local_only = all(
            not launch.remote for launch in spec.launches)
        self.auditor: Optional[Any] = None
        if spec.audit:
            self.auditor = audit_attach(self.machine, Auditor())
        self.sanitizer: Optional[Any] = None
        if spec.sanitize:
            self.sanitizer = san_attach(self.machine, Sanitizer())
            # Record what the offline cross-shard stitching pass needs:
            # per-access clocks on Cell-DRAM words and the AMO sync log.
            self.sanitizer.enable_xshard(self.cell_xy)
        cell = self.machine.cells[self.cell_xy]
        for offset, value in spec.pokes:
            cell.poke(offset, value)
        self.handles: List[Tuple[Any, str]] = []
        for launch in spec.launches:
            if tuple(launch.cell) != self.cell_xy:
                raise PdesError(
                    f"launch for cell {launch.cell} given to shard "
                    f"{self.cell_xy}")
            kern = resolve_kernel(launch.kernel)
            cell.load_kernel(kern)
            handle = cell.launch(launch.args,
                                 group_shape=launch.group_shape)
            self.handles.append((handle, kern.name))

    # -- window stepping -----------------------------------------------------

    def next_time(self) -> Optional[float]:
        return self.machine.sim.peek()

    def report(self) -> StepReport:
        """Snapshot without advancing (the pre-loop INIT report)."""
        return StepReport(self.cell_xy, self.machine.sim.now,
                          self.next_time(), self.channel.drain(),
                          self._done())

    def advance(self, t_end: Optional[float],
                messages: List[Any]) -> StepReport:
        """One conservative window: deliver, run to the barrier, drain.

        ``messages`` must be pre-sorted in the global deterministic
        order; every arrival must be ``>= now`` (the window invariant --
        violating it means the coordinator's lookahead was wrong, and
        the engine will raise on the past-time schedule).  ``t_end=None``
        is the free-run stride: run to queue exhaustion, which the
        coordinator only asks for when no message can ever arrive (every
        live shard declared ``remote=False``).
        """
        if messages:
            self.channel.ingest(messages)
        sim = self.machine.sim
        sim.run(until=t_end)
        return StepReport(self.cell_xy, sim.now, self.next_time(),
                          self.channel.drain(), self._done())

    def advance_alone(self, window: float) -> Tuple[int, StepReport]:
        """The windows the coordinator would run with this shard alone.

        Valid when nothing is in flight anywhere and no other shard has
        local events: each window's base is this shard's next event and
        its barrier ``base + window``, exactly as the coordinator would
        compute them.  Stops after the first window that emits a message
        (the coordinator must route it) or once the queue drains, and
        returns ``(windows run, report)``.
        """
        sim = self.machine.sim
        windows = 0
        base = sim.peek()
        while base is not None:
            sim.run(until=base + window)
            windows += 1
            if self.channel.outbox:
                break
            base = sim.peek()
        return windows, StepReport(self.cell_xy, sim.now, self.next_time(),
                                   self.channel.drain(), self._done())

    def _done(self) -> bool:
        return (not self.channel.pending
                and self.machine.sim.peek() is None
                and all(h.finished for h, _ in self.handles))

    # -- results -------------------------------------------------------------

    def collect(self) -> Dict[str, Any]:
        """The shard's JSON-able result payload (after the loop ends)."""
        sim = self.machine.sim
        if self.sanitizer is not None:
            self.sanitizer.finalize(sim.now)
        if self.auditor is not None:
            self.auditor.finalize(sim.now)
        results = []
        for handle, name in self.handles:
            result = collect(self.machine, handle, handle.cycles(), name)
            if self.auditor is not None:
                self.auditor.check_result(result)
            results.append(result.to_dict())
        counters: Dict[str, float] = {}
        for core in self.machine.cores.values():
            for cat, val in core.counters.as_dict().items():
                counters[cat] = counters.get(cat, 0.0) + val
        # last_event_time, not now: run(until=barrier) parks the clock at
        # the barrier even when the queue drained earlier, and barrier
        # placement varies with the window size.  The last *event* clock
        # is a pure function of the workload, so the payload (and hence
        # CellsResult.fingerprint) is identical across window sizes and
        # the free-run shortcut.
        payload: Dict[str, Any] = {
            "cell": list(self.cell_xy),
            "now": sim.last_event_time,
            "events": sim.events_executed,
            "results": results,
            "cycles": [r["cycles"] for r in results],
            "counters": counters,
            "atomic_mem": {repr(k): v for k, v in
                           sorted(self.machine.memsys.atomic_mem.items())},
            "sent": self.channel.sent,
            "received": self.channel.received,
        }
        if self.auditor is not None:
            payload["audit_clean"] = self.auditor.clean
            payload["audit"] = self.auditor.summary()
        if self.sanitizer is not None:
            payload["sanitize_clean"] = self.sanitizer.clean
            payload["sanitize"] = self.sanitizer.summary()
            payload["xshard"] = self.sanitizer.export_xshard(
                self.channel.inbound_words, self.channel.served_amos)
        return payload
