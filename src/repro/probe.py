"""The probe bus: one observation hook per model component.

Every instrumented component -- the simulator run loop, processes, tile
cores, Cells (and the barrier groups their launches partition), the
memory system, cache banks, HBM pseudo-channels, PIM engines, wormhole
strips and NoC planes -- carries one ``_probe`` attribute that is
``None`` by default.  Its hot paths guard every emission behind that one
``is not None`` check and then call one typed *point* per model event:
``probe.cache_access(...)``, ``probe.noc_send(...)``, ``probe.load(...)``.
An unprobed run executes the seed's instruction stream and cycle counts.

:class:`Probe` declares the vocabulary once, as no-op methods.  A
checker -- the tracer, the sanitizer, the auditor, Fig 3's link-series
recorder -- subclasses it and overrides the points it observes;
:func:`attach` wires any number of them into a machine.  A lone
subscriber is installed as the probe itself; several are joined by a
fan-out whose every point is the one overriding subscriber's bound
method, or a small closure over the ones that override it.
Subscribers only ever *observe*: they never schedule events or touch
component state, so probed runs are cycle-identical to unprobed ones.

Points are always called positionally (the fan-out closures forward
``*args`` only); ``tests/test_probe.py`` guards the vocabulary.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence


class Probe:
    """The probe points, grouped by emitting component; all no-ops."""

    def bind(self, machine: Any) -> None:
        """Called by :func:`attach` before any point fires: build what
        the subscriber needs from ``machine`` (tracks, shadows, ...)."""

    # -- simulator run loop and processes ----------------------------------

    def event(self, now: float) -> None:
        """One event was dispatched at ``now`` (slow run loop only)."""

    def process_started(self, process: Any, now: float) -> None:
        pass

    def process_finished(self, process: Any, now: float) -> None:
        pass

    # -- Cell launch and barrier groups ---------------------------------------

    def launch(self, handle: Any) -> None:
        """A kernel launch started (the host -> tiles edge)."""

    def barrier_group(self, group: Any, label: str) -> None:
        """A launch partitioned a barrier group named ``label``."""

    def barrier_join(self, group: Any, node: Any, time: float) -> None:
        pass

    def barrier_release(self, group: Any, time: float) -> None:
        """Every member joined; the release signal fires at ``time``."""

    # -- tile core ------------------------------------------------------------

    def stall(self, core: Any, category: str, start: float,
              cycles: float) -> None:
        """``core`` was held ``cycles`` for a Table III ``category``."""

    def load(self, node: Any, op: Any, time: float) -> None:
        pass

    def vload(self, node: Any, op: Any, time: float) -> None:
        pass

    def store(self, node: Any, op: Any, time: float) -> None:
        pass

    def amo_issue(self, node: Any, op: Any) -> None:
        """An AMO left the core; it serializes later at its bank."""

    def fence(self, node: Any, time: float) -> None:
        pass

    def pim_issue(self, node: Any, op: Any, time: float) -> None:
        pass

    def pim_fence(self, node: Any, time: float) -> None:
        pass

    def kernel_end(self, core: Any, time: float) -> None:
        """``core`` finished its kernel (after the implicit drain)."""

    # -- memory system --------------------------------------------------------

    def amo_serialized(self, node: Any, dest: Any, time: float) -> None:
        """An AMO's functional point: it executes at its bank now."""

    def xshard_amo_out(self, node: Any, dest: Any, kind: str, seq: int,
                       time: float) -> None:
        """A PDES shard sent an AMO to a Cell another shard owns."""

    def host_read(self, addr: int, node: Any) -> None:
        pass

    def host_write(self, addr: int, node: Any) -> None:
        pass

    def host_range(self, cell_xy: Any, offset: int, nbytes: int,
                   write: bool) -> None:
        """A bulk host (DMA) transfer over a Cell-DRAM range."""

    # -- cache banks ----------------------------------------------------------

    def cache_access(self, bank: Any, set_idx: int, line: int, hit: bool,
                     time: float, start: float, port_cycles: float,
                     is_write: bool = False, is_amo: bool = False,
                     retry: bool = False) -> None:
        """A port reservation ``[start, start + port_cycles)`` and its
        tag probe (``retry``: a full-MSHR re-arbitration, no probe)."""

    def cache_evict(self, bank: Any, set_idx: int, victim: int,
                    time: float) -> None:
        pass

    def cache_install(self, bank: Any, set_idx: int, line: int,
                      time: float) -> None:
        pass

    def mshr_alloc(self, bank: Any, line: int, time: float) -> None:
        pass

    def mshr_merge(self, bank: Any, line: int, time: float) -> None:
        pass

    def mshr_release(self, bank: Any, line: int, time: float) -> None:
        pass

    def mshr_retry(self, bank: Any, line: int, time: float,
                   retry_at: float) -> None:
        """A miss found the MSHR file full; it retries at ``retry_at``."""

    # -- HBM pseudo-channels and PIM engines ----------------------------------

    def hbm_access(self, channel: Any, bank_idx: int, row: int, time: float,
                   start: float, row_state: str, burst_start: float,
                   burst_cycles: float, done: float, ready_before: float,
                   ready_after: float, is_write: bool = False) -> None:
        pass

    def pim_bus(self, engine: Any, cmd: str, start: float,
                cycles: float) -> None:
        pass

    def pim_bank_op(self, engine: Any, cmd: str, bank_idx: int, time: float,
                    start: float, ready_before: float, ready_after: float,
                    row: Optional[int] = None,
                    row_state: Optional[str] = None,
                    completion: Optional[float] = None) -> None:
        pass

    def pim_grf(self, engine: Any, cmd: str, bank_idx: int,
                reads: tuple = (), writes: tuple = ()) -> None:
        pass

    def pim_command(self, engine: Any, cmd: Any, start: float,
                    done: float) -> None:
        """One PIM command executed over ``[start, done)``."""

    # -- wormhole strips and NoC planes ---------------------------------------

    def strip_transfer(self, strip: Any, channel_idx: int, time: float,
                       start: float, burst: float, done: float, bank_x: int,
                       nbytes: int = 0) -> None:
        pass

    def noc_send(self, net: Any, src: Any, dst: Any, flits: int, time: float,
                 report: Any) -> None:
        """A packet's path was reserved; ``report`` is its delivery."""


#: Every probe point (``bind`` is the wiring call, not a point).
POINTS = tuple(name for name, value in vars(Probe).items()
               if callable(value) and not name.startswith("_")
               and name != "bind")


def observes(subscriber: Any, point: str) -> bool:
    """Whether ``subscriber`` overrides ``point``."""
    return getattr(type(subscriber), point) is not getattr(Probe, point)


def _fan(methods: List[Callable[..., None]]) -> Callable[..., None]:
    """One callable for a point: the lone observer's bound method, or a
    closure over the observers (two of them unrolled, the common case)."""
    if len(methods) == 1:
        return methods[0]
    if len(methods) == 2:
        a, b = methods

        def fan2(*args: Any) -> None:
            a(*args)
            b(*args)
        return fan2

    def fan(*args: Any) -> None:
        for method in methods:
            method(*args)
    return fan


class _Fanout(Probe):
    """Several subscribers behind one probe; see the module docstring."""

    def __init__(self, subscribers: Sequence[Probe]) -> None:
        self.subscribers = tuple(subscribers)
        for point in POINTS:
            methods = [getattr(s, point) for s in subscribers
                       if observes(s, point)]
            if methods:
                setattr(self, point, _fan(methods))


#: The points each kind of component emits.  :func:`attach` installs
#: the probe only where some subscriber observes one of them, so a
#: one-checker run pays nothing on the components it ignores.
_RUN_LOOP = ("event", "process_started", "process_finished")
_CORE = ("stall", "load", "vload", "store", "amo_issue", "fence",
         "pim_issue", "pim_fence", "kernel_end")
_CELL = ("launch", "barrier_group", "barrier_join", "barrier_release")
_MEMSYS = ("amo_serialized", "xshard_amo_out", "host_read", "host_write",
           "host_range")
_BANK = ("cache_access", "cache_evict", "cache_install", "mshr_alloc",
         "mshr_merge", "mshr_release", "mshr_retry")
_PIM = ("pim_bus", "pim_bank_op", "pim_grf", "pim_command")


def attach(machine: Any, *subscribers: Probe) -> Probe:
    """Wire ``subscribers`` into ``machine``; returns the installed probe.

    Call once, before launching kernels, with every subscriber the run
    needs; detaching is not supported (build a fresh machine instead).
    """
    if not subscribers:
        raise ValueError("attach needs at least one subscriber")
    if machine._probe is not None:
        raise RuntimeError("machine already has a probe attached")
    for subscriber in subscribers:
        subscriber.bind(machine)
    probe = subscribers[0] if len(subscribers) == 1 \
        else _Fanout(subscribers)
    machine._probe = probe

    def observed(points: Sequence[str]) -> bool:
        return any(observes(s, p) for s in subscribers for p in points)

    memsys = machine.memsys
    if observed(_RUN_LOOP):
        machine.sim._probe = probe
    # A run-loop observer also needs the per-op stream: batched compute
    # windows dispatch fewer events than the ops they stand for.
    if observed(_CORE + _RUN_LOOP):
        for core in machine.cores.values():
            core._probe = probe
    if observed(_CELL):
        for cell in machine.cells.values():
            cell._probe = probe
    if observed(_MEMSYS):
        memsys._probe = probe
    for points, components in (
            (_BANK, memsys.banks.values()),
            (("hbm_access",), memsys.hbm.values()),
            (_PIM, memsys.pim_engines.values()),
            (("strip_transfer",), memsys.strips.values()),
            (("noc_send",), (memsys.req_net, memsys.resp_net))):
        if observed(points):
            for component in components:
                component._probe = probe
    return probe
