"""The public entry point: build a machine, launch kernels, collect results.

:class:`Session` is the single documented way to run kernels on the
model (the examples, experiment harnesses, profiler and CLI all go
through it)::

    import repro

    session = repro.Session(repro.HB_16x8, trace=True)
    session.launch(kernel, args, group_shape=(4, 4))
    result, = session.run()
    session.trace.write_chrome("trace.json")

:func:`run` is the one-shot convenience for the dominant pattern (one
kernel on Cell (0, 0) of a fresh machine); it constructs and drives the
machine in exactly the order the legacy ``run_on_cell`` did, so cycle
counts are bit-identical to pre-Session harnesses.

Tracing is a constructor flag: ``Session(config, trace=True)`` (or a
:class:`repro.trace.TraceConfig` for tuned windows/caps) wires the
observability layer in before any kernel starts; ``session.trace`` then
carries the timeline and metrics after :meth:`Session.run`.

Sanitizing works the same way: ``Session(config, sanitize=True)`` (or a
:class:`repro.sanitize.SanitizeConfig`) attaches the happens-before
checker; after :meth:`Session.run`, ``session.sanitizer`` holds the
findings (``session.sanitizer.clean`` / ``.summary()``).

Auditing follows the same pattern again: ``Session(config, audit=True)``
(or a :class:`repro.audit.AuditConfig`) attaches the timing-model
invariant checker and its differential reference shadows; after
:meth:`Session.run`, ``session.auditor`` holds any violations
(``session.auditor.clean`` / ``.summary()``).  All three hooks are
purely observational -- cycle counts are identical either way.

For *grids* of sessions -- sweeping kernels against machine configs --
use :mod:`repro.orch` (``repro sweep``), or point the sweep at a
``repro serve`` scheduler daemon via :class:`repro.Client` to share
one warm worker pool and result cache across many callers; payloads
are bit-identical to in-process :class:`Session` runs.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from .arch.config import HB_16x8, MachineConfig
from .audit import AuditConfig, Auditor
from .audit import attach as audit_attach
from .isa.program import Kernel
from .pdes import run_cells
from .pdes.shard import LaunchSpec, PlanCell, kernel_ref
from .runtime.cell import LaunchHandle
from .runtime.machine import Machine
from .runtime.result import RunResult, collect, detached
from .sanitize import SanitizeConfig, Sanitizer
from .sanitize import attach as san_attach
from .trace import Trace, TraceConfig
from .trace import attach as trace_attach


class Session:
    """One machine instance plus the launches run on it.

    Parameters (all but ``config`` keyword-only):

    * ``config`` -- a :class:`~repro.arch.config.MachineConfig`
      (default: the paper's baseline ``HB_16x8``);
    * ``trace`` -- ``True`` or a :class:`repro.trace.TraceConfig` to
      record a cycle timeline + metrics (``session.trace``); ``False``
      (default) costs nothing;
    * ``sanitize`` -- ``True`` or a
      :class:`repro.sanitize.SanitizeConfig` to attach the
      happens-before race checker (``session.sanitizer``); ``False``
      (default) costs nothing;
    * ``audit`` -- ``True`` or a :class:`repro.audit.AuditConfig` to
      attach the timing-model invariant/differential checker
      (``session.auditor``); ``False`` (default) costs nothing;
    * ``record_bin_width`` -- enable per-link time series on the NoC
      (the pre-trace recording layer some experiments use);
    * ``cells`` -- ``(X, Y)`` switches the session into PDES mode: the
      config's Cell grid is set to X x Y and :meth:`run` simulates the
      Cells as parallel shards (``workers`` processes, conservative
      windows of ``window`` cycles, default = the inter-Cell lookahead).
      ``audit``/``sanitize`` attach per shard (``sanitize`` also runs
      the cross-shard race stitcher over the collected payloads);
      ``contention`` (default on) prices deterministic inter-Cell link
      contention -- Cell-edge lane occupancy plus the intra-Cell legs
      of cross-Cell paths -- instead of the optimistic zero-load floor;
      ``trace`` is unsupported.
    """

    def __init__(self, config: Optional[MachineConfig] = None, *,
                 trace: Union[bool, Any] = False,
                 sanitize: Union[bool, Any] = False,
                 audit: Union[bool, Any] = False,
                 record_bin_width: Optional[float] = None,
                 cells: Optional[Tuple[int, int]] = None,
                 workers: int = 1,
                 window: Optional[float] = None,
                 contention: bool = True) -> None:
        self.config = HB_16x8 if config is None else config
        #: PDES state (``cells=(X, Y)`` mode): the plan before run(),
        #: the :class:`repro.pdes.CellsResult` after.
        self.pdes: Optional[Any] = None
        self._plan: Optional[Dict[str, Any]] = None
        if cells is not None:
            cx, cy = cells
            self.config = self.config.with_geometry(cells_x=cx, cells_y=cy)
            if trace or record_bin_width is not None:
                raise ValueError(
                    "trace/record_bin_width are not supported with "
                    "cells=: PDES shards run in worker processes with "
                    "no shared timeline (run per-Cell traced sessions "
                    "instead)")
            self.machine = None
            self._plan = {
                "launches": [], "pokes": [], "cells": {},
                "workers": workers, "window": window,
                "audit": bool(audit), "sanitize": bool(sanitize),
                "contention": contention,
            }
            self.trace = None
            self.sanitizer = None
            self.auditor = None
            self._pending = []
            self.results: List[RunResult] = []
            return
        self.machine = Machine(self.config, record_bin_width=record_bin_width)
        self.trace: Optional[Any] = None
        if trace:
            trace_config = trace if isinstance(trace, TraceConfig) else None
            self.trace = trace_attach(self.machine, Trace(trace_config))
        self.sanitizer: Optional[Any] = None
        if sanitize:
            san_config = (sanitize if isinstance(sanitize, SanitizeConfig)
                          else None)
            self.sanitizer = san_attach(self.machine, Sanitizer(san_config))
        self.auditor: Optional[Any] = None
        if audit:
            audit_config = audit if isinstance(audit, AuditConfig) else None
            self.auditor = audit_attach(self.machine, Auditor(audit_config))
        self._pending: List[Tuple[LaunchHandle, str]] = []
        #: Results of every completed :meth:`run`, in launch order.
        self.results: List[RunResult] = []

    # -- machine access -----------------------------------------------------

    def cell(self, x: int = 0, y: int = 0) -> Any:
        """A Cell of the machine (for mallocs, pokes, Group-DRAM pointers).

        In PDES mode this is a :class:`repro.pdes.shard.PlanCell`: same
        allocation/pointer arithmetic, pokes recorded for the owning
        shard, no peek until the run's payload comes back.
        """
        if self._plan is not None:
            if (x, y) not in set(self.config.chip.cells()):
                raise KeyError(
                    f"no cell ({x}, {y}); session has "
                    f"{self.config.cells_x}x{self.config.cells_y} cells")
            plan_cells = self._plan["cells"]
            if (x, y) not in plan_cells:
                plan_cells[(x, y)] = PlanCell(
                    (x, y), lambda xy, off, val:
                    self._plan["pokes"].append((xy, off, val)))
            return plan_cells[(x, y)]
        return self.machine.cell(x, y)

    @property
    def sim(self) -> Any:
        """The underlying simulator (read-only use: ``now``, stats)."""
        if self.machine is None:
            raise RuntimeError("no single simulator in PDES mode: each "
                               "shard owns its own clock")
        return self.machine.sim

    # -- launching ----------------------------------------------------------

    def launch(self, kernel: Kernel, args: Any = None, *,
               cell: Tuple[int, int] = (0, 0),
               group_shape: Optional[Tuple[int, int]] = None,
               setup: Optional[Callable[[Machine], Any]] = None,
               remote: bool = True) -> LaunchHandle:
        """Load and start ``kernel`` on every tile of ``cell``.

        ``setup(machine)`` runs first (host-side data placement); its
        return value, if not ``None``, replaces ``args``.  Launches from
        several calls run concurrently once :meth:`run` drives the clock.

        In PDES mode the launch is recorded (kernels travel to shard
        workers by import path) and returns its
        :class:`repro.pdes.LaunchSpec`; ``setup`` is unsupported there
        -- there is no monolithic machine to hand it.  ``remote=False``
        promises the kernel is Cell-local (enforced: the shard raises on
        any cross-Cell access), which lets the coordinator skip window
        barriers when every launch on the chip says so; on a monolithic
        machine there is nothing to synchronize, so it is ignored.
        """
        if self._plan is not None:
            if setup is not None:
                raise ValueError(
                    "setup= is not supported with cells=: shard machines "
                    "are built in worker processes (poke via "
                    "session.cell(x, y) and pass offsets in args)")
            spec = LaunchSpec(cell=tuple(cell), kernel=kernel_ref(kernel),
                              args=args, group_shape=group_shape,
                              remote=remote)
            self._plan["launches"].append(spec)
            return spec
        target = self.machine.cell(*cell)
        if setup is not None:
            prepared = setup(self.machine)
            if prepared is not None:
                args = prepared
        target.load_kernel(kernel)
        handle = target.launch(args, group_shape=group_shape)
        self._pending.append((handle, kernel.name))
        return handle

    # -- running ------------------------------------------------------------

    def run(self, *, max_events: Optional[int] = None,
            keep_machine: bool = False) -> List[RunResult]:
        """Drive the clock until every pending launch finishes.

        Returns one :class:`RunResult` per pending launch (in launch
        order) and appends them to :attr:`results`.  With tracing on,
        the trace is finalized (final metrics sample, launch spans).

        In PDES mode this drives the conservative window loop instead
        and returns the :class:`repro.pdes.CellsResult` (also kept as
        ``session.pdes``).
        """
        if self._plan is not None:
            plan = self._plan
            if not plan["launches"]:
                raise RuntimeError("nothing to run; call launch() first")
            self.pdes = run_cells(
                self.config, plan["launches"], pokes=plan["pokes"],
                workers=plan["workers"], window=plan["window"],
                audit=plan["audit"], sanitize=plan["sanitize"],
                contention=plan["contention"])
            plan["launches"] = []
            plan["pokes"] = []
            return self.pdes
        if not self._pending:
            raise RuntimeError("nothing to run; call launch() first")
        handles = [handle for handle, _name in self._pending]
        try:
            self.machine.run_to_completion(handles, max_events=max_events)
        finally:
            # Finalize even on the deadlock diagnostic so the sanitizer
            # can report incomplete barrier epochs alongside it (the
            # auditor likewise sweeps for leaked MSHR entries and bad
            # utilization sums on whatever state the run reached).
            if self.sanitizer is not None:
                self.sanitizer.finalize(self.machine.sim.now)
            if self.auditor is not None:
                self.auditor.finalize(self.machine.sim.now)
        batch = [
            collect(self.machine, handle, handle.cycles(), name,
                    keep_machine=keep_machine)
            for handle, name in self._pending
        ]
        if self.trace is not None:
            self.trace.finalize(self.machine.sim.now)
        if self.auditor is not None:
            for result in batch:
                self.auditor.check_result(result)
        # A result is a value: unless the caller keeps the machine, it
        # holds each checker's findings, not the checker (which is wired
        # into the machine and stays live here for the next batch).
        for key, checker in (("trace", self.trace),
                             ("sanitize", self.sanitizer),
                             ("audit", self.auditor)):
            if checker is not None:
                held = checker if keep_machine else detached(checker)
                for result in batch:
                    result.extra[key] = held
        self._pending = []
        self.results.extend(batch)
        return batch

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = (f"{len(self._pending)} pending" if self._pending
                 else f"{len(self.results)} result(s)")
        traced = ", traced" if self.trace is not None else ""
        sanitized = ", sanitized" if self.sanitizer is not None else ""
        audited = ", audited" if self.auditor is not None else ""
        return (f"Session({self.config.name}, {state}"
                f"{traced}{sanitized}{audited})")


def run(config: Optional[MachineConfig] = None, kernel: Kernel = None,
        args: Any = None, *,
        cell: Tuple[int, int] = (0, 0),
        group_shape: Optional[Tuple[int, int]] = None,
        setup: Optional[Callable[[Machine], Any]] = None,
        record_bin_width: Optional[float] = None,
        keep_machine: bool = False,
        max_events: Optional[int] = None,
        trace: Union[bool, Any] = False,
        sanitize: Union[bool, Any] = False,
        audit: Union[bool, Any] = False) -> RunResult:
    """One-shot: run ``kernel`` on one Cell of a fresh machine.

    The Session-era replacement for ``run_on_cell`` -- identical machine
    construction and drive order, so cycle counts match it exactly.  New
    capabilities are keyword-only: ``cell`` picks the target Cell,
    ``trace`` records a timeline (reachable as ``result.trace``),
    ``sanitize`` attaches the race checker (``result.sanitize``), and
    ``audit`` attaches the timing-model invariant checker
    (``result.extra["audit"]``).
    """
    if kernel is None:
        raise TypeError("run() needs a kernel")
    session = Session(config, trace=trace, sanitize=sanitize, audit=audit,
                      record_bin_width=record_bin_width)
    session.launch(kernel, args, cell=cell, group_shape=group_shape,
                   setup=setup)
    return session.run(max_events=max_events, keep_machine=keep_machine)[0]
