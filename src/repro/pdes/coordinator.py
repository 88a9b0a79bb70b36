"""The conservative-window coordinator: N shards in lockstep windows.

The synchronization algorithm (classic conservative PDES, specialized to
the Cell fabric):

1. every shard reports its next local event time; in-flight cross-Cell
   messages report their arrival times;
2. the window base ``T`` is the minimum over all of those -- nothing
   anywhere in the chip can happen before ``T``;
3. every shard with pending work before ``T + W`` advances to the
   barrier ``T + W``, where the window ``W`` is at most the *lookahead*
   ``L``: the zero-load latency floor between any two Cells
   (:func:`repro.noc.analysis.intercell_lookahead`).  Any message a
   shard emits during the window is stamped ``>= T``, so it arrives
   ``>= T + L >= T + W`` -- always in a *later* window, which is what
   makes advancing every shard to ``T + W`` with no mid-window
   communication safe;
4. outboxes are drained into a *release pool*; every pooled message
   whose zero-load arrival is below ``T + L`` is released -- no future
   emission (stamped ``>= T``, arriving ``>= T + L``) can sort before
   it -- globally sorted by ``(arrival, src_cell, seq)``, priced
   through the :class:`~repro.pdes.contention.EdgeContention` ledger
   (which only ever *adds* latency, so the lookahead bound survives),
   and delivered; repeat until every queue is empty.

Because release eligibility depends only on ``T`` -- itself the minimum
over all shard clocks and pooled arrivals, a pure function of the
message set -- the concatenation of released batches is the *same*
globally-sorted stream for every window size and worker count, and the
contention prices (hence the shard histories) are bit-identical across
all of them.

One shortcut on top: when every still-live shard carries only launches
declared ``remote=False`` (a runtime-enforced promise of Cell-locality
-- the shard's channel raises on any cross-Cell access) and nothing is
in flight, no message can ever be created, so the coordinator drops the
barriers and free-runs each shard to completion in a single unbounded
stride.  That collapses the round count from ``O(cycles / W)`` to
``O(1)`` for embarrassingly-parallel chips, which is where PDES
throughput scaling actually comes from -- the windowed path spends its
wall-clock on barrier IPC, not simulation.

Because delivery order is a pure function of the message set, the same
windowed algorithm produces bit-identical shard histories -- cycles,
counters, event counts and functional memory all match -- however the
shards are spread over processes: all in the caller (``workers=1``), or
some in the caller and the rest in ``N-1`` forked workers.  That is the
correctness oracle the determinism tests pin.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import pickle
import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..arch import serialize
from ..arch.config import MachineConfig
from ..arch.geometry import Coord
from ..noc.analysis import intercell_lookahead
from ..orch.job import canonical_json
# The process budget the orch runner exports to every job it attempts,
# so nested multi-Cell jobs never oversubscribe the host.
from ..orch.runner import WORKER_BUDGET_ENV, _context
from ..sanitize.xshard import stitch_shards
from .channel import PdesError, sort_key
from .contention import EdgeContention
from .shard import (CellShard, LaunchSpec, ShardSpec, StepReport,
                    resolve_kernel)
from .worker import shard_worker_main


def resolve_workers(requested: int, num_shards: Optional[int] = None) -> int:
    """Clamp a worker request to the env budget (and the shard count).

    The count includes the calling process, which hosts worker 0's
    shards itself; ``N`` means ``N - 1`` forks.  Inside a daemonic
    process the answer is always 1: daemonic processes may not fork
    children, so every shard runs in the caller (bit-identical results,
    just no parallelism).
    """
    if multiprocessing.current_process().daemon:
        return 1
    workers = max(1, int(requested))
    budget = os.environ.get(WORKER_BUDGET_ENV)
    if budget:
        try:
            workers = min(workers, max(1, int(budget)))
        except ValueError:
            raise PdesError(
                f"bad {WORKER_BUDGET_ENV}={budget!r} (want an integer)")
    if num_shards is not None:
        workers = min(workers, num_shards)
    return workers


@dataclass
class CellsResult:
    """The outcome of one multi-Cell PDES run."""

    config_name: str
    cells: List[Coord]
    workers: int
    window: float
    lookahead: float
    rounds: int
    messages: int
    wall_seconds: float
    #: One payload dict per shard (``CellShard.collect`` output), in
    #: Cell order.
    shards: List[Dict[str, Any]] = field(default_factory=list)
    #: ``EdgeContention.summary()`` when inter-Cell contention pricing
    #: ran, else ``None`` (zero-load pricing).
    contention: Optional[Dict[str, Any]] = None
    #: Cross-shard sanitizer stitching report
    #: (:func:`repro.sanitize.xshard.stitch_shards`) when sanitizing.
    xshard: Optional[Dict[str, Any]] = None
    #: Where the host time of the sync protocol went: ``rounds``,
    #: ``messages_per_round`` (``mean``/``max`` delivered per round),
    #: ``local_advance_s`` (the caller stepping worker 0's shards),
    #: ``remote_wait_s`` (then blocked on forked workers' replies),
    #: ``pricing_s`` (release-pool sort + contention ledger) and
    #: ``forked_workers``.  Host-side and noisy, so never fingerprinted.
    sync: Optional[Dict[str, Any]] = None

    @property
    def cycles(self) -> List[float]:
        """Every launch's cycle count, in (cell, launch) order."""
        return [c for s in self.shards for c in s["cycles"]]

    @property
    def max_cycles(self) -> float:
        return max(self.cycles) if self.cycles else 0.0

    @property
    def aggregate_cycles(self) -> float:
        """Sum of simulated cycles across shards (the PDES throughput
        numerator: N Cells at time T did N*T cycles of simulation)."""
        return sum(s["now"] for s in self.shards)

    @property
    def total_events(self) -> int:
        return sum(s["events"] for s in self.shards)

    @property
    def clean(self) -> bool:
        """True when every attached audit/sanitize pass found nothing --
        including the cross-shard stitching pass, when it ran."""
        return all(s.get("audit_clean", True) and s.get("sanitize_clean", True)
                   for s in self.shards) and \
            (self.xshard is None or bool(self.xshard["clean"]))

    def fingerprint(self) -> str:
        """Hash of everything deterministic: shard payloads, message and
        contention totals.

        Two runs of the same workload fingerprint identically regardless
        of worker count *and* window size -- the bit-identity contract
        in one string.  (``rounds`` is deliberately excluded: it is sync
        bookkeeping that legitimately varies with the window.)
        """
        body = canonical_json({"shards": self.shards,
                               "messages": self.messages,
                               "contention": self.contention})
        return hashlib.sha256(body.encode()).hexdigest()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "config": self.config_name,
            "cells": [list(c) for c in self.cells],
            "workers": self.workers,
            "window": self.window,
            "lookahead": self.lookahead,
            "rounds": self.rounds,
            "messages": self.messages,
            "wall_seconds": self.wall_seconds,
            "aggregate_cycles": self.aggregate_cycles,
            "total_events": self.total_events,
            "max_cycles": self.max_cycles,
            "fingerprint": self.fingerprint(),
            "contention": self.contention,
            "xshard": self.xshard,
            "sync": self.sync,
            "shards": self.shards,
        }


# ---------------------------------------------------------------------------
# The transport: the window loop's view of where the shards run.

class _Transport:
    """Shards dealt round-robin over ``workers`` processes, the calling
    process being worker 0.

    Shard ``i`` is the ``i // workers``-th shard of worker ``i % workers``.
    Worker 0's shards are built and stepped right here; workers
    ``1..N-1`` are forked :func:`~repro.pdes.worker.shard_worker_main`
    loops behind duplex pipes, and ``workers=1`` is the zero-fork case of
    the same code.  Every request goes out to the forked workers *before*
    worker 0 does its own share, so the processes overlap and a round
    costs one pipe round-trip per fork -- none for worker 0.

    A context manager: leaving it releases worker 0's shards and joins
    every fork -- told to shut down after a clean run, killed after an
    exception (a failed or interrupted round leaves the others
    mid-window or holding replies nobody will read).
    """

    def __init__(self, specs: Sequence[ShardSpec], workers: int) -> None:
        self.n = len(specs)
        self.workers = workers
        self._per = [list(specs[wid::workers]) for wid in range(workers)]
        self.shards: List[CellShard] = []  # worker 0's own, built by init()
        self.conns: Dict[int, Any] = {}
        self.procs: Dict[int, Any] = {}
        #: Host seconds worker 0 spent stepping its own shards, and then
        #: blocked on the forks' replies (``CellsResult.sync``).
        self.local_s = 0.0
        self.wait_s = 0.0

    def __enter__(self) -> "_Transport":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.shards = []
        for wid, proc in self.procs.items():
            try:
                if exc_type is not None:
                    proc.kill()
                else:
                    self.conns[wid].send(("shutdown", None))
            except OSError:  # pragma: no cover - already gone
                pass
        for wid, proc in self.procs.items():
            self.conns[wid].close()
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - hung worker
                proc.kill()
                proc.join()

    def _recv(self, wid: int) -> Any:
        try:
            status, payload = self.conns[wid].recv()
        except (EOFError, OSError) as exc:
            self.procs[wid].join(timeout=1.0)
            raise PdesError(
                f"shard worker {wid} died mid-request (exit code "
                f"{self.procs[wid].exitcode})") from exc
        if status != "ok":
            raise PdesError(f"shard worker {wid} failed:\n{payload}")
        return payload

    def _gather(self, local: List[Any]) -> List[Any]:
        """Worker 0's per-shard answers and every fork's reply, dealt
        back into Cell order."""
        per = [local] + [self._recv(wid) for wid in self.conns]
        return [per[i % self.workers][i // self.workers]
                for i in range(self.n)]

    def init(self) -> List[StepReport]:
        ctx = _context()
        # Fork before building anything here: a child must not inherit
        # (and keep alive) a copy of worker 0's machines.
        for wid in range(1, self.workers):
            parent, child = ctx.Pipe(duplex=True)
            proc = ctx.Process(
                target=shard_worker_main, daemon=True,
                args=(child, wid, [*self.conns.values(), parent]))
            proc.start()
            self.procs[wid], self.conns[wid] = proc, parent
            child.close()
            parent.send(("init", self._per[wid]))
        # The pickle round-trip the pipe gives every fork's specs: shards
        # must never share live args objects with the caller or each
        # other (kernels mutate them), or worker counts could diverge.
        specs = pickle.loads(pickle.dumps(self._per[0]))
        self.shards = [CellShard(spec) for spec in specs]
        return self._gather([s.report() for s in self.shards])

    def advance(self, assignments: List[Tuple[int, Optional[float], List[Any]]]
                ) -> List[Tuple[int, StepReport]]:
        n = self.workers
        buckets: Dict[int, List[Tuple[int, Optional[float], List[Any]]]] = {}
        for job in assignments:
            buckets.setdefault(job[0] % n, []).append(job)
        mine = buckets.pop(0, ())
        for wid, jobs in buckets.items():
            self.conns[wid].send(
                ("advance", [(i // n, t_end, msgs) for i, t_end, msgs in jobs]))
        t0 = time.perf_counter()
        results = [(i, self.shards[i // n].advance(t_end, msgs))
                   for i, t_end, msgs in mine]
        t1 = time.perf_counter()
        self.local_s += t1 - t0
        if buckets:
            for wid, jobs in buckets.items():
                results.extend(zip((job[0] for job in jobs), self._recv(wid)))
            self.wait_s += time.perf_counter() - t1
        return results

    def collect(self) -> List[Dict[str, Any]]:
        for conn in self.conns.values():
            conn.send(("collect", None))
        return self._gather([s.collect() for s in self.shards])


# ---------------------------------------------------------------------------
# The window loop.

def run_cells(config: MachineConfig,
              launches: Iterable[LaunchSpec], *,
              pokes: Iterable[Tuple[Coord, int, int]] = (),
              workers: int = 1,
              window: Optional[float] = None,
              audit: bool = False,
              sanitize: bool = False,
              contention: bool = True,
              _jitter_seed: Optional[int] = None) -> CellsResult:
    """Simulate every Cell of ``config`` as a PDES shard.

    ``launches`` are :class:`LaunchSpec` records (several per Cell is
    fine); ``pokes`` are host writes ``(cell, offset, value)`` applied
    before launch in the owning shard.  ``workers`` counts processes
    *including the caller*, which hosts the first group of shards itself
    and forks ``workers - 1`` more; ``workers=1`` therefore forks nothing
    and runs the *same* window loop, so it is the bit-exact reference
    for any worker count.  ``window`` defaults to the
    lookahead (the largest safe value); smaller windows are valid and
    must not change results.

    ``contention=True`` (the default) prices cross-Cell messages through
    the deterministic :class:`~repro.pdes.contention.EdgeContention`
    boundary-lane ledger instead of the bare zero-load floor;
    ``contention=False`` restores the optimistic pricing (useful for
    measuring the gap).  ``sanitize=True`` additionally runs the offline
    cross-shard happens-before pass (:mod:`repro.sanitize.xshard`) over
    the per-shard exports, so races *between* Cells are reported too.

    ``_jitter_seed`` shuffles each round's message batch before the
    canonical sort -- a test hook proving delivery order is a function
    of the sort key, not of arrival-at-the-coordinator order.
    """
    cells = list(config.chip.cells())
    if len(cells) < 2:
        raise ValueError(
            f"PDES wants a multi-Cell config; {config.name} has "
            f"{len(cells)} cell (use Session/run for single-Cell)")
    lookahead = float(intercell_lookahead(config))
    if window is None:
        window = lookahead
    if not 0 < window <= lookahead:
        raise ValueError(
            f"window must be in (0, {lookahead}] (the inter-Cell zero-load "
            f"latency floor); got {window}")
    config_dict = serialize.to_dict(config)
    by_cell: Dict[Coord, List[LaunchSpec]] = {xy: [] for xy in cells}
    for launch in launches:
        xy = tuple(launch.cell)
        if xy not in by_cell:
            raise ValueError(f"launch targets cell {xy}, not on this chip")
        by_cell[xy].append(launch)
    pokes_by: Dict[Coord, List[Tuple[int, int]]] = {xy: [] for xy in cells}
    for cell, offset, value in pokes:
        xy = tuple(cell)
        if xy not in pokes_by:
            raise ValueError(f"poke targets cell {xy}, not on this chip")
        pokes_by[xy].append((offset, value))
    specs = [ShardSpec(config=config_dict, cell=xy,
                       launches=tuple(by_cell[xy]),
                       pokes=tuple(pokes_by[xy]),
                       audit=audit, sanitize=sanitize,
                       contention=contention)
             for xy in cells]
    workers = resolve_workers(workers, len(cells))
    # Every kernel's module is imported here, before any fork: the
    # workers inherit it instead of importing, and a bad ref fails in
    # the caller.
    for ref in {launch.kernel for spec in specs
                for launch in spec.launches}:
        resolve_kernel(ref)
    # Shards whose launches all declared remote=False can never send
    # (channel-enforced); once every live shard is in this set and no
    # message is in flight, windows are pointless -- free-run instead.
    silent = [all(not launch.remote for launch in spec.launches)
              for spec in specs]
    rng = random.Random(_jitter_seed) if _jitter_seed is not None else None
    index_of = {xy: i for i, xy in enumerate(cells)}
    pricer = EdgeContention(config) if contention else None
    pricing_s = 0.0
    widest = 0  # most messages delivered in one round
    t0 = time.perf_counter()
    with _Transport(specs, workers) as transport:
        reports = transport.init()
        inflight: List[Any] = []
        # With contention, fresh emissions park in the release pool at
        # their zero-load arrival until no future emission could sort
        # before them; only then are they priced (in the one global
        # order) and promoted to ``inflight`` for delivery.
        pool: List[Any] = []
        fresh = pool if pricer is not None else inflight
        for report in reports:
            fresh.extend(report.outbox)
        rounds = 0
        messages = 0
        while True:
            if not inflight and not pool and all(
                    quiet or report.done
                    for quiet, report in zip(silent, reports)):
                # No live shard can initiate cross-Cell traffic and
                # nothing is in flight, so no reply can arise either:
                # the rest of the run is embarrassingly parallel.
                assignments = [(i, None, []) for i, r in enumerate(reports)
                               if r.next_time is not None]
                if not assignments:
                    break
                for idx, report in transport.advance(assignments):
                    reports[idx] = report
                    fresh.extend(report.outbox)
                rounds += 1
                continue
            candidates = [r.next_time for r in reports
                          if r.next_time is not None]
            candidates.extend(m.arrival for m in inflight)
            candidates.extend(m.arrival for m in pool)
            if not candidates:
                break
            base = min(candidates)
            t_end = base + window
            if pricer is not None and pool:
                # Release every pooled message no future emission can
                # pre-empt: emissions from this round on are stamped
                # >= base, arriving >= base + lookahead, strictly after
                # everything released here -- so the released batches
                # concatenate into one window-independent global stream.
                horizon = base + lookahead
                release = [m for m in pool if m.arrival < horizon]
                if release:
                    t_price = time.perf_counter()
                    pool[:] = [m for m in pool if m.arrival >= horizon]
                    if rng is not None:
                        rng.shuffle(release)
                    release.sort(key=sort_key)
                    pricer.price(release)
                    inflight.extend(release)
                    pricing_s += time.perf_counter() - t_price
            deliver = list(inflight)
            inflight.clear()
            if rng is not None:
                rng.shuffle(deliver)  # the sort must undo any order
            deliver.sort(key=sort_key)
            messages += len(deliver)
            widest = max(widest, len(deliver))
            inbox: Dict[Coord, List[Any]] = {}
            for msg in deliver:
                inbox.setdefault(msg.dst_cell, []).append(msg)
            assignments = []
            for i, xy in enumerate(cells):
                msgs = inbox.pop(xy, [])
                report = reports[i]
                if msgs or (report.next_time is not None
                            and report.next_time <= t_end):
                    assignments.append((i, t_end, msgs))
            if inbox:
                raise PdesError(
                    f"messages addressed to unknown cells {sorted(inbox)}")
            for idx, report in transport.advance(assignments):
                reports[idx] = report
                fresh.extend(report.outbox)
            rounds += 1
        stuck = [r.cell for r in reports if not r.done]
        if stuck:
            raise PdesError(
                f"deadlock: cells {sorted(index_of[tuple(c)] for c in stuck)} "
                f"-> {sorted(tuple(c) for c in stuck)} drained their event "
                "queues with launches unfinished or remote ops unanswered")
        payloads = transport.collect()
    xshard_report = None
    if sanitize:
        xshard_report = stitch_shards(payloads)
    wall = time.perf_counter() - t0
    return CellsResult(
        config_name=config.name, cells=cells, workers=workers,
        window=window, lookahead=lookahead, rounds=rounds,
        messages=messages, wall_seconds=wall, shards=payloads,
        contention=pricer.summary() if pricer is not None else None,
        xshard=xshard_report,
        sync={
            "rounds": rounds,
            "messages_per_round": {
                "mean": messages / rounds if rounds else 0.0,
                "max": widest},
            "local_advance_s": transport.local_s,
            "remote_wait_s": transport.wait_s,
            "pricing_s": pricing_s,
            "forked_workers": len(transport.procs),
        },
    )
