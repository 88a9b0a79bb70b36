"""The asyncio scheduler: orch runner + cache + journal behind one object.

This is the long-lived heart of ``repro serve``.  It owns exactly the
three pieces :mod:`repro.orch` already had -- the content-addressed
:class:`~repro.orch.cache.ResultStore`, the JSONL
:class:`~repro.orch.journal.RunJournal`, and the job
:class:`~repro.orch.runner.Runner` -- and turns the fire-and-forget
per-sweep run into a service:

* **streaming intake** -- clients submit job plans at any time; jobs
  enter one priority queue (client priority, then submission order);
* **cross-client dedup** -- jobs are identified by the same cache key
  the sweep orchestrator uses (spec + arch config + code fingerprint).
  A job identical to a cached artifact is served from the store; one
  identical to an in-flight or completed job of *any* client attaches
  as a waiter and shares the single execution's result bit-for-bit;
* **quotas** -- per-client in-flight budgets (:mod:`.quotas`);
* **events** -- every journal record is also fanned out live to
  ``watch``-ing connections (the stream *is* the journal format; see
  :mod:`.protocol`);
* **recovery** -- the journal is opened in append mode; on restart the
  prior run's records are scanned, interrupted jobs are counted into a
  ``recover`` record, and their completed siblings keep being served
  from the store (artifact writes are atomic, so a killed daemon never
  leaves a torn cache).

Execution is the orch runner's -- the sweep's attempt loop, retry
policy, deadlines, crash replacement and ``procs`` slot ledger -- and
this module only drives it from the event loop: the runner's worker
pipes are registered with ``loop.add_reader``, its next deadline with
``call_at``, and the queue head is launched whenever the ledger admits
it.  ``workers <= 0`` runs attempts on one in-daemon thread (no
deadline -- the sweep's in-process contract), which is what tests and
1-CPU hosts use.
"""

from __future__ import annotations

import asyncio
import functools
import heapq
import itertools
import os
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from .. import __version__
from ..orch.cache import ResultStore, cache_key, default_cache_dir
from ..orch.fingerprint import code_fingerprint
from ..orch.job import Job
from ..orch.journal import RunJournal, _utcnow, read_journal
from ..orch.runner import (CACHED, CANCELLED, FAILED, OK, TIMEOUT, Runner,
                           _cycles_of, attempt)
from .quotas import ClientState, QuotaError, QuotaPolicy

#: Entry states before the runner's terminal ones.
QUEUED, RUNNING = "queued", "running"

_TERMINAL = (OK, CACHED, FAILED, TIMEOUT, CANCELLED)


@dataclass
class ServeConfig:
    """Knobs of the scheduler daemon (``repro serve``).

    ``cache_dir=None`` resolves through
    :func:`repro.orch.default_cache_dir` (``$REPRO_CACHE_DIR`` or
    ``.repro-cache``) so daemon and clients agree on one store.
    """

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral (the bound port is printed/returned)
    workers: int = 0  # >=1: orch runner worker processes; <=0: one thread
    cache_dir: Optional[str] = None
    journal: Optional[str] = None
    use_cache: bool = True
    default_timeout: Optional[float] = None  # per attempt; needs workers>=1
    quota: Optional[int] = None  # max in-flight originated jobs per client
    max_priority: int = 9
    stats_interval: float = 0.0  # seconds between stats events (0 = off)
    fingerprint: Optional[str] = None  # override for tests

    def resolved_cache_dir(self) -> str:
        return self.cache_dir if self.cache_dir is not None \
            else default_cache_dir()


class _Entry:
    """One unique job spec known to the scheduler (any number of
    submissions may wait on it)."""

    __slots__ = ("key", "job", "priority", "seq", "status", "payload",
                 "error", "wall_s", "attempts", "worker", "origin",
                 "waiters", "counted")

    def __init__(self, key: str, job: Job, priority: int, seq: int,
                 origin: str) -> None:
        self.key = key
        self.job = job
        self.priority = priority
        self.seq = seq
        self.status = QUEUED
        self.payload: Any = None
        self.error: Optional[str] = None
        self.wall_s = 0.0
        self.attempts = 0
        self.worker: Optional[int] = None
        self.origin = origin
        self.waiters: List[Tuple[str, str]] = []  # (client_id, sub_id)
        self.counted = False  # charged against origin's in-flight quota


@dataclass
class _Submission:
    """One client's submitted plan: its view onto shared entries."""

    sub_id: str
    client: str
    keys: List[str]  # cache keys aligned with the submitted jobs
    modes: List[str]  # per-job cache mode: "miss" | "hit" | "dedup"
    remaining: set = field(default_factory=set)
    done: asyncio.Event = field(default_factory=asyncio.Event)


class Scheduler:
    """See the module docstring.  All methods must run on the event
    loop's thread (the daemon guarantees this); ``start`` first."""

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.config = config or ServeConfig()
        self.run_id = os.urandom(6).hex()
        self.fingerprint = self.config.fingerprint or code_fingerprint()
        self.cache_dir = self.config.resolved_cache_dir()
        self.store: Optional[ResultStore] = (
            ResultStore(self.cache_dir) if self.config.use_cache else None)
        self.journal: Optional[RunJournal] = None
        self.quotas = QuotaPolicy(self.config.quota,
                                  self.config.max_priority)
        self._entries: Dict[str, _Entry] = {}
        #: How many entries are in each status; kept by ``_install`` and
        #: ``_move`` so ``stats()`` never scans ``_entries``.
        self._status_counts: Counter = Counter()
        self._queue: List[Tuple[int, int, str]] = []  # (-prio, seq, key)
        self._subs: Dict[str, _Submission] = {}
        self._listeners: Dict[int, Callable[[Dict[str, Any]], None]] = {}
        self._seq = itertools.count()
        self._sub_ids = itertools.count(1)
        self._listener_ids = itertools.count(1)
        self.dedup_hits = 0
        self.cache_hits = 0
        self.executed = 0
        self._stopping = False
        self._tasks: List[asyncio.Task] = []
        self._kick: Optional[asyncio.Event] = None
        self._runner: Optional[Runner] = None
        self._timer: Optional[asyncio.TimerHandle] = None
        #: ``workers <= 0``: the thread attempts run on, and the one
        #: attempt in flight there.
        self._executor: Optional[ThreadPoolExecutor] = None
        self._inline: Optional[asyncio.Future] = None

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._kick = asyncio.Event()
        recovery = self._scan_prior_journal()
        self.journal = RunJournal(self.config.journal, append=True)
        if recovery is not None:
            self._emit("recover", run_id=self.run_id, **recovery)
        self._emit(
            "header", started=_utcnow(), server=True, run_id=self.run_id,
            fingerprint=self.fingerprint, version=__version__,
            workers=self.config.workers, cache_dir=self.cache_dir,
            cache=self.config.use_cache, quota=self.config.quota)
        self._runner = Runner(
            self.config.workers, self.config.default_timeout,
            on_start=self._started, on_done=self._done, watch=self._watch)
        if self.config.workers <= 0:
            self._executor = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-serve-job")
        self._tasks.append(self._loop.create_task(self._dispatch()))
        if self.config.stats_interval > 0:
            self._tasks.append(
                self._loop.create_task(self._stats_loop()))

    async def shutdown(self) -> None:
        if self._stopping:
            return
        self._stopping = True
        self._kick.set()
        for task in self._tasks:
            task.cancel()
        for task in self._tasks:
            try:
                await task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
        if self._timer is not None:
            self._timer.cancel()
        if self._inline is not None:
            self._inline.cancel()
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
        if self._runner is not None:
            self._runner.close()
        self._emit("footer", finished=_utcnow(), run_id=self.run_id,
                   **{s: n for s, n in self._status_counts.items() if n})
        if self.journal is not None:
            self.journal.close()

    def _scan_prior_journal(self) -> Optional[Dict[str, Any]]:
        """What an earlier daemon run left in the journal, if anything."""
        path = self.config.journal
        if not path or not os.path.exists(path):
            return None
        try:
            if os.path.getsize(path) == 0:
                return None
            records = read_journal(path)
        except OSError:
            return None
        if not records:
            return None
        submitted: set = set()
        completed: set = set()
        for rec in records:
            event = rec.get("event")
            if event == "submit":
                submitted.update(rec.get("keys") or [])
            elif event == "job":
                completed.add(rec.get("cache_key"))
        return {"prior_records": len(records),
                "interrupted": len(submitted - completed)}

    # -- event fan-out ------------------------------------------------------

    def add_listener(self, callback: Callable[[Dict[str, Any]], None]
                     ) -> int:
        token = next(self._listener_ids)
        self._listeners[token] = callback
        return token

    def remove_listener(self, token: int) -> None:
        self._listeners.pop(token, None)

    def _emit(self, event: str, *, journal: bool = True,
              **fields: Any) -> Dict[str, Any]:
        """Journal one record and push it to every live listener."""
        record = {"event": event, **fields}
        if journal and self.journal is not None:
            self.journal.write_event(event, **fields)
        for callback in list(self._listeners.values()):
            try:
                callback(record)
            except Exception:  # noqa: BLE001 -- one dead client, not all
                pass
        return record

    # -- intake -------------------------------------------------------------

    def register_client(self, name: Optional[str] = None,
                        priority: int = 0) -> ClientState:
        state = self.quotas.register(name, priority)
        self._emit("client", client=state.client_id, name=state.name,
                   priority=state.priority)
        return state

    def submit(self, client_id: str, wire_jobs: List[Dict[str, Any]],
               use_cache: bool = True) -> Dict[str, Any]:
        """Admit one plan; returns per-job keys/statuses (atomic: a
        quota rejection admits nothing)."""
        state = self.quotas.get(client_id)
        jobs = [Job.from_wire(w) for w in wire_jobs]
        keys = [cache_key(job, self.fingerprint) for job in jobs]
        use_cache = use_cache and self.config.use_cache

        # Classification pass -- no state mutated yet.
        planned: List[Tuple[Job, str, str, Optional[Dict[str, Any]]]] = []
        seen_new: set = set()
        new_jobs = 0
        for job, key in zip(jobs, keys):
            entry = self._entries.get(key)
            if key in seen_new:
                action, record = "dedup-sub", None
            elif entry is not None and entry.status in (OK, CACHED):
                action, record = "dedup-done", None
            elif entry is not None and entry.status in (QUEUED, RUNNING):
                action, record = "dedup-inflight", None
            else:
                # No live entry (or a failed/cancelled one): (re)compute.
                record = self.store.get(key) if (use_cache and
                                                 self.store) else None
                if record is not None:
                    action = "cache-hit"
                else:
                    action = "new"
                    seen_new.add(key)
                    new_jobs += 1
            planned.append((job, key, action, record))

        try:
            self.quotas.admit(client_id, new_jobs)
        except QuotaError:
            self._emit("quota", client=client_id,
                       limit=self.quotas.quota, inflight=state.inflight,
                       denied=new_jobs)
            raise

        sub = _Submission(sub_id=f"s{next(self._sub_ids)}",
                          client=client_id, keys=keys, modes=[])
        counts = {"queued": 0, "cached": 0, "deduped": 0}
        for job, key, action, record in planned:
            if action == "new":
                entry = _Entry(key, job, state.priority,
                               next(self._seq), client_id)
                entry.counted = True
                state.inflight += 1
                self._install(entry)
                heapq.heappush(self._queue,
                               (-entry.priority, entry.seq, key))
                sub.modes.append("miss")
                sub.remaining.add(key)
                counts["queued"] += 1
            elif action == "cache-hit":
                entry = _Entry(key, job, state.priority,
                               next(self._seq), client_id)
                entry.status = CACHED
                self._install(entry)
                entry.payload = record["payload"]
                state.cache_hits += 1
                self.cache_hits += 1
                self._emit("job", cache_key=key,
                           experiment=job.experiment, key=job.key,
                           outcome=CACHED, wall_s=0.0, attempts=0,
                           worker=None, error=None,
                           cycles=_cycles_of(entry.payload),
                           client=client_id)
                sub.modes.append("hit")
                counts["cached"] += 1
            else:  # dedup-sub / dedup-done / dedup-inflight
                entry = self._entries[key]
                source = {"dedup-sub": "submission",
                          "dedup-done": "done",
                          "dedup-inflight": "inflight"}[action]
                state.dedup_hits += 1
                self.dedup_hits += 1
                self._emit("dedup", cache_key=key, client=client_id,
                           source=source)
                sub.modes.append("dedup")
                if entry.status not in _TERMINAL:
                    sub.remaining.add(key)
                counts["deduped"] += 1
            if entry.status not in _TERMINAL:
                entry.waiters.append((client_id, sub.sub_id))
        state.submitted += len(jobs)
        self._subs[sub.sub_id] = sub
        self._emit("submit", client=client_id, sub=sub.sub_id,
                   jobs=len(jobs), keys=keys, **counts)
        if not sub.remaining:
            self._finish_submission(sub)
        self._kick.set()
        return {
            "sub": sub.sub_id,
            "jobs": [{"key": job.key, "cache_key": key,
                      "status": self._entries[key].status, "cache": mode}
                     for (job, key, _a, _r), mode
                     in zip(planned, sub.modes)],
            **counts,
        }

    # -- progress and results ----------------------------------------------

    def status(self, sub_id: str) -> Dict[str, Any]:
        sub = self._require_sub(sub_id)
        statuses = [self._entries[k].status for k in sub.keys]
        counts: Dict[str, int] = {}
        for status in statuses:
            counts[status] = counts.get(status, 0) + 1
        return {"sub": sub.sub_id, "done": sub.done.is_set(),
                "statuses": statuses, "counts": counts}

    def results(self, sub_id: str) -> List[Dict[str, Any]]:
        """Per-job result envelopes, aligned with the submitted order.

        Payloads are delivered verbatim (bit-identical to what the
        in-process pool computes); provenance rides in the envelope.
        """
        sub = self._require_sub(sub_id)
        out = []
        for key, mode in zip(sub.keys, sub.modes):
            entry = self._entries[key]
            out.append(self._envelope(entry, mode))
        return out

    def result_of(self, key: str) -> Dict[str, Any]:
        entry = self._entries.get(key)
        if entry is None:
            raise KeyError(f"unknown job {key!r}")
        mode = "hit" if entry.status == CACHED else "miss"
        return self._envelope(entry, mode)

    def _envelope(self, entry: _Entry, mode: str) -> Dict[str, Any]:
        return {
            "key": entry.job.key,
            "experiment": entry.job.experiment,
            "cache_key": entry.key,
            "status": entry.status,
            "payload": entry.payload,
            "error": entry.error,
            "wall_s": entry.wall_s,
            "provenance": {
                "job": entry.job.name,
                "cache_key": entry.key,
                "cache": mode,
                "fingerprint": self.fingerprint,
                "run_id": self.run_id,
            },
        }

    async def wait_submission(self, sub_id: str,
                              timeout: Optional[float] = None) -> None:
        sub = self._require_sub(sub_id)
        await asyncio.wait_for(sub.done.wait(), timeout)

    def cancel(self, client_id: str, sub_id: str) -> Dict[str, Any]:
        """Withdraw a client from a submission; queued jobs nobody else
        waits on are cancelled (running jobs finish and warm the cache)."""
        sub = self._require_sub(sub_id)
        if sub.client != client_id:
            raise QuotaError(f"submission {sub_id} belongs to another "
                             "client")
        dropped = 0
        for key in sorted(sub.remaining):
            entry = self._entries[key]
            entry.waiters = [w for w in entry.waiters
                             if w != (client_id, sub_id)]
            if not entry.waiters and entry.status == QUEUED:
                dropped += 1
                self._settle(entry, CANCELLED, None, "cancelled", 0.0,
                             None)
        sub.remaining.clear()
        record = self._emit("cancel", client=client_id, sub=sub_id,
                            dropped=dropped)
        sub.done.set()
        return record

    def _install(self, entry: _Entry) -> None:
        """Make ``entry`` the one known under its key (it may replace a
        failed or cancelled attempt at the same job)."""
        old = self._entries.get(entry.key)
        if old is not None:
            self._status_counts[old.status] -= 1
        self._entries[entry.key] = entry
        self._status_counts[entry.status] += 1

    def _move(self, entry: _Entry, status: str) -> None:
        self._status_counts[entry.status] -= 1
        entry.status = status
        self._status_counts[status] += 1

    def stats(self) -> Dict[str, Any]:
        counts = self._status_counts
        return {
            "run_id": self.run_id, "fingerprint": self.fingerprint,
            "cache_dir": self.cache_dir, "queued": counts[QUEUED],
            "running": counts[RUNNING],
            "done": sum(counts[status] for status in _TERMINAL),
            "executed": self.executed,
            "dedup_hits": self.dedup_hits, "cache_hits": self.cache_hits,
            "clients": {
                c.client_id: {"name": c.name, "priority": c.priority,
                              "inflight": c.inflight,
                              "submitted": c.submitted,
                              "dedup_hits": c.dedup_hits,
                              "cache_hits": c.cache_hits,
                              "denied": c.denied}
                for c in self.quotas.clients.values()},
        }

    def queue_snapshot(self) -> List[str]:
        """Cache keys in dispatch order (tests pin priority ordering)."""
        return [key for _p, _s, key in sorted(self._queue)
                if self._entries[key].status == QUEUED]

    def _require_sub(self, sub_id: str) -> _Submission:
        try:
            return self._subs[sub_id]
        except KeyError:
            raise KeyError(f"unknown submission {sub_id!r}") from None

    # -- execution ----------------------------------------------------------

    async def _dispatch(self) -> None:
        while not self._stopping:
            await self._kick.wait()
            self._kick.clear()
            while self._queue:
                entry = self._entries.get(self._queue[0][2])
                # Not queued any more: cancelled, or re-keyed meanwhile.
                live = entry is not None and entry.status == QUEUED
                if live and not self._runner.admits(entry.job):
                    break  # the head waits for slots to free
                heapq.heappop(self._queue)
                if live:
                    self._runner.launch(entry, entry.job)
            self._after_runner()

    async def _stats_loop(self) -> None:
        while not self._stopping:
            await asyncio.sleep(self.config.stats_interval)
            snap = self.stats()
            # Listener-only: periodic gauges would drown the journal.
            self._emit("stats", journal=False, queued=snap["queued"],
                       running=snap["running"], done=snap["done"],
                       dedup_hits=snap["dedup_hits"],
                       cache_hits=snap["cache_hits"],
                       clients=len(snap["clients"]))

    # -- the runner, driven from the loop -----------------------------------

    def _started(self, task: Any, worker: Optional[int]) -> None:
        entry = task.token
        entry.attempts = task.attempts
        self._move(entry, RUNNING)
        self._emit("start", cache_key=entry.key,
                   experiment=entry.job.experiment, key=entry.job.key,
                   client=entry.origin, attempt=entry.attempts,
                   worker=worker)

    def _done(self, task: Any, *result: Any) -> None:
        self._settle(task.token, *result)  # attempts: set by _started

    def _watch(self, worker: Any, alive: bool) -> None:
        fd = worker.conn.fileno()
        if alive:
            self._loop.add_reader(fd, self._ready, worker)
        else:
            self._loop.remove_reader(fd)

    def _ready(self, worker: Any) -> None:
        self._runner.ready(worker)
        self._after_runner()

    def _expire(self) -> None:
        self._timer = None
        self._runner.expire()
        self._after_runner()

    def _after_runner(self) -> None:
        """Give the loop what the runner now waits for: an in-process
        attempt to run on the thread, and its next deadline."""
        runner = self._runner
        if runner.pending:  # at most one: in-process, one job at a time
            task = runner.pending.popleft()
            self._inline = self._loop.run_in_executor(
                self._executor, attempt, task.job)
            self._inline.add_done_callback(
                functools.partial(self._attempted, task))
        deadline = runner.next_deadline()
        if self._timer is not None and self._timer.when() != deadline:
            self._timer.cancel()
            self._timer = None
        if deadline is not None and self._timer is None:
            self._timer = self._loop.call_at(deadline, self._expire)

    def _attempted(self, task: Any, future: asyncio.Future) -> None:
        if future.cancelled():
            return  # shut down meanwhile
        self._runner.settle(task, *future.result())
        self._after_runner()

    def _settle(self, entry: _Entry, status: str, payload: Any,
                error: Optional[str], wall: float,
                worker: Optional[int]) -> None:
        self._move(entry, status)
        entry.payload = payload
        entry.error = error
        entry.wall_s = wall
        entry.worker = worker
        if entry.counted:
            entry.counted = False
            origin = self.quotas.clients.get(entry.origin)
            if origin is not None:
                origin.inflight = max(0, origin.inflight - 1)
        if status == OK:
            self.executed += 1
            if self.store is not None:
                self.store.put(entry.key, entry.job, payload,
                               meta={"wall_s": wall,
                                     "fingerprint": self.fingerprint,
                                     "attempts": entry.attempts,
                                     "run_id": self.run_id})
        self._emit("job", cache_key=entry.key,
                   experiment=entry.job.experiment, key=entry.job.key,
                   outcome=status, wall_s=round(wall, 6), worker=worker,
                   attempts=entry.attempts, error=error,
                   cycles=_cycles_of(payload), client=entry.origin)
        for client_id, sub_id in entry.waiters:
            sub = self._subs.get(sub_id)
            if sub is None or entry.key not in sub.remaining:
                continue
            sub.remaining.discard(entry.key)
            if not sub.remaining:
                self._finish_submission(sub)
        entry.waiters = []
        if self._kick is not None:
            self._kick.set()

    def _finish_submission(self, sub: _Submission) -> None:
        if sub.done.is_set():
            return
        sub.done.set()
        counts: Dict[str, int] = {}
        for key in sub.keys:
            status = self._entries[key].status
            counts[status] = counts.get(status, 0) + 1
        self._emit("sub-done", sub=sub.sub_id, client=sub.client,
                   counts=counts)
