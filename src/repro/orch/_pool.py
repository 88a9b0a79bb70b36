"""The scheduler: a multiprocessing worker pool for job sweeps.

Workers are plain ``multiprocessing`` processes, each connected to the
scheduler by its own duplex pipe, so the scheduler always knows which
job every worker holds.  That makes the hard cases cheap:

* **per-job timeout** -- a worker past its deadline is terminated and a
  fresh one spawned; the job is retried or marked ``timeout``;
* **bounded retry** -- a failing/crashing job is re-queued until its
  attempt budget (``Job.retries`` + 1) is spent;
* **graceful Ctrl-C** -- workers ignore SIGINT; the scheduler catches
  the interrupt, terminates the pool, marks unfinished jobs
  ``cancelled`` and still returns (and journals) every outcome;
* **progress/ETA** -- every completion is reported with a running ETA
  estimated from the mean computed-job wall time.

``workers <= 0`` selects in-process serial execution with identical
cache/journal semantics (timeouts need a process boundary and are not
enforced there).
"""

from __future__ import annotations

import os
import signal
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional

from .cache import ResultStore, cache_key
from .fingerprint import code_fingerprint
from .job import Job, execute, preload
from .journal import RunJournal

#: Terminal job states.
OK, CACHED, FAILED, TIMEOUT, CANCELLED = (
    "ok", "cached", "failed", "timeout", "cancelled")

#: Process budget exported to every job's environment: how many worker
#: processes the job itself may spawn (``Job.procs``, the slot grant the
#: scheduler charged for it).  ``repro.pdes.resolve_workers`` clamps
#: shard-worker requests to it, so a multi-Cell job inside a pool never
#: nests a second full-width pool on the same host.
WORKER_BUDGET_ENV = "REPRO_WORKER_BUDGET"


def _job_cost(job: Job, workers: int) -> int:
    """Scheduler slots a job occupies (its process budget, capped)."""
    return min(max(job.procs, 1), max(workers, 1))

ProgressFn = Callable[["JobOutcome", int, int, Optional[float]], None]


@dataclass
class JobOutcome:
    """What happened to one job of a sweep."""

    job: Job
    key: str
    status: str
    payload: Optional[Any] = None
    error: Optional[str] = None
    wall_s: float = 0.0
    worker: Optional[int] = None
    attempts: int = 0

    @property
    def ok(self) -> bool:
        return self.status in (OK, CACHED)


def execute_serial(jobs: List[Job]) -> Dict[str, Any]:
    """Run jobs in-process with no cache; returns ``{job.key: payload}``.

    This is what every experiment's ``run()`` uses, so the figure
    harnesses stay importable, debuggable functions while sharing the
    exact execution path (:func:`repro.orch.job.execute`) with the pool.
    """
    return {job.key: execute(job) for job in jobs}


def run_jobs(jobs: List[Job], *, workers: int = 1,
             store: Optional[ResultStore] = None,
             fingerprint: Optional[str] = None,
             keys: Optional[List[str]] = None,
             journal: Optional[RunJournal] = None,
             default_timeout: Optional[float] = None,
             use_cache: bool = True,
             progress: Optional[ProgressFn] = None) -> List[JobOutcome]:
    """Execute jobs through the cache + pool; outcomes align with ``jobs``."""
    fingerprint = fingerprint or code_fingerprint()
    keys = list(keys) if keys is not None else [
        cache_key(job, fingerprint) for job in jobs]
    if len(keys) != len(jobs):
        raise ValueError("keys must align with jobs")
    outcomes: List[Optional[JobOutcome]] = [None] * len(jobs)
    tracker = _Progress(progress, total=len(jobs))

    def settle(idx: int, outcome: JobOutcome) -> None:
        outcomes[idx] = outcome
        if journal is not None:
            journal.write_job(
                experiment=outcome.job.experiment, key=outcome.job.key,
                cache_key=outcome.key, outcome=outcome.status,
                wall_s=round(outcome.wall_s, 6), worker=outcome.worker,
                attempts=outcome.attempts, error=outcome.error,
                cycles=_cycles_of(outcome.payload))
        if outcome.status == OK and store is not None:
            store.put(outcome.key, outcome.job, outcome.payload,
                      meta={"wall_s": outcome.wall_s,
                            "fingerprint": fingerprint,
                            "attempts": outcome.attempts})
        tracker.report(outcome)

    misses: List[int] = []
    for idx, (job, key) in enumerate(zip(jobs, keys)):
        record = store.get(key) if (use_cache and store is not None) else None
        if record is not None:
            settle(idx, JobOutcome(job, key, CACHED,
                                   payload=record["payload"]))
        else:
            misses.append(idx)
    if misses and workers > 0:
        # The workers fork from a parent that already holds everything
        # the missed jobs will import; a path that does not resolve here
        # cannot resolve there either, so it fails without a fork.
        broken = {fn: error for fn in {jobs[idx].fn for idx in misses}
                  if (error := preload(fn))}
        for idx in misses:
            if jobs[idx].fn in broken:
                settle(idx, JobOutcome(jobs[idx], keys[idx], FAILED,
                                       error=broken[jobs[idx].fn]))
        misses = [idx for idx in misses if jobs[idx].fn not in broken]
    if misses:
        if workers <= 0:
            _run_inprocess(jobs, keys, misses, settle)
        else:
            _run_pool(jobs, keys, misses, settle, workers, default_timeout)
    # Anything never settled (defensive: should only happen on interrupt
    # races) counts as cancelled rather than crashing the reduce step.
    return [o if o is not None else JobOutcome(jobs[i], keys[i], CANCELLED)
            for i, o in enumerate(outcomes)]


def collect_payloads(outcomes: List[JobOutcome]) -> Dict[str, Any]:
    """``{cache_key: payload}`` with ``None`` for unfinished jobs."""
    return {o.key: (o.payload if o.ok else None) for o in outcomes}


def _cycles_of(payload: Any) -> Optional[float]:
    if isinstance(payload, Mapping) and isinstance(
            payload.get("cycles"), (int, float)):
        return payload["cycles"]
    return None


class _Progress:
    def __init__(self, fn: Optional[ProgressFn], total: int) -> None:
        self.fn = fn
        self.total = total
        self.done = 0
        self.computed_wall = 0.0
        self.computed = 0

    def report(self, outcome: JobOutcome) -> None:
        self.done += 1
        if outcome.status == OK:
            self.computed += 1
            self.computed_wall += outcome.wall_s
        if self.fn is not None:
            eta = None
            if self.computed:
                mean = self.computed_wall / self.computed
                eta = mean * (self.total - self.done)
            self.fn(outcome, self.done, self.total, eta)


def _run_inprocess(jobs: List[Job], keys: List[str], misses: List[int],
                   settle: Callable[[int, JobOutcome], None]) -> None:
    queue = deque(misses)
    attempts = {idx: 0 for idx in misses}
    current: Optional[int] = None
    try:
        while queue:
            idx = current = queue.popleft()
            attempts[idx] += 1
            t0 = time.perf_counter()
            previous = os.environ.get(WORKER_BUDGET_ENV)
            os.environ[WORKER_BUDGET_ENV] = str(max(jobs[idx].procs, 1))
            try:
                payload = execute(jobs[idx])
            except KeyboardInterrupt:
                raise
            except Exception as exc:  # noqa: BLE001 -- retried/reported
                wall = time.perf_counter() - t0
                if attempts[idx] <= jobs[idx].retries:
                    queue.append(idx)
                else:
                    settle(idx, JobOutcome(
                        jobs[idx], keys[idx], FAILED,
                        error=f"{type(exc).__name__}: {exc}",
                        wall_s=wall, attempts=attempts[idx]))
            else:
                settle(idx, JobOutcome(
                    jobs[idx], keys[idx], OK, payload=payload,
                    wall_s=time.perf_counter() - t0,
                    attempts=attempts[idx]))
            finally:
                if previous is None:
                    os.environ.pop(WORKER_BUDGET_ENV, None)
                else:
                    os.environ[WORKER_BUDGET_ENV] = previous
            current = None
    except KeyboardInterrupt:
        cancelled = set(queue)
        if current is not None:
            cancelled.add(current)
        for idx in sorted(cancelled):
            settle(idx, JobOutcome(jobs[idx], keys[idx], CANCELLED,
                                   attempts=attempts[idx]))


# ---------------------------------------------------------------------------
# The process pool proper.

def _worker_main(conn: Any, worker_id: int) -> None:
    """Child loop: receive (idx, job), execute, send the result back."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # parent owns Ctrl-C
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        if msg is None:
            break
        idx, job = msg
        # The job's slot grant, visible to anything it spawns (nested
        # PDES shard pools size themselves from this).
        os.environ[WORKER_BUDGET_ENV] = str(max(job.procs, 1))
        t0 = time.perf_counter()
        try:
            payload = execute(job)
        except BaseException as exc:  # noqa: BLE001 -- serialized to parent
            conn.send((idx, FAILED, f"{type(exc).__name__}: {exc}",
                       time.perf_counter() - t0, worker_id))
        else:
            conn.send((idx, OK, payload,
                       time.perf_counter() - t0, worker_id))
    conn.close()


class _Worker:
    __slots__ = ("proc", "conn", "task", "deadline", "wid")

    def __init__(self, ctx: Any, wid: int) -> None:
        parent, child = ctx.Pipe(duplex=True)
        # Non-daemonic on purpose: a daemonic process may not fork
        # children, which would bar multi-Cell PDES jobs (procs > 1)
        # from spawning their shard workers.  Cleanup still converges:
        # the worker loop exits on pipe EOF, so workers never outlive a
        # parent that died without the explicit shutdown handshake.
        self.proc = ctx.Process(target=_worker_main, args=(child, wid),
                                daemon=False)
        self.proc.start()
        child.close()  # parent keeps only its end
        self.conn = parent
        self.task: Optional[int] = None
        self.deadline: Optional[float] = None
        self.wid = wid

    def assign(self, idx: int, job: Job,
               default_timeout: Optional[float]) -> None:
        self.task = idx
        limit = job.timeout_s if job.timeout_s is not None else default_timeout
        self.deadline = (time.monotonic() + limit) if limit else None
        self.conn.send((idx, job))

    def kill(self) -> None:
        try:
            self.conn.close()
        except OSError:
            pass
        if self.proc.is_alive():
            self.proc.terminate()
        self.proc.join(timeout=5.0)


def _context() -> Any:
    # Imported by the functions that fork: a cached sweep and a
    # hits-only daemon never start a process, and should not pay for
    # loading the machinery that does.
    import multiprocessing

    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")


def _run_pool(jobs: List[Job], keys: List[str], misses: List[int],
              settle: Callable[[int, JobOutcome], None], workers: int,
              default_timeout: Optional[float]) -> None:
    from multiprocessing import connection

    ctx = _context()
    queue = deque(misses)
    attempts = {idx: 0 for idx in misses}
    unsettled = set(misses)
    pool = [_Worker(ctx, wid) for wid in range(min(workers, len(misses)))]
    next_wid = len(pool)
    idle = list(pool)
    # Slot ledger: a job holding `procs` worker processes of its own
    # (nested PDES shard pools) is charged that many scheduler slots, so
    # total host processes stay bounded by `workers` even when multi-Cell
    # jobs mix with ordinary ones.  A fully idle pool always admits the
    # head job (its cost is capped at `workers`), so nothing starves.
    held: Dict[int, int] = {}  # worker id -> slots charged

    def finish(idx: int, status: str, payload: Any, error: Optional[str],
               wall: float, wid: Optional[int]) -> None:
        unsettled.discard(idx)
        settle(idx, JobOutcome(jobs[idx], keys[idx], status, payload=payload,
                               error=error, wall_s=wall, worker=wid,
                               attempts=attempts[idx]))

    def retry_or(idx: int, status: str, error: str, wall: float,
                 wid: Optional[int]) -> None:
        if attempts[idx] <= jobs[idx].retries:
            queue.append(idx)
        else:
            finish(idx, status, None, error, wall, wid)

    try:
        while queue or any(w.task is not None for w in pool):
            while queue and idle:
                cost = _job_cost(jobs[queue[0]], workers)
                in_use = sum(held.values())
                if in_use and in_use + cost > workers:
                    break  # wait for slots to free before admitting
                worker = idle.pop()
                idx = queue.popleft()
                attempts[idx] += 1
                held[worker.wid] = cost
                worker.assign(idx, jobs[idx], default_timeout)
            busy = [w for w in pool if w.task is not None]
            if not busy:
                continue
            now = time.monotonic()
            deadlines = [w.deadline for w in busy if w.deadline is not None]
            wait_s = max(0.0, min(deadlines) - now) if deadlines else None
            ready = connection.wait([w.conn for w in busy], timeout=wait_s)
            for conn in ready:
                worker = next(w for w in busy if w.conn is conn)
                idx = worker.task
                worker.task = worker.deadline = None
                held.pop(worker.wid, None)
                try:
                    _idx, status, result, wall, wid = conn.recv()
                except (EOFError, OSError):  # the worker crashed outright
                    worker.kill()
                    pool.remove(worker)
                    replacement = _Worker(ctx, next_wid)
                    next_wid += 1
                    pool.append(replacement)
                    idle.append(replacement)
                    retry_or(idx, FAILED, "worker process died", 0.0,
                             worker.wid)
                    continue
                idle.append(worker)
                if status == OK:
                    finish(idx, OK, result, None, wall, wid)
                else:
                    retry_or(idx, FAILED, result, wall, wid)
            now = time.monotonic()
            for worker in list(pool):
                if (worker.task is not None and worker.deadline is not None
                        and now >= worker.deadline):
                    idx = worker.task
                    held.pop(worker.wid, None)
                    worker.kill()
                    pool.remove(worker)
                    if worker in idle:
                        idle.remove(worker)
                    replacement = _Worker(ctx, next_wid)
                    next_wid += 1
                    pool.append(replacement)
                    idle.append(replacement)
                    limit = (jobs[idx].timeout_s
                             if jobs[idx].timeout_s is not None
                             else default_timeout)
                    retry_or(idx, TIMEOUT, f"timed out after {limit:g}s",
                             limit or 0.0, worker.wid)
    except KeyboardInterrupt:
        for idx in sorted(unsettled):
            finish(idx, CANCELLED, None, "interrupted", 0.0, None)
    finally:
        for worker in pool:
            if worker.task is None:
                try:
                    worker.conn.send(None)  # polite shutdown
                except (OSError, BrokenPipeError):
                    pass
            worker.kill()
