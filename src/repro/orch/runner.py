"""The job runner: the one attempt loop behind sweeps and the daemon.

A :class:`Runner` takes jobs one at a time from a driver and attempts
each until it settles.  It alone holds what makes that hard:

* **retry** -- a failed, crashed or timed-out attempt is retried at
  once, keeping the job's slots, until its attempt budget
  (``Job.retries`` + 1) is spent;
* **per-attempt deadline** -- a worker past it is terminated (outcome
  ``timeout``);
* **crash replacement** -- a dead or killed worker leaves the pool, and
  the next attempt that needs one forks a fresh worker;
* **the slot ledger** -- a job is charged ``Job.procs`` slots (capped
  at the pool size), so nested PDES pools never oversubscribe the host;
* **the worker budget** -- every attempt runs with its grant exported
  as :data:`WORKER_BUDGET_ENV`.

Workers are plain ``multiprocessing`` processes, each on its own duplex
pipe, so the runner always knows which job a worker holds.  ``workers
<= 0`` attempts jobs in the driver's process instead, one at a time
(no process boundary, so no deadline).

Two drivers decide only *when*: :func:`run_jobs` (the sweep) blocks in
:meth:`Runner.step`, and :class:`repro.serve.Scheduler` (the daemon)
watches the same pipes and deadlines from its event loop.
"""

from __future__ import annotations

import os
import signal
import time
import weakref
from collections import deque
from dataclasses import dataclass
from typing import (Any, Callable, Deque, Dict, List, Mapping, Optional,
                    Sequence, Set, Tuple)

from .cache import ResultStore, cache_key
from .fingerprint import code_fingerprint
from .job import Job, execute, preload
from .journal import RunJournal

#: Terminal job states.
OK, CACHED, FAILED, TIMEOUT, CANCELLED = (
    "ok", "cached", "failed", "timeout", "cancelled")

#: Process budget exported to every attempt's environment: how many
#: worker processes the job itself may spawn (``Job.procs``, the slot
#: grant the runner charged for it).  ``repro.pdes.resolve_workers``
#: clamps shard-worker requests to it, so a multi-Cell job inside a pool
#: never nests a second full-width pool on the same host.
WORKER_BUDGET_ENV = "REPRO_WORKER_BUDGET"

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
    """Execute jobs through the cache + runner; outcomes align with
    ``jobs``.  Ctrl-C stops the run and still settles (and journals)
    every unfinished job as ``cancelled``."""
    fingerprint = fingerprint or code_fingerprint()
    keys = list(keys) if keys is not None else [
        cache_key(job, fingerprint) for job in jobs]
    if len(keys) != len(jobs):
        raise ValueError("keys must align with jobs")
    outcomes: List[Any] = [None] * len(jobs)
    tracker = _Progress(progress, total=len(jobs))

    def settle(idx: int, status: str, payload: Any = None,
               error: Optional[str] = None, wall: float = 0.0,
               worker: Optional[int] = None, attempts: int = 0) -> None:
        outcome = outcomes[idx] = JobOutcome(
            jobs[idx], keys[idx], status, payload=payload, error=error,
            wall_s=wall, worker=worker, attempts=attempts)
        if journal is not None:
            journal.write_job(
                experiment=outcome.job.experiment, key=outcome.job.key,
                cache_key=outcome.key, outcome=status,
                wall_s=round(wall, 6), worker=worker, attempts=attempts,
                error=error, cycles=_cycles_of(payload))
        if status == OK and store is not None:
            store.put(outcome.key, outcome.job, payload,
                      meta={"wall_s": wall, "fingerprint": fingerprint,
                            "attempts": attempts})
        tracker.report(outcome)

    def done(task: _Task, *result: Any) -> None:
        settle(task.token, *result, attempts=task.attempts)

    queue: Deque[int] = deque()
    for idx, key in enumerate(keys):
        record = store.get(key) if (use_cache and store is not None) else None
        if record is not None:
            settle(idx, CACHED, record["payload"])
        else:
            queue.append(idx)
    runner = Runner(workers, default_timeout, on_done=done)
    try:
        while queue or runner.tasks:
            while queue and runner.admits(jobs[queue[0]]):
                idx = queue.popleft()
                runner.launch(idx, jobs[idx])
            if runner.tasks:
                runner.step()
    except KeyboardInterrupt:
        unsettled = {idx: 0 for idx in queue}
        unsettled.update((task.token, task.attempts) for task in runner.tasks)
        for idx in sorted(unsettled):
            settle(idx, CANCELLED, error="interrupted",
                   attempts=unsettled[idx])
    finally:
        runner.close()
    return outcomes


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


# ---------------------------------------------------------------------------
# One attempt, wherever it runs.

def attempt(job: Job) -> Tuple[str, Any, float]:
    """Attempt ``job`` in this process: ``(status, payload or error,
    wall_s)``.

    The job's slot grant is exported as :data:`WORKER_BUDGET_ENV` for the
    attempt (nested PDES shard pools size themselves from it), and the
    caller's own value is restored afterwards.
    """
    previous = os.environ.get(WORKER_BUDGET_ENV)
    os.environ[WORKER_BUDGET_ENV] = str(max(job.procs, 1))
    t0 = time.perf_counter()
    try:
        return OK, execute(job), time.perf_counter() - t0
    except Exception as exc:  # noqa: BLE001 -- retried/reported
        return (FAILED, f"{type(exc).__name__}: {exc}",
                time.perf_counter() - t0)
    finally:
        if previous is None:
            os.environ.pop(WORKER_BUDGET_ENV, None)
        else:
            os.environ[WORKER_BUDGET_ENV] = previous


#: The parent end of every worker pipe this process holds open.  Per
#: process, not per Runner: a fork copies every open descriptor of the
#: process, whichever Runner opened it.
_PARENT_ENDS: "weakref.WeakSet[Any]" = weakref.WeakSet()


def _worker_main(conn: Any, parent_ends: Sequence[Any]) -> None:
    """Child loop: receive a job, attempt it, send the result back.

    ``parent_ends`` are the parent's pipe ends a forked child inherited
    copies of -- its own and its earlier siblings'.  Unless it closes
    them, no worker ever reads EOF from a parent that was killed
    outright, and all of them block in ``recv`` for good.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent owns Ctrl-C
    for end in parent_ends:
        end.close()
    while True:
        try:
            job = conn.recv()
        except (EOFError, OSError):
            break
        if job is None:
            break
        conn.send(attempt(job))
    conn.close()


class _Worker:
    __slots__ = ("proc", "conn", "wid", "task", "deadline")

    def __init__(self, ctx: Any, wid: int) -> None:
        parent, child = ctx.Pipe(duplex=True)
        # Non-daemonic on purpose: a daemonic process may not fork
        # children, which would bar multi-Cell PDES jobs (procs > 1)
        # from spawning their shard workers.  Cleanup still converges:
        # the worker loop exits on pipe EOF, so workers never outlive a
        # parent that died without the explicit shutdown handshake.
        inherited = [end for end in _PARENT_ENDS if not end.closed]
        self.proc = ctx.Process(target=_worker_main,
                                args=(child, inherited + [parent]),
                                daemon=False)
        self.proc.start()
        child.close()  # the parent keeps only its end
        _PARENT_ENDS.add(parent)
        self.conn = parent
        self.wid = wid
        self.task: Optional[_Task] = None
        self.deadline: Optional[float] = None

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


# ---------------------------------------------------------------------------
# The runner proper.

class _Task:
    """One launched job, from its first attempt until it settles."""

    __slots__ = ("token", "job", "cost", "limit", "attempts")

    def __init__(self, token: Any, job: Job, cost: int,
                 limit: Optional[float]) -> None:
        self.token = token  # the driver's handle on the job
        self.job = job
        self.cost = cost  # slots charged against the ledger
        self.limit = limit  # seconds per attempt, or None
        self.attempts = 0


def _ignore(*_args: Any) -> None:
    return None


class Runner:
    """See the module docstring.

    Callbacks: ``on_start(task, worker_id)`` as each attempt begins,
    ``on_done(task, status, payload, error, wall_s, worker_id)`` once
    the job settles, and ``watch(worker, alive)`` right after a worker
    is forked (``True``) and right before it is killed (``False``), for
    a driver that registers the pipes with a selector of its own.
    """

    def __init__(self, workers: int, default_timeout: Optional[float] = None,
                 *, on_start: Callable[..., None] = _ignore,
                 on_done: Callable[..., None] = _ignore,
                 watch: Callable[[_Worker, bool], None] = _ignore) -> None:
        self.workers = workers
        self.default_timeout = default_timeout
        self.on_start = on_start
        self.on_done = on_done
        self.watch = watch
        self.tasks: Set[_Task] = set()  # launched and not yet settled
        #: In-process mode: attempts waiting for the driver to run them
        #: (with :func:`attempt`, then :meth:`settle`).
        self.pending: Deque[_Task] = deque()
        self.pool: List[_Worker] = []
        self._idle: List[_Worker] = []
        self._held = 0  # slots charged to running tasks
        self._next_wid = 0

    def admits(self, job: Job) -> bool:
        """Whether the ledger has room for ``job`` now.  An idle runner
        always admits (a cost is capped at the pool size), so an
        oversized job waits for the pool to drain but never starves."""
        return not self._held or self._held + self._cost(job) <= self.workers

    def _cost(self, job: Job) -> int:
        return min(max(job.procs, 1), max(self.workers, 1))

    def launch(self, token: Any, job: Job) -> None:
        """Charge ``job``'s slots and begin its first attempt."""
        limit = job.timeout_s if job.timeout_s is not None \
            else self.default_timeout
        task = _Task(token, job, self._cost(job), limit)
        if self.workers > 0:
            # Before a worker may fork, this process imports what the
            # job will (once -- later calls find it loaded): workers
            # inherit the simulator, a run served from the cache never
            # loads it, and a typo fails here without a fork.
            error = preload(job.fn)
            if error:
                self.on_done(task, FAILED, None, error, 0.0, None)
                return
        self._held += task.cost
        self.tasks.add(task)
        self._attempt(task)

    def _attempt(self, task: _Task) -> None:
        task.attempts += 1
        if self.workers <= 0:
            self.on_start(task, None)
            self.pending.append(task)
            return
        worker = self._idle.pop() if self._idle else self._spawn()
        self.on_start(task, worker.wid)
        worker.task = task
        worker.deadline = (time.monotonic() + task.limit) if task.limit \
            else None
        worker.conn.send(task.job)

    def settle(self, task: _Task, status: str, result: Any, wall: float,
               wid: Optional[int] = None) -> None:
        """Apply the retry policy to one finished attempt: ``result`` is
        the payload when ``status`` is ok, else the error."""
        if status != OK and task.attempts <= task.job.retries:
            self._attempt(task)  # at once, on an idle or fresh worker
            return
        self.tasks.discard(task)
        self._held -= task.cost
        if status == OK:
            self.on_done(task, OK, result, None, wall, wid)
        else:
            self.on_done(task, status, None, result, wall, wid)

    # -- what drivers hand back ---------------------------------------------

    def ready(self, worker: _Worker) -> None:
        """``worker``'s pipe is readable: its attempt finished, or the
        worker died."""
        task = worker.task
        try:
            status, result, wall = worker.conn.recv()
        except (EOFError, OSError):  # the worker crashed outright
            self._retire(worker)
            if task is not None:
                self.settle(task, FAILED, "worker process died", 0.0,
                            worker.wid)
            return
        worker.task = worker.deadline = None
        self._idle.append(worker)
        self.settle(task, status, result, wall, worker.wid)

    def expire(self) -> None:
        """Terminate every worker past its attempt's deadline."""
        now = time.monotonic()
        for worker in [w for w in self.pool
                       if w.deadline is not None and now >= w.deadline]:
            task = worker.task
            self._retire(worker)
            self.settle(task, TIMEOUT, f"timed out after {task.limit:g}s",
                        task.limit, worker.wid)

    def next_deadline(self) -> Optional[float]:
        """The earliest running attempt's deadline (``time.monotonic``)."""
        return min((w.deadline for w in self.pool if w.deadline is not None),
                   default=None)

    def step(self) -> None:
        """Block until at least one attempt finishes or expires."""
        if self.pending:
            task = self.pending.popleft()
            self.settle(task, *attempt(task.job))
            return
        from multiprocessing import connection

        busy = {w.conn: w for w in self.pool if w.task is not None}
        deadline = self.next_deadline()
        timeout = None if deadline is None \
            else max(0.0, deadline - time.monotonic())
        for conn in connection.wait(list(busy), timeout):
            self.ready(busy[conn])
        self.expire()

    def close(self) -> None:
        """Stop every worker (running attempts are abandoned)."""
        for worker in list(self.pool):
            if worker.task is None:
                try:
                    worker.conn.send(None)  # polite shutdown
                except OSError:
                    pass
            self._retire(worker)

    # -- the pool -----------------------------------------------------------

    def _spawn(self) -> _Worker:
        worker = _Worker(_context(), self._next_wid)
        self._next_wid += 1
        self.pool.append(worker)
        self.watch(worker, True)
        return worker

    def _retire(self, worker: _Worker) -> None:
        self.watch(worker, False)
        worker.kill()
        self.pool.remove(worker)
        if worker in self._idle:
            self._idle.remove(worker)
