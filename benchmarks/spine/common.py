"""Shared plumbing of the measurement spine: where the checkout is,
robust statistics, the host yardstick, resident-set accounting and the
one scratch directory every cache, journal and trace lives under.

Nothing here imports ``repro``; :func:`use_checkout` puts ``src/`` on
``sys.path`` (the benchmark runs from a bare checkout, never from an
installed package) and refuses to run where there is no program.
"""

from __future__ import annotations

import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, Iterable, List, Optional, Sequence

SPINE_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(SPINE_DIR))
SRC = os.path.join(ROOT, "src")
#: Everything the benchmark writes lives here (listed in .gitignore).
WORK_PARENT = os.path.join(SPINE_DIR, ".work")

#: Workers for every pool the benchmark starts (sweep, daemon, PDES).
#: Fixed, not derived from the host, so runs on different hosts ask the
#: program for the same thing; ``host.nproc`` records what was there.
WORKERS = 2


class NoProgram(RuntimeError):
    """The checkout holds the benchmark but not the program."""


def use_checkout() -> None:
    """Make ``import repro`` resolve to this checkout's ``src/``."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise NoProgram(f"no program to measure: {SRC}/repro is missing")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def child_env() -> Dict[str, str]:
    """Environment of every ``python -m repro`` subprocess."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONUNBUFFERED"] = "1"  # the daemon's "listening on" line
    env.pop("REPRO_SERVER", None)  # a sweep must not find a stray daemon
    return env


# -- statistics -------------------------------------------------------------

def median(values: Iterable[float]) -> float:
    return float(statistics.median(list(values)))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def geomean(values: Iterable[float]) -> float:
    vals = [float(v) for v in values]
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, the contract's steadiness figure."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / abs(mid) if mid else 0.0


# -- host yardstick ---------------------------------------------------------

def calibrate(rounds: int = 5, n: int = 200_000) -> float:
    """Interpreter operations per second on this host, right now.

    A fixed pure-Python loop (arithmetic, a dict store, a method call --
    the mix a discrete-event simulator spends its time in).  Best of
    ``rounds`` so a preempted round does not read as a slow host.
    """
    best = float("inf")
    for _ in range(rounds):
        table: Dict[int, int] = {}
        acc = 0
        t0 = time.perf_counter()
        for i in range(n):
            acc += i * 3 + (acc & 7)
            table[i & 1023] = acc
        best = min(best, time.perf_counter() - t0)
    return n / best


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover -- non-Linux
        return os.cpu_count() or 1


# -- resident set -----------------------------------------------------------

def _status_kb(pid: Any, field: str) -> Optional[int]:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        return None
    return None


def rss_high_water_mb(pid: Any = "self") -> float:
    """``VmHWM`` of a live process in MB (0.0 if it cannot be read)."""
    kb = _status_kb(pid, "VmHWM")
    return kb / 1024.0 if kb else 0.0


def rss_now_mb(pid: Any) -> float:
    kb = _status_kb(pid, "VmRSS")
    return kb / 1024.0 if kb else 0.0


def children_of(pid: int) -> List[int]:
    """Direct children of ``pid`` (Linux ``/proc`` scan)."""
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        # comm may contain spaces/parens: fields start after the last ')'.
        fields = stat[stat.rfind(")") + 2:].split()
        if int(fields[1]) == pid:
            out.append(int(entry))
    return out


def reaped_children_peak_mb() -> float:
    """Largest resident set of any descendant this process has waited
    for (CLI trees, the daemon and its workers, PDES shard workers)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


# -- what the four paths share ------------------------------------------------

class PathBase:
    """Pass bookkeeping common to the four user paths: the wall of every
    untraced pass, the wall of the traced one, and their ratio."""

    name = ""

    def __init__(self, ctx: Any) -> None:
        self.ctx = ctx
        self.pass_walls: List[float] = []
        self.traced_wall = 0.0

    def note_pass(self, rec: Any, wall: float) -> None:
        if rec.enabled:
            self.traced_wall = wall
        else:
            self.pass_walls.append(wall)

    def trace_overhead(self) -> Dict[str, Any]:
        return {f"bench.trace_overhead_x.{self.name}":
                (self.traced_wall / median(self.pass_walls), "x")}


# -- scratch directory and child processes ----------------------------------

class Work:
    """The run's one scratch directory plus every process group it owns.

    ``close`` (also wired to ``atexit`` and SIGTERM/SIGINT by the
    runner) kills every group, waits for every child and removes the
    directory, on every exit path.
    """

    def __init__(self, tag: str) -> None:
        os.makedirs(WORK_PARENT, exist_ok=True)
        self.root = tempfile.mkdtemp(prefix=f"{tag}-", dir=WORK_PARENT)
        self._procs: List[subprocess.Popen] = []
        self._n = 0
        self.closed = False
        # Pool and shard workers are forked from this process and inherit
        # its exit hooks; only the owner may kill groups and delete files.
        self.owner = os.getpid()

    def subdir(self, name: str) -> str:
        self._n += 1
        path = os.path.join(self.root, f"{name}-{self._n}")
        os.makedirs(path)
        return path

    def spawn(self, argv: List[str], **kwargs: Any) -> subprocess.Popen:
        """Start ``argv`` in its own session (= its own process group),
        with the scratch directory as cwd so a stray relative path --
        a default ``.repro-cache`` -- can never land in the repo."""
        proc = subprocess.Popen(argv, env=child_env(), cwd=self.root,
                                start_new_session=True, **kwargs)
        self._procs.append(proc)
        return proc

    def reap(self, proc: subprocess.Popen, timeout: float = 10.0) -> None:
        """Make sure ``proc`` and its whole group are gone."""
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            pass
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # stragglers of the group
        except (ProcessLookupError, PermissionError):
            pass
        proc.wait()
        for stream in (proc.stdout, proc.stderr, proc.stdin):
            if stream is not None:
                stream.close()
        if proc in self._procs:
            self._procs.remove(proc)

    def survivors(self) -> List[int]:
        """Pids still alive in any group this run started."""
        alive = []
        for proc in self._procs:
            try:
                os.killpg(proc.pid, 0)
                alive.append(proc.pid)
            except (ProcessLookupError, PermissionError):
                pass
        return alive

    def close(self) -> None:
        if self.closed or os.getpid() != self.owner:
            return
        self.closed = True
        for proc in list(self._procs):
            self.reap(proc, timeout=0.0)
        import multiprocessing

        for child in multiprocessing.active_children():  # PDES shard workers
            child.terminate()
            child.join(timeout=5.0)
        shutil.rmtree(self.root, ignore_errors=True)
