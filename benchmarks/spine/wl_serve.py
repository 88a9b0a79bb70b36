"""Path 3, a client of the shared daemon: ``repro.Client`` submit -> result.

``python -m repro serve`` runs as a subprocess; two connections drive it
in a closed loop: each sends its next submission only after the previous
result arrived, which is what every real caller does
(``Client.results(wait=True)``, ``repro sweep --server``).  The two are
``repro.serve.AsyncClient`` -- the transport ``repro.Client`` wraps -- on
one event loop in one thread: two ``Client`` objects would need a thread
each, and the interpreter lock handing over between them (5 ms switch
interval) put more scatter into the latencies than the daemon did.  The
one-at-a-time calls (warm-up, ``sim_batch``, ``stats``, shutdown) go
through the synchronous ``repro.Client``.  Three phases per pass:

* ``tiny_unique`` -- single-job submissions of barrier jobs never seen
  before (< 1 ms of simulation): protocol, scheduler, journal and store
  dominate; the first 200 are sent but not scored;
* ``dup`` -- the same specs again: answered from the store;
* ``sim_batch`` -- one submission of 20 fig10-tiny jobs: simulation
  dominates, the daemon's own cost almost vanishes.
"""

from __future__ import annotations

import asyncio
import gc
import subprocess
import sys
import time
from typing import Any, Dict, List, Tuple

import repro
from repro.serve import PROTOCOL_VERSION, AsyncClient, parse_address

import inputs
from common import (WORKERS, PathBase, children_of, median, percentile,
                    rss_high_water_mb, rss_now_mb)
from spans import OFF

CLIENTS = 2
SIM_BATCH = 20
#: Submissions at the head of each ``tiny_unique`` phase that are sent
#: but not scored: the daemon's first few hundred jobs after start (or
#: after a simulation batch) run measurably slower than its steady state.
UNSCORED = 200
#: ``dup`` re-submissions in an untraced run: enough for the payload
#: and accounting checks; the traced run repeats the whole phase.
DUP_UNTRACED = 100
OK_STATUSES = ("ok", "cached")


class ServePath(PathBase):
    name = "serve"

    def __init__(self, ctx: Any) -> None:
        super().__init__(ctx)
        self.n_tiny = 500 if ctx.smoke else 1000
        self.proc: Any = None
        self.address = ""
        self.client: Any = None             # synchronous, one at a time
        self.conns: List[Any] = []          # the closed-loop pair
        self.loop = asyncio.new_event_loop()
        self.start_s = 0.0
        self.batch = 0
        self.submitted = 0
        self.lat: List[float] = []          # tiny_unique submit -> result
        self.admit: List[float] = []        # tiny_unique submit only
        self.dup_lat: List[float] = []
        self.tiny_rates: List[float] = []
        self.dup_rates: List[float] = []
        self.sim_rates: List[float] = []
        self.sim_lat: List[float] = []
        self.busy_ratios: List[float] = []
        self.rss_base_mb = 0.0
        self.final: Dict[str, Any] = {}
        self.peak_mb = 0.0
        # Job lists are inputs: the first pass's are built during set-up.
        self._ready = self._jobs_for(0)

    def _jobs_for(self, batch: int) -> Tuple[List[Any], List[Any]]:
        seed = self.ctx.seed
        return (inputs.tiny_jobs(UNSCORED + self.n_tiny, seed, batch),
                inputs.sim_jobs(SIM_BATCH, seed, batch))

    # -- daemon lifecycle ---------------------------------------------------

    def start(self) -> None:
        """Daemon up, both clients connected, both workers forked and
        warm (one barrier job and one suite job each)."""
        ctx = self.ctx
        root = ctx.work.subdir("serve")
        t0 = time.perf_counter()
        self.proc = ctx.work.spawn(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--jobs", str(WORKERS), "--cache-dir", root + "/cache",
             "--journal", root + "/journal.jsonl"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        line = self.proc.stdout.readline()
        self.start_s = time.perf_counter() - t0
        if "listening on " not in line:
            raise RuntimeError(f"daemon did not start: {line!r}")
        self.address = line.split("listening on ")[1].split()[0]
        self.client = repro.Client(self.address, name="spine")
        self.conns = [AsyncClient(*parse_address(self.address))
                      for _ in range(CLIENTS)]
        for k, conn in enumerate(self.conns):
            self.loop.run_until_complete(conn.connect())
            hello = self.loop.run_until_complete(
                conn.request("hello", name=f"spine-{k}", priority=0))
            if hello.get("protocol") != PROTOCOL_VERSION:
                raise RuntimeError("daemon speaks another protocol")
        warm = (inputs.tiny_jobs(WORKERS, ctx.seed, 49)
                + inputs.sim_jobs(WORKERS, ctx.seed, 49))
        self._collect(warm, "serve: warm-up")
        self.rss_base_mb = rss_now_mb(self.proc.pid)

    def stop(self, final: bool = True) -> None:
        if self.proc is None:
            return
        if final:
            self._finish()
        for conn in self.conns:
            self.loop.run_until_complete(conn.close())
        self.conns = []
        try:
            self.client.shutdown_server()
        except Exception:  # noqa: BLE001 -- reap() kills it regardless
            pass
        self.client.close()
        self.loop.close()
        self.ctx.work.reap(self.proc)
        self.proc = None

    def _finish(self) -> None:
        """Last readings from the live daemon, then the accounting check."""
        ctx = self.ctx
        rtts = []
        for _ in range(5):
            t0 = time.perf_counter()
            stats = self.client.stats()
            rtts.append(time.perf_counter() - t0)
        self.final = {"stats": stats, "stats_rtt_s": median(rtts),
                      "rss_end_mb": rss_now_mb(self.proc.pid)}
        pids = [self.proc.pid] + children_of(self.proc.pid)
        self.peak_mb = max(rss_high_water_mb(pid) for pid in pids)
        ctx.check(
            "serve: executed + dedup_hits + cache_hits account for every job",
            stats["executed"] + stats["dedup_hits"] + stats["cache_hits"]
            == self.submitted)

    # -- submissions --------------------------------------------------------

    def _envelopes_ok(self, envelopes: List[dict], n: int, what: str) -> None:
        if (len(envelopes) != n
                or any(e["status"] not in OK_STATUSES for e in envelopes)):
            self.ctx.fail(f"{what}: envelope not ok/cached")

    def _collect(self, jobs: List[Any], what: str, rec: Any = OFF
                 ) -> Tuple[List[dict], float]:
        """One submission through ``repro.Client``, waited for."""
        self.ctx.attempt()
        t0 = time.perf_counter()
        with rec.span("serve.submit") as sp:
            sub = self.client.submit(jobs)
        with rec.span("serve.results", run=sub["sub"]):
            envelopes = self.client.results(sub["sub"], wait=True)
        total = time.perf_counter() - t0
        if sp is not None:
            sp.run = sub["sub"]
        self.submitted += len(jobs)
        self._envelopes_ok(envelopes, len(jobs), what)
        return envelopes, total

    def _closed_loop(self, jobs: List[Any], what: str, rec: Any, phase: Any
                     ) -> Tuple[float, List[float], List[float], List[Any]]:
        """Single-job submissions split over the two connections, each
        waiting for its reply before sending the next.  Returns (wall,
        admission latencies, submit->result latencies, payloads in job
        order)."""
        admits: List[float] = []
        totals: List[float] = []
        payloads: List[Any] = [None] * len(jobs)

        async def drive(k: int) -> None:
            conn = self.conns[k]
            for i in range(k, len(jobs), CLIENTS):
                wire = [jobs[i].to_wire()]
                t0 = time.perf_counter()
                sub = await conn.request("submit", jobs=wire, use_cache=True)
                t1 = time.perf_counter()
                reply = await conn.request("results", sub=sub["sub"],
                                           wait=True)
                t2 = time.perf_counter()
                rec.add("serve.submit", t0, t1, phase, sub["sub"], 2 + k)
                rec.add("serve.results", t1, t2, phase, sub["sub"], 2 + k)
                admits.append(t1 - t0)
                totals.append(t2 - t0)
                self._envelopes_ok(reply["results"], 1, what)
                payloads[i] = reply["results"][0]["payload"]

        async def both() -> None:
            await asyncio.gather(*(drive(k) for k in range(CLIENTS)))

        self.ctx.attempt(len(jobs))
        gc.collect()  # a collection in the client would read as latency
        t0 = time.perf_counter()
        self.loop.run_until_complete(both())
        wall = time.perf_counter() - t0
        self.submitted += len(jobs)
        return wall, admits, totals, payloads

    def run_pass(self, rec: Any) -> None:
        ctx = self.ctx
        tiny, sim = self._ready or self._jobs_for(self.batch)
        self._ready = None
        self.batch += 1
        timed = not rec.enabled

        with rec.span("serve.warm"):
            head_wall, _a, _t, _p = self._closed_loop(
                tiny[:UNSCORED], "serve: tiny_unique (unscored)", OFF, None)
        tiny = tiny[UNSCORED:]
        with rec.span("serve.tiny_unique") as phase:
            wall, admits, totals, originals = self._closed_loop(
                tiny, "serve: tiny_unique", rec, phase)
        common_wall = head_wall + wall  # phases both kinds of pass run fully
        if timed:
            self.tiny_rates.append(len(tiny) / wall)
            self.lat.extend(totals)
            self.admit.extend(admits)

        again = tiny if rec.enabled else tiny[:DUP_UNTRACED]
        with rec.span("serve.dup") as phase:
            wall, _admits, totals, dups = self._closed_loop(
                again, "serve: dup", rec, phase)
        ctx.check("serve: a dup payload equals its original",
                  dups == originals[:len(again)])
        if rec.enabled:  # the whole phase: only the traced run pays for it
            self.dup_rates.append(len(again) / wall)
            self.dup_lat.extend(totals)

        with rec.span("serve.sim_batch"):
            envs, total = self._collect(sim, "serve: sim_batch", rec)
        if timed:
            self.sim_rates.append(len(sim) / total)
            self.sim_lat.append(total)
            self.busy_ratios.append(
                sum(e.get("wall_s") or 0.0 for e in envs)
                / (WORKERS * total))

        # dup is left out of the pass wall: only the traced pass runs it
        # in full, and the overhead ratio wants like for like.
        self.note_pass(rec, common_wall + total)

    # -- metrics ------------------------------------------------------------

    def end_to_end(self) -> Dict[str, Any]:
        return {
            "serve_jobs_per_s": (median(self.tiny_rates), "1/s"),
            "serve_p50_ms": (1e3 * percentile(self.lat, 50), "ms"),
            "serve_p95_ms": (1e3 * percentile(self.lat, 95), "ms"),
            "serve_sim_jobs_per_s": (median(self.sim_rates), "1/s"),
        }

    def per_layer(self, rec: Any) -> Dict[str, Any]:
        stats = self.final["stats"]
        kjobs = self.submitted / 1000.0
        return {
            "serve.daemon_start_ms": (1e3 * self.start_s, "ms"),
            "serve.submit_rtt_p50_ms": (
                1e3 * percentile(self.admit, 50), "ms"),
            "serve.p99_ms": (1e3 * percentile(self.lat, 99), "ms"),
            "serve.dup_p50_ms": (1e3 * percentile(self.dup_lat, 50), "ms"),
            "serve.dup_jobs_per_s": (median(self.dup_rates), "1/s"),
            "serve.executed": (stats["executed"], "count"),
            "serve.dedup_hits": (stats["dedup_hits"], "count"),
            "serve.cache_hits": (stats["cache_hits"], "count"),
            "serve.stats_rtt_ms": (1e3 * self.final["stats_rtt_s"], "ms"),
            "serve.rss_growth_mb_per_kjob": (
                (self.final["rss_end_mb"] - self.rss_base_mb) / kjobs, "MB"),
            "serve.sim_batch_p50_ms": (1e3 * median(self.sim_lat), "ms"),
            "serve.worker_busy_ratio": (median(self.busy_ratios), "ratio"),
            **self.trace_overhead(),
        }
