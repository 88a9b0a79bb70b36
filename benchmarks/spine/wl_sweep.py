"""Path 2, regenerating figures: ``python -m repro sweep`` cold, then warm.

Cold is interpreter start + plan + simulation through the worker pool +
cache and journal writes; warm is interpreter start + fingerprint + plan
+ cache reads + reduce + render, with no simulation at all.  An engine
speed-up must move cold and leave warm alone; an orchestrator change
shows in warm first.  Both are timed as whole processes, from outside.
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
import time
from typing import Any, Dict, List, Tuple

import repro.orch as orch
from repro.experiments import HARNESSES

from common import WORKERS, PathBase, median

#: Ten jobs (the suite on HB-16x8), ~1.3 s of simulation on 2 workers.
#: fig10 (100 jobs, ~9 s cold) does not fit the contract's run budget;
#: see README.md, "Sizing".
FIGURE = "fig11"
SIZE = "tiny"
WARM_PER_COLD = 2


def _figure_body(stdout: str) -> str:
    """The rendered figure: from its banner up to the summary line."""
    start = stdout.find("##########")
    end = stdout.rfind(f"\nsweep {FIGURE}:")
    return stdout[start:end] if start >= 0 and end > start else ""


class SweepPath(PathBase):
    name = "sweep"

    def __init__(self, ctx: Any) -> None:
        super().__init__(ctx)
        self.cold_s: List[float] = []
        self.warm_s: List[float] = []
        self.job_wall_sums: List[float] = []
        self.idle_ratios: List[float] = []
        self.jobs_ok = 0
        self.jobs_cached = 0
        self.drive: Dict[str, Tuple[float, str]] = {}
        self.jobs = len(HARNESSES[FIGURE].jobs(size=SIZE))

    def _sweep(self, cache_dir: str, tag: str) -> Tuple[float, str, List[dict]]:
        """One CLI invocation; returns (process wall, stdout, job records)."""
        journal = os.path.join(cache_dir, f"{tag}.jsonl")
        argv = [sys.executable, "-m", "repro", "sweep", FIGURE,
                "--size", SIZE, "--jobs", str(WORKERS),
                "--cache-dir", os.path.join(cache_dir, "cache"),
                "--journal", journal]
        self.ctx.attempt()
        t0 = time.perf_counter()
        proc = self.ctx.work.spawn(argv, stdout=subprocess.PIPE,
                                   stderr=subprocess.PIPE, text=True)
        stdout, stderr = proc.communicate()
        wall = time.perf_counter() - t0
        self.ctx.work.reap(proc)
        if proc.returncode != 0:
            self.ctx.fail(f"sweep: {tag} exited {proc.returncode}: "
                          f"{stderr.strip()[-200:]}")
        records = [r for r in orch.read_journal(journal)
                   if r.get("event") == "job"]
        return wall, stdout, records

    def run_pass(self, rec: Any) -> None:
        ctx = self.ctx
        t_pass = time.perf_counter()
        cache_dir = ctx.work.subdir("sweep")  # fresh: this run is cold
        with rec.span("sweep.cold", run=os.path.basename(cache_dir)):
            wall, cold_out, records = self._sweep(cache_dir, "cold")
        outcomes = [r.get("outcome") for r in records]
        ctx.check("sweep: cold run executed every job",
                  outcomes == ["ok"] * self.jobs)
        if not rec.enabled:
            self.cold_s.append(wall)
            job_wall = sum(r.get("wall_s") or 0.0 for r in records)
            self.job_wall_sums.append(job_wall)
            self.idle_ratios.append(1.0 - job_wall / (WORKERS * wall))
            self.jobs_ok = outcomes.count("ok")
        for k in range(WARM_PER_COLD):
            with rec.span("sweep.warm", run=os.path.basename(cache_dir)):
                wall, warm_out, records = self._sweep(cache_dir, f"warm{k}")
            outcomes = [r.get("outcome") for r in records]
            ctx.check("sweep: warm run served every job from the cache",
                      outcomes == ["cached"] * self.jobs)
            ctx.check("sweep: warm figure byte-identical to cold",
                      bool(_figure_body(cold_out))
                      and _figure_body(warm_out) == _figure_body(cold_out))
            if not rec.enabled:
                self.warm_s.append(wall)
                self.jobs_cached = outcomes.count("cached")
        self.note_pass(rec, time.perf_counter() - t_pass)

    # -- the orchestrator driven in-process (traced run only) ---------------

    def run_drive(self, rec: Any) -> None:
        """Each orch call on its own, on the first and last rung of the
        fig10 ladder (20 jobs): enough to report the paper's one anchor,
        the final geomean speed-up, beside the per-call costs."""
        ctx = self.ctx
        fig10 = HARNESSES["fig10"]
        ladder = fig10.jobs(size=SIZE)
        per_rung = len(ladder) // 10
        jobs = ladder[:per_rung] + ladder[-per_rung:]
        root = ctx.work.subdir("orch")

        cli: List[float] = []
        for _ in range(3):
            ctx.attempt()
            t0 = time.perf_counter()
            proc = ctx.work.spawn([sys.executable, "-m", "repro", "--version"],
                                  stdout=subprocess.DEVNULL)
            proc.wait()
            cli.append(time.perf_counter() - t0)
            ctx.work.reap(proc)
            if proc.returncode != 0:
                ctx.fail("sweep: python -m repro --version failed")
        self.drive["orch.cli_import_ms"] = (1e3 * median(cli), "ms")

        with rec.span("orch.fingerprint") as sp:
            fingerprint = orch.code_fingerprint()
        self.drive["orch.fingerprint_ms"] = (1e3 * (sp.end - sp.start), "ms")
        with rec.span("orch.plan") as sp:
            plan = orch.build_plan([orch.Sweep("fig10", jobs, fig10.reduce)],
                                   fingerprint)
        self.drive["orch.plan_ms"] = (1e3 * (sp.end - sp.start), "ms")
        keys = [plan.key_of[id(job)] for job in plan.unique_jobs]

        ctx.attempt(len(jobs))
        with rec.span("orch.run_jobs"):
            outcomes = orch.run_jobs(plan.unique_jobs, workers=WORKERS,
                                     fingerprint=fingerprint, keys=keys)
        bad = [o for o in outcomes if not o.ok]
        if bad:
            ctx.fail(f"sweep: {len(bad)} fig10 job(s) failed in-process")
        payloads = orch.collect_payloads(outcomes)

        store = orch.ResultStore(os.path.join(root, "cache"))
        with rec.span("orch.store_put") as sp:
            for o in outcomes:
                store.put(o.key, o.job, o.payload)
        self.drive["orch.store_put_us"] = (
            1e6 * (sp.end - sp.start) / len(outcomes), "us")
        with rec.span("orch.store_get") as sp:
            got = [store.get(key) for key in keys]
        self.drive["orch.store_get_us"] = (
            1e6 * (sp.end - sp.start) / len(keys), "us")
        ctx.check("sweep: the store returns what was put",
                  all(g is not None and g["payload"] == o.payload
                      for g, o in zip(got, outcomes)))
        appends = 50 * len(outcomes)
        with orch.RunJournal(os.path.join(root, "drive.jsonl")) as journal, \
                rec.span("orch.journal_append") as sp:
            for _ in range(50):
                for o in outcomes:
                    journal.write_job(experiment=o.job.experiment,
                                      key=o.job.key, cache_key=o.key,
                                      outcome=o.status, wall_s=o.wall_s)
        self.drive["orch.journal_append_us"] = (
            1e6 * (sp.end - sp.start) / appends, "us")
        with rec.span("orch.reduce_render") as sp, \
                contextlib.redirect_stdout(io.StringIO()):
            results = orch.reduce_all(plan, payloads)
            fig10.render(results["fig10"])
        self.drive["orch.reduce_render_ms"] = (
            1e3 * (sp.end - sp.start), "ms")
        self.drive["model.fig10_final_geomean_x"] = (
            results["fig10"]["final_geomean"], "x")

    # -- metrics ------------------------------------------------------------

    def end_to_end(self) -> Dict[str, Any]:
        return {"sweep_cold_s": (median(self.cold_s), "s"),
                "sweep_warm_s": (median(self.warm_s), "s")}

    def per_layer(self, rec: Any) -> Dict[str, Any]:
        out = dict(self.drive)
        out["orch.jobs_ok"] = (self.jobs_ok, "count")
        out["orch.jobs_cached"] = (self.jobs_cached, "count")
        out["orch.job_wall_sum_s"] = (median(self.job_wall_sums), "s")
        out["orch.pool_idle_ratio"] = (median(self.idle_ratios), "ratio")
        out.update(self.trace_overhead())
        return out
