"""The sweep orchestrator: job model, cache, graph, pool, journal."""

import dataclasses
import io
import json
import os
import time

import numpy as np
import pytest

from repro.orch import (
    Job,
    JobOutcome,
    ResultStore,
    RunJournal,
    Sweep,
    build_plan,
    cache_key,
    code_fingerprint,
    collect_payloads,
    execute,
    execute_serial,
    jsonable,
    read_journal,
    reduce_all,
    run_jobs,
)

HERE = "tests.test_orch"


# --- worker-side run functions (importable by dotted path) ----------------

def add_job(params, config):
    return {"sum": params["a"] + params["b"], "cycles": params["a"]}


def config_probe_job(params, config):
    return {"tiles_x": config.cell.tiles_x, "name": config.name}


def boom_job(params, config):
    raise ValueError("boom")


def flaky_job(params, config):
    """Fails on the first attempt (per marker file), succeeds after."""
    marker = params["marker"]
    if not os.path.exists(marker):
        with open(marker, "w"):
            pass
        raise RuntimeError("cold start")
    return {"warmed": True}


def sleep_job(params, config):
    time.sleep(params["seconds"])
    return {"slept": params["seconds"]}


def crash_job(params, config):
    """Kills its worker on the first attempt (per marker file)."""
    marker = params["marker"]
    if not os.path.exists(marker):
        with open(marker, "w"):
            pass
        os._exit(3)
    return {"survived": True}


def window_job(params, config):
    """Sleeps; reports when it ran (a system-wide monotonic clock)."""
    start = time.monotonic()
    time.sleep(params["seconds"])
    return {"start": start, "end": time.monotonic()}


def _add(a, b, key=None, **kw):
    return Job("t", key or f"{a}+{b}", f"{HERE}:add_job",
               params={"a": a, "b": b}, **kw)


# --- the runner's two drivers, uncached ------------------------------------

def pooled(jobs, *, workers):
    """The sweep's driver."""
    return run_jobs(jobs, workers=workers, use_cache=False)


def served(jobs, *, workers):
    """The daemon's driver: one submission to a ``Scheduler`` on a
    private event loop (no TCP), read back as sweep outcomes."""
    import asyncio

    from repro.serve import Scheduler, ServeConfig

    async def submit():
        sched = Scheduler(ServeConfig(workers=workers, use_cache=False,
                                      fingerprint="fp"))
        await sched.start()
        try:
            me = sched.register_client("test")
            sub = sched.submit(me.client_id, [j.to_wire() for j in jobs])
            await sched.wait_submission(sub["sub"], timeout=60)
            entries = [sched._entries[j["cache_key"]] for j in sub["jobs"]]
        finally:
            await sched.shutdown()
        return [JobOutcome(job, e.key, e.status, payload=e.payload,
                           error=e.error, wall_s=e.wall_s, worker=e.worker,
                           attempts=e.attempts)
                for job, e in zip(jobs, entries)]

    return asyncio.run(submit())


class TestJobModel:
    def test_fn_must_be_dotted_path(self):
        with pytest.raises(ValueError):
            Job("t", "k", "no_colon_here")

    def test_params_normalized_to_plain_data(self):
        job = Job("t", "k", f"{HERE}:add_job",
                  params={"a": np.int64(3), "b": (1, 2),
                          "c": np.array([1.0, 2.0])})
        assert job.params == {"a": 3, "b": [1, 2], "c": [1.0, 2.0]}
        json.dumps(job.params)  # round-trips

    def test_unjsonable_params_rejected_at_construction(self):
        with pytest.raises(TypeError):
            Job("t", "k", f"{HERE}:add_job", params={"fh": object()})

    def test_spec_excludes_presentation_fields(self):
        job = _add(1, 2)
        assert set(job.spec()) == {"fn", "params", "config", "seed"}

    def test_execute_runs_the_function(self):
        assert execute(_add(2, 3))["sum"] == 5

    def test_execute_deserializes_config(self):
        from repro.arch.config import small_config
        from repro.arch.serialize import to_dict

        job = Job("t", "k", f"{HERE}:config_probe_job",
                  config=to_dict(small_config(4, 4)))
        out = execute(job)
        assert out["tiles_x"] == 4

    def test_execute_serial_keys_payloads_by_job_key(self):
        out = execute_serial([_add(1, 1, key="a"), _add(2, 2, key="b")])
        assert out["a"]["sum"] == 2
        assert out["b"]["sum"] == 4


class TestCacheKey:
    def test_identity_ignores_experiment_and_key(self):
        a = Job("fig11", "PR", f"{HERE}:add_job", params={"a": 1, "b": 2})
        b = Job("fig15", "16x8/PR", f"{HERE}:add_job",
                params={"a": 1, "b": 2})
        assert cache_key(a, "fp") == cache_key(b, "fp")

    def test_param_order_does_not_matter(self):
        a = Job("t", "k", f"{HERE}:add_job", params={"a": 1, "b": 2})
        b = Job("t", "k", f"{HERE}:add_job", params={"b": 2, "a": 1})
        assert cache_key(a, "fp") == cache_key(b, "fp")

    def test_params_config_seed_fingerprint_all_distinguish(self):
        base = _add(1, 2)
        fp = "fp"
        assert cache_key(_add(1, 3), fp) != cache_key(base, fp)
        assert cache_key(dataclasses.replace(base, seed=1), fp) \
            != cache_key(base, fp)
        assert cache_key(base, "other-fp") != cache_key(base, fp)

    def test_config_change_invalidates(self):
        from repro.arch.config import small_config
        from repro.arch.serialize import to_dict

        a = dataclasses.replace(_add(1, 2),
                                config=to_dict(small_config(4, 4)))
        b = dataclasses.replace(_add(1, 2),
                                config=to_dict(small_config(8, 4)))
        assert cache_key(a, "fp") != cache_key(b, "fp")

    def test_timeout_and_retries_are_not_identity(self):
        a = _add(1, 2)
        b = dataclasses.replace(a, timeout_s=5.0, retries=3)
        assert cache_key(a, "fp") == cache_key(b, "fp")


class TestFingerprint:
    def test_stable_and_sensitive(self, tmp_path):
        pkg = tmp_path / "pkg"
        (pkg / "engine").mkdir(parents=True)
        (pkg / "engine" / "sim.py").write_text("x = 1\n")
        first = code_fingerprint(str(pkg))
        code_fingerprint.cache_clear()
        assert code_fingerprint(str(pkg)) == first
        (pkg / "engine" / "sim.py").write_text("x = 2\n")
        code_fingerprint.cache_clear()
        assert code_fingerprint(str(pkg)) != first

    def test_presentation_modules_excluded(self, tmp_path):
        pkg = tmp_path / "pkg"
        (pkg / "engine").mkdir(parents=True)
        (pkg / "engine" / "sim.py").write_text("x = 1\n")
        code_fingerprint.cache_clear()
        first = code_fingerprint(str(pkg))
        (pkg / "orch").mkdir()
        (pkg / "orch" / "pool.py").write_text("y = 1\n")
        (pkg / "cli.py").write_text("z = 1\n")
        code_fingerprint.cache_clear()
        assert code_fingerprint(str(pkg)) == first
        code_fingerprint.cache_clear()


class TestResultStore:
    def test_round_trip(self, tmp_path):
        store = ResultStore(str(tmp_path / "cache"))
        job = _add(1, 2)
        key = cache_key(job, "fp")
        assert store.get(key) is None
        store.put(key, job, {"sum": 3}, meta={"wall_s": 0.1})
        record = store.get(key)
        assert record["payload"] == {"sum": 3}
        assert record["job"]["experiment"] == "t"
        assert key in store

    def test_corrupt_artifact_is_a_miss_and_removed(self, tmp_path):
        store = ResultStore(str(tmp_path / "cache"))
        job = _add(1, 2)
        key = cache_key(job, "fp")
        path = store.put(key, job, {"sum": 3})
        with open(path, "w") as fh:
            fh.write('{"torn":')
        assert store.get(key) is None
        assert not os.path.exists(path)

    @pytest.mark.parametrize("body", ["[]", "null", '"x"', '{"format": 1}'])
    def test_foreign_artifact_is_a_miss_and_removed(self, tmp_path, body):
        """Valid JSON that is not a record with a payload (hand-edited,
        or another tool's file under the same name) must not sink the
        sweep: it reads as a miss and the job is recomputed."""
        store = ResultStore(str(tmp_path / "cache"))
        job = _add(1, 2)
        key = cache_key(job, "fp")
        path = store.put(key, job, {"sum": 3})
        with open(path, "w") as fh:
            fh.write(body)
        assert store.get(key) is None
        assert not os.path.exists(path)
        with open(path, "w") as fh:
            fh.write(body)
        (outcome,) = run_jobs([job], workers=0, store=store,
                              fingerprint="fp")
        assert outcome.status == "ok"
        assert store.get(key)["payload"] == outcome.payload

    def test_artifact_bytes_are_what_json_dump_wrote(self, tmp_path):
        """``put`` encodes with ``dumps`` in one write; the file must
        stay byte-identical to the ``json.dump`` it replaced."""
        store = ResultStore(str(tmp_path / "cache"))
        job = _add(1, 2)
        payload = {"cycles": 4743.0, "ratio": 1 / 3, "none": None,
                   "nested": {"b": [1, 2.5, "\u00b5s"], "a": True}}
        path = store.put(cache_key(job, "fp"), job, payload,
                         meta={"wall_s": 0.25, "attempts": 1})
        with open(path) as fh:
            text = fh.read()
        reference = io.StringIO()
        json.dump(json.loads(text), reference, sort_keys=True)
        assert text == reference.getvalue()

    def test_stats_counts_artifacts(self, tmp_path):
        store = ResultStore(str(tmp_path / "cache"))
        for i in range(3):
            job = _add(i, i)
            store.put(cache_key(job, "fp"), job, {"sum": 2 * i})
        stats = store.stats()
        assert stats["artifacts"] == 3
        assert stats["bytes"] > 0


class TestGraph:
    def test_build_plan_dedupes_identical_jobs(self):
        shared = {"a": 1, "b": 2}
        s1 = Sweep("one", [Job("one", "x", f"{HERE}:add_job",
                               params=shared)], dict)
        s2 = Sweep("two", [Job("two", "y", f"{HERE}:add_job",
                               params=shared),
                           _add(5, 5)], dict)
        plan = build_plan([s1, s2], "fp")
        assert plan.total_jobs == 3
        assert len(plan.unique_jobs) == 2

    def test_duplicate_keys_within_a_sweep_rejected(self):
        with pytest.raises(ValueError):
            Sweep("s", [_add(1, 2, key="k"), _add(3, 4, key="k")], dict)

    @staticmethod
    def _run(plan):
        keys = [plan.key_of[id(job)] for job in plan.unique_jobs]
        return run_jobs(plan.unique_jobs, workers=0, keys=keys,
                        fingerprint="fp", use_cache=False)

    def test_reduce_all_routes_payloads_by_job_key(self):
        s = Sweep("s", [_add(1, 1, key="a"), _add(2, 2, key="b")],
                  lambda p: p["a"]["sum"] + p["b"]["sum"])
        plan = build_plan([s], "fp")
        out = reduce_all(plan, collect_payloads(self._run(plan)))
        assert out["s"] == 6

    def test_reduce_isolation_one_broken_sweep(self):
        good = Sweep("good", [_add(1, 1, key="a")],
                     lambda p: p["a"]["sum"])
        bad = Sweep("bad", [_add(2, 2, key="b")],
                    lambda p: 1 / 0)
        plan = build_plan([good, bad], "fp")
        errors = []
        out = reduce_all(plan, collect_payloads(self._run(plan)),
                         on_error=lambda s, e: errors.append(s.name))
        assert out == {"good": 2}
        assert errors == ["bad"]

    def test_missing_payload_reported_not_raised(self):
        s = Sweep("s", [Job("s", "k", f"{HERE}:boom_job", retries=0)],
                  dict)
        plan = build_plan([s], "fp")
        outcomes = self._run(plan)
        errors = []
        out = reduce_all(plan, collect_payloads(outcomes),
                         on_error=lambda s, e: errors.append(str(e)))
        assert out == {}
        assert "did not complete" in errors[0]


class _Attempts:
    """Retry, deadline and crash replacement, through ``drive``."""

    drive = staticmethod(pooled)

    def test_parallel_matches_serial(self):
        jobs = [_add(i, i) for i in range(6)]
        serial = execute_serial(jobs)
        outcomes = self.drive(jobs, workers=2)
        assert all(o.status == "ok" for o in outcomes)
        assert {o.job.key: o.payload for o in outcomes} == serial

    def test_retry_bounded(self, tmp_path):
        job = Job("t", "flaky", f"{HERE}:flaky_job",
                  params={"marker": str(tmp_path / "marker")}, retries=2)
        (outcome,) = self.drive([job], workers=1)
        assert outcome.status == "ok"
        assert outcome.attempts == 2

    def test_failure_after_budget_spent(self):
        job = Job("t", "boom", f"{HERE}:boom_job", retries=1)
        (outcome,) = self.drive([job], workers=1)
        assert outcome.status == "failed"
        assert outcome.attempts == 2
        assert "boom" in outcome.error

    def test_timeout_kills_the_job(self):
        job = Job("t", "slow", f"{HERE}:sleep_job",
                  params={"seconds": 30.0}, timeout_s=0.5, retries=0)
        t0 = time.perf_counter()
        (outcome,) = self.drive([job], workers=1)
        assert outcome.status == "timeout"
        assert time.perf_counter() - t0 < 10.0

    def test_crashed_worker_is_replaced(self, tmp_path):
        job = Job("t", "crash", f"{HERE}:crash_job",
                  params={"marker": str(tmp_path / "marker")}, retries=1)
        (outcome,) = self.drive([job], workers=1)
        assert outcome.status == "ok"
        assert outcome.attempts == 2
        assert outcome.worker == 1  # worker 0 died; its replacement ran it


class TestPool(_Attempts):

    def test_cache_hits_on_identical_rerun(self, tmp_path):
        store = ResultStore(str(tmp_path / "cache"))
        jobs = [_add(i, i) for i in range(4)]
        first = run_jobs(jobs, workers=0, store=store, fingerprint="fp")
        assert all(o.status == "ok" for o in first)
        second = run_jobs(jobs, workers=0, store=store, fingerprint="fp")
        assert all(o.status == "cached" for o in second)
        assert [o.payload for o in second] == [o.payload for o in first]

    def test_fingerprint_change_invalidates(self, tmp_path):
        store = ResultStore(str(tmp_path / "cache"))
        jobs = [_add(1, 2)]
        run_jobs(jobs, workers=0, store=store, fingerprint="fp1")
        (again,) = run_jobs(jobs, workers=0, store=store, fingerprint="fp2")
        assert again.status == "ok"  # not cached

    def test_no_cache_flag_recomputes(self, tmp_path):
        store = ResultStore(str(tmp_path / "cache"))
        jobs = [_add(1, 2)]
        run_jobs(jobs, workers=0, store=store, fingerprint="fp")
        (again,) = run_jobs(jobs, workers=0, store=store, fingerprint="fp",
                            use_cache=False)
        assert again.status == "ok"


class TestJournal:
    def test_header_jobs_footer_round_trip(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        with RunJournal(path) as journal:
            journal.write_header(version="1.2.3", fingerprint="fp")
            run_jobs([_add(1, 2)], workers=0, journal=journal,
                     use_cache=False)
            journal.write_footer(ok=1)
        records = read_journal(path)
        assert records[0]["event"] == "header"
        assert records[0]["version"] == "1.2.3"
        job_lines = [r for r in records if r["event"] == "job"]
        assert len(job_lines) == 1
        assert job_lines[0]["outcome"] == "ok"
        assert job_lines[0]["cycles"] == 1  # payload reports cycles
        assert records[-1]["event"] == "footer"

    def test_line_bytes_are_what_json_dump_wrote(self, tmp_path):
        """One ``write`` of ``dumps(...) + "\\n"`` per record, and the
        same bytes as the ``json.dump`` + ``write("\\n")`` it replaced."""
        path = str(tmp_path / "run.jsonl")
        fields = dict(experiment="fig11", key="PR", cache_key="ab" * 32,
                      outcome="ok", wall_s=0.123456, worker=1, attempts=1,
                      error=None, cycles=2686.0, note="\u00b5s")
        with RunJournal(path) as journal:
            journal.write_job(**fields)
            journal.write_event("dedup", source="inflight")
        reference = io.StringIO()
        for record in ({"event": "job", **fields},
                       {"event": "dedup", "source": "inflight"}):
            json.dump(record, reference, sort_keys=True)
            reference.write("\n")
        with open(path) as fh:
            assert fh.read() == reference.getvalue()

    def test_torn_last_line_tolerated(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        with open(path, "w") as fh:
            fh.write('{"event": "header"}\n{"event": "jo')
        records = read_journal(path)
        assert len(records) == 1

    def test_none_path_journals_nowhere(self):
        with RunJournal(None) as journal:
            journal.write_header(version="x")
            journal.write_job(outcome="ok")


class TestServedAttempts(_Attempts):
    drive = staticmethod(served)


class TestDeterminism:
    """Same Job -> same payload and same cache key, however executed."""

    def test_simulation_identical_inprocess_and_pooled(self):
        from repro.arch.config import small_config
        from repro.arch.serialize import to_dict

        job = Job("t", "AES", "repro.experiments.common:suite_job",
                  params={"kernel": "AES", "size": "tiny"},
                  config=to_dict(small_config(4, 4)))
        twin = Job("t2", "AES-again",
                   "repro.experiments.common:suite_job",
                   params={"kernel": "AES", "size": "tiny"},
                   config=to_dict(small_config(4, 4)))
        fp = code_fingerprint()
        assert cache_key(job, fp) == cache_key(twin, fp)

        inproc = execute(job)
        (pooled,) = run_jobs([job], workers=1, use_cache=False)
        assert pooled.status == "ok"
        assert pooled.payload["cycles"] == inproc["cycles"]
        assert pooled.payload == inproc

        again = execute(twin)
        assert again["cycles"] == inproc["cycles"]


# --- worker-budget composability (PDES jobs inside the pool) ---------------

def budget_probe_job(params, config):
    return {"budget": os.environ.get("REPRO_WORKER_BUDGET")}


def pdes_probe_job(params, config):
    """A multi-Cell PDES run nested inside a pool worker."""
    from repro.pdes import fixture as xfix
    from repro.pdes import run_cells

    res = run_cells(config, xfix.exchange_launches(config, words=8),
                    workers=params["workers"])
    return {"workers": res.workers, "cycles": res.cycles,
            "fingerprint": res.fingerprint()}


class TestWorkerBudget:
    """Job.procs: scheduler slots + REPRO_WORKER_BUDGET, not identity."""

    drive = staticmethod(pooled)

    def test_procs_is_scheduling_metadata_not_identity(self):
        plain = _add(1, 2)
        wide = _add(1, 2, procs=4)
        assert plain.spec() == wide.spec()
        assert cache_key(plain, "fp") == cache_key(wide, "fp")
        assert "procs" not in plain.spec()

    def test_budget_exported_to_pool_workers(self):
        jobs = [Job("t", f"p{n}", f"{HERE}:budget_probe_job",
                    params={"n": n}, procs=n)
                for n in (1, 3)]
        outcomes = self.drive(jobs, workers=2)
        got = {o.job.key: o.payload["budget"] for o in outcomes}
        assert got == {"p1": "1", "p3": "3"}

    def test_budget_exported_and_restored_inprocess(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKER_BUDGET", "9")
        job = Job("t", "probe", f"{HERE}:budget_probe_job", procs=2)
        (outcome,) = self.drive([job], workers=0)
        assert outcome.payload["budget"] == "2"
        # the caller's own budget is restored afterwards
        assert os.environ["REPRO_WORKER_BUDGET"] == "9"

    def test_wide_jobs_serialize_on_narrow_pool(self):
        """Two procs=2 jobs on a 2-slot pool must not co-run: the slot
        ledger admits the second only after the first releases."""
        jobs = [Job("t", f"wide{i}", f"{HERE}:window_job",
                    params={"seconds": 0.25, "i": i}, procs=2)
                for i in range(2)]
        outcomes = self.drive(jobs, workers=2)
        assert all(o.status == "ok" for o in outcomes)
        first, second = sorted((o.payload for o in outcomes),
                               key=lambda p: p["start"])
        assert first["end"] <= second["start"]

    def test_idle_pool_always_admits_oversized_jobs(self):
        """procs > workers is capped at the pool size, not starved."""
        job = Job("t", "big", f"{HERE}:add_job",
                  params={"a": 1, "b": 1}, procs=16)
        (outcome,) = self.drive([job], workers=2)
        assert outcome.status == "ok"

    def test_nested_pdes_job_fans_out_within_budget(self):
        """The whole contract end to end: a PDES job under the pool gets
        procs worth of shard workers (not its larger request), and its
        result is bit-identical to the serial reference."""
        from repro.arch.config import small_config
        from repro.arch.serialize import to_dict
        from repro.pdes import fixture as xfix
        from repro.pdes import run_cells

        cfg = small_config(4, 4).with_geometry(cells_x=2, cells_y=1)
        job = Job("t", "pdes", f"{HERE}:pdes_probe_job",
                  params={"workers": 4}, config=to_dict(cfg), procs=2)
        (outcome,) = self.drive([job], workers=1)
        assert outcome.status == "ok"
        assert outcome.payload["workers"] == 2  # budget clamps 4 -> procs
        ref = run_cells(cfg, xfix.exchange_launches(cfg, words=8), workers=1)
        assert outcome.payload["fingerprint"] == ref.fingerprint()


class TestWorkerBudgetServed(TestWorkerBudget):
    """The same contract through the daemon's driver."""

    drive = staticmethod(served)


def _running(pid):
    """Whether ``pid`` is a live process (an unreaped zombie is not)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
class TestOrphanedWorkers:
    def test_workers_exit_when_their_parent_is_killed(self):
        """A runner killed outright leaves no worker behind: each worker
        closes the parent pipe ends it inherited at fork (its own and
        its earlier siblings'), so its ``recv`` reads EOF."""
        import multiprocessing
        import signal

        from repro.orch.runner import Runner

        ctx = multiprocessing.get_context("fork")
        reader, writer = ctx.Pipe(duplex=False)

        def host():
            runner = Runner(2)
            writer.send([runner._spawn().proc.pid for _ in range(2)])
            time.sleep(60)

        parent = ctx.Process(target=host)
        parent.start()
        pids = reader.recv()
        os.kill(parent.pid, signal.SIGKILL)
        parent.join()
        deadline = time.monotonic() + 5.0
        while any(map(_running, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        survivors = [pid for pid in pids if _running(pid)]
        for pid in survivors:  # never leave an orphan behind the suite
            os.kill(pid, signal.SIGKILL)
        assert not survivors, pids
