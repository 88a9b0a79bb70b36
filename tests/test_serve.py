"""The simulation service: protocol, scheduler, daemon, thin clients.

The daemon tests run a real ``BackgroundDaemon`` on an ephemeral port
with jobs attempted on its one thread (``workers=0``), which keeps them
honest about the wire protocol while staying fast on 1-CPU hosts.  The
forked-worker mode is the sweep's runner; ``tests/test_orch.py`` drives
it through a ``Scheduler`` too.
"""

import json
import os
import threading
import time

import pytest

import repro
from repro.orch import Job, ResultStore, cache_key, default_cache_dir
from repro.orch.cache import CACHE_DIR_ENV
from repro.orch.job import canonical_json
from repro.orch.journal import read_journal
from repro.serve import (
    BackgroundDaemon,
    Client,
    QuotaError,
    QuotaPolicy,
    Scheduler,
    ServeConfig,
    ServerError,
    validate_event,
    validate_events,
)
from repro.serve.protocol import decode, encode, parse_address

HERE = "tests.test_serve"
FPRINT = "feedc0de" * 2  # fixed fingerprint: no source hashing in tests


# --- worker-side run functions (importable by dotted path) ----------------

def add_job(params, config):
    return {"sum": params["a"] + params["b"], "cycles": params["a"]}


def counting_job(params, config):
    """Appends one line per *execution* (the dedup tests count them),
    then dwells long enough for a second client to overlap."""
    with open(params["marker"], "a") as fh:
        fh.write("ran\n")
    time.sleep(params.get("dwell", 0.0))
    return {"sum": params["a"] + params["b"], "cycles": params["a"]}


def boom_job(params, config):
    raise ValueError("boom")


def _add(a, b, key=None, **kw):
    return Job("t", key or f"{a}+{b}", f"{HERE}:add_job",
               params={"a": a, "b": b}, **kw)


def _daemon(tmp_path, **overrides):
    kw = dict(port=0, workers=0, fingerprint=FPRINT,
              cache_dir=str(tmp_path / "cache"),
              journal=str(tmp_path / "serve.jsonl"))
    kw.update(overrides)
    return BackgroundDaemon(ServeConfig(**kw))


# --- wire protocol --------------------------------------------------------

class TestProtocol:
    def test_encode_decode_round_trip(self):
        record = {"id": 3, "op": "submit", "jobs": [{"a": 1}]}
        assert decode(encode(record)) == record

    def test_decode_rejects_non_objects(self):
        with pytest.raises(ValueError):
            decode(b"[1, 2]\n")
        with pytest.raises(ValueError):
            decode(b"not json\n")

    def test_validate_event_contract(self):
        ok = {"event": "job", "cache_key": "k", "experiment": "t",
              "key": "x", "outcome": "ok", "wall_s": 0.1, "attempts": 1}
        assert validate_event(ok) == []
        assert validate_event({"event": "job"})  # missing fields
        assert validate_event({"event": "nope"})  # unknown type
        assert validate_event({"no_event": 1})
        extra = dict(ok, custom="fine")
        assert validate_event(extra) == []  # extras are allowed

    def test_validate_events_prefixes_index(self):
        problems = validate_events([{"event": "nope"}])
        assert problems and problems[0].startswith("[0]")

    def test_parse_address(self):
        assert parse_address("somehost:9178") == ("somehost", 9178)
        assert parse_address(":9178") == ("127.0.0.1", 9178)
        with pytest.raises(ValueError):
            parse_address("no-port")


class TestJobWire:
    def test_round_trip(self):
        job = _add(1, 2, timeout_s=5.0, retries=2, procs=3)
        assert Job.from_wire(job.to_wire()) == job

    def test_unknown_fields_rejected(self):
        wire = _add(1, 2).to_wire()
        wire["typo"] = True
        with pytest.raises(ValueError, match="unknown job fields"):
            Job.from_wire(wire)

    def test_missing_fields_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            Job.from_wire({"experiment": "t"})

    def test_wire_is_jsonable(self):
        job = _add(1, 2)
        assert decode(encode(job.to_wire())) == job.to_wire()


# --- quotas and queue order (no daemon) -----------------------------------

class TestQuotaPolicy:
    def test_register_and_clamp(self):
        policy = QuotaPolicy(quota=4, max_priority=3)
        state = policy.register("me", priority=99)
        assert state.priority == 3
        assert policy.get(state.client_id) is state

    def test_unknown_client(self):
        with pytest.raises(QuotaError, match="hello"):
            QuotaPolicy().get("c404")

    def test_admission_is_whole_submission(self):
        policy = QuotaPolicy(quota=2)
        state = policy.register("me", 0)
        policy.admit(state.client_id, 2)  # would fit
        state.inflight = 2
        with pytest.raises(QuotaError, match="quota exceeded"):
            policy.admit(state.client_id, 1)
        assert state.denied == 1
        policy.admit(state.client_id, 0)  # empty submissions always pass

    def test_no_quota_admits_everything(self):
        policy = QuotaPolicy(quota=None)
        state = policy.register("me", 0)
        policy.admit(state.client_id, 10_000)


class TestSchedulerQueue:
    """Intake logic without starting the dispatcher: submissions leave
    jobs queued, so ordering and dedup bookkeeping are inspectable."""

    def _scheduler(self, tmp_path, **kw):
        import asyncio

        sched = Scheduler(ServeConfig(
            workers=0, fingerprint=FPRINT,
            cache_dir=str(tmp_path / "cache"), **kw))
        sched._kick = asyncio.Event()  # what start() would have made
        return sched

    def test_priority_orders_ready_queue(self, tmp_path):
        sched = self._scheduler(tmp_path)
        low = sched.register_client("low", priority=0)
        high = sched.register_client("high", priority=5)
        sched.submit(low.client_id, [_add(1, 1).to_wire()])
        sched.submit(high.client_id, [_add(2, 2).to_wire()])
        sched.submit(low.client_id, [_add(3, 3).to_wire()])
        order = [sched._entries[k].job.key
                 for k in sched.queue_snapshot()]
        assert order == ["2+2", "1+1", "3+3"]

    def test_within_submission_dedup(self, tmp_path):
        sched = self._scheduler(tmp_path)
        me = sched.register_client("me", 0)
        wire = _add(1, 1).to_wire()
        out = sched.submit(me.client_id, [wire, dict(wire)])
        assert (out["queued"], out["deduped"]) == (1, 1)
        assert [j["cache"] for j in out["jobs"]] == ["miss", "dedup"]
        assert len(sched.queue_snapshot()) == 1

    def test_quota_rejection_admits_nothing(self, tmp_path):
        sched = self._scheduler(tmp_path, quota=1)
        me = sched.register_client("me", 0)
        with pytest.raises(QuotaError, match="quota exceeded"):
            sched.submit(me.client_id,
                         [_add(1, 1).to_wire(), _add(2, 2).to_wire()])
        assert not sched.queue_snapshot()  # atomic: nothing entered
        assert me.inflight == 0

    def test_store_hit_at_submit(self, tmp_path):
        store = ResultStore(str(tmp_path / "cache"))
        job = _add(4, 4)
        key = cache_key(job, FPRINT)
        store.put(key, job, {"sum": 8, "cycles": 4})
        sched = self._scheduler(tmp_path)
        me = sched.register_client("me", 0)
        out = sched.submit(me.client_id, [job.to_wire()])
        assert out["cached"] == 1
        assert out["jobs"][0]["status"] == "cached"
        env = sched.results(out["sub"])[0]
        assert env["payload"] == {"sum": 8, "cycles": 4}
        assert env["provenance"]["cache"] == "hit"

    def test_foreign_artifacts_at_submit_are_misses(self, tmp_path):
        """A store file that is JSON but not a record with a payload
        must not kill the submission: the job queues, the file goes."""
        store = ResultStore(str(tmp_path / "cache"))
        jobs = [_add(n, n) for n in range(4)]
        paths = []
        for job, body in zip(jobs, ("[]", "null", '"x"', '{"format": 1}')):
            path = store.put(cache_key(job, FPRINT), job, {"sum": 0})
            with open(path, "w") as fh:
                fh.write(body)
            paths.append(path)
        sched = self._scheduler(tmp_path)
        me = sched.register_client("me", 0)
        out = sched.submit(me.client_id, [job.to_wire() for job in jobs])
        assert (out["queued"], out["cached"]) == (4, 0)
        assert not any(os.path.exists(path) for path in paths)


class TestSchedulerStats:
    def test_status_counter_equals_a_full_scan(self, tmp_path):
        """``stats()`` reads a counter kept at the three transition
        sites; after (and during) a mix of ok, failed, cancelled, cached,
        deduplicated and re-submitted jobs it must say what a scan of
        every entry says."""
        import asyncio
        from collections import Counter

        cache = str(tmp_path / "cache")
        hit = _add(4, 4)
        ResultStore(cache).put(cache_key(hit, FPRINT), hit,
                               {"sum": 8, "cycles": 4})
        dwell = Job("t", "dwell", f"{HERE}:counting_job",
                    params={"a": 0, "b": 0, "dwell": 0.3,
                            "marker": str(tmp_path / "runs.txt")})
        boom = Job("t", "boom", f"{HERE}:boom_job", retries=0)
        seen = []

        def compare(sched):
            scan = Counter(e.status for e in sched._entries.values())
            assert +sched._status_counts == scan
            stats = sched.stats()
            assert stats["queued"] == scan["queued"]
            assert stats["running"] == scan["running"]
            assert stats["done"] == sum(
                n for status, n in scan.items()
                if status not in ("queued", "running"))
            seen.append(dict(scan))

        async def scenario():
            sched = Scheduler(ServeConfig(workers=0, fingerprint=FPRINT,
                                          cache_dir=cache))
            await sched.start()
            me = sched.register_client("me", 0)
            first = sched.submit(me.client_id, [
                j.to_wire() for j in (dwell, _add(1, 1), _add(1, 1), hit,
                                      boom, _add(2, 2, key="behind"))])
            assert (first["queued"], first["cached"],
                    first["deduped"]) == (4, 1, 1)
            await asyncio.sleep(0.1)  # the dwell job holds the one slot
            compare(sched)
            second = sched.submit(me.client_id, [_add(9, 9).to_wire()])
            sched.cancel(me.client_id, second["sub"])
            compare(sched)
            await sched.wait_submission(first["sub"], timeout=30)
            compare(sched)
            again = sched.submit(me.client_id, [boom.to_wire()])
            assert again["queued"] == 1  # replaces the failed entry
            compare(sched)
            await sched.wait_submission(again["sub"], timeout=30)
            compare(sched)
            await sched.shutdown()

        asyncio.run(scenario())
        assert seen[0]["running"] == 1 and seen[0]["queued"] == 3
        assert seen[-1] == {"ok": 3, "cached": 1, "failed": 1,
                            "cancelled": 1}


# --- the daemon end to end ------------------------------------------------

class TestDaemon:
    def test_submit_run_results_provenance(self, tmp_path):
        with _daemon(tmp_path) as bg, \
                Client(bg.address, name="one") as client:
            assert client.ping()
            assert client.server["fingerprint"] == FPRINT
            sub = client.submit([_add(i, 2) for i in range(3)])
            assert sub["queued"] == 3
            envs = client.results(sub["sub"])
            assert [e["status"] for e in envs] == ["ok"] * 3
            assert [e["payload"]["sum"] for e in envs] == [2, 3, 4]
            for env in envs:
                prov = env["provenance"]
                assert prov["cache"] == "miss"
                assert prov["fingerprint"] == FPRINT
                assert prov["run_id"] == client.server["run_id"]

    def test_second_identical_submission_never_reexecutes(self, tmp_path):
        """The satellite acceptance test: a second client's identical
        plan is served entirely from dedup/cache -- zero executions."""
        marker = str(tmp_path / "runs.txt")
        jobs = [Job("t", f"c{i}", f"{HERE}:counting_job",
                    params={"a": i, "b": 1, "marker": marker})
                for i in range(2)]
        with _daemon(tmp_path) as bg:
            with Client(bg.address, name="first") as first:
                sub = first.submit(jobs)
                envs1 = first.results(sub["sub"])
            with Client(bg.address, name="second") as second:
                sub2 = second.submit(jobs)
                assert sub2["queued"] == 0
                assert sub2["cached"] + sub2["deduped"] == 2
                envs2 = second.results(sub2["sub"])
        with open(marker) as fh:
            assert len(fh.readlines()) == 2  # one execution per spec
        pay1 = [canonical_json(e["payload"]) for e in envs1]
        pay2 = [canonical_json(e["payload"]) for e in envs2]
        assert pay1 == pay2  # bit-identical fan-out

    def test_cross_client_concurrent_dedup(self, tmp_path):
        """Two clients submit an overlapping job while it is in flight:
        one execution, both get bit-identical payloads, the journal
        records one run and at least one dedup hit."""
        marker = str(tmp_path / "runs.txt")
        job = Job("t", "slow", f"{HERE}:counting_job",
                  params={"a": 7, "b": 1, "marker": marker,
                          "dwell": 0.8})
        results = {}

        def run(name):
            with Client((host, port), name=name, timeout=60.0) as c:
                sub = c.submit([job])
                results[name] = c.results(sub["sub"], timeout=None)[0]

        with _daemon(tmp_path) as bg:
            host, port = bg.address
            t1 = threading.Thread(target=run, args=("alice",))
            t2 = threading.Thread(target=run, args=("bob",))
            t1.start()
            time.sleep(0.2)  # let alice's job reach the queue/backend
            t2.start()
            t1.join(timeout=60)
            t2.join(timeout=60)
        with open(marker) as fh:
            assert len(fh.readlines()) == 1  # exactly one execution
        assert (canonical_json(results["alice"]["payload"])
                == canonical_json(results["bob"]["payload"]))
        records = read_journal(str(tmp_path / "serve.jsonl"))
        key = results["alice"]["cache_key"]
        runs = [r for r in records if r["event"] == "job"
                and r["cache_key"] == key]
        dedups = [r for r in records if r["event"] == "dedup"
                  and r["cache_key"] == key]
        assert len(runs) == 1 and runs[0]["outcome"] == "ok"
        assert len(dedups) == 1
        modes = {results[n]["provenance"]["cache"] for n in results}
        assert modes == {"miss", "dedup"}

    def test_quota_rejection_over_the_wire(self, tmp_path):
        with _daemon(tmp_path, quota=1) as bg, \
                Client(bg.address, name="greedy") as client:
            with pytest.raises(ServerError, match="quota"):
                client.submit([_add(1, 1), _add(2, 2)])
            sub = client.submit([_add(1, 1)])  # within budget
            assert client.results(sub["sub"])[0]["status"] == "ok"

    def test_failed_job_reports_and_is_retriable(self, tmp_path):
        with _daemon(tmp_path) as bg, \
                Client(bg.address, name="boom") as client:
            job = Job("t", "b", f"{HERE}:boom_job", retries=1)
            sub = client.submit([job])
            env = client.results(sub["sub"])[0]
            assert env["status"] == "failed"
            assert "boom" in env["error"]
            # A failed entry is not poisoned: resubmitting re-executes.
            sub2 = client.submit([job])
            assert sub2["queued"] == 1
            assert client.results(sub2["sub"])[0]["status"] == "failed"

    def test_event_stream_validates_against_schema(self, tmp_path):
        with _daemon(tmp_path) as bg, \
                Client(bg.address, name="watcher") as client:
            client.watch()  # before submit: nothing can be missed
            sub = client.submit([_add(9, 1)])
            events = list(client.stream(sub["sub"]))
        kinds = [e["event"] for e in events]
        assert "submit" in kinds and "sub-done" in kinds
        assert kinds.count("job") == 1
        assert validate_events(events) == []

    def test_stream_is_journal_format(self, tmp_path):
        """Streamed records and journaled records are the same format:
        both validate, and the job records match field-for-field."""
        with _daemon(tmp_path) as bg, \
                Client(bg.address, name="both") as client:
            client.watch()
            sub = client.submit([_add(5, 5)])
            streamed = [e for e in client.stream(sub["sub"])
                        if e["event"] == "job"]
        journaled = [r for r in read_journal(str(tmp_path / "serve.jsonl"))
                     if r["event"] == "job"]
        assert streamed == journaled
        assert validate_events(journaled) == []

    def test_cancel_drops_queued_jobs(self, tmp_path):
        # No dispatcher consumption race: fill the single thread slot
        # with a dwell job, then cancel the queued one behind it.
        marker = str(tmp_path / "runs.txt")
        dwell = Job("t", "dwell", f"{HERE}:counting_job",
                    params={"a": 0, "b": 0, "marker": marker,
                            "dwell": 0.6})
        with _daemon(tmp_path) as bg, \
                Client(bg.address, name="fickle") as client:
            sub = client.submit([dwell, _add(1, 2, key="behind")])
            out = client.cancel(sub["sub"])
            assert out["dropped"] >= 1
            envs = client.results(sub["sub"], timeout=None)
            statuses = {e["key"]: e["status"] for e in envs}
            assert statuses["behind"] == "cancelled"

    def test_journal_recovery_on_restart(self, tmp_path):
        journal = str(tmp_path / "serve.jsonl")
        # A prior daemon run that died mid-job: submitted two, one done.
        with open(journal, "w") as fh:
            for rec in (
                {"event": "header", "started": "x", "run_id": "dead"},
                {"event": "submit", "client": "c1", "sub": "s1",
                 "jobs": 2, "queued": 2, "cached": 0, "deduped": 0,
                 "keys": ["k1", "k2"]},
                {"event": "start", "cache_key": "k1", "experiment": "t",
                 "key": "a", "client": "c1", "attempt": 1},
                {"event": "job", "cache_key": "k1", "experiment": "t",
                 "key": "a", "outcome": "ok", "wall_s": 0.1,
                 "attempts": 1},
                {"event": "start", "cache_key": "k2", "experiment": "t",
                 "key": "b", "client": "c1", "attempt": 1},
            ):
                fh.write(json.dumps(rec) + "\n")
        with _daemon(tmp_path) as bg, \
                Client(bg.address, name="after") as client:
            assert client.ping()
        records = read_journal(journal)
        recover = [r for r in records if r["event"] == "recover"]
        assert len(recover) == 1
        assert recover[0]["interrupted"] == 1  # k2 never finished
        assert recover[0]["prior_records"] == 5
        # The old records survived (append mode) ahead of the new run.
        assert records[0]["event"] == "header"
        assert [r["event"] for r in records].count("header") == 2
        assert validate_events(records) == []

    def test_restart_serves_completed_jobs_from_store(self, tmp_path):
        jobs = [_add(i, 6) for i in range(2)]
        with _daemon(tmp_path) as bg, \
                Client(bg.address, name="one") as client:
            first = client.results(client.submit(jobs)["sub"])
        with _daemon(tmp_path) as bg, \
                Client(bg.address, name="two") as client:
            sub = client.submit(jobs)
            assert sub["cached"] == 2 and sub["queued"] == 0
            second = client.results(sub["sub"])
        assert ([canonical_json(e["payload"]) for e in first]
                == [canonical_json(e["payload"]) for e in second])

    def test_hello_required_before_submit(self, tmp_path):
        import socket

        with _daemon(tmp_path) as bg:
            host, port = bg.address
            with socket.create_connection((host, port), timeout=10) as s:
                s.sendall(encode({"id": 1, "op": "submit", "jobs": []}))
                line = s.makefile("rb").readline()
        response = decode(line)
        assert response["ok"] is False
        assert "hello" in response["error"]


# --- one cache-dir contract across client, server and CLI -----------------

class TestCacheDirEnv:
    def test_default_cache_dir_honors_env(self, monkeypatch):
        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        assert default_cache_dir() == ".repro-cache"
        monkeypatch.setenv(CACHE_DIR_ENV, "/tmp/elsewhere")
        assert default_cache_dir() == "/tmp/elsewhere"
        assert ResultStore().root == "/tmp/elsewhere"
        assert ResultStore("explicit").root == "explicit"

    def test_client_and_server_resolve_the_same_store(self, tmp_path,
                                                      monkeypatch):
        """The satellite regression: with REPRO_CACHE_DIR set and no
        --cache-dir anywhere, daemon artifacts land where a local
        ResultStore looks."""
        shared = str(tmp_path / "shared-store")
        monkeypatch.setenv(CACHE_DIR_ENV, shared)
        job = _add(3, 9)
        with _daemon(tmp_path, cache_dir=None) as bg, \
                Client(bg.address, name="envy") as client:
            assert client.server["cache_dir"] == shared
            env = client.results(client.submit([job])["sub"])[0]
        local = ResultStore()  # resolves through the same env var
        record = local.get(env["cache_key"])
        assert record is not None
        assert record["payload"] == env["payload"]


# --- what outlived the orch.pool shim -----------------------------------

class TestPoolShim:
    """The shim is gone; the serve names it pointed at stay public."""

    def test_public_surface_exports_serve_names(self):
        assert repro.Client is Client
        assert repro.ServeConfig is ServeConfig
        assert "Client" in repro.__all__
        assert "ServeConfig" in repro.__all__


# --- the sweep thin client (CLI) ------------------------------------------

def _payloads_of(store_dir):
    """{cache_key: canonical payload json} for every artifact."""
    store = ResultStore(store_dir)
    out = {}
    for dirpath, _dirs, files in os.walk(store_dir):
        for fname in files:
            if not fname.endswith(".json"):
                continue
            key = os.path.basename(dirpath) + fname[:-len(".json")]
            record = store.get(key)
            if record is not None:
                out[key] = canonical_json(record["payload"])
    return out


@pytest.mark.slow
class TestSweepThinClient:
    def test_sweep_server_results_bit_identical(self, tmp_path, capsys,
                                                monkeypatch):
        """The tentpole acceptance test: ``repro sweep --server`` must
        produce byte-identical payloads (and the same rendered figure)
        as the in-process pool path."""
        from repro.cli import main as cli_main

        monkeypatch.delenv("REPRO_SERVER", raising=False)
        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        local_dir = str(tmp_path / "local-cache")
        server_dir = str(tmp_path / "server-cache")

        def render_of(out):
            # The figure body between the "### fig4 ###" banner and the
            # trailing summary (whose wall time differs run to run).
            return out.split("##########")[-1].split("\nsweep ")[0]

        rc = cli_main(["sweep", "fig4", "--size", "tiny", "--jobs", "0",
                       "--cache-dir", local_dir])
        assert rc == 0
        local_render = render_of(capsys.readouterr().out)

        with _daemon(tmp_path, cache_dir=server_dir,
                     fingerprint=None) as bg:
            host, port = bg.address
            rc = cli_main(["sweep", "fig4", "--size", "tiny",
                           "--server", f"{host}:{port}"])
        assert rc == 0
        server_render = render_of(capsys.readouterr().out)

        local = _payloads_of(local_dir)
        server = _payloads_of(server_dir)
        assert local and local == server  # fingerprint-keyed, byte-equal
        assert local_render == server_render

    def test_submit_cli_streams_valid_events(self, tmp_path, capsys,
                                             monkeypatch):
        from repro.cli import main as cli_main

        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        events_path = str(tmp_path / "events.jsonl")
        with _daemon(tmp_path, fingerprint=None) as bg:
            host, port = bg.address
            rc = cli_main(["submit", "fig4", "--size", "tiny",
                           "--server", f"{host}:{port}",
                           "--events", events_path])
        assert rc == 0
        events = read_journal(events_path)
        assert events and validate_events(events) == []
        kinds = {e["event"] for e in events}
        assert "submit" in kinds and "sub-done" in kinds
        out = capsys.readouterr().out
        assert "submission" in out

    def test_submit_without_server_is_an_error(self, capsys, monkeypatch):
        from repro.cli import main as cli_main

        monkeypatch.delenv("REPRO_SERVER", raising=False)
        assert cli_main(["submit", "fig4"]) == 2
        assert "no server" in capsys.readouterr().err


# --- server journal summaries ---------------------------------------------

class TestServerJournalSummary:
    def test_journal_summary_has_server_section(self, tmp_path):
        from repro.profile.journal import render, summarize

        jobs = [_add(i, 3) for i in range(2)]
        with _daemon(tmp_path, quota=1) as bg:
            with Client(bg.address, name="alice") as alice:
                with pytest.raises(ServerError):
                    alice.submit(jobs)  # quota: 2 > 1
                alice.results(alice.submit(jobs[:1])["sub"])
            with Client(bg.address, name="bob") as bob:
                bob.results(bob.submit(jobs[:1])["sub"])  # pure dedup
        summary = summarize(str(tmp_path / "serve.jsonl"))
        server = summary["server"]
        assert server["quota_denials"] == 2
        assert server["dedup_hits"] == 1
        assert server["clients"]["alice"]["denied"] == 2
        assert server["clients"]["bob"]["deduped"] == 1
        text = render(summary)
        assert "server:" in text and "alice" in text and "bob" in text

    def test_plain_sweep_journal_has_no_server_section(self, tmp_path):
        from repro.profile.journal import summarize

        from repro.orch import RunJournal

        journal = str(tmp_path / "sweep.jsonl")
        with RunJournal(journal) as j:
            j.write_header(jobs=1)
            j.write_job(experiment="t", key="a", outcome="ok",
                        wall_s=0.1, attempts=1)
            j.write_footer(wall_s=0.1, ok=1)
        summary = summarize(journal)
        assert summary["server"] == {}
        assert summary["total"] == 1
