"""CLI: --version, --size threading, --profile, repro sweep, repro
journal."""

import json

import pytest

import repro
from repro.cli import main
from repro.orch import read_journal


class TestVersion:
    def test_dunder_version(self):
        assert repro.__version__
        parts = repro.__version__.split(".")
        assert len(parts) >= 2 and parts[0].isdigit()

    def test_cli_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert repro.__version__ in capsys.readouterr().out


class TestSizeThreading:
    def test_fig11_tiny(self, capsys):
        assert main(["fig11", "--size", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "Fig 11" in out

    def test_default_size_is_per_experiment(self, capsys):
        # fig13 defaults to its own tiny tier when --size is not given.
        assert main(["fig13"]) == 0
        assert "3.6" in capsys.readouterr().out


class TestProfile:
    def test_profile_threads_size_and_prints_stats(self, monkeypatch,
                                                   capsys):
        from repro.experiments import fig04_barrier

        seen = []
        monkeypatch.setattr(fig04_barrier, "main",
                            lambda **kwargs: seen.append(kwargs))
        assert main(["fig4", "--profile", "--size", "tiny"]) == 0
        assert seen == [{"size": "tiny"}]
        assert "ncalls" in capsys.readouterr().out


class TestSweep:
    def test_unknown_target(self, capsys):
        assert main(["sweep", "fig99"]) == 2
        assert "unknown sweep target" in capsys.readouterr().err

    def test_journal_missing_path(self, capsys):
        assert main(["journal"]) == 2

    def test_journal_nonexistent_file(self, tmp_path, capsys):
        path = str(tmp_path / "nope.jsonl")
        assert main(["journal", path]) == 2
        assert f"journal: no such file {path}" in capsys.readouterr().err

    def test_journal_skips_non_object_lines(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        path.write_text('{"event": "header", "jobs": 1}\n[1,2]\n'
                        '{"event": "job", "outcome": "ok", "wall_s": 0.5}\n')
        assert main(["journal", str(path)]) == 0
        captured = capsys.readouterr()
        assert "jobs: 1 (ok=1)" in captured.out
        assert "journal: skipping torn line" in captured.err

    def test_sweep_fig4_journaled_then_cached(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        journal = str(tmp_path / "run.jsonl")
        argv = ["sweep", "fig4", "--jobs", "0", "--size", "tiny",
                "--cache-dir", cache, "--journal", journal]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "Fig 4" in out

        records = read_journal(journal)
        header = records[0]
        assert header["event"] == "header"
        assert header["version"] == repro.__version__
        assert header["fingerprint"]
        jobs = [r for r in records if r["event"] == "job"]
        assert jobs and all(j["outcome"] == "ok" for j in jobs)
        assert records[-1]["event"] == "footer"

        # An identical re-run is pure cache hits.
        assert main(argv) == 0
        capsys.readouterr()
        jobs = [r for r in read_journal(journal) if r["event"] == "job"]
        assert all(j["outcome"] == "cached" for j in jobs)

        # ... and the journal summarizer reads it back.
        assert main(["journal", journal]) == 0
        out = capsys.readouterr().out
        assert "cache hits 100%" in out

    def test_journal_creates_its_parent_directory(self, tmp_path, capsys):
        # --cache-dir makes its own directory; --journal used to die with
        # a raw FileNotFoundError when out/ did not exist yet.
        journal = tmp_path / "out" / "deeper" / "run.jsonl"
        assert main(["sweep", "fig4", "--jobs", "0", "--size", "tiny",
                     "--cache-dir", str(tmp_path / "cache"),
                     "--journal", str(journal)]) == 0
        capsys.readouterr()
        assert read_journal(str(journal))[-1]["event"] == "footer"

    def test_append_journal_creates_its_parent_directory(self, tmp_path):
        # The daemon's form (repro serve --journal): append mode.
        from repro.orch import RunJournal

        path = tmp_path / "logs" / "serve.jsonl"
        with RunJournal(str(path), append=True) as journal:
            journal.write_event("header")
        assert read_journal(str(path))[0]["event"] == "header"

    def test_sweep_exit_code_reflects_failures(self, tmp_path, monkeypatch):
        import repro.experiments as experiments

        class BrokenHarness:
            @staticmethod
            def jobs(size="small"):
                from repro.orch import Job
                return [Job("broken", "k", "tests.test_orch:boom_job",
                            retries=0)]

            reduce = staticmethod(dict)

            @staticmethod
            def render(out):
                pass

        monkeypatch.setitem(experiments.HARNESSES, "broken",
                            BrokenHarness)
        assert main(["sweep", "broken", "--jobs", "0", "--no-cache"]) == 1


class TestAllRoutesThroughOrchestrator:
    def test_all_uses_the_plan(self, tmp_path, monkeypatch, capsys):
        # "repro all" must enter the sweep path (dedup + cache), not the
        # old serial main() loop: run it with a stub harness registry.
        import repro.experiments as experiments

        class TinyHarness:
            @staticmethod
            def jobs(size="small"):
                from repro.orch import Job
                return [Job("tiny", "k", "tests.test_orch:add_job",
                            params={"a": 1, "b": 2})]

            reduce = staticmethod(dict)

            @staticmethod
            def render(out):
                print("tiny-rendered", out["k"]["sum"])

        monkeypatch.setattr(experiments, "HARNESSES",
                            {"tiny": TinyHarness})
        assert main(["all", "--jobs", "0", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "sweep all" in out
        assert "tiny-rendered 3" in out
