"""The two import tiers (docs/API.md, "Import tiers").

*Plan tier*: ``import repro``, the orchestrator, every harness's
``jobs()/reduce()/render()`` and the no-simulation CLI commands load no
numpy and none of the simulator.  *Simulate tier*: once
``repro.session`` is imported a run imports nothing more, and whoever
forks workers holds the tier before the first fork.  Each probe runs in
a fresh interpreter, because this process has long since loaded
everything.
"""

import json
import os
import pickle
import subprocess
import sys
import textwrap

import pytest

import repro
from repro import _lazy
from repro.orch import ResultStore, build_plan, code_fingerprint, Sweep

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")
ROOT = os.path.dirname(SRC)

#: What the plan tier must never load (ISSUE 15's list).
SIMULATOR = ("numpy", "repro.engine", "repro.core.tile", "repro.noc.network",
             "repro.mem.cache", "repro.kernels.aes", "repro.workloads",
             "repro.runtime.machine", "repro.session")

PACKAGES = ("arch", "audit", "baselines", "core", "energy", "engine",
            "experiments", "isa", "kernels", "mem", "noc", "orch", "pdes",
            "perf", "pgas", "pim", "profile", "runtime", "sanitize", "serve",
            "trace", "workloads")


def probe(code: str, *argv: str, env=None) -> dict:
    """Run ``code`` in a fresh interpreter; it reports through ``out``,
    and the modules loaded at its end come back under ``"modules"``."""
    script = ("import json, sys\nout = {}\n" + textwrap.dedent(code)
              + "\nout['modules'] = sorted(sys.modules)\n"
              "print('\\n@@' + json.dumps(out))\n")
    full_env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + ROOT)
    full_env.pop("REPRO_SERVER", None)
    full_env.update(env or {})
    proc = subprocess.run([sys.executable, "-c", script, *argv],
                          capture_output=True, text=True, env=full_env,
                          cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    out = json.loads(proc.stdout.rsplit("\n@@", 1)[1])
    out["stdout"] = proc.stdout.rsplit("\n@@", 1)[0]
    return out


def loaded(out: dict, names=SIMULATOR) -> list:
    mods = set(out["modules"])
    return sorted(n for n in names
                  if n in mods or any(m.startswith(n + ".") for m in mods))


CLI = """
from repro.cli import main
try:
    out["rc"] = main(sys.argv[1:])
except SystemExit as exc:  # argparse's --version
    out["rc"] = exc.code
"""


# -- (a) the plan tier ------------------------------------------------------

class TestPlanTier:
    @pytest.mark.parametrize("statement", [
        "import repro",
        "import repro.orch",
        "import repro.experiments",
        "import repro.cli",
        "import repro, repro.runtime, repro.kernels, repro.pdes, repro.trace",
    ])
    def test_importing_a_surface_loads_no_simulator(self, statement):
        out = probe(statement)
        assert loaded(out) == []
        assert loaded(out, ("asyncio", "multiprocessing")) == []

    @pytest.mark.parametrize("argv", [["--version"], ["list"]])
    def test_no_simulation_commands(self, argv):
        out = probe(CLI, *argv)
        assert out["rc"] in (0, None)
        assert loaded(out) == []
        assert loaded(out, ("asyncio",)) == []

    def test_planning_and_reducing_every_harness(self):
        """``jobs()`` of all twelve harnesses, in one process."""
        out = probe("""
            from repro.experiments import HARNESSES
            out["jobs"] = {name: len(HARNESSES[name].jobs(size="tiny"))
                           for name in HARNESSES}
        """)
        assert out["jobs"]["fig11"] == 10 and len(out["jobs"]) == 12
        assert loaded(out) == []

    def test_warm_fig11_sweep(self, tmp_path):
        """A real cold run, then the re-run: same figure, no simulator."""
        args = ["sweep", "fig11", "--size", "tiny", "--jobs", "2",
                "--cache-dir", str(tmp_path / "cache")]
        cold = probe(CLI, *args)
        assert cold["rc"] == 0 and "ok=10" in cold["stdout"]
        assert "numpy" in loaded(cold)  # the parent preloaded the tier
        warm = probe(CLI, *args, "--journal", str(tmp_path / "warm.jsonl"))
        assert warm["rc"] == 0 and "cached=10" in warm["stdout"]
        assert loaded(warm) == []
        assert loaded(warm, ("asyncio",)) == []
        body = lambda text: text[text.find("#####"):text.rfind("\nsweep ")]
        assert body(cold["stdout"]) and body(warm["stdout"]) == body(cold["stdout"])

    def test_warm_sweep_all(self, tmp_path):
        """Every harness's reduce and render, served from a store that
        was filled without simulating (one canned payload with every
        field any reduce reads): exit 0, all cached, no simulator."""
        from repro.experiments import HARNESSES

        sweeps = [Sweep(name, HARNESSES[name].jobs(size="tiny"),
                        HARNESSES[name].reduce) for name in HARNESSES]
        plan = build_plan(sweeps, code_fingerprint())
        store = ResultStore(str(tmp_path / "cache"))
        for job in plan.unique_jobs:
            store.put(plan.key_of[id(job)], job, CANNED)
        out = probe(CLI, "sweep", "all", "--size", "tiny", "--jobs", "2",
                    "--cache-dir", str(tmp_path / "cache"))
        assert out["rc"] == 0, out["stdout"][-2000:]
        assert f"cached={len(plan.unique_jobs)} " in out["stdout"]
        for name in HARNESSES:
            assert f"########## {name} ##########" in out["stdout"]
        assert loaded(out) == []
        assert loaded(out, ("asyncio",)) == []

    def test_plan_side_suite_names_match_the_registry(self):
        from repro.experiments.common import SUITE_KERNELS
        from repro.kernels.registry import FIG11_ORDER, SUITE
        from repro.perf.counters import FIG11_ORDER as plan_side

        assert tuple(SUITE) == SUITE_KERNELS
        assert FIG11_ORDER is plan_side


#: A payload carrying every field some harness's reduce()/render() reads.
CANNED = {
    "cycles": 100.0, "instructions": 50.0, "int_instructions": 40.0,
    "fp_instructions": 10.0, "core_utilization": 0.5, "cache_hit_rate": 0.9,
    "core_breakdown": {"exec_int": 0.4, "exec_fp": 0.1, "stall_idle": 0.5},
    "hbm": {"read": 0.1, "write": 0.1, "busy": 0.1, "idle": 0.7},
    "latency": 8.0, "stall_fraction": 0.1, "utilization": 0.2,
    "transfer_bytes": 4096,
    "shape": "4x4", "groups": 8, "rows_per_kcycle": 2.0, "hbm_active": 0.3,
    "hbm_rw": 0.2,
    "orientation": "horizontal", "cut_links": 32, "active_links": 16,
    "active_utilization": 0.8, "peak_link_utilization": 0.9, "series": [],
    "wide_channel_efficiency": 0.03, "wide_channel_cycles": 1000.0,
    "payload_bytes": 16384,
    "table1": {"benchmarks": [], "graphs": []}, "table2": [], "table4": [],
}


# -- (b) the simulate tier loads as one block -------------------------------

class TestSimulateTier:
    def test_runs_import_nothing_more(self):
        out = probe("""
            import repro.session
            import repro
            from repro.kernels.registry import SUITE, fast_args

            def new_repro_modules(**flags):
                before = set(sys.modules)
                repro.run(repro.small_config(4, 4), SUITE["AES"].kernel,
                          fast_args("AES"), **flags)
                return sorted(m for m in set(sys.modules) - before
                              if m.startswith("repro"))

            out["plain"] = new_repro_modules()
            out["checked"] = new_repro_modules(trace=True, sanitize=True,
                                               audit=True)
            before = set(sys.modules)
            session = repro.Session(repro.small_config(4, 4), cells=(2, 1),
                                    sanitize=True, audit=True)
            for xy in ((0, 0), (1, 0)):
                session.launch(SUITE["AES"].kernel, fast_args("AES"),
                               cell=xy, remote=False)
            out["clean"] = session.run().clean
            out["cells"] = sorted(m for m in set(sys.modules) - before
                                  if m.startswith("repro"))
        """)
        assert out["plain"] == [] and out["checked"] == []
        assert out["cells"] == [] and out["clean"]

    def test_public_run_loads_the_tier_on_first_touch(self):
        out = probe("""
            import repro
            before = set(sys.modules)
            repro.run
            out["new"] = sorted(set(sys.modules) - before)
        """)
        for name in ("repro.session", "repro.runtime.machine",
                     "repro.trace.tracer", "repro.sanitize.checker",
                     "repro.audit.checker", "repro.pdes.coordinator"):
            assert name in out["new"]


# -- (c) the fork rule ------------------------------------------------------

FORK_RULE = """
import repro.orch.runner as runner
from repro.experiments import HARNESSES
from repro.orch import ResultStore, run_jobs

TIER = ("repro.session", "repro.kernels.registry", "repro.runtime.machine",
        "repro.audit.checker", "repro.sanitize.checker", "numpy")
at_fork = []
real_init = runner._Worker.__init__

def recording_init(self, ctx, wid):
    at_fork.append([name for name in TIER if name not in sys.modules])
    real_init(self, ctx, wid)

runner._Worker.__init__ = recording_init
jobs = [j for j in HARNESSES["fig11"].jobs(size="tiny") if j.key == "AES"]
out["before"] = [name for name in TIER if name in sys.modules]
outcomes = run_jobs(jobs, workers=1, store=ResultStore(sys.argv[1]))
out["statuses"] = [o.status for o in outcomes]
out["missing_at_fork"] = at_fork
"""


class TestForkRule:
    def test_pool_holds_the_tier_at_its_first_fork_and_only_on_a_miss(
            self, tmp_path):
        cold = probe(FORK_RULE, str(tmp_path))
        assert cold["before"] == []
        assert cold["statuses"] == ["ok"]
        assert cold["missing_at_fork"] == [[]]
        warm = probe(FORK_RULE, str(tmp_path))
        assert warm["statuses"] == ["cached"]
        assert warm["missing_at_fork"] == []  # nothing forked ...
        assert loaded(warm) == []             # ... nothing loaded

    def test_the_tier_covers_every_run_function(self):
        """After ``preload`` one job of each run function imports no
        further ``repro`` module and not numpy: what a forked worker
        needs is what its parent already holds."""
        out = probe("""
            from repro.experiments import HARNESSES
            from repro.orch.job import execute, preload

            by_fn = {}
            for name in HARNESSES:
                for job in HARNESSES[name].jobs(size="tiny"):
                    by_fn.setdefault(job.fn, job)
            out["errors"] = [preload(fn) for fn in by_fn]
            before = set(sys.modules)
            for job in by_fn.values():
                execute(job)
            out["fns"] = len(by_fn)
            out["new"] = sorted(m for m in set(sys.modules) - before
                                if m == "numpy" or m.startswith("repro"))
        """)
        assert out["fns"] >= 9 and out["errors"] == [None] * out["fns"]
        assert out["new"] == []

    def test_a_typo_fails_before_any_fork(self, tmp_path):
        from repro.orch import Job, run_jobs
        from repro.orch import runner

        good = Job("t", "ok", "repro.experiments.fig04_barrier:barrier_job",
                   params={"width": 2, "height": 2, "hw": True})
        typo = Job("t", "typo", "repro.experiments.fig04_barrier:barier_job")
        gone = Job("t", "gone", "repro.no_such_module:job")
        forks = []
        real_init = runner._Worker.__init__

        def counting_init(self, ctx, wid):
            forks.append(wid)
            real_init(self, ctx, wid)

        runner._Worker.__init__ = counting_init
        try:
            outcomes = run_jobs([typo, gone], workers=2)
            assert forks == []
            outcomes += run_jobs([good, typo], workers=2)
        finally:
            runner._Worker.__init__ = real_init
        assert [o.status for o in outcomes] == ["failed", "failed", "ok",
                                                "failed"]
        assert "barier_job" in outcomes[0].error
        assert "ModuleNotFoundError" in outcomes[1].error
        assert forks == [0]

    def test_shard_forks_inherit_the_kernels(self):
        out = probe("""
            import multiprocessing.process as mp
            from repro.arch.config import small_config
            from repro.pdes import LaunchSpec, run_cells

            TIER = ("repro.runtime.machine", "repro.audit.checker",
                    "repro.sanitize.checker", "repro.sanitize.xshard",
                    "tests.test_pdes_transport")
            at_fork = []
            real_start = mp.BaseProcess.start

            def recording_start(self):
                at_fork.append([n for n in TIER if n not in sys.modules])
                real_start(self)

            mp.BaseProcess.start = recording_start
            cfg = small_config(4, 4).with_geometry(cells_x=2, cells_y=1)
            res = run_cells(cfg, [
                LaunchSpec(cell=xy, kernel="tests.test_pdes_transport:"
                                           "idle_kernel")
                for xy in cfg.chip.cells()], workers=2)
            out["forked"] = res.sync["forked_workers"]
            out["missing_at_fork"] = at_fork
        """)
        assert out["forked"] == 1 and out["missing_at_fork"] == [[]]


# -- (d) the lazy surfaces themselves ---------------------------------------

class TestLazySurfaces:
    @pytest.mark.parametrize("package", ("",) + PACKAGES)
    def test_every_exported_name_resolves_and_is_listed(self, package):
        import importlib

        mod = importlib.import_module("repro." + package if package
                                      else "repro")
        assert mod.__all__ and len(set(mod.__all__)) == len(mod.__all__)
        listing = dir(mod)
        for name in mod.__all__:
            assert getattr(mod, name) is not None, (package, name)
            assert name in listing, (package, name)

    def test_star_import(self):
        namespace = {}
        exec("from repro import *", namespace)
        assert set(repro.__all__) <= set(namespace)

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'Sesion'"):
            repro.Sesion
        with pytest.raises(ImportError):
            exec("from repro.orch import run_job")

    def test_one_helper_behind_every_init(self):
        """No per-package variant: each ``__init__`` is the docstring
        and one ``lazy(...)`` table (``experiments`` adds HARNESSES)."""
        import importlib

        for package in ("",) + PACKAGES:
            mod = importlib.import_module("repro." + package if package
                                          else "repro")
            assert mod.__getattr__.__module__ == _lazy.__name__, package
            assert mod.__dir__.__module__ == _lazy.__name__, package

    def test_lazily_exported_objects_pickle(self):
        from repro.orch import Job

        for obj in (repro.HB_16x8, repro.TraceConfig(), repro.AuditConfig(),
                    Job("t", "k", "m:f", params={"a": 1})):
            assert pickle.loads(pickle.dumps(obj)) == obj
        assert pickle.loads(pickle.dumps(repro.MachineConfig)) \
            is repro.MachineConfig

    def test_harnesses_is_a_mutable_dict(self, monkeypatch):
        from repro import experiments

        assert isinstance(experiments.HARNESSES, dict)
        before = list(experiments.HARNESSES)
        monkeypatch.setitem(experiments.HARNESSES, "extra", experiments.tables)
        assert list(experiments.HARNESSES) == before + ["extra"]
        assert experiments.HARNESSES["extra"] is experiments.tables
        monkeypatch.undo()
        assert list(experiments.HARNESSES) == before
        assert experiments.HARNESSES["tables"] is experiments.tables
        assert experiments.HARNESSES.get("nope") is None
        assert all(hasattr(mod, "reduce")
                   for mod in experiments.HARNESSES.values())
        assert dict(experiments.HARNESSES.items())["fig4"] \
            is experiments.fig04_barrier
