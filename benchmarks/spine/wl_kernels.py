"""Path 1, the model developer: one kernel at a time through ``repro.run``.

A pass runs the ten Table-I kernels and GEMV memory-side plain, then
PR, AES, Jacobi and BFS again with trace, sanitize and audit attached.
Kernels are interleaved inside a pass (never one kernel N times in a
row) so slow drift of the host lands on every kernel alike.
"""

from __future__ import annotations

import gc
import time
from typing import Any, Dict, List

import numpy as np

import repro
from repro.kernels import bfs, blackscholes, pagerank, smithwaterman
from repro.pim.kernels import OFFLOADS

import inputs
from common import PathBase, geomean, median

CHECKERS = ("trace", "sanitize", "audit")


class KernelsPath(PathBase):
    name = "kernels"

    def __init__(self, ctx: Any) -> None:
        super().__init__(ctx)
        self.cfg = repro.HB_16x8
        self.pim_cfg = self.cfg.with_pim()
        self.walls: Dict[str, List[float]] = {k: [] for k in inputs.KERNELS}
        self.checked_walls: Dict[str, List[float]] = {
            k: [] for k in inputs.CHECKED}
        self.alone_walls: Dict[str, Dict[str, float]] = {}
        self.cycles: Dict[str, float] = {}
        self.events: Dict[str, int] = {}
        self.instructions: Dict[str, float] = {}
        self.make_args_s: List[float] = []   # per pass that generated args
        self._made: List[float] = []         # this pass's generations
        # Input generation is set-up: the first pass uses these.
        self._ready: Dict[str, Dict[str, Any]] = {}
        for key in inputs.KERNELS + tuple("checked:" + k
                                          for k in inputs.CHECKED):
            self._ready[key] = self._make(key)

    def _make(self, key: str) -> Dict[str, Any]:
        name = key.rpartition(":")[2]
        if name == inputs.GEMV:
            return inputs.gemv_args(self.pim_cfg, self.ctx.seed)
        return inputs.kernel_args(name, self.ctx.seed)

    def _args(self, key: str, rec: Any) -> Dict[str, Any]:
        """Fresh args per run (kernels mutate them); the first pass
        consumes the set generated during set-up."""
        with rec.span("workloads.make_args"):
            if key in self._ready:
                return self._ready.pop(key)
            t0 = time.perf_counter()
            args = self._make(key)
            self._made.append(time.perf_counter() - t0)
            return args

    # -- single operations --------------------------------------------------

    def _run_plain(self, name: str, args: Dict[str, Any], rec: Any) -> Any:
        """One plain run; under a recorder, split at the layer seams."""
        if name == inputs.GEMV:
            off = OFFLOADS["GEMV"]
            cfg, kernel = self.pim_cfg, off.pim

            def setup(machine: Any) -> None:
                off.preload(machine.memsys.pim_engines[(0, 0)], args)
        else:
            cfg, kernel, setup = self.cfg, inputs.kernel_of(name), None
        if not rec.enabled:
            return repro.run(cfg, kernel, args, setup=setup,
                             keep_machine=True)
        with rec.span("runtime.build"):
            session = repro.Session(cfg)
        with rec.span("runtime.launch"):
            handle = session.launch(kernel, args, setup=setup)
        with rec.span("engine.run"), rec.profiled():
            session.machine.run_to_completion([handle])
        with rec.span("runtime.collect"):
            # The launch is finished, so this only aggregates counters.
            result, = session.run(keep_machine=True)
        return result

    def _note(self, name: str, result: Any) -> None:
        """Record the simulated counts; they must repeat exactly."""
        events = result.machine.sim.events_executed
        if name not in self.cycles:
            self.cycles[name] = float(result.cycles)
            self.events[name] = events
            self.instructions[name] = float(result.instructions)
        self.ctx.check(
            f"kernels: {name} cycles and events repeat across passes",
            self.cycles[name] == result.cycles
            and self.events[name] == events)

    # -- one pass -----------------------------------------------------------

    def run_pass(self, rec: Any) -> None:
        ctx = self.ctx
        first = not self.cycles
        self._made = []
        t_pass = time.perf_counter()
        kept: Dict[str, Dict[str, Any]] = {}
        for name in inputs.KERNELS:
            with rec.span("kernels.run", run=name):
                a = self._args(name, rec)
                ctx.attempt()
                gc.collect()  # start every timed run from the same heap
                t0 = time.perf_counter()
                result = self._run_plain(name, a, rec)
                wall = time.perf_counter() - t0
            if not rec.enabled:
                self.walls[name].append(wall)
            self._note(name, result)
            kept[name] = a
        for name in inputs.CHECKED:
            with rec.span("kernels.run_checked", run=name):
                a = self._args("checked:" + name, rec)
                ctx.attempt()
                gc.collect()
                t0 = time.perf_counter()
                result = repro.run(self.cfg, inputs.kernel_of(name), a,
                                   trace=True, sanitize=True, audit=True)
                wall = time.perf_counter() - t0
            if not rec.enabled:
                self.checked_walls[name].append(wall)
            ctx.check(f"kernels: {name} checked cycles equal plain",
                      result.cycles == self.cycles[name])
            ctx.check(f"kernels: {name} sanitizer clean",
                      result.extra["sanitize"].clean)
            ctx.check(f"kernels: {name} audit clean",
                      result.extra["audit"].clean)
        self.note_pass(rec, time.perf_counter() - t_pass)
        if self._made:
            self.make_args_s.append(sum(self._made))
        if first:
            self._check_outputs(kept)

    def _check_outputs(self, args: Dict[str, Dict[str, Any]]) -> None:
        """Functional outputs against the host references (first pass).

        PR and BS are timing-only kernels in this model (they write no
        functional result), so for them the reference is evaluated on
        the generated input and must be finite: the input is checked,
        not an output."""
        ctx = self.ctx
        a = args["BFS"]
        ctx.check("kernels: BFS distances equal reference_bfs",
                  np.array_equal(a["state"]["distance"],
                                 bfs.reference_bfs(a["graph"], a["source"])))
        a = args["SW"]
        scores = a.get("computed_scores", {})
        ctx.check("kernels: SW scores equal reference_score",
                  len(scores) == a["num_pairs"] and all(
                      score == smithwaterman.reference_score(
                          a["query_data"][pair], a["ref_data"][pair])
                      for pair, score in scores.items()))
        a = args["PR"]
        ranks = pagerank.reference_pagerank(a["graph"], a["iters"])
        ctx.check("kernels: PR reference finite on the generated graph",
                  bool(np.all(np.isfinite(ranks)) and np.all(ranks > 0)))
        prices = blackscholes.reference_prices(args["BS"]["batch"])
        ctx.check("kernels: BS reference finite on the generated batch",
                  bool(np.all(np.isfinite(prices))))
        # GEMV: the tile-side kernel on the plain machine must produce
        # the memory-side result bit for bit.
        tile_args = inputs.gemv_args(self.pim_cfg, ctx.seed)
        ctx.attempt()
        repro.run(self.cfg, OFFLOADS["GEMV"].tile, tile_args)
        ctx.check("kernels: GEMV tile-side equals memory-side bitwise",
                  tile_args["out"] == args[inputs.GEMV]["out"])

    def run_checkers_alone(self) -> None:
        """Each checker alone on the four checked kernels (traced run)."""
        for name in inputs.CHECKED:
            self.alone_walls[name] = {}
            for checker in CHECKERS:
                a = inputs.kernel_args(name, self.ctx.seed)
                self.ctx.attempt()
                t0 = time.perf_counter()
                repro.run(self.cfg, inputs.kernel_of(name), a,
                          **{checker: True})
                self.alone_walls[name][checker] = time.perf_counter() - t0

    # -- metrics ------------------------------------------------------------

    def _rate(self, names: Any, walls: Dict[str, List[float]]) -> float:
        return geomean(self.cycles[k] / median(walls[k]) for k in names)

    def end_to_end(self) -> Dict[str, Any]:
        return {
            "remote_sim_cycles_per_s": (
                self._rate(inputs.REMOTE_GROUP, self.walls), "cycles/s"),
            "local_sim_cycles_per_s": (
                self._rate(inputs.LOCAL_GROUP, self.walls), "cycles/s"),
            "checked_sim_cycles_per_s": (
                self._rate(inputs.CHECKED, self.checked_walls), "cycles/s"),
        }

    def per_layer(self, rec: Any) -> Dict[str, Any]:
        out: Dict[str, Any] = {}
        for k in inputs.KERNELS:
            out[f"kernel.{k}.sim_cycles_per_s"] = (
                self.cycles[k] / median(self.walls[k]), "cycles/s")
            out[f"kernel.{k}.cycles"] = (self.cycles[k], "count")
            out[f"kernel.{k}.events_per_cycle"] = (
                self.events[k] / self.cycles[k], "count")
        suite = inputs.REMOTE_GROUP + inputs.LOCAL_GROUP
        out["engine.host_us_per_event"] = (
            1e6 * sum(median(self.walls[k]) for k in suite)
            / sum(self.events[k] for k in suite), "us")
        out["core.instr_per_s"] = (
            sum(self.instructions[k] for k in inputs.LOCAL_GROUP)
            / sum(median(self.walls[k]) for k in inputs.LOCAL_GROUP), "1/s")
        for checker in CHECKERS:
            out[f"{checker}.slowdown_x"] = (geomean(
                self.alone_walls[k][checker] / median(self.walls[k])
                for k in inputs.CHECKED), "x")
        runs = len(inputs.KERNELS)
        out["runtime.build_ms"] = (
            1e3 * rec.total("runtime.build") / runs, "ms")
        out["runtime.collect_ms"] = (
            1e3 * rec.total("runtime.collect") / runs, "ms")
        out["workloads.make_args_ms"] = (
            1e3 * median(self.make_args_s), "ms")
        for layer, share in rec.self_shares().items():
            out[f"{layer}.self_share"] = (share, "ratio")
        out.update(self.trace_overhead())
        return out
