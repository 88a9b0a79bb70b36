"""Path 4, more than one Cell: ``run_cells`` against its monolithic twin.

HB-16x8 as 2x1 Cells.  Six entries: four cross-Cell fixtures (80-154
conservative rounds each: round- and transport-bound) and two Cell-local
kernels declared ``remote=False`` (one free-running round: engine-bound).
Each runs as PDES with 2 shard workers, as PDES in-process (1 worker,
the bit-exact reference of the windowed algorithm) and as one monolithic
``Session`` -- the more detailed model, which simulates the shared links
PDES only prices.
"""

from __future__ import annotations

import gc
import time
from typing import Any, Dict, List

import repro
from repro.pdes import resolve_kernel, run_cells

import inputs
from common import WORKERS, PathBase, geomean, median
from spans import OFF

#: The fixtures run 0.04-0.4 s each, so each is repeated inside a pass.
FIXTURE_REPEATS = 2


class CellsPath(PathBase):
    name = "cells"

    def __init__(self, ctx: Any) -> None:
        super().__init__(ctx)
        self.cfg = repro.HB_16x8.with_geometry(cells_x=2, cells_y=1)
        entries = inputs.CELL_ENTRIES
        self.walls: Dict[str, Dict[str, List[float]]] = {
            e: {"pdes2": [], "pdes1": [], "mono": []} for e in entries}
        self.rounds: Dict[str, int] = {}
        self.messages: Dict[str, int] = {}
        self.pdes_cycles: Dict[str, List[float]] = {}
        self.mono_cycles: Dict[str, List[float]] = {}
        self.zero_cycles: Dict[str, List[float]] = {}
        self._passes = 0
        # Launch plans are inputs; the first pass's are built in set-up.
        self._ready = {e: self._launches(e) for e in entries}

    def _launches(self, entry: str) -> List[Any]:
        return inputs.cells_launches(entry, self.cfg, self.ctx.seed)

    def _pdes(self, entry: str, workers: int, rec: Any, **kw: Any) -> Any:
        launches = self._ready.pop(entry, None) or self._launches(entry)
        self.ctx.attempt()
        gc.collect()  # start every timed run from the same heap
        t0 = time.perf_counter()
        with rec.span(f"pdes.run_cells.{workers}w", run=entry):
            result = run_cells(self.cfg, launches, workers=workers, **kw)
        return result, time.perf_counter() - t0

    def _mono(self, entry: str, rec: Any) -> Any:
        session = repro.Session(self.cfg)
        for spec in self._launches(entry):
            session.launch(resolve_kernel(spec.kernel),
                           dict(spec.args) if spec.args else None,
                           cell=tuple(spec.cell))
        self.ctx.attempt()
        gc.collect()
        t0 = time.perf_counter()
        with rec.span("pdes.monolithic", run=entry):
            results = session.run()
        return [float(r.cycles) for r in results], time.perf_counter() - t0

    def run_pass(self, rec: Any) -> None:
        """Every entry in every mode.  The in-process 1-worker run -- the
        fingerprint reference -- only in the run's first pass and in the
        traced pass: end-to-end metrics need the other two modes."""
        ctx = self.ctx
        timed = not rec.enabled
        with_serial = rec.enabled or self._passes == 0
        self._passes += 1
        t_pass = time.perf_counter()
        for entry in inputs.CELL_ENTRIES:
            repeats = FIXTURE_REPEATS if entry in inputs.FIXTURES else 1
            for _ in range(repeats):
                par, wall = self._pdes(entry, WORKERS, rec)
                if timed:
                    self.walls[entry]["pdes2"].append(wall)
                mono_cycles, wall = self._mono(entry, rec)
                if timed:
                    self.walls[entry]["mono"].append(wall)
            if entry not in self.rounds:
                self.rounds[entry] = par.rounds
                self.messages[entry] = par.messages
                self.pdes_cycles[entry] = list(par.cycles)
                self.mono_cycles[entry] = mono_cycles
            ctx.check(f"cells: {entry} counts repeat across passes",
                      (par.rounds, par.messages, list(par.cycles), mono_cycles)
                      == (self.rounds[entry], self.messages[entry],
                          self.pdes_cycles[entry], self.mono_cycles[entry]))
            if entry in inputs.FREE:
                ctx.check(f"cells: {entry} PDES cycles equal monolithic",
                          list(par.cycles) == mono_cycles)
            if with_serial:
                serial, wall = self._pdes(entry, 1, rec)
                if timed:
                    self.walls[entry]["pdes1"].append(wall)
                ctx.check(f"cells: {entry} 1- and {WORKERS}-worker "
                          "fingerprints identical",
                          serial.fingerprint() == par.fingerprint())
        if with_serial:  # only these passes are the traced one's like
            self.note_pass(rec, time.perf_counter() - t_pass)

    def run_zero_load(self) -> None:
        """The fixtures once more with optimistic zero-load pricing
        (traced run): how much of the accuracy the contention model buys."""
        for entry in inputs.FIXTURES:
            zero, _wall = self._pdes(entry, 1, OFF, contention=False)
            self.zero_cycles[entry] = list(zero.cycles)

    # -- metrics ------------------------------------------------------------

    def _gap(self, entry: str, cycles: Dict[str, List[float]]) -> float:
        return sum(abs(m - c) for m, c in
                   zip(self.mono_cycles[entry], cycles[entry]))

    def _gap_pct(self, cycles: Dict[str, List[float]]) -> float:
        return (100.0 * sum(self._gap(e, cycles) for e in inputs.FIXTURES)
                / sum(sum(self.mono_cycles[e]) for e in inputs.FIXTURES))

    def _speedup(self, entry: str, mode: str = "pdes2") -> float:
        w = self.walls[entry]
        return median(w["mono"]) / median(w[mode])

    def end_to_end(self) -> Dict[str, Any]:
        return {
            "cells_speedup_x": (geomean(
                self._speedup(e) for e in inputs.CELL_ENTRIES), "x"),
            "cells_gap_pct": (self._gap_pct(self.pdes_cycles), "pct"),
        }

    def per_layer(self, rec: Any) -> Dict[str, Any]:
        out: Dict[str, Any] = {}
        for e in inputs.CELL_ENTRIES:
            out[f"pdes.{e}.speedup_x"] = (self._speedup(e), "x")
            out[f"pdes.{e}.rounds"] = (self.rounds[e], "count")
            out[f"pdes.{e}.messages"] = (self.messages[e], "count")
        for e in inputs.FIXTURES:
            out[f"pdes.{e}.gap_cyc"] = (
                self._gap(e, self.pdes_cycles), "cycles")
        out["pdes.serial_speedup_x"] = (geomean(
            self._speedup(e, "pdes1") for e in inputs.CELL_ENTRIES), "x")
        out["pdes.ms_per_round"] = (
            1e3 * sum(median(self.walls[e]["pdes2"]) for e in inputs.FIXTURES)
            / sum(self.rounds[e] for e in inputs.FIXTURES), "ms")
        out["pdes.zero_load_gap_pct"] = (
            self._gap_pct(self.zero_cycles), "pct")
        out.update(self.trace_overhead())
        return out

