"""Host-throughput measurement: how fast the simulator itself runs.

The model's usefulness scales with how many simulated events the host
can push per second, so this module gives the engine a first-class
benchmark rig:

* :func:`measure_kernel` / :func:`measure_suite` -- wall-clock and
  events/sec for suite kernels (the numbers ``benchmarks/bench_engine.py``
  writes to ``BENCH_engine.json``);
* :func:`profile_top` -- a cProfile wrapper returning the top-N hot
  functions of any callable (behind the CLI's ``--profile`` flag).

Wall-clock numbers use ``min`` over repeats: the minimum is the least
noisy estimator of the true cost on a busy host.  Simulated results are
deterministic, so repeats never disagree on cycles or event counts.
"""

from __future__ import annotations

import cProfile
import io
import os
import pstats
import time
from typing import Any, Dict, Iterable, List, Optional

from ..experiments.common import suite_args
from ..kernels import registry
from ..session import run as run_kernel


def measure_kernel(config: Any, name: str, size: str = "small",
                   repeats: int = 3, **run_kwargs: Any) -> Dict[str, Any]:
    """Time one suite kernel; returns a JSON-ready sample.

    The sample reports the best wall-clock over ``repeats`` runs, the
    simulator's executed-event count, and the derived events/sec and
    simulated-cycles/sec throughput.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    bench = registry.SUITE[name]
    best_wall = float("inf")
    events = 0
    result = None
    for _ in range(repeats):
        args = suite_args(name, size)  # rebuilt per run: kernels mutate args
        t0 = time.perf_counter()
        result = run_kernel(config, bench.kernel, args,
                            keep_machine=True, **run_kwargs)
        wall = time.perf_counter() - t0
        if wall < best_wall:
            best_wall = wall
        events = result.machine.sim.events_executed
    return {
        "kernel": name,
        "size": size,
        "config": result.config_name,
        "repeats": repeats,
        "wall_seconds": best_wall,
        "events": events,
        "events_per_sec": events / best_wall if best_wall > 0 else 0.0,
        "cycles": result.cycles,
        "sim_cycles_per_sec": result.cycles / best_wall if best_wall > 0 else 0.0,
        "instructions": result.instructions,
        "num_tiles": result.num_tiles,
    }


def measure_suite(config: Any, size: str = "small",
                  kernels: Optional[Iterable[str]] = None,
                  repeats: int = 3, **run_kwargs: Any) -> Dict[str, Dict[str, Any]]:
    """Measure several suite kernels; returns ``{name: sample}``."""
    names: List[str] = list(kernels) if kernels is not None else list(registry.SUITE)
    return {
        name: measure_kernel(config, name, size=size, repeats=repeats,
                             **run_kwargs)
        for name in names
    }


def measure_cells(config: Any, name: str, size: str = "tiny",
                  workers: int = 2, repeats: int = 1,
                  window: Optional[float] = None,
                  words: int = 64) -> Dict[str, Any]:
    """Serial-vs-parallel PDES throughput for one multi-Cell workload.

    ``name`` is a suite kernel (one independent instance per Cell) or a
    cross-Cell fixture (``"exchange"``/``"pipeline"``).  Runs the same
    workload three ways -- the monolithic single-event-queue machine
    (what PDES replaces), PDES with 1 worker, PDES with ``workers``
    workers -- checks the 1-vs-N fingerprints agree, and reports
    aggregate simulated-cycles/sec for each.  ``scaling`` is the
    parallel-PDES/monolithic throughput ratio: the actual speedup of
    sharding the chip.  For suite kernels (Cell-local by design) the
    monolithic and PDES cycle counts must also agree exactly
    (``cycles_match_monolithic``).  The fixtures cross the seam, where
    PDES *prices* contention instead of simulating shared links, so
    exact agreement is not expected; the sample instead reports the
    accuracy columns -- per-launch monolithic cycles against both the
    contention-priced (default) and the old zero-load-priced PDES runs
    (``contention_gap`` / ``zero_load_gap``, sums of per-launch
    absolute differences).
    """
    from ..kernels.registry import SUITE
    from ..pdes import LaunchSpec, run_cells
    from ..pdes import fixture as xfix
    from ..pdes.shard import resolve_kernel
    from ..session import Session

    cells = list(config.chip.cells())

    def make_launches() -> List[Any]:
        if name == "exchange":
            return xfix.exchange_launches(config, words=words)
        if name == "pipeline":
            return xfix.pipeline_launches(config, words=words)
        # One independent suite-kernel instance per Cell (args rebuilt
        # per Cell and per repeat: kernels mutate their args).  Suite
        # kernels are Cell-local, and declaring it (remote=False,
        # runtime-enforced) lets the coordinator free-run the shards
        # instead of paying a barrier every lookahead window.
        return [LaunchSpec(cell=xy, kernel=name, args=suite_args(name, size),
                           remote=False)
                for xy in cells]

    walls: Dict[int, float] = {}
    runs: Dict[int, Any] = {}
    for w in (1, workers):
        best = float("inf")
        for _ in range(repeats):
            launches = make_launches()
            t0 = time.perf_counter()
            res = run_cells(config, launches, workers=w, window=window)
            best = min(best, time.perf_counter() - t0)
        walls[w] = best
        runs[w] = res
    serial, parallel = runs[1], runs[workers]
    agg = serial.aggregate_cycles
    serial_rate = agg / walls[1] if walls[1] > 0 else 0.0
    parallel_rate = agg / walls[workers] if walls[workers] > 0 else 0.0
    mono_wall = float("inf")
    for _ in range(repeats):
        sess = Session(config)
        for spec in make_launches():
            sess.launch(resolve_kernel(spec.kernel),
                        dict(spec.args) if spec.args else None,
                        cell=tuple(spec.cell))
        t0 = time.perf_counter()
        results = sess.run()
        mono_wall = min(mono_wall, time.perf_counter() - t0)
    mono_cycles = [r.cycles for r in results]
    mono_rate = agg / mono_wall if mono_wall > 0 else 0.0
    cycles_match: Optional[bool] = None
    zero_cycles: Optional[List[float]] = None
    zero_gap: Optional[float] = None
    cont_gap: Optional[float] = None
    if name in SUITE:
        cycles_match = mono_cycles == serial.cycles
    else:
        # Fixture accuracy columns: the default PDES runs above price
        # inter-Cell contention; one extra zero-load-priced run shows
        # what the old optimistic model would have reported.
        zero = run_cells(config, make_launches(), workers=1, window=window,
                         contention=False)
        zero_cycles = zero.cycles
        zero_gap = sum(abs(m - c) for m, c in zip(mono_cycles, zero_cycles))
        cont_gap = sum(abs(m - c) for m, c in zip(mono_cycles, serial.cycles))
    base_rate = mono_rate if mono_rate else serial_rate
    try:
        host_cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux host
        host_cpus = os.cpu_count() or 1
    return {
        "kernel": name,
        "size": size,
        "config": config.name,
        "cells": [list(c) for c in serial.cells],
        "workers": workers,
        "window": serial.window,
        "lookahead": serial.lookahead,
        "rounds": serial.rounds,
        "messages": serial.messages,
        "repeats": repeats,
        "deterministic": serial.fingerprint() == parallel.fingerprint(),
        "cycles": serial.cycles,
        "aggregate_cycles": agg,
        "events": serial.total_events,
        "serial_wall_seconds": walls[1],
        "parallel_wall_seconds": walls[workers],
        "monolithic_wall_seconds": mono_wall,
        "serial_sim_cycles_per_sec": serial_rate,
        "parallel_sim_cycles_per_sec": parallel_rate,
        "monolithic_sim_cycles_per_sec": mono_rate,
        "cycles_match_monolithic": cycles_match,
        "monolithic_cycles": mono_cycles,
        "zero_load_cycles": zero_cycles,
        "zero_load_gap": zero_gap,
        "contention_gap": cont_gap,
        "contention": serial.contention,
        # Where the parallel run's host time went (its last repeat).
        "sync": parallel.sync,
        "scaling": parallel_rate / base_rate if base_rate else 0.0,
        # Workers time-share when the host has fewer CPUs than workers,
        # so interpret ``scaling`` against this: on a 1-CPU host it
        # saturates at ~1x by construction (the free-run coordinator
        # removes sync overhead, but cannot mint a second core).
        "host_cpus": host_cpus,
    }


def profile_top(fn: Any, *args: Any, limit: int = 25,
                sort: str = "tottime", **kwargs: Any) -> str:
    """Run ``fn(*args, **kwargs)`` under cProfile; return the top table.

    The callable's own return value is discarded -- this is a diagnosis
    tool, not a transparent wrapper.
    """
    prof = cProfile.Profile()
    prof.enable()
    try:
        fn(*args, **kwargs)
    finally:
        prof.disable()
    out = io.StringIO()
    pstats.Stats(prof, stream=out).sort_stats(sort).print_stats(limit)
    return out.getvalue()
