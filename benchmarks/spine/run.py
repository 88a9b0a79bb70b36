#!/usr/bin/env python3
"""The measurement spine: one command, four workloads, every metric by name.

    python3 benchmarks/spine/run.py --workload kernels --seed 0 \\
        --seconds 22 --trace 0

Every run sets up, makes one pass over all four user paths (kernels,
sweep, serve, cells), then spends the rest of ``--seconds`` on further
passes of the path ``--workload`` names.  ``--trace 1`` instead follows
the first pass with one traced pass (spans, cProfile by package) and
the standalone layer drives, and reports the per-layer metrics.  The
last line of standard output is the result as one JSON object.

Other entry points: ``selfcheck`` (import allow-list), ``--compare
A.json B.json`` and ``--spread FILE...`` (repeatability), ``--smoke``
(a short run with the same names).  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import atexit
import json
import os
import signal
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

import common
from common import NoProgram, Work, calibrate, median

WORKLOADS = ("kernels", "sweep", "serve", "cells")
#: What every untraced run does before the named workload gets the rest
#: of the time.  The two process-level paths go round twice: one sample
#: of a 1 s subprocess or of a daemon's latency mode is not a measurement.
PANEL = ("kernels", "sweep", "serve", "cells", "sweep", "serve")
SETUP_REPEATS = 3
MANIFEST = os.path.join(common.ROOT, "BENCHMARK.json")


class Ctx:
    """What the four paths share: the seed, the scratch directory and the
    tally of operations attempted and failed (checks count as both)."""

    def __init__(self, seed: int, smoke: bool, work: Work) -> None:
        self.seed = seed
        self.smoke = smoke
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []

    def attempt(self, n: int = 1) -> None:
        self.attempted += n

    def fail(self, what: str) -> None:
        self.failed += 1
        self.notes.append(what)

    def check(self, what: str, ok: Any) -> None:
        self.attempt()
        if not ok:
            self.fail("check failed -- " + what)


def _install_cleanup(work: Work) -> None:
    """Kill every child group and drop the scratch directory on any way
    out: normal return, exception, SIGTERM, Ctrl-C."""
    atexit.register(work.close)

    def on_signal(signum: int, _frame: Any) -> None:
        if os.getpid() != work.owner:  # a forked worker being terminated
            signal.signal(signum, signal.SIG_DFL)
            os.kill(os.getpid(), signum)
            return
        work.close()
        os._exit(128 + signum)

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)


def measure(args: argparse.Namespace) -> Dict[str, Any]:
    calib_before = calibrate()

    t0 = time.perf_counter()
    import drives  # pulls in repro and every layer it drives
    from spans import OFF, Recorder, validate_chrome
    from wl_cells import CellsPath
    from wl_kernels import KernelsPath
    from wl_serve import ServePath
    from wl_sweep import SweepPath
    import_s = time.perf_counter() - t0

    work = Work(f"{args.workload}-s{args.seed}")
    _install_cleanup(work)
    ctx = Ctx(args.seed, args.smoke, work)

    # -- set-up: repeated, so its reported time is a median ------------------
    setups: List[float] = []
    for repeat in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        kernels, sweep = KernelsPath(ctx), SweepPath(ctx)
        serve, cells = ServePath(ctx), CellsPath(ctx)
        serve.start()
        setups.append(time.perf_counter() - t0)
        if repeat < SETUP_REPEATS - 1:
            serve.stop(final=False)
    paths = {"kernels": kernels, "sweep": sweep, "serve": serve,
             "cells": cells}
    setup_s = import_s + median(setups)

    # -- the timed region ----------------------------------------------------
    t_region = time.perf_counter()
    pass_wall: Dict[str, float] = {}
    for name in (WORKLOADS if args.trace or args.smoke else PANEL):
        t0 = time.perf_counter()
        paths[name].run_pass(OFF)
        pass_wall[name] = time.perf_counter() - t0
    extra = 0
    rec: Optional[Recorder] = None
    layer: Dict[str, Tuple[float, str]] = {}
    if args.trace:
        rec = Recorder()
        for name in WORKLOADS:
            with rec.span(f"{name}.pass", run=name):
                paths[name].run_pass(rec)
        kernels.run_checkers_alone()
        sweep.run_drive(rec)
        cells.run_zero_load()
        layer.update(drives.run_all(rec, args.seed, args.smoke))
    elif not args.smoke:
        native, last = paths[args.workload], pass_wall[args.workload]
        while time.perf_counter() - t_region + last <= args.seconds:
            t0 = time.perf_counter()
            native.run_pass(OFF)
            last = time.perf_counter() - t0
            extra += 1
    region_s = time.perf_counter() - t_region

    # -- teardown --------------------------------------------------------------
    serve.stop()
    survivors = work.survivors()
    work.close()
    ctx.check("no process of the benchmark survives it", not survivors)
    calib_after = calibrate()
    peak_mb = max(common.rss_high_water_mb(), serve.peak_mb,
                  common.reaped_children_peak_mb())

    end_to_end: Dict[str, Tuple[float, str]] = {
        "setup_s": (setup_s, "s"), "peak_rss_mb": (peak_mb, "MB")}
    for path in paths.values():
        end_to_end.update(path.end_to_end())
    drift = abs(calib_after - calib_before) / calib_before
    if rec is not None:
        for path in paths.values():
            layer.update(path.per_layer(rec))
        layer["host.nproc"] = (common.nproc(), "count")
        layer["host.calib_ops_per_s"] = (calib_before, "1/s")
        layer["host.calib_drift_ratio"] = (drift, "ratio")
        trace_path = os.path.join(common.WORK_PARENT,
                                  f"trace-{args.workload}.json")
        rec.write(trace_path)
        ctx.check("the spans form valid Chrome-trace JSON",
                  not validate_chrome(rec.chrome_trace()))
        shares = sum(v for k, (v, _u) in layer.items()
                     if k.endswith(".self_share"))
        ctx.check("the self_share metrics sum to 1", abs(shares - 1) <= 0.01)
    else:
        trace_path = None
    return {"end_to_end": end_to_end, "per_layer": layer, "ctx": ctx,
            "drift": drift, "region_s": region_s, "extra_passes": extra,
            "trace_path": trace_path}


def _manifest() -> Dict[str, Any]:
    with open(MANIFEST) as fh:
        return json.load(fh)


def report(args: argparse.Namespace, got: Dict[str, Any]) -> int:
    """Print every metric by name with its unit, then the result line."""
    manifest = _manifest()
    kind = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in manifest[kind]}
    metrics = got[kind]
    ctx: Ctx = got["ctx"]
    ctx.check(f"the run reports exactly the {kind} metrics BENCHMARK.json "
              "declares, in its units",
              {k: unit for k, (_v, unit) in metrics.items()} == declared)

    print(f"# benchmarks/spine: workload={args.workload} seed={args.seed} "
          f"trace={int(args.trace)} smoke={int(args.smoke)}")
    print(f"# timed region {got['region_s']:.1f} s "
          f"(the panel over all four paths + {got['extra_passes']} more "
          f"pass(es) of {args.workload}); closed loop, {common.WORKERS} "
          f"workers, {common.nproc()} host cpus")
    print("# The repo holds no RTL or silicon reference: the model is "
          "unvalidated against hardware,\n# so simulated speed-ups carry "
          "no hardware error figure.")
    if args.trace:
        anchor = metrics.get("model.fig10_final_geomean_x")
        if anchor:
            print(f"# paper anchor: fig10 final geomean {anchor[0]:.2f}x at "
                  "tiny size (paper: 5.2x at full size)")
        for name, (value, unit) in got["end_to_end"].items():
            print(f"#   (from the one untraced pass) {name} = {value:.6g} {unit}")
        print(f"# spans: {got['trace_path']}")
    if got["drift"] > 0.10:
        print(f"# noisy: host yardstick moved {100 * got['drift']:.1f} % "
              "during the run")
    for name in sorted(metrics):
        value, unit = metrics[name]
        print(f"{name:44s} {value:>16.6f} {unit}")
    for note in ctx.notes:
        print(f"# FAILED: {note}")

    result = {
        "correct": ctx.failed == 0,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    if args.out:
        record = dict(result, workload=args.workload, seed=args.seed,
                      trace=int(args.trace), drift=got["drift"])
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0 if ctx.failed == 0 else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("command", nargs="?", choices=["selfcheck"],
                        help="check the import allow-list and exit")
    parser.add_argument("--workload", choices=WORKLOADS, default="kernels")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the timed region (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one pass, 500 submissions, < 30 s in all")
    parser.add_argument("--out", metavar="FILE",
                        help="also write the result (for --compare)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--spread", nargs="+", metavar="FILE")
    args = parser.parse_args(argv)

    if args.command == "selfcheck":
        import selfcheck
        return selfcheck.main()
    if args.compare or args.spread:
        import compare
        if args.compare:
            return compare.compare(*args.compare, _manifest())
        return compare.spread(args.spread, _manifest())
    try:
        common.use_checkout()
    except NoProgram as exc:
        print(f"benchmarks/spine: {exc}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(_manifest()["run_seconds"])
    return report(args, measure(args))


if __name__ == "__main__":
    sys.exit(main())
