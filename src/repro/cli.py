"""Command-line entry point: ``python -m repro <experiment>``.

Runs one of the paper-figure harnesses (or the whole set) and prints the
reproduced figure.  ``python -m repro list`` shows what is available.

* ``repro sweep <experiment|all>`` runs the experiment's job grid
  through the orchestrator: worker pool, content-addressed result cache
  (``.repro-cache/``), JSONL run journal, per-job timeout and retry;
  with ``--server HOST:PORT`` (or ``$REPRO_SERVER``) the same sweep is
  a thin client of a running scheduler daemon instead -- payloads are
  bit-identical either way;
* ``repro all`` is the same sweep over every experiment;
* ``repro serve`` starts the scheduler daemon: one warm worker pool,
  result cache and journal shared by every client (see
  :mod:`repro.serve`);
* ``repro submit <experiment|all>`` submits a job plan to a daemon and
  streams its progress events (``--events PATH`` records them);
* ``repro journal <path>`` summarizes a previous sweep's (or serve
  daemon's) journal;
* ``repro trace <kernel>`` runs one suite kernel with the cycle-timeline
  tracer attached and writes a Chrome-trace JSON (open in Perfetto);
* ``repro sanitize <kernel|fixture>`` runs one suite kernel (or the
  seeded-race diagnostic fixture) under the happens-before race checker
  and exits 1 if it finds anything;
* ``repro audit <kernel|all>`` runs one suite kernel (or every kernel)
  under the timing-model invariant/differential checker and exits 1 on
  any violation;
* ``repro cells <kernel|exchange|pipeline>`` simulates a multi-Cell
  grid as parallel PDES shards (``--cells CXxCY``, ``--cell-workers``,
  ``--check-determinism``);
* ``repro kernels`` lists the Table-I benchmark registry;
* ``--profile`` wraps any experiment in cProfile and prints the hottest
  functions.

The simulator's own host throughput is measured by
``benchmarks/spine/run.py``, not by this CLI.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional

from . import __version__

#: Rough single-run cost at default sizes, to set expectations.
COST_HINT = {
    "fig3": "~10 s", "fig4": "<1 s", "fig10": "minutes", "fig11": "~1 min",
    "fig12": "~1 min", "fig13": "<5 s", "fig14": "~2 min",
    "fig15": "minutes", "fig16": "~1 min", "tables": "<5 s",
    "ablations": "~3 min", "chip": "~30 s",
}

#: The runnable figures/tables, in ``repro list`` order; each resolves to
#: its harness module's ``main`` when (and only when) it is the command.
EXPERIMENTS = tuple(COST_HINT)


def _parse_cells(text: str) -> tuple:
    """``"2x1"`` -> ``(2, 1)`` (the --cells grid syntax)."""
    try:
        x, _, y = text.lower().partition("x")
        cx, cy = int(x), int(y)
        if cx < 1 or cy < 1:
            raise ValueError
        return cx, cy
    except ValueError:
        raise SystemExit(f"bad --cells {text!r}: want CXxCY, e.g. 2x1")


def _profile_top(fn, **kwargs) -> str:
    """Run ``fn(**kwargs)`` under cProfile; return the 25 hottest
    functions by own time (``fn``'s return value is discarded)."""
    import cProfile
    import io
    import pstats

    prof = cProfile.Profile()
    prof.runcall(fn, **kwargs)
    out = io.StringIO()
    pstats.Stats(prof, stream=out).sort_stats("tottime").print_stats(25)
    return out.getvalue()


def _kernels_cmd() -> int:
    """``repro kernels``: the Table-I registry plus the PIM offloads."""
    from .experiments.common import SIZES
    from .kernels.registry import SUITE
    from .pim.kernels import OFFLOADS

    print(f"{'name':8s} {'side':5s} {'dwarf':22s} {'category':18s} sizes")
    for name, bench in SUITE.items():
        print(f"{name:8s} {'tile':5s} {bench.dwarf:22s} "
              f"{bench.category:18s} " + ", ".join(SIZES))
    for name in OFFLOADS:
        print(f"{name:8s} {'pim':5s} {'Dense Linear Algebra':22s} "
              f"{'pim-offload':18s} " + ", ".join(SIZES)
              + "  (repro pim " + name.lower() + ")")
    print("fixture  tile  diagnostic             fixture            "
          "(seeded races; repro sanitize fixture)")
    return 0


def _pim_cmd(args: argparse.Namespace) -> int:
    """``repro pim <kernel|all>``: offload comparison, tile vs memory side.

    Exit 1 when any comparison's functional results mismatch (the PIM
    datapath diverged from the tile-side reference), 2 on bad usage.
    """
    import json

    from .experiments import pim_offload
    from .pim.kernels import OFFLOADS

    if not args.target:
        print("pim: missing kernel (repro pim <kernel|all>); one of: "
              + ", ".join(OFFLOADS) + ", all", file=sys.stderr)
        return 2
    size = args.size or "small"
    target = args.target.lower()
    if target == "all":
        names = list(OFFLOADS)
    else:
        by_lower = {k.lower(): k for k in OFFLOADS}
        name = by_lower.get(target)
        if name is None:
            print(f"unknown offload kernel {args.target!r}; one of: "
                  + ", ".join(OFFLOADS) + ", all", file=sys.stderr)
            return 2
        names = [name]
    reports = [
        pim_offload.run_offload(name, size=size,
                                audit=args.audit_cells,
                                sanitize=args.sanitize_cells)
        for name in names
    ]
    payload = reports[0] if len(reports) == 1 else {
        "size": size,
        "match": all(r["match"] for r in reports),
        "kernels": {r["kernel"]: r for r in reports},
    }
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for rep in reports:
            verdict = "match" if rep["match"] else "MISMATCH"
            print(f"{rep['kernel']} ({size}) on {rep['config']}: "
                  f"tile {rep['tile']['cycles']:g} cyc / "
                  f"{rep['tile']['energy_pj']:g} pJ vs pim "
                  f"{rep['pim']['cycles']:g} cyc / "
                  f"{rep['pim']['energy_pj']:g} pJ "
                  f"(speedup {rep['speedup']:.2f}x) -- {verdict}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        if not args.json:
            print(f"wrote {args.out}")
    return 0 if all(r["match"] for r in reports) else 1


def _sanitize_cmd(args: argparse.Namespace) -> int:
    """``repro sanitize <kernel|fixture>``: one checked run, report out."""
    import json

    from .arch.config import HB_16x8, small_config
    from .experiments.common import suite_args
    from .kernels.registry import SUITE
    from .sanitize import FIXTURE, fixture_args, format_report, sanitize_report
    from .session import Session

    if not args.target:
        print("sanitize: missing kernel (repro sanitize <kernel>); one of: "
              + ", ".join(SUITE) + ", fixture", file=sys.stderr)
        return 2
    size = args.size or "small"
    if args.target.lower() == "fixture":
        # The seeded-bug diagnostic: a small machine is plenty.
        config, kernel = small_config(4, 4), FIXTURE
        kernel_args, name = fixture_args(), "fixture"
    else:
        by_lower = {k.lower(): k for k in SUITE}
        name = by_lower.get(args.target.lower())
        if name is None:
            print(f"unknown suite kernel {args.target!r}; one of: "
                  + ", ".join(SUITE) + ", fixture", file=sys.stderr)
            return 2
        config, kernel = HB_16x8, SUITE[name].kernel
        kernel_args = suite_args(name, size)
    session = Session(config, sanitize=True)
    session.launch(kernel, kernel_args)
    result = session.run()[0]
    report = sanitize_report(session.sanitizer)
    report["kernel"], report["size"] = name, size
    report["config"], report["cycles"] = config.name, result.cycles
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(f"{name} ({size}) on {config.name}: {result.cycles:g} cycles")
        print(format_report(report))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
        if not args.json:
            print(f"wrote {args.out}")
    return 0 if report["clean"] else 1


def _audit_cmd(args: argparse.Namespace) -> int:
    """``repro audit <kernel|all>``: audited run(s), report out, exit 1
    on any invariant or differential violation."""
    import json

    from .arch.config import HB_16x8
    from .audit import audit_report, format_report
    from .experiments.common import suite_args
    from .kernels.registry import SUITE
    from .session import Session

    if not args.target:
        print("audit: missing kernel (repro audit <kernel|all>); one of: "
              + ", ".join(SUITE) + ", all", file=sys.stderr)
        return 2
    size = args.size or "small"
    target = args.target.lower()
    if target == "all":
        names = list(SUITE)
    else:
        by_lower = {k.lower(): k for k in SUITE}
        name = by_lower.get(target)
        if name is None:
            print(f"unknown suite kernel {args.target!r}; one of: "
                  + ", ".join(SUITE) + ", all", file=sys.stderr)
            return 2
        names = [name]

    runs = []
    for name in names:
        session = Session(HB_16x8, audit=True)
        session.launch(SUITE[name].kernel, suite_args(name, size))
        result = session.run()[0]
        report = audit_report(session.auditor)
        report["kernel"], report["size"] = name, size
        report["config"], report["cycles"] = HB_16x8.name, result.cycles
        runs.append(report)
        if not args.json:
            print(f"{name} ({size}) on {HB_16x8.name}: "
                  f"{result.cycles:g} cycles")
            print(format_report(report))
    clean = all(r["clean"] for r in runs)
    # Single-kernel reports stay flat (the sanitize schema); 'all' wraps
    # the per-kernel reports so one artifact carries the whole suite.
    payload = runs[0] if len(runs) == 1 else {
        "clean": clean, "size": size, "config": HB_16x8.name, "runs": runs}
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        if not args.json:
            print(f"wrote {args.out}")
    return 0 if clean else 1


def _cells_cmd(args: argparse.Namespace) -> int:
    """``repro cells <kernel|exchange|pipeline>``: one PDES run.

    Simulates every Cell of a ``--cells CXxCY`` grid as a parallel
    shard.  Suite kernels run one independent instance per Cell; the
    ``exchange``/``pipeline`` fixtures push real traffic across the
    Cell seams.  ``--check-determinism`` reruns with 1 worker and
    requires a bit-identical fingerprint; exit is non-zero on a
    fingerprint mismatch or an unclean audit/sanitize pass.
    """
    import json
    import os

    from .arch.config import HB_16x8
    from .experiments.common import suite_args
    from .kernels.registry import SUITE
    from .pdes import LaunchSpec, run_cells
    from .pdes import fixture as xfix

    cx, cy = _parse_cells(args.cells)
    config = HB_16x8.with_geometry(cells_x=cx, cells_y=cy)
    size = args.size or "tiny"
    target = (args.target or "exchange").lower()
    if target == "exchange":
        name, launches = "exchange", xfix.exchange_launches(config)
    elif target == "pipeline":
        name, launches = "pipeline", xfix.pipeline_launches(config)
    else:
        by_lower = {k.lower(): k for k in SUITE}
        name = by_lower.get(target)
        if name is None:
            print(f"unknown kernel {args.target!r}; one of: "
                  + ", ".join(SUITE) + ", exchange, pipeline",
                  file=sys.stderr)
            return 2
        launches = [LaunchSpec(cell=xy, kernel=name,
                               args=suite_args(name, size),
                               remote=False)
                    for xy in config.chip.cells()]
    workers = args.cell_workers or min(cx * cy, os.cpu_count() or 1)
    res = run_cells(config, launches, workers=workers,
                    window=args.sync_window, audit=args.audit_cells,
                    sanitize=args.sanitize_cells,
                    contention=args.contention)
    deterministic = None
    if args.check_determinism:
        ref = run_cells(config, launches, workers=1,
                        window=args.sync_window, audit=args.audit_cells,
                        sanitize=args.sanitize_cells,
                        contention=args.contention)
        deterministic = ref.fingerprint() == res.fingerprint()
    report = res.to_dict()
    report["kernel"], report["size"] = name, size
    if deterministic is not None:
        report["deterministic"] = deterministic
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(f"{name} ({size}) on {config.name} {cx}x{cy} cells, "
              f"{res.workers} worker(s):")
        for shard in res.shards:
            cyc = ", ".join(f"{c:g}" for c in shard["cycles"]) or "-"
            print(f"  cell {tuple(shard['cell'])}: {cyc} cycles, "
                  f"{shard['events']:,} events, "
                  f"{shard['sent']} msgs out / {shard['received']} in")
        print(f"  sync: window={res.window:g} (lookahead {res.lookahead:g}), "
              f"{res.rounds} rounds, {res.messages} cross-Cell messages, "
              f"{res.wall_seconds:.3f}s wall")
        s = res.sync
        print(f"  host: {s['init_s']:.3f}s init, "
              f"{s['local_advance_s']:.3f}s stepping own shards, "
              f"{s['remote_wait_s']:.3f}s waiting on "
              f"{s['forked_workers']} forked worker(s) over "
              f"{s['round_trips']} round trips, "
              f"{s['pricing_s']:.3f}s pricing; "
              f"{s['messages_per_round']['mean']:.1f} msgs/round "
              f"(max {s['messages_per_round']['max']})")
        if res.contention is not None:
            c = res.contention
            print(f"  contention: {c['stalled_packets']}/{c['packets']} "
                  f"packets stalled at Cell edges, "
                  f"{c['stall_cycles']:g} stall cycles")
        if deterministic is not None:
            print("  determinism: " + ("1-worker run is bit-identical"
                                       if deterministic else
                                       "MISMATCH vs 1-worker run"))
        if args.audit_cells or args.sanitize_cells:
            print("  checks: " + ("clean" if res.clean else "VIOLATIONS"))
        if res.xshard is not None and res.xshard["findings"]:
            for f in res.xshard["findings"][:4]:
                print(f"    xcell-race @ {f['addr']} "
                      f"({f['detail']}, x{f['count']})")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
        if not args.json:
            print(f"wrote {args.out}")
    failed = (deterministic is False) or not res.clean
    return 1 if failed else 0


def _trace_cmd(args: argparse.Namespace) -> int:
    """``repro trace <kernel>``: one traced run, Chrome-trace JSON out."""
    from .arch.config import HB_16x8
    from .experiments.common import suite_args
    from .kernels.registry import SUITE
    from .session import Session
    from .trace import TraceConfig, format_report, trace_report, write_chrome

    if not args.target:
        print("trace: missing kernel (repro trace <kernel>); one of: "
              + ", ".join(SUITE), file=sys.stderr)
        return 2
    by_lower = {k.lower(): k for k in SUITE}
    name = by_lower.get(args.target.lower())
    if name is None:
        print(f"unknown suite kernel {args.target!r}; one of: "
              + ", ".join(SUITE), file=sys.stderr)
        return 2
    size = args.size or "tiny"
    config = TraceConfig(window=args.window)
    session = Session(HB_16x8, trace=config)
    session.launch(SUITE[name].kernel, suite_args(name, size))
    result = session.run()[0]
    out = args.out or f"trace_{name}.json"
    write_chrome(result.trace, out)
    print(f"{name} ({size}) on {HB_16x8.name}: {result.cycles:g} cycles")
    print(format_report(trace_report(result.trace)))
    print(f"wrote {out}")
    return 0


def _print_progress(outcome, done: int, total: int,
                    eta: Optional[float]) -> None:
    tail = f" eta {eta:,.0f}s" if eta is not None else ""
    wall = f" {outcome.wall_s:.2f}s" if outcome.wall_s else ""
    worker = f" w{outcome.worker}" if outcome.worker is not None else ""
    print(f"[{done}/{total}] {outcome.job.experiment}/{outcome.job.key}: "
          f"{outcome.status}{wall}{worker}{tail}", flush=True)


def _sweep_targets(args: argparse.Namespace):
    """Resolve a sweep/submit target into ``(target, names, sweeps)``
    (``None`` on an unknown target, after printing the complaint)."""
    import dataclasses

    from .experiments import HARNESSES
    from .orch import Sweep

    target = (args.target or "all").lower()
    if target == "all":
        names = list(HARNESSES)
    elif target in HARNESSES:
        names = [target]
    else:
        print(f"unknown sweep target {target!r}; one of: "
              + ", ".join(HARNESSES) + ", all", file=sys.stderr)
        return None

    sweeps = []
    for name in names:
        mod = HARNESSES[name]
        jobs = mod.jobs(size=args.size) if args.size else mod.jobs()
        if args.retries is not None:
            jobs = [dataclasses.replace(job, retries=args.retries)
                    for job in jobs]
        sweeps.append(Sweep(name, jobs, mod.reduce))
    return target, names, sweeps


def _server_outcomes(server: str, plan, *, use_cache: bool,
                     priority: int, name: str) -> list:
    """Run a plan through a serve daemon; outcomes align with
    ``plan.unique_jobs`` and carry the server's payloads verbatim (the
    bit-identity tests pin this against the in-process pool)."""
    from .orch import JobOutcome
    from .serve import Client

    with Client(server, name=name, priority=priority) as client:
        sub = client.submit([job.to_wire() for job in plan.unique_jobs],
                            use_cache=use_cache)
        prov = client.server
        print(f"server {server}: run {prov.get('run_id')}, submission "
              f"{sub['sub']}: {sub['queued']} queued, {sub['cached']} "
              f"cached, {sub['deduped']} deduped", flush=True)
        envelopes = client.results(sub["sub"], wait=True)
    outcomes = []
    for job, env in zip(plan.unique_jobs, envelopes):
        outcomes.append(JobOutcome(
            job, plan.key_of[id(job)], env["status"],
            payload=env["payload"], error=env["error"],
            wall_s=env.get("wall_s") or 0.0))
    return outcomes


def _sweep(args: argparse.Namespace, argv: List[str]) -> int:
    """``repro sweep <experiment|all>``: the orchestrated grid run."""
    import os
    import time

    from .experiments import HARNESSES
    from .orch import (
        ResultStore,
        RunJournal,
        build_plan,
        code_fingerprint,
        collect_payloads,
        reduce_all,
        run_jobs,
    )

    resolved = _sweep_targets(args)
    if resolved is None:
        return 2
    target, names, sweeps = resolved

    fingerprint = code_fingerprint()
    plan = build_plan(sweeps, fingerprint)
    workers = args.jobs if args.jobs is not None else (os.cpu_count() or 1)
    store = None if args.no_cache else ResultStore(args.cache_dir)
    deduped = plan.total_jobs - len(plan.unique_jobs)
    server = args.server or os.environ.get("REPRO_SERVER")
    print(f"sweep {target}: {len(plan.unique_jobs)} job(s)"
          + (f" ({deduped} shared)" if deduped else "")
          + (f" via server {server}" if server
             else f" on {workers} worker(s)")
          + f", fingerprint {fingerprint}",
          flush=True)

    t0 = time.perf_counter()
    if server:
        # Thin-client mode: the daemon owns pool, cache and journal.
        outcomes = _server_outcomes(
            server, plan, use_cache=not args.no_cache,
            priority=args.priority, name=f"sweep:{target}")
        wall = time.perf_counter() - t0
        counts: Dict[str, int] = {}
        for outcome in outcomes:
            counts[outcome.status] = counts.get(outcome.status, 0) + 1
    else:
        with RunJournal(args.journal) as journal:
            journal.write_header(
                version=__version__, fingerprint=fingerprint,
                argv=["repro"] + argv, sweeps=names, size=args.size,
                jobs=len(plan.unique_jobs), workers=workers,
                cache=not args.no_cache)
            keys = [plan.key_of[id(job)] for job in plan.unique_jobs]
            outcomes = run_jobs(
                plan.unique_jobs, workers=workers, store=store,
                fingerprint=fingerprint, keys=keys, journal=journal,
                default_timeout=args.timeout, use_cache=not args.no_cache,
                progress=_print_progress)
            wall = time.perf_counter() - t0
            counts = {}
            for outcome in outcomes:
                counts[outcome.status] = counts.get(outcome.status, 0) + 1
            journal.write_footer(wall_s=round(wall, 3), **counts)

    broken = []

    def on_error(sweep, exc) -> None:
        broken.append(sweep.name)
        print(f"sweep {sweep.name}: reduce failed: {exc}", file=sys.stderr)

    results = reduce_all(plan, collect_payloads(outcomes), on_error)
    for name in names:
        if name in results:
            print(f"\n########## {name} ##########")
            HARNESSES[name].render(results[name])

    summary = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
    print(f"\nsweep {target}: {summary} in {wall:.2f}s", flush=True)
    if args.journal:
        if server:
            print("note: --journal is server-side in --server mode "
                  "(the daemon journals; use 'repro submit --events' "
                  "to record the stream locally)", file=sys.stderr)
        else:
            print(f"journal: {args.journal}")
    bad = sum(v for k, v in counts.items() if k not in ("ok", "cached"))
    return 1 if (bad or broken) else 0


def _serve_cmd(args: argparse.Namespace) -> int:
    """``repro serve``: run the scheduler daemon until interrupted."""
    import os

    from .serve import ServeConfig, run_daemon

    workers = args.jobs if args.jobs is not None else (os.cpu_count() or 1)
    config = ServeConfig(
        host=args.host, port=args.port, workers=workers,
        cache_dir=args.cache_dir, journal=args.journal,
        use_cache=not args.no_cache, default_timeout=args.timeout,
        quota=args.quota, stats_interval=args.stats_interval)
    return run_daemon(config)


def _submit_cmd(args: argparse.Namespace) -> int:
    """``repro submit <experiment|all>``: send a plan to a daemon and
    stream its progress events (no local reduce -- use ``repro sweep
    --server`` for the full figure)."""
    import json
    import os

    from .orch import build_plan, code_fingerprint
    from .serve import Client, validate_event

    server = args.server or os.environ.get("REPRO_SERVER")
    if not server:
        print("submit: no server (use --server HOST:PORT or set "
              "REPRO_SERVER)", file=sys.stderr)
        return 2
    resolved = _sweep_targets(args)
    if resolved is None:
        return 2
    target, _names, sweeps = resolved
    plan = build_plan(sweeps, code_fingerprint())

    events: List[dict] = []
    with Client(server, name=f"submit:{target}",
                priority=args.priority) as client:
        client.watch()  # before submit: no event of ours can be missed
        sub = client.submit([job.to_wire() for job in plan.unique_jobs],
                            use_cache=not args.no_cache)
        print(f"server {server}: run {client.server.get('run_id')}, "
              f"submission {sub['sub']}: {sub['queued']} queued, "
              f"{sub['cached']} cached, {sub['deduped']} deduped",
              flush=True)
        for event in client.stream(sub["sub"], timeout=args.timeout):
            events.append(event)
            problems = validate_event(event)
            if problems:
                print(f"submit: malformed event: {problems}",
                      file=sys.stderr)
            if event.get("event") == "job":
                print(f"  {event.get('experiment')}/{event.get('key')}: "
                      f"{event.get('outcome')} "
                      f"{event.get('wall_s', 0) or 0:.2f}s", flush=True)
        envelopes = client.results(sub["sub"], wait=True)
    if args.events:
        with open(args.events, "w") as fh:
            for event in events:
                json.dump(event, fh, sort_keys=True)
                fh.write("\n")
        print(f"events: {args.events} ({len(events)} records)")
    counts: Dict[str, int] = {}
    for env in envelopes:
        counts[env["status"]] = counts.get(env["status"], 0) + 1
    print("submit " + target + ": "
          + ", ".join(f"{k}={v}" for k, v in sorted(counts.items())),
          flush=True)
    bad = sum(v for k, v in counts.items() if k not in ("ok", "cached"))
    return 1 if bad else 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce figures/tables from the HammerBlade paper.",
    )
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    parser.add_argument(
        "experiment",
        help="one of: " + ", ".join(EXPERIMENTS)
             + ", sweep, serve, submit, journal, trace, sanitize, audit, "
               "cells, kernels, pim, list, all",
    )
    parser.add_argument(
        "target", nargs="?", default=None,
        help="sweep/submit: experiment name or 'all'; journal: path to a "
             "JSONL run journal; trace/sanitize/audit: suite kernel name "
             "(sanitize also accepts 'fixture'; audit also accepts 'all'); "
             "pim: offload kernel name or 'all'",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="run under cProfile and print the 25 hottest functions",
    )
    parser.add_argument("--size", default=None,
                        choices=("tiny", "small", "full"),
                        help="input size tier (default: per-experiment)")
    parser.add_argument("--out", default=None,
                        help="trace: output path (default: trace_<kernel>"
                             ".json); sanitize/audit/cells/pim: also write "
                             "the JSON report")
    parser.add_argument("--json", action="store_true",
                        help="sanitize/audit: print the report as JSON")
    parser.add_argument("--window", type=float, default=100.0, metavar="CYC",
                        help="trace: metrics sampling window in cycles "
                             "(default: 100)")
    parser.add_argument("--cells", default=None, metavar="CXxCY",
                        help="cells: Cell grid (default 2x1)")
    parser.add_argument("--cell-workers", type=int, default=None, metavar="N",
                        help="cells: processes hosting shards, the CLI's "
                             "own included (default: min(cells, cpus))")
    parser.add_argument("--sync-window", type=float, default=None,
                        metavar="CYC",
                        help="cells: conservative window size (default: "
                             "the inter-Cell lookahead)")
    parser.add_argument("--check-determinism", action="store_true",
                        help="cells: rerun with 1 worker and require a "
                             "bit-identical fingerprint")
    parser.add_argument("--audit", dest="audit_cells", action="store_true",
                        help="cells: attach the timing-model auditor to "
                             "every shard")
    parser.add_argument("--sanitize", dest="sanitize_cells",
                        action="store_true",
                        help="cells: attach the race checker to every shard "
                             "(includes the cross-shard stitching pass)")
    parser.add_argument("--contention", dest="contention",
                        action="store_true", default=True,
                        help="cells: price deterministic inter-Cell link "
                             "contention (default)")
    parser.add_argument("--no-contention", dest="contention",
                        action="store_false",
                        help="cells: price cross-Cell packets at the "
                             "zero-load floor (the old optimistic model)")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="sweep: worker processes (default: CPU count; "
                             "0 runs in-process)")
    parser.add_argument("--no-cache", action="store_true",
                        help="sweep: recompute everything, store nothing")
    parser.add_argument("--journal", default=None, metavar="PATH",
                        help="sweep: write a JSONL run journal to PATH")
    parser.add_argument("--timeout", type=float, default=None, metavar="S",
                        help="sweep: per-job timeout in seconds")
    parser.add_argument("--retries", type=int, default=None, metavar="N",
                        help="sweep: retry budget per job (overrides specs)")
    parser.add_argument("--cache-dir", default=None, metavar="PATH",
                        help="sweep/serve: result store location (default: "
                             "$REPRO_CACHE_DIR, else .repro-cache)")
    parser.add_argument("--server", default=None, metavar="HOST:PORT",
                        help="sweep/submit: talk to a running 'repro "
                             "serve' daemon instead of a local pool "
                             "(default: $REPRO_SERVER)")
    parser.add_argument("--priority", type=int, default=0,
                        help="sweep/submit --server: client priority "
                             "(higher runs first; default 0)")
    parser.add_argument("--host", default="127.0.0.1",
                        help="serve: bind address (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=9178,
                        help="serve: listen port (default 9178; 0 = "
                             "ephemeral)")
    parser.add_argument("--quota", type=int, default=None, metavar="N",
                        help="serve: max in-flight jobs per client "
                             "(default: unlimited)")
    parser.add_argument("--stats-interval", type=float, default=5.0,
                        metavar="S",
                        help="serve: seconds between streamed stats "
                             "events (0 disables; default 5)")
    parser.add_argument("--events", default=None, metavar="PATH",
                        help="submit: record the streamed events as "
                             "JSONL at PATH")
    args = parser.parse_args(argv)
    name = args.experiment.lower()
    if name == "list":
        for key in EXPERIMENTS:
            print(f"{key:8s} ({COST_HINT[key]})")
        print("sweep <experiment|all> (orchestrated: pool + result cache; "
              "--server HOST:PORT for thin-client mode)")
        print("serve (scheduler daemon: shared pool/cache/journal; "
              "--host/--port/--quota)")
        print("submit <experiment|all> (send a plan to a serve daemon "
              "and stream events)")
        print("journal <path> (summarize a sweep's or serve daemon's "
              "run journal)")
        print("trace <kernel> (traced run -> Chrome-trace JSON)")
        print("sanitize <kernel|fixture> (race/sync check; exit 1 on "
              "findings)")
        print("audit <kernel|all> (timing-model invariant check; exit 1 "
              "on violations)")
        print("cells <kernel|exchange|pipeline> (parallel multi-Cell "
              "PDES run; --cells CXxCY --cell-workers N)")
        print("kernels (list the Table-I benchmark registry and PIM "
              "offloads)")
        print("pim <kernel|all> (tile-side vs memory-side offload "
              "comparison; exit 1 on functional mismatch)")
        return 0
    if name == "kernels":
        return _kernels_cmd()
    if name == "pim":
        return _pim_cmd(args)
    if name == "sanitize":
        return _sanitize_cmd(args)
    if name == "audit":
        return _audit_cmd(args)
    if name == "cells":
        if args.cells is None:
            args.cells = "2x1"
        return _cells_cmd(args)
    if name == "trace":
        return _trace_cmd(args)
    if name == "sweep":
        return _sweep(args, argv)
    if name == "serve":
        return _serve_cmd(args)
    if name == "submit":
        return _submit_cmd(args)
    if name == "all":
        # The full set runs through the orchestrator: shared jobs are
        # deduplicated across figures and cached results are reused.
        args.target = "all"
        return _sweep(args, argv)
    if name == "journal":
        if not args.target:
            print("journal: missing path (repro journal <path>)",
                  file=sys.stderr)
            return 2
        import os
        if not os.path.isfile(args.target):
            print(f"journal: no such file {args.target}", file=sys.stderr)
            return 2
        from .profile.journal import main as journal_main
        return journal_main(args.target)
    if name not in EXPERIMENTS:
        print(f"unknown experiment {name!r}; try 'list'", file=sys.stderr)
        return 2
    from .experiments import HARNESSES

    fn = HARNESSES[name].main
    if args.profile:
        print(_profile_top(fn, size=args.size))
        return 0
    fn(size=args.size)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
