"""Command-line entry point: ``python -m repro <command>``.

One table, :data:`COMMANDS`, holds every command: its usage, its
one-line summary, the options it accepts and its handler.  ``repro
list``, ``repro --help`` and the command list below are derived from
it, and only the named command's parser is ever built, so an option
that belongs to another command is a usage error (exit 2).

* ``repro <figure>`` (``repro list`` names them) runs that paper-figure
  harness in-process -- ``render(reduce(execute_serial(jobs(size))))``
  -- and prints the reproduced figure; ``--profile`` wraps it in
  cProfile and prints the hottest functions.

The simulator's own host throughput is measured by
``benchmarks/spine/run.py``, not by this CLI.

Commands:

"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from . import __version__

#: Rough single-run cost at default sizes, to set expectations.
COST_HINT = {
    "fig3": "~10 s", "fig4": "<1 s", "fig10": "minutes", "fig11": "~1 min",
    "fig12": "~1 min", "fig13": "<5 s", "fig14": "~2 min",
    "fig15": "minutes", "fig16": "~1 min", "tables": "<5 s",
    "ablations": "~3 min", "chip": "~30 s",
}

#: The runnable figures/tables, in ``repro list`` order.
EXPERIMENTS = tuple(COST_HINT)


class _Usage(Exception):
    """A usage error a handler found: :func:`main` prints it to stderr
    and returns 2."""


def _checked(kind: Callable[[str], Any], ok: Callable[[Any], bool],
             want: str) -> Callable[[str], Any]:
    """An argparse ``type=``: ``kind(text)`` that must satisfy ``ok``;
    anything else is a usage error (exit 2) saying what was wanted."""
    def parse(text: str) -> Any:
        try:
            value = kind(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"want {want}, not {text!r}")
        return value
    return parse


def _grid(text: str) -> Tuple[int, int]:
    """``"2x1"`` -> ``(2, 1)`` (the --cells grid syntax)."""
    x, _, y = text.lower().partition("x")
    return int(x), int(y)


_COUNT = _checked(int, lambda n: n >= 0, "an integer >= 0")


#: Every option of every command: flag -> argparse keywords.  A command
#: accepts exactly the flags its :class:`Command` entry lists.
FLAGS: Dict[str, dict] = {
    "--size": dict(choices=("tiny", "small", "full"),
                   help="input size tier (default: per command)"),
    "--profile": dict(action="store_true",
                      help="print cProfile's 25 hottest functions too"),
    "--out": dict(metavar="PATH", help="also write the JSON report there "
                  "(trace: the Chrome trace, default trace_<kernel>.json)"),
    "--json": dict(action="store_true", help="print the report as JSON"),
    "--window": dict(type=float, default=100.0, metavar="CYC",
                     help="metrics sampling window (default: %(default)s)"),
    "--cells": dict(type=_checked(_grid, lambda xy: min(xy) >= 1,
                                  "CXxCY with both >= 1, e.g. 2x1"),
                    default="2x1", metavar="CXxCY", help="Cell grid "
                    "(default: %(default)s)"),
    "--cell-workers": dict(type=_checked(int, lambda n: n >= 1,
                                         "an integer >= 1"), metavar="N",
                           help="processes hosting shards, this one "
                                "included (default: min(cells, cpus))"),
    "--sync-window": dict(type=float, metavar="CYC", help="conservative "
                          "window (default: the inter-Cell lookahead)"),
    "--check-determinism": dict(action="store_true", help="rerun with 1 "
                                "worker; require a bit-identical result"),
    "--audit": dict(action="store_true",
                    help="attach the timing-model auditor"),
    "--sanitize": dict(action="store_true", help="attach the race checker "
                       "(cells: plus the cross-shard stitching pass)"),
    "--no-contention": dict(dest="contention", action="store_false",
                            help="price cross-Cell packets at the "
                                 "zero-load floor, not with link contention"),
    "--jobs": dict(type=_COUNT, metavar="N", help="worker processes "
                   "(default: CPU count; 0 runs in-process)"),
    "--no-cache": dict(action="store_true",
                       help="recompute everything, store nothing"),
    "--journal": dict(metavar="PATH", help="write a JSONL run journal"),
    "--timeout": dict(type=_checked(float, lambda t: t > 0, "seconds > 0"),
                      metavar="S", help="per-job timeout (submit: per "
                      "streamed event)"),
    "--retries": dict(type=_COUNT, metavar="N",
                      help="retry budget per job (overrides specs)"),
    "--cache-dir": dict(metavar="PATH", help="result store (default: "
                        "$REPRO_CACHE_DIR, else .repro-cache)"),
    "--server": dict(metavar="HOST:PORT", help="use a 'repro serve' "
                     "daemon, not a local pool (default: $REPRO_SERVER)"),
    "--priority": dict(type=int, default=0, help="client priority on the "
                       "server, higher first (default: %(default)s)"),
    "--host": dict(default="127.0.0.1",
                   help="bind address (default: %(default)s)"),
    "--port": dict(type=int, default=9178,
                   help="listen port, 0 = ephemeral (default: %(default)s)"),
    "--quota": dict(type=int, metavar="N", help="max in-flight jobs per "
                    "client (default: unlimited)"),
    "--stats-interval": dict(type=float, default=5.0, metavar="S",
                             help="seconds between stats events, 0 = off "
                                  "(default: %(default)s)"),
    "--events": dict(metavar="PATH",
                     help="record the streamed events as JSONL"),
}

_SWEEP_FLAGS = ("--size", "--jobs", "--no-cache", "--journal", "--timeout",
                "--retries", "--cache-dir", "--server", "--priority")


class Command(NamedTuple):
    """One row of :data:`COMMANDS`."""

    usage: str                  # "name" or "name <target>"
    summary: str                # one line: repro list, --help, __doc__
    flags: Tuple[str, ...]      # keys of FLAGS this command accepts
    handler: Callable[[argparse.Namespace], int]
    listed: bool = True         # shown by ``repro list``

    @property
    def name(self) -> str:
        return self.usage.partition(" ")[0]

    @property
    def line(self) -> str:
        if self.handler is _figure_cmd:
            return f"{self.name:8s} ({self.summary})"
        return f"{self.usage} ({self.summary})"

    def parser(self) -> argparse.ArgumentParser:
        parser = argparse.ArgumentParser(prog=f"repro {self.name}",
                                         description=self.summary)
        target = self.usage.partition(" ")[2]
        if target:
            parser.add_argument("target", nargs="?", default=None,
                                metavar=target.strip("<>"))
        for flag in self.flags:
            parser.add_argument(flag, **FLAGS[flag])
        return parser


# -- shared pieces ----------------------------------------------------------

def _resolve(args: argparse.Namespace, names, *extras: str,
             what: str = "suite kernel",
             default: Optional[str] = None) -> str:
    """The command's target, matched case-insensitively against
    ``names`` (suite kernels, offloads, harnesses) and ``extras``
    (``all``, ``fixture``, ...); a missing or unknown one is a usage
    error naming the choices."""
    choices = [*names, *extras]
    text = args.target or default
    if not text:
        raise _Usage(f"{args.command}: missing kernel (repro "
                      f"{COMMANDS[args.command].usage}); one of: "
                      + ", ".join(choices))
    name = {c.lower(): c for c in choices}.get(text.lower())
    if name is None:
        raise _Usage(f"unknown {what} {text!r}; one of: "
                     + ", ".join(choices))
    return name


def _write_report(args: argparse.Namespace, payload: dict) -> None:
    """``--json`` prints ``payload``; ``--out`` also writes it (and says
    so unless the JSON went to stdout)."""
    import json

    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        if not args.json:
            print(f"wrote {args.out}")


def _jobs_of(mod, size: Optional[str]) -> list:
    """A harness's job grid at ``size``, or at its own default."""
    return mod.jobs(size=size) if size else mod.jobs()


def _profile_top(fn) -> str:
    """Run ``fn()`` under cProfile; return the 25 hottest functions by
    own time (``fn``'s return value is discarded)."""
    import cProfile
    import io
    import pstats

    prof = cProfile.Profile()
    prof.runcall(fn)
    out = io.StringIO()
    pstats.Stats(prof, stream=out).sort_stats("tottime").print_stats(25)
    return out.getvalue()


# -- handlers ---------------------------------------------------------------

def _figure_cmd(args: argparse.Namespace) -> int:
    """``repro <figure>``: the harness's jobs run serially in-process,
    then reduced and rendered."""
    from .experiments import HARNESSES
    from .orch import execute_serial

    mod = HARNESSES[args.command]

    def figure() -> None:
        mod.render(mod.reduce(execute_serial(_jobs_of(mod, args.size))))

    if args.profile:
        print(_profile_top(figure))
    else:
        figure()
    return 0


def _list_cmd(args: argparse.Namespace) -> int:
    for command in COMMANDS.values():
        if command.listed:
            print(command.line)
    return 0


def _kernels_cmd(args: argparse.Namespace) -> int:
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


def _checked_cmd(args: argparse.Namespace) -> int:
    """``repro trace|sanitize|audit <target>``: run a suite kernel (the
    seeded-race fixture for ``sanitize fixture``, every kernel for
    ``audit all``) with that one checker attached and print its report;
    exit 1 when a report is unclean."""
    from importlib import import_module

    from .arch.config import HB_16x8, small_config
    from .experiments.common import suite_args
    from .kernels.registry import SUITE
    from .session import run

    checker = args.command
    extras = {"trace": (), "sanitize": ("fixture",), "audit": ("all",)}
    target = _resolve(args, SUITE, *extras[checker])
    module = import_module("." + checker, __package__)
    size = args.size or ("tiny" if checker == "trace" else "small")
    option = True
    if checker == "trace":
        option = module.TraceConfig(window=args.window)

    reports = []
    for name in (list(SUITE) if target == "all" else [target]):
        if name == "fixture":
            # The seeded-bug diagnostic: a small machine is plenty.
            from .sanitize import FIXTURE, fixture_args
            config, kernel, kernel_args = (small_config(4, 4), FIXTURE,
                                           fixture_args())
        else:
            config, kernel = HB_16x8, SUITE[name].kernel
            kernel_args = suite_args(name, size)
        result = run(config, kernel, kernel_args, **{checker: option})
        found = result.extra[checker]
        report = getattr(module, checker + "_report")(found)
        report.update(kernel=name, size=size, config=config.name,
                      cycles=result.cycles)
        reports.append(report)
        if not getattr(args, "json", False):  # trace has no --json
            print(f"{name} ({size}) on {config.name}: "
                  f"{result.cycles:g} cycles")
            print(module.format_report(report))
    if checker == "trace":
        out = args.out or f"trace_{target}.json"
        module.write_chrome(found, out)
        print(f"wrote {out}")
        return 0
    clean = all(r["clean"] for r in reports)
    # Single-kernel reports stay flat; 'audit all' wraps the per-kernel
    # reports so one artifact carries the whole suite.
    _write_report(args, reports[0] if len(reports) == 1 else {
        "clean": clean, "size": size, "config": HB_16x8.name,
        "runs": reports})
    return 0 if clean else 1


def _pim_cmd(args: argparse.Namespace) -> int:
    """``repro pim <kernel|all>``: offload comparison, tile vs memory side.

    ``all`` in text mode also prints the GEMV bank-count sweep.  Exit 1
    when any comparison's functional results mismatch (the PIM datapath
    diverged from the tile-side reference), 2 on bad usage.
    """
    from .experiments import pim_offload
    from .pim.kernels import OFFLOADS

    target = _resolve(args, OFFLOADS, "all", what="offload kernel")
    size = args.size or "small"
    reports = [
        pim_offload.run_offload(name, size=size, audit=args.audit,
                                sanitize=args.sanitize)
        for name in (list(OFFLOADS) if target == "all" else [target])
    ]
    match = all(r["match"] for r in reports)
    if not args.json:
        for rep in reports:
            verdict = "match" if rep["match"] else "MISMATCH"
            print(f"{rep['kernel']} ({size}) on {rep['config']}: "
                  f"tile {rep['tile']['cycles']:g} cyc / "
                  f"{rep['tile']['energy_pj']:g} pJ vs pim "
                  f"{rep['pim']['cycles']:g} cyc / "
                  f"{rep['pim']['energy_pj']:g} pJ "
                  f"(speedup {rep['speedup']:.2f}x) -- {verdict}")
        if target == "all":
            sweep = pim_offload.sweep_banks("GEMV", size=size)
            print(pim_offload.sweep_line(sweep))
            match = match and all(p["match"] for p in sweep["points"])
    _write_report(args, reports[0] if len(reports) == 1 else {
        "size": size, "match": match,
        "kernels": {r["kernel"]: r for r in reports}})
    return 0 if match else 1


def _cells_cmd(args: argparse.Namespace) -> int:
    """``repro cells <kernel|exchange|pipeline>``: one PDES run.

    Simulates every Cell of a ``--cells CXxCY`` grid as a parallel
    shard.  Suite kernels run one independent instance per Cell; the
    ``exchange``/``pipeline`` fixtures push real traffic across the
    Cell seams.  ``--check-determinism`` reruns with 1 worker and
    requires a bit-identical fingerprint; exit is non-zero on a
    fingerprint mismatch or an unclean audit/sanitize pass.
    """
    import os

    from .arch.config import HB_16x8
    from .experiments.common import suite_args
    from .kernels.registry import SUITE
    from .pdes import LaunchSpec, run_cells
    from .pdes import fixture as xfix

    cx, cy = args.cells
    config = HB_16x8.with_geometry(cells_x=cx, cells_y=cy)
    size = args.size or "tiny"
    name = _resolve(args, SUITE, "exchange", "pipeline", what="kernel",
                    default="exchange")
    if name == "exchange":
        launches = xfix.exchange_launches(config)
    elif name == "pipeline":
        launches = xfix.pipeline_launches(config)
    else:
        launches = [LaunchSpec(cell=xy, kernel=name,
                               args=suite_args(name, size),
                               remote=False)
                    for xy in config.chip.cells()]
    workers = args.cell_workers or min(cx * cy, os.cpu_count() or 1)
    options = dict(window=args.sync_window, audit=args.audit,
                   sanitize=args.sanitize, contention=args.contention)
    res = run_cells(config, launches, workers=workers, **options)
    deterministic = None
    if args.check_determinism:
        ref = run_cells(config, launches, workers=1, **options)
        deterministic = ref.fingerprint() == res.fingerprint()
    report = res.to_dict()
    report["kernel"], report["size"] = name, size
    if deterministic is not None:
        report["deterministic"] = deterministic
    if not args.json:
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
        if args.audit or args.sanitize:
            print("  checks: " + ("clean" if res.clean else "VIOLATIONS"))
        if res.xshard is not None and res.xshard["findings"]:
            for f in res.xshard["findings"][:4]:
                print(f"    xcell-race @ {f['addr']} "
                      f"({f['detail']}, x{f['count']})")
    _write_report(args, report)
    failed = (deterministic is False) or not res.clean
    return 1 if failed else 0


def _print_progress(outcome, done: int, total: int,
                    eta: Optional[float]) -> None:
    tail = f" eta {eta:,.0f}s" if eta is not None else ""
    wall = f" {outcome.wall_s:.2f}s" if outcome.wall_s else ""
    worker = f" w{outcome.worker}" if outcome.worker is not None else ""
    print(f"[{done}/{total}] {outcome.job.experiment}/{outcome.job.key}: "
          f"{outcome.status}{wall}{worker}{tail}", flush=True)


def _sweep_targets(args: argparse.Namespace):
    """Resolve a sweep/submit target (default ``all``) into
    ``(target, names, sweeps)``."""
    import dataclasses

    from .experiments import HARNESSES
    from .orch import Sweep

    target = _resolve(args, HARNESSES, "all", what="sweep target",
                      default="all")
    names = list(HARNESSES) if target == "all" else [target]
    sweeps = []
    for name in names:
        mod = HARNESSES[name]
        jobs = _jobs_of(mod, args.size)
        if args.retries is not None:
            jobs = [dataclasses.replace(job, retries=args.retries)
                    for job in jobs]
        sweeps.append(Sweep(name, jobs, mod.reduce))
    return target, names, sweeps


def _count(statuses) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for status in statuses:
        counts[status] = counts.get(status, 0) + 1
    return counts


def _submit(client, server: str, plan, use_cache: bool) -> dict:
    """Submit a plan's unique jobs to a daemon and say what it did."""
    sub = client.submit([job.to_wire() for job in plan.unique_jobs],
                        use_cache=use_cache)
    print(f"server {server}: run {client.server.get('run_id')}, "
          f"submission {sub['sub']}: {sub['queued']} queued, "
          f"{sub['cached']} cached, {sub['deduped']} deduped", flush=True)
    return sub


def _server_outcomes(server: str, plan, *, use_cache: bool,
                     priority: int, name: str) -> list:
    """Run a plan through a serve daemon; outcomes align with
    ``plan.unique_jobs`` and carry the server's payloads verbatim (the
    bit-identity tests pin this against the in-process pool)."""
    from .orch import JobOutcome
    from .serve import Client

    with Client(server, name=name, priority=priority) as client:
        sub = _submit(client, server, plan, use_cache)
        envelopes = client.results(sub["sub"], wait=True)
    return [JobOutcome(job, plan.key_of[id(job)], env["status"],
                       payload=env["payload"], error=env["error"],
                       wall_s=env.get("wall_s") or 0.0)
            for job, env in zip(plan.unique_jobs, envelopes)]


def _sweep_cmd(args: argparse.Namespace) -> int:
    """``repro sweep <experiment|all>`` (and ``repro all``): the
    orchestrated grid run."""
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

    target, names, sweeps = _sweep_targets(args)
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
        counts = _count(outcome.status for outcome in outcomes)
    else:
        with RunJournal(args.journal) as journal:
            journal.write_header(
                version=__version__, fingerprint=fingerprint,
                argv=["repro"] + args.argv, sweeps=names, size=args.size,
                jobs=len(plan.unique_jobs), workers=workers,
                cache=not args.no_cache)
            keys = [plan.key_of[id(job)] for job in plan.unique_jobs]
            outcomes = run_jobs(
                plan.unique_jobs, workers=workers, store=store,
                fingerprint=fingerprint, keys=keys, journal=journal,
                default_timeout=args.timeout, use_cache=not args.no_cache,
                progress=_print_progress)
            wall = time.perf_counter() - t0
            counts = _count(outcome.status for outcome in outcomes)
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
        raise _Usage("submit: no server (use --server HOST:PORT or set "
                     "REPRO_SERVER)")
    target, _names, sweeps = _sweep_targets(args)
    plan = build_plan(sweeps, code_fingerprint())

    events: List[dict] = []
    with Client(server, name=f"submit:{target}",
                priority=args.priority) as client:
        client.watch()  # before submit: no event of ours can be missed
        sub = _submit(client, server, plan, not args.no_cache)
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
    counts = _count(env["status"] for env in envelopes)
    print("submit " + target + ": "
          + ", ".join(f"{k}={v}" for k, v in sorted(counts.items())),
          flush=True)
    bad = sum(v for k, v in counts.items() if k not in ("ok", "cached"))
    return 1 if bad else 0


def _journal_cmd(args: argparse.Namespace) -> int:
    """``repro journal <path>``: summarize a run journal."""
    import os

    if not args.target:
        raise _Usage("journal: missing path (repro journal <path>)")
    if not os.path.isfile(args.target):
        raise _Usage(f"journal: no such file {args.target}")
    from .profile.journal import main as journal_main

    return journal_main(args.target)


# -- the table --------------------------------------------------------------

_CHECK_FLAGS = ("--size", "--out", "--json")

#: Every command, in ``repro list`` order.
COMMANDS: Dict[str, Command] = {c.name: c for c in [
    *(Command(name, hint, ("--size", "--profile"), _figure_cmd)
      for name, hint in COST_HINT.items()),
    Command("sweep <experiment|all>",
            "orchestrated: pool + result cache; --server HOST:PORT for "
            "thin-client mode", _SWEEP_FLAGS, _sweep_cmd),
    Command("serve",
            "scheduler daemon: shared pool/cache/journal; "
            "--host/--port/--quota",
            ("--jobs", "--no-cache", "--journal", "--timeout", "--cache-dir",
             "--host", "--port", "--quota", "--stats-interval"), _serve_cmd),
    Command("submit <experiment|all>",
            "send a plan to a serve daemon and stream events",
            ("--size", "--retries", "--no-cache", "--timeout", "--server",
             "--priority", "--events"), _submit_cmd),
    Command("journal <path>",
            "summarize a sweep's or serve daemon's run journal", (),
            _journal_cmd),
    Command("trace <kernel>", "traced run -> Chrome-trace JSON",
            ("--size", "--out", "--window"), _checked_cmd),
    Command("sanitize <kernel|fixture>",
            "race/sync check; exit 1 on findings", _CHECK_FLAGS,
            _checked_cmd),
    Command("audit <kernel|all>",
            "timing-model invariant check; exit 1 on violations",
            _CHECK_FLAGS, _checked_cmd),
    Command("cells <kernel|exchange|pipeline>",
            "parallel multi-Cell PDES run; --cells CXxCY --cell-workers N",
            _CHECK_FLAGS + ("--cells", "--cell-workers", "--sync-window",
                            "--check-determinism", "--audit", "--sanitize",
                            "--no-contention"), _cells_cmd),
    Command("kernels",
            "list the Table-I benchmark registry and PIM offloads", (),
            _kernels_cmd),
    Command("pim <kernel|all>",
            "tile-side vs memory-side offload comparison; exit 1 on "
            "functional mismatch",
            _CHECK_FLAGS + ("--audit", "--sanitize"), _pim_cmd),
    Command("list", "show these commands", (), _list_cmd, listed=False),
    Command("all", "sweep every experiment, as 'sweep all' does",
            _SWEEP_FLAGS, _sweep_cmd, listed=False),
]}

__doc__ = (__doc__ or "") + "".join(
    f"* ``repro {c.usage}`` -- {c.summary}\n"
    for c in COMMANDS.values() if c.handler is not _figure_cmd)


def _top_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce figures/tables from the HammerBlade paper.",
        epilog="commands:\n" + "\n".join(
            "  " + c.line for c in COMMANDS.values()),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    parser.add_argument("command", help="see the list below")
    parser.add_argument("args", nargs=argparse.REMAINDER, metavar="...",
                        help="the command's target and options "
                             "(repro <command> --help)")
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if not argv or argv[0].startswith("-"):
        # Before a command only --version and --help are valid; argparse
        # exits on them and on anything else.
        top = _top_parser().parse_args(argv)
        argv = [top.command, *top.args]
    name = argv[0].lower()
    command = COMMANDS.get(name)
    if command is None:
        print(f"unknown experiment {name!r}; try 'list'", file=sys.stderr)
        return 2
    args = command.parser().parse_args(
        argv[1:], argparse.Namespace(command=name, argv=argv, target=None))
    try:
        return command.handler(args)
    except _Usage as exc:
        print(exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
