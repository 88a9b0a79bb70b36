"""Repeatability: is B within the benchmark's own bounds of A, and how
steady is each metric over a set of runs.

Both read the files ``run.py --out FILE`` writes; ``--compare`` also
takes two directories of them and compares medians per workload, which
is how the driver judges a change.  Bounds, units and
directions come from ``BENCHMARK.json``; which metrics are *counts*
(deterministic simulated statistics that must repeat exactly) is stated
here, because the manifest has no field for it.
"""

from __future__ import annotations

import glob
import json
import os
import re
import statistics
from typing import Any, Dict, List

from common import quartile_spread

#: Metrics that must be identical between two runs of the same code on
#: the same seed.  A later change that moves one changed the model (or
#: the daemon's accounting), not just its speed.
EXACT = re.compile(
    r"^(cells_gap_pct|host\.nproc"
    r"|kernel\..+\.(cycles|events_per_cycle)"
    r"|noc\.mean_latency_cyc\..+"
    r"|mem\.(hbm_row_hit|cache_hit)_ratio"
    r"|orch\.jobs_(ok|cached)|model\.fig10_final_geomean_x"
    r"|serve\.(executed|dedup_hits|cache_hits)"
    r"|pdes\..+\.(rounds|messages|gap_cyc)|pdes\.zero_load_gap_pct)$")

#: A run whose host yardstick moved more than this is flagged, not trusted.
NOISY_DRIFT = 0.10


def _load(path: str) -> Dict[str, Any]:
    with open(path) as fh:
        return json.load(fh)


def _declared(manifest: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    return {m["name"]: m
            for m in manifest["end_to_end"] + manifest["per_layer"]}


def worse_by(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a`` (< 0:
    better)."""
    change = (b - a) / abs(a) if a else 0.0
    return change if better == "lower" else -change


def _load_sets(*paths: str) -> Dict[Any, List[Dict[str, Any]]]:
    """Runs under ``paths`` (result files, or directories of them),
    grouped by (workload, trace)."""
    files: List[str] = []
    for path in paths:
        files.extend(sorted(glob.glob(os.path.join(path, "*.json")))
                     if os.path.isdir(path) else [path])
    groups: Dict[Any, List[Dict[str, Any]]] = {}
    for name in files:
        run = _load(name)
        if run.get("drift", 0.0) > NOISY_DRIFT:
            print(f"noisy: {name} (host yardstick moved "
                  f"{100 * run['drift']:.1f} % during the run)")
        groups.setdefault((run["workload"], run["trace"]), []).append(run)
    return groups


def _median_of(runs: List[Dict[str, Any]], name: str) -> float:
    return statistics.median(r["metrics"][name]["value"] for r in runs)


def compare(a_path: str, b_path: str, manifest: Dict[str, Any]) -> int:
    """B against A, metric by metric: a count must match exactly, an
    end-to-end metric may be worse by at most its bound, a per-layer
    timing is printed and never gated.  Medians when given sets."""
    a_sets, b_sets = _load_sets(a_path), _load_sets(b_path)
    declared = _declared(manifest)
    bad = 0
    for key in sorted(set(a_sets) & set(b_sets)):
        a, b = a_sets[key], b_sets[key]
        same_seeds = (sorted(r["seed"] for r in a)
                      == sorted(r["seed"] for r in b))
        print(f"== {key[0]} trace={key[1]}: {len(a)} run(s) against "
              f"{len(b)}" + ("" if same_seeds else
                             "; seeds differ, so counts may too"))
        print(f"{'metric':44s} {'A':>14s} {'B':>14s} {'worse by':>9s} "
              f"{'bound':>6s}")
        for name in sorted(a[0]["metrics"]):
            va, vb = _median_of(a, name), _median_of(b, name)
            spec = declared.get(name, {})
            if EXACT.match(name):
                differs = same_seeds and va != vb
                bad += differs
                print(f"{name:44s} {va:14.6g} {vb:14.6g} "
                      f"{'COUNT DIFFERS' if differs else 'same':>16s}")
                continue
            worse = worse_by(va, vb, spec.get("better", "lower"))
            bound = spec.get("bound")
            if bound is None:
                print(f"{name:44s} {va:14.6g} {vb:14.6g} "
                      f"{100 * worse:+8.1f}%")
                continue
            bad += worse > bound
            print(f"{name:44s} {va:14.6g} {vb:14.6g} {100 * worse:+8.1f}% "
                  f"{100 * bound:5.0f}%" + ("  OUTSIDE" if worse > bound
                                            else ""))
    if not set(a_sets) & set(b_sets):
        print("compare: the two sides share no workload")
        return 1
    print("compare:", "within bounds" if not bad else f"{bad} outside")
    return 1 if bad else 0


def spread(paths: List[str], manifest: Dict[str, Any]) -> int:
    """Quartile spread of every metric over a set of runs of one
    workload, against a third of its bound (the margin the benchmark
    keeps), plus the bound the set itself suggests."""
    declared = _declared(manifest)
    bad = 0
    for (workload, trace), group in sorted(_load_sets(*paths).items()):
        print(f"== {workload} trace={trace}: {len(group)} runs")
        if len(group) < 2:
            continue
        for name in sorted(group[0]["metrics"]):
            values = [r["metrics"][name]["value"] for r in group]
            mid = statistics.median(values)
            spec = declared.get(name, {})
            if EXACT.match(name):
                # Inputs differ with the seed, so only same-seed runs agree.
                by_seed: Dict[int, set] = {}
                for r in group:
                    by_seed.setdefault(r["seed"], set()).add(
                        r["metrics"][name]["value"])
                ok = all(len(v) == 1 for v in by_seed.values())
                bad += not ok
                print(f"{name:44s} {mid:14.6g} "
                      f"{'count, repeats' if ok else 'COUNT DIFFERS'}")
                continue
            sp = quartile_spread(values)
            bound = spec.get("bound")
            line = f"{name:44s} {mid:14.6g} spread {100 * sp:5.1f}%"
            if bound is not None and name != "setup_s":
                suggested = min(0.25, max(0.05, 3 * sp))
                wide = sp > bound / 3
                bad += sp > bound
                line += (f"  bound {100 * bound:4.0f}%  suggests "
                         f"{100 * suggested:4.1f}%"
                         + ("  WIDE" if wide else ""))
            print(line)
    return 1 if bad else 0
