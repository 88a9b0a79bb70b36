"""Fig 15: three strategies for doubling compute at constant HBM bandwidth.

Compares the Table II machines against the 16x8 baseline:

* 16x16 -- double the Cell vertically: 2x tiles, same cache, longer hops;
* 32x8  -- double horizontally: 2x tiles, 2x cache capacity/bandwidth,
  more bisection pressure;
* 2x16x8 -- double the Cell count: modelled, per the paper's own
  multi-Cell methodology, as one 16x8 Cell running half the work at half
  the per-Cell HBM bandwidth (two such Cells run in parallel).  Data
  structures that resist partitioning (the BH octree) are duplicated, so
  their per-Cell work does not halve.

Paper geomeans over the suite: 1.25x / 1.39x / 1.34x.

The grid is machines x kernels; each point is one
:class:`repro.orch.Job` (key ``"<machine>/<kernel>"``).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, Iterable, List, Mapping, Optional

from ..arch.config import HB_16x8, HB_16x16, HB_32x8
from ..perf.counters import geomean
from .common import SUITE_KERNELS

#: Kernels whose primary data structure is duplicated (not split) when
#: the Cell count doubles; their work items split but the shared
#: structure is re-read per Cell.
DUPLICATED = {"BH"}

#: Fig 15 needs enough work per tile that fixed phases (staging, barrier
#: convergence, cold misses) do not mask the scaling effect the figure is
#: about, so it carries its own input sizes: a "unit" workload for the
#: doubled machines and the baseline, and a "half" workload for the
#: per-Cell model of 2x16x8.
UNIT_ARGS: Dict[str, Dict[str, Any]] = {
    "AES": {"blocks_per_tile": 16},
    "BS": {"options_per_tile": 12},
    "SW": {"query_len": 12, "ref_len": 16, "pairs_per_tile": 2},
    "SGEMM": {"n": 64},
    "FFT": {"n": 2048},
    "Jacobi": {"z_depth": 48, "iters": 1},
    "SpGEMM": {"scale": 0.2},
    "PR": {"scale": 0.5, "iters": 1},
    "BFS": {"width": 16},
    "BH": {"num_bodies": 448},
}

HALF_ARGS: Dict[str, Dict[str, Any]] = {
    "AES": {"blocks_per_tile": 8},
    "BS": {"options_per_tile": 6},
    "SW": {"query_len": 12, "ref_len": 16, "pairs_per_tile": 1},
    "SGEMM": {"n": 64, "work_fraction": 0.5},
    "FFT": {"n": 1024},
    "Jacobi": {"z_depth": 24, "iters": 1},
    "SpGEMM": {"scale": 0.1},
    "PR": {"scale": 0.25, "iters": 1},
    "BFS": {"width": 11},
    # Bodies split across the two Cells; the octree is duplicated, so
    # each Cell traverses half the bodies over the full-size tree.
    "BH": {"num_bodies": 448, "traverse_fraction": 0.5},
}

#: Reduced unit/half workloads for ``--size tiny`` smoke sweeps.  The
#: scaling *shapes* survive; absolute speedups get noisier, which the
#: tiny tier accepts by design.
TINY_UNIT_ARGS: Dict[str, Dict[str, Any]] = {
    "AES": {"blocks_per_tile": 4},
    "BS": {"options_per_tile": 4},
    "SW": {"query_len": 8, "ref_len": 12, "pairs_per_tile": 1},
    "SGEMM": {"n": 32},
    "FFT": {"n": 512},
    "Jacobi": {"z_depth": 16, "iters": 1},
    "SpGEMM": {"scale": 0.1},
    "PR": {"scale": 0.15, "iters": 1},
    "BFS": {"width": 11},
    "BH": {"num_bodies": 112},
}

TINY_HALF_ARGS: Dict[str, Dict[str, Any]] = {
    "AES": {"blocks_per_tile": 2},
    "BS": {"options_per_tile": 2},
    "SW": {"query_len": 8, "ref_len": 12, "pairs_per_tile": 1},
    "SGEMM": {"n": 32, "work_fraction": 0.5},
    "FFT": {"n": 256},
    "Jacobi": {"z_depth": 8, "iters": 1},
    "SpGEMM": {"scale": 0.05},
    "PR": {"scale": 0.08, "iters": 1},
    "BFS": {"width": 8},
    "BH": {"num_bodies": 112, "traverse_fraction": 0.5},
}


#: Keys consumed by the kernels at launch rather than by make_args.
_LAUNCH_KEYS = ("work_fraction", "traverse_fraction")

MACHINES = ("16x8", "16x16", "32x8", "2x16x8")


def _machine_config(machine: str):
    if machine == "2x16x8":
        # One Cell, half the work, half the HBM bandwidth.
        return replace(HB_16x8, name="2x16x8-cell", hbm_scale=0.5)
    return {"16x8": HB_16x8, "16x16": HB_16x16, "32x8": HB_32x8}[machine]


def _spec_tables(size: str):
    if size == "tiny":
        return TINY_UNIT_ARGS, TINY_HALF_ARGS
    return UNIT_ARGS, HALF_ARGS


def _build(name: str, spec: Dict[str, Any]) -> Dict[str, Any]:
    from ..kernels import registry

    spec = dict(spec)
    extra = {k: spec.pop(k) for k in _LAUNCH_KEYS if k in spec}
    args = registry.SUITE[name].make_args(**spec)
    args.update(extra)
    return args


def _unit_args(name: str, size: str = "small") -> Dict[str, Any]:
    return _build(name, _spec_tables(size)[0][name])


def _half_work_args(name: str, size: str = "small") -> Dict[str, Any]:
    """Args for one Cell of the 2x16x8 model: half the work items."""
    return _build(name, _spec_tables(size)[1][name])


def machine_job(params: Dict[str, Any], config) -> Dict[str, Any]:
    """Orchestrator run function: one kernel on one doubling strategy."""
    from ..kernels import registry
    from ..session import run as run_kernel

    name = params["kernel"]
    spec = dict(params["spec"])
    args = _build(name, spec)
    return run_kernel(config, registry.SUITE[name].kernel, args).to_dict()


def jobs(size: str = "small",
         kernels: Optional[Iterable[str]] = None) -> List[Any]:
    from ..arch.serialize import to_dict
    from ..orch import Job

    names = list(kernels) if kernels is not None else list(SUITE_KERNELS)
    unit, half = _spec_tables(size)
    out: List[Any] = []
    for machine in MACHINES:
        config_dict = to_dict(_machine_config(machine))
        specs = half if machine == "2x16x8" else unit
        for name in names:
            out.append(Job(
                "fig15", f"{machine}/{name}",
                "repro.experiments.fig15_doubling:machine_job",
                params={"kernel": name, "spec": specs[name]},
                config=config_dict))
    return out


def reduce(payloads: Mapping[str, Dict[str, Any]]) -> Dict[str, Any]:
    cycles: Dict[str, Dict[str, float]] = {m: {} for m in MACHINES}
    names: List[str] = []
    for key, payload in payloads.items():
        machine, _, name = key.partition("/")
        if name not in names:
            names.append(name)
        cycles[machine][name] = payload["cycles"]
    speedups = {
        cfg: {k: cycles["16x8"][k] / cycles[cfg][k] for k in names}
        for cfg in ("16x16", "32x8", "2x16x8")
    }
    geo = {cfg: geomean(list(sp.values())) for cfg, sp in speedups.items()}
    return {"cycles": cycles, "speedups": speedups, "geomean": geo,
            "kernels": names}


def run(size: str = "small",
        kernels: Optional[Iterable[str]] = None) -> Dict[str, Any]:
    from ..orch import execute_serial

    return reduce(execute_serial(jobs(size=size, kernels=kernels)))


def render(out: Dict[str, Any]) -> None:
    from ..perf.report import format_table

    print("== Fig 15: doubling strategies, speedup over 16x8 ==")
    rows = []
    for k in out["kernels"]:
        rows.append([k] + [out["speedups"][cfg][k]
                           for cfg in ("16x16", "32x8", "2x16x8")])
    rows.append(["geomean"] + [out["geomean"][cfg]
                               for cfg in ("16x16", "32x8", "2x16x8")])
    print(format_table(["kernel", "16x16", "32x8", "2x16x8"], rows))
    print("\npaper geomeans: 1.25x / 1.39x / 1.34x")
