"""Fig 14: bisection stall analysis -- mesh vs Ruche vs Ruche + LPC.

Measures how often packets stall at the 16x8 Cell's horizontal bisection
under three network configurations:

* 2-D mesh (no ruche links, no load compression),
* Ruche network (4x the cut width),
* Ruche + Load Packet Compression.

The paper: mesh bisection links stall up to ~50% on PR (HW),
Jacobi (DRAM) and FFT; Ruche helps everything except SPM-resident Jacobi
(nearest-neighbour traffic never crosses the cut); LPC helps sequential
kernels but not SpGEMM.

The grid is variants x kernels; each point is one
:class:`repro.orch.Job` (key ``"<variant>/<kernel>"``) that measures the
cut inside the worker and returns only the two fractions.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from ..arch.config import HB_16x8

VARIANTS: List[Tuple[str, Dict[str, bool]]] = [
    ("mesh", {"ruche_network": False, "load_compression": False}),
    ("ruche", {"ruche_network": True, "load_compression": False}),
    ("ruche+lpc", {"ruche_network": True, "load_compression": True}),
]

#: Fig 14's kernel set: the suite's network-sensitive members plus the
#: two Jacobi placements.
DEFAULT_KERNELS = ("PR", "Jacobi($)", "Jacobi(DRAM)", "FFT", "SGEMM",
                   "SpGEMM", "BFS")

_SEP = "/"  # variant names never contain a slash


def _args_for(name: str, size: str):
    from ..kernels import jacobi, registry
    from .common import suite_args

    if name == "Jacobi($)":
        return jacobi.KERNEL, jacobi.make_args(z_depth=32, iters=1,
                                               use_spm=True)
    if name == "Jacobi(DRAM)":
        return jacobi.KERNEL, jacobi.make_args(z_depth=32, iters=1,
                                               use_spm=False)
    return registry.SUITE[name].kernel, suite_args(name, size)


def bisection_job(params: Dict[str, Any], config) -> Dict[str, Any]:
    """Orchestrator run function: one (variant, kernel) cut measurement."""
    from ..perf.bisection import cell_bisection
    from ..session import run as run_kernel

    kern, args = _args_for(params["kernel"], params["size"])
    result = run_kernel(config, kern, args, keep_machine=True)
    stats = cell_bisection(result.machine.memsys.req_net,
                           config.cell.tiles_x, result.cycles)
    return {
        "cycles": result.cycles,
        "stall_fraction": stats.stall_fraction,
        "utilization": stats.utilization,
    }


def jobs(size: str = "small",
         kernels: Optional[Iterable[str]] = None) -> List[Any]:
    from ..arch.serialize import to_dict
    from ..orch import Job

    names = list(kernels) if kernels is not None else list(DEFAULT_KERNELS)
    out: List[Any] = []
    for vname, flags in VARIANTS:
        config = HB_16x8.with_features(replace(HB_16x8.features, **flags))
        config_dict = to_dict(config)
        for kname in names:
            out.append(Job(
                "fig14", f"{vname}{_SEP}{kname}",
                "repro.experiments.fig14_noc_bisection:bisection_job",
                params={"kernel": kname, "size": size},
                config=config_dict))
    return out


def reduce(payloads: Mapping[str, Dict[str, Any]]) -> Dict[str, Any]:
    names: List[str] = []
    stalls: Dict[str, Dict[str, float]] = {v: {} for v, _ in VARIANTS}
    utils: Dict[str, Dict[str, float]] = {v: {} for v, _ in VARIANTS}
    for key, payload in payloads.items():
        vname, _, kname = key.partition(_SEP)
        if kname not in names:
            names.append(kname)
        stalls[vname][kname] = payload["stall_fraction"]
        utils[vname][kname] = payload["utilization"]
    return {"kernels": names, "stall_fraction": stalls,
            "utilization": utils}


def run(size: str = "small",
        kernels: Optional[Iterable[str]] = None) -> Dict[str, Any]:
    from ..orch import execute_serial

    return reduce(execute_serial(jobs(size=size, kernels=kernels)))


def render(out: Dict[str, Any]) -> None:
    from ..perf.report import format_table

    print("== Fig 14: bisection stall fraction ==")
    rows = []
    for kname in out["kernels"]:
        rows.append([kname] + [out["stall_fraction"][v][kname]
                               for v, _ in VARIANTS])
    print(format_table(["kernel"] + [v for v, _ in VARIANTS], rows))
    print("\n== bisection utilization ==")
    rows = []
    for kname in out["kernels"]:
        rows.append([kname] + [out["utilization"][v][kname]
                               for v, _ in VARIANTS])
    print(format_table(["kernel"] + [v for v, _ in VARIANTS], rows))
