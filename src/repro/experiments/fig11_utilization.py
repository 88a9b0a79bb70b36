"""Fig 11: core and HBM2 utilization of the most-optimized Cell.

For every kernel (ordered memory-intensive -> compute-intensive) report
the core-cycle breakdown over the Table III stall taxonomy and the HBM2
channel breakdown (read / write / busy / idle).  The paper's reading:
PR/BFS/SpGEMM are HBM-bound, AES/SW/SGEMM/BS are compute-bound, SW is
branch-miss heavy, BS is bypass/fdiv heavy, and FFT/Jacobi/SGEMM show
network-congestion stalls.

Like every harness, the figure is a fan-out of :class:`repro.orch.Job`
specs (:func:`jobs`) plus a pure :func:`reduce`; ``run()`` executes them
serially in-process and ``repro sweep fig11`` schedules them on the
worker pool.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Optional

from ..arch.config import HB_16x8
from ..perf.counters import FIG11_ORDER, ordered_from
from .common import suite_jobs


def jobs(size: str = "small",
         kernels: Optional[Iterable[str]] = None) -> List[Any]:
    names = list(kernels) if kernels is not None else list(FIG11_ORDER)
    return suite_jobs("fig11", HB_16x8, size=size, kernels=names)


def reduce(payloads: Mapping[str, Dict[str, Any]]) -> Dict[str, Any]:
    names = list(payloads)
    core: Dict[str, Dict[str, float]] = {}
    hbm: Dict[str, Dict[str, float]] = {}
    util: Dict[str, float] = {}
    for name in names:
        r = payloads[name]
        core[name] = ordered_from(r["core_breakdown"])
        hbm[name] = r["hbm"]
        util[name] = r["core_utilization"]
    return {
        "order": names,
        "core_breakdown": core,
        "hbm_breakdown": hbm,
        "core_utilization": util,
        "results": dict(payloads),
    }


def run(size: str = "small",
        kernels: Optional[Iterable[str]] = None) -> Dict[str, Any]:
    from ..orch import execute_serial

    return reduce(execute_serial(jobs(size=size, kernels=kernels)))


def render(out: Dict[str, Any]) -> None:
    from ..perf.counters import BREAKDOWN_ORDER, HBM_ORDER
    from ..perf.report import format_stacked

    print("== Fig 11: core utilization breakdown ==")
    print(format_stacked(out["core_breakdown"], BREAKDOWN_ORDER))
    print("\n== Fig 11: HBM2 utilization breakdown ==")
    print(format_stacked(out["hbm_breakdown"], HBM_ORDER))


def main(size=None) -> None:
    render(run(size=size or "small"))


if __name__ == "__main__":
    main()
