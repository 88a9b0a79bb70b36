"""Fig 10: incremental feature analysis.

Runs the full benchmark suite on every rung of the feature ladder
(baseline manycore -> router -> cache -> density -> the six HB features)
and reports per-kernel speedups over the baseline plus the geomean
progression.  The paper's headline: all optimizations together give a
5.2x geomean over Baseline Manycore, with core density the single
largest contributor, and Jacobi improving 17-48x by the end.

The grid is rungs x kernels; each point is one independent
:class:`repro.orch.Job` (key ``"<rung>/<kernel>"``), so the sweep
orchestrator can run the whole ladder in parallel and cache each point.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Optional

from ..baselines.features import ladder
from ..perf.counters import geomean
from .common import SUITE_KERNELS, suite_jobs

_SEP = "/"  # rung names never contain a slash


def jobs(size: str = "small", kernels: Optional[Iterable[str]] = None,
         tiles_x: int = 16, tiles_y: int = 8) -> List[Any]:
    names = list(kernels) if kernels is not None else list(SUITE_KERNELS)
    out: List[Any] = []
    for rung, config in ladder(tiles_x, tiles_y):
        out.extend(suite_jobs("fig10", config, size=size, kernels=names,
                              key_prefix=rung + _SEP))
    return out


def reduce(payloads: Mapping[str, Dict[str, Any]]) -> Dict[str, Any]:
    rungs: List[str] = []
    cycles: Dict[str, Dict[str, float]] = {}
    for key, payload in payloads.items():
        rung, _, kernel = key.rpartition(_SEP)
        if rung not in cycles:
            rungs.append(rung)
            cycles[rung] = {}
        cycles[rung][kernel] = payload["cycles"]
    base = cycles[rungs[0]]
    speedups: Dict[str, Dict[str, float]] = {}
    geo: Dict[str, float] = {}
    for rung in rungs:
        speedups[rung] = {k: base[k] / cycles[rung][k] for k in base}
        geo[rung] = geomean(list(speedups[rung].values()))
    return {
        "rungs": rungs,
        "cycles": cycles,
        "speedups": speedups,
        "geomean": geo,
        "final_geomean": geo[rungs[-1]],
    }


def run(size: str = "small", kernels: Optional[Iterable[str]] = None,
        tiles_x: int = 16, tiles_y: int = 8) -> Dict[str, Any]:
    from ..orch import execute_serial

    return reduce(execute_serial(jobs(size=size, kernels=kernels,
                                      tiles_x=tiles_x, tiles_y=tiles_y)))


def render(out: Dict[str, Any]) -> None:
    from ..perf.report import format_table

    kernels: List[str] = sorted(next(iter(out["speedups"].values())))
    print("== Fig 10: speedup over Baseline Manycore ==")
    rows = []
    for rung in out["rungs"]:
        row: List[object] = [rung]
        row.extend(out["speedups"][rung][k] for k in kernels)
        row.append(out["geomean"][rung])
        rows.append(row)
    print(format_table(["config"] + kernels + ["geomean"], rows))
    print(f"\nfinal geomean speedup: {out['final_geomean']:.2f}x "
          "(paper: 5.2x)")


def main(size=None) -> None:
    render(run(size=size or "small"))


if __name__ == "__main__":
    main()
