"""Fig 12: scaling irregular workloads with tile groups.

SpGEMM on the wiki-Vote-like power-law matrix, regrouping the 16x8 Cell
into progressively smaller tile groups, each running an independent task
(same stationary matrix, different activation) from its own amoadd
counter.  The paper: eight 4x4 groups beat one 16x8 group by ~4x in
throughput and ~7.8x in HBM utilization, with diminishing returns below
4x4 as per-group working sets blow up the cache.

Each group shape is one :class:`repro.orch.Job`; :func:`reduce`
normalizes throughput/HBM against the single-group baseline.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..arch.config import HB_16x8

GROUP_SHAPES: List[Tuple[int, int]] = [(16, 8), (8, 8), (8, 4), (4, 4),
                                       (4, 2), (2, 2)]

#: Input scale per --size knob ("small" is the benchmark default).
SIZE_SCALE = {"tiny": 0.1, "small": 0.2, "full": 0.2}


def _scaled_config(scale: float):
    # Scale the LLC with the scaled-down input so the working-set-to-
    # cache ratio matches the paper's full-size experiment (each task's
    # activation matrix is private; many small groups = many resident
    # working sets).
    return HB_16x8.with_cache(
        sets=max(4, int(HB_16x8.timings.cache.sets * scale)))


def shape_job(params: Dict[str, Any], config) -> Dict[str, Any]:
    """Orchestrator run function: one group shape of the Fig 12 sweep."""
    from ..kernels import spgemm
    from ..session import run as run_kernel

    gw, gh = params["group_shape"]
    num_groups = config.cell.num_tiles // (gw * gh)
    args = spgemm.make_args(tasks=num_groups, scale=params["scale"])
    result = run_kernel(config, spgemm.KERNEL, args, group_shape=(gw, gh))
    matrix = args["matrix"]
    hbm_active = (result.hbm["read"] + result.hbm["write"]
                  + result.hbm["busy"])
    return {
        "shape": f"{gw}x{gh}",
        "groups": num_groups,
        "cycles": result.cycles,
        "rows_per_kcycle": (1000.0 * matrix.num_rows * num_groups
                            / result.cycles),
        "hbm_active": hbm_active,
        "hbm_rw": result.hbm["read"] + result.hbm["write"],
        "core_utilization": result.core_utilization,
    }


def jobs(size: str = "small", scale: Optional[float] = None,
         shapes: Optional[List[Tuple[int, int]]] = None) -> list:
    from ..arch.serialize import to_dict
    from ..orch import Job

    scale = scale if scale is not None else SIZE_SCALE.get(size, 0.2)
    shapes = shapes or GROUP_SHAPES
    config_dict = to_dict(_scaled_config(scale))
    return [
        Job("fig12", f"{gw}x{gh}",
            "repro.experiments.fig12_tilegroups:shape_job",
            params={"group_shape": [gw, gh], "scale": scale},
            config=config_dict)
        for gw, gh in shapes
    ]


def reduce(payloads: Mapping[str, Dict[str, Any]]) -> Dict[str, Any]:
    rows = [dict(payloads[key]) for key in payloads]
    base = rows[0]
    for row in rows:
        row["throughput_x"] = row["rows_per_kcycle"] / base["rows_per_kcycle"]
        row["hbm_x"] = (row["hbm_rw"] / base["hbm_rw"]
                        if base["hbm_rw"] > 0 else float("nan"))
    best = max(rows, key=lambda r: r["throughput_x"])
    return {"rows": rows, "best_shape": best["shape"],
            "best_throughput_x": best["throughput_x"]}


def run(scale: float = 0.2, shapes: Optional[List[Tuple[int, int]]] = None
        ) -> Dict[str, Any]:
    from ..orch import execute_serial

    return reduce(execute_serial(jobs(scale=scale, shapes=shapes)))


def render(out: Dict[str, Any]) -> None:
    from ..perf.report import format_table

    print("== Fig 12: SpGEMM (WV-like) vs tile-group shape ==")
    print(format_table(
        ["groups", "shape", "cycles", "rows/kcycle", "throughput x",
         "HBM r+w", "HBM x"],
        [(r["groups"], r["shape"], r["cycles"], r["rows_per_kcycle"],
          r["throughput_x"], r["hbm_rw"], r["hbm_x"]) for r in out["rows"]]))
    print(f"\nbest shape: {out['best_shape']} at "
          f"{out['best_throughput_x']:.2f}x (paper: 4x4 at ~4x)")
