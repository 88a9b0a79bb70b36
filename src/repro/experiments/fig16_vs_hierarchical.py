"""Fig 16: HB vs a hierarchical manycore (ET model) on irregular kernels.

Both machines get equal HBM2 bandwidth and equal area; the ET model has
1/8 the independent threads, 4x the cache capacity, and block-structured
(1024-bit channel) inter-cluster communication.  Total run time is
execution + inter-phase data transfer, as in the paper's figure:

* execution: measured by simulating each kernel on both machines;
* transfer: the partial results exchanged between program phases
  (contribution arrays, frontiers, output rows, forces), moved over HB's
  word-granular network vs the ET model's wide channels carrying sparse
  single-word payloads.

Paper's reading: ET's larger L2 occasionally helps execution, but HB's
thread density wins overall, and sparse transfers over wide channels
inflate ET's run time.

Each (machine, kernel) execution is one :class:`repro.orch.Job`; the
channel-model transfer pricing is analytic and lives in :func:`reduce`.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Optional

from ..arch.config import HB_32x8
from ..baselines.hierarchical import WideChannelModel, WordChannelModel, et_config
from ..perf.counters import geomean

IRREGULAR = ("SpGEMM", "PR", "BFS", "BH")


def _phase_transfer_bytes(name: str, args: Dict[str, Any]) -> int:
    """Partial-result volume exchanged between program phases."""
    if name == "SpGEMM":
        return 8 * args["matrix"].nnz  # output rows gathered
    if name == "PR":
        return 4 * args["graph"].num_rows * args["iters"] * 2  # contribs
    if name == "BFS":
        return 8 * args["graph"].num_rows  # frontier + distance exchange
    if name == "BH":
        return 16 * args["num_bodies"] * 2  # bodies out, forces back
    raise KeyError(name)


def model_job(params: Dict[str, Any], config) -> Dict[str, Any]:
    """Orchestrator run function: one kernel on one of the two machines."""
    from ..kernels import registry
    from ..session import run as run_kernel
    from .common import suite_args

    name = params["kernel"]
    args = suite_args(name, params["size"])
    result = run_kernel(config, registry.SUITE[name].kernel, args)
    payload = result.to_dict()
    payload["transfer_bytes"] = _phase_transfer_bytes(name, args)
    return payload


def jobs(size: str = "small",
         kernels: Optional[Iterable[str]] = None) -> List[Any]:
    from ..arch.serialize import to_dict
    from ..orch import Job

    names = list(kernels) if kernels is not None else list(IRREGULAR)
    hb_cfg = HB_32x8
    et_cfg = et_config(hb_cfg.cell.tiles_x, hb_cfg.cell.tiles_y)
    out: List[Any] = []
    for model, cfg in (("hb", hb_cfg), ("et", et_cfg)):
        config_dict = to_dict(cfg)
        for name in names:
            out.append(Job(
                "fig16", f"{model}/{name}",
                "repro.experiments.fig16_vs_hierarchical:model_job",
                params={"kernel": name, "size": size},
                config=config_dict))
    return out


def reduce(payloads: Mapping[str, Dict[str, Any]]) -> Dict[str, Any]:
    hb_cfg = HB_32x8
    # HB's inter-Cell cut: (1 mesh + 3 ruche) channels per row-direction.
    hb_channel = WordChannelModel(links=4 * hb_cfg.cell.tiles_y)
    et_channel = WideChannelModel()
    names = [k.partition("/")[2] for k in payloads if k.startswith("hb/")]
    rows: List[Dict[str, Any]] = []
    for name in names:
        hb_run = payloads[f"hb/{name}"]
        et_run = payloads[f"et/{name}"]
        payload = hb_run["transfer_bytes"]
        hb_xfer = hb_channel.transfer(payload).cycles
        et_xfer = et_channel.transfer(payload, sparse=True).cycles
        hb_total = hb_run["cycles"] + hb_xfer
        et_total = et_run["cycles"] + et_xfer
        rows.append({
            "kernel": name,
            "hb_exec": hb_run["cycles"],
            "hb_transfer": hb_xfer,
            "hb_total": hb_total,
            "et_exec": et_run["cycles"],
            "et_transfer": et_xfer,
            "et_total": et_total,
            "speedup": et_total / hb_total,
            "hb_cache_hit": hb_run["cache_hit_rate"],
            "et_cache_hit": et_run["cache_hit_rate"],
        })
    geo = geomean([r["speedup"] for r in rows])
    return {"rows": rows, "geomean_speedup": geo,
            "hb_config": hb_cfg.name,
            "et_config": et_config(hb_cfg.cell.tiles_x,
                                   hb_cfg.cell.tiles_y).name}


def run(size: str = "small",
        kernels: Optional[Iterable[str]] = None) -> Dict[str, Any]:
    from ..orch import execute_serial

    return reduce(execute_serial(jobs(size=size, kernels=kernels)))


def render(out: Dict[str, Any]) -> None:
    from ..perf.report import format_table

    print(f"== Fig 16: {out['hb_config']} vs {out['et_config']} ==")
    print(format_table(
        ["kernel", "HB exec", "HB xfer", "ET exec", "ET xfer", "HB speedup"],
        [(r["kernel"], r["hb_exec"], r["hb_transfer"], r["et_exec"],
          r["et_transfer"], r["speedup"]) for r in out["rows"]]))
    print(f"\ngeomean HB advantage: {out['geomean_speedup']:.2f}x")
