"""Tables I, II and IV as runnable harnesses.

* Table I: the benchmark <-> dwarf coverage matrix, generated from the
  kernel registry;
* Table II: the four machine configurations with derived storage and
  density figures cross-checked against the published column;
* Table IV: the cross-design density comparison from the area model.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping

from ..arch.config import TABLE_II
from ..energy.area import TABLE_IV, density_ratios


def table1(scale: float = 0.25) -> Dict[str, Any]:
    """Benchmarks with dwarfs and the CSR input set (Table I a+b)."""
    from ..kernels.registry import SUITE
    from ..workloads.graphs import standard_graphs

    bench_rows = [
        {"name": b.name, "dwarf": b.dwarf, "category": b.category}
        for b in SUITE.values()
    ]
    graph_rows = []
    for name, g in standard_graphs(scale).items():
        graph_rows.append({
            "name": name,
            "nodes": g.num_rows,
            "nnz": g.nnz,
            "avg_degree": g.nnz / g.num_rows,
            "degree_cv": g.degree_cv(),
        })
    return {"benchmarks": bench_rows, "graphs": graph_rows}


def table2() -> List[Dict[str, Any]]:
    """Machine configurations with derived on-chip storage."""
    rows = []
    for name, cfg in TABLE_II.items():
        cell = cfg.cell
        cache_mb = cfg.cell_cache_bytes / (1 << 20)
        spm_kb = cell.num_tiles * 4 * 2  # 4 KB SPM + 4 KB icache per tile
        rows.append({
            "name": name,
            "core_array": f"{cell.tiles_x}x{cell.tiles_y}",
            "cell_cache_banks": cell.num_banks,
            "cell_cache_mb": cache_mb,
            "cell_sram_kb": spm_kb,
            "published_area_mm2": cfg.published.get("area_mm2"),
            "published_cores_per_mm2": cfg.published.get("cores_per_mm2"),
            "hbm_scale": cfg.hbm_scale,
        })
    return rows


def table4() -> List[Dict[str, Any]]:
    """The density-comparison table with recomputed 'Our x' columns."""
    ratios = density_ratios()
    rows = []
    for rec in TABLE_IV:
        r = ratios[rec.name]
        rows.append({
            "name": rec.name,
            "category": rec.category,
            "cores": rec.cores,
            "fpus": rec.fpus,
            "scaled_area_mm2": rec.scaled_area_mm2,
            "cores_per_mm2": r["core_density"],
            "our_core_x": r["core_ratio"],
            "fpus_per_mm2": r["fpu_density"],
            "our_fpu_x": r["fpu_ratio"],
        })
    return rows


def tables_job(params: Dict[str, Any], config) -> Dict[str, Any]:
    """Orchestrator run function: all three tables in one cheap job."""
    return {"table1": table1(params.get("scale", 0.25)),
            "table2": table2(),
            "table4": table4()}


def jobs(size: str = "small") -> List[Any]:
    from ..orch import Job

    # Tables are analytic (no simulation); one job covers all of them.
    # ``size`` only picks the Table I(b) graph scale.
    scale = {"tiny": 0.1, "small": 0.25, "full": 0.25}.get(size, 0.25)
    return [Job("tables", "all", "repro.experiments.tables:tables_job",
                params={"scale": scale})]


def reduce(payloads: Mapping[str, Dict[str, Any]]) -> Dict[str, Any]:
    return dict(payloads["all"])


def run(size: str = "small") -> Dict[str, Any]:
    from ..orch import execute_serial

    return reduce(execute_serial(jobs(size=size)))


def render(out: Dict[str, Any]) -> None:
    from ..perf.report import format_table

    t1 = out["table1"]
    print("== Table I(a): benchmarks ==")
    print(format_table(["kernel", "dwarf", "category"],
                       [(r["name"], r["dwarf"], r["category"])
                        for r in t1["benchmarks"]]))
    print("\n== Table I(b): CSR inputs (synthetic stand-ins) ==")
    print(format_table(["graph", "nodes", "nnz", "avg deg", "deg CV"],
                       [(r["name"], r["nodes"], r["nnz"], r["avg_degree"],
                         r["degree_cv"]) for r in t1["graphs"]]))
    print("\n== Table II: machine configurations ==")
    print(format_table(
        ["config", "cores", "banks", "cache MB", "area mm2", "cores/mm2"],
        [(r["name"], r["core_array"], r["cell_cache_banks"],
          r["cell_cache_mb"], r["published_area_mm2"],
          r["published_cores_per_mm2"]) for r in out["table2"]]))
    print("\n== Table IV: density comparison ==")
    print(format_table(
        ["chip", "category", "cores", "area mm2", "cores/mm2", "our x"],
        [(r["name"], r["category"], r["cores"], r["scaled_area_mm2"],
          r["cores_per_mm2"], r["our_core_x"]) for r in out["table4"]]))
