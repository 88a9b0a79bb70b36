"""Chip-scale projection: from one simulated Cell to the 2048-core chip.

The paper itself models multi-Cell executions as "multiple single-Cell
simulations running in parallel and conservatively estimated data
transfer time between program phases based on data transfer size and
network bandwidth" (Section V-A).  This module packages that method:

* :func:`peak_instruction_rate` -- the headline "2.8 Tera RISC-V
  instructions/s" arithmetic for the 2048-core ASIC, and the 100K-core
  projection of Fig 2;
* :func:`project_chip` -- scale a measured single-Cell run to a
  ``cells_x x cells_y`` chip with per-phase inter-Cell exchanges priced
  on the word network vs. the hierarchical wide-channel alternative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional

from ..arch.config import HB_16x8, MachineConfig
from ..arch.params import CORE_FREQ_GHZ
from ..baselines.hierarchical import WideChannelModel, WordChannelModel
from ..energy.area import TILE_AREA_3NM_UM2, cores_on_die
from ..runtime.result import RunResult
from .common import suite_args, suite_jobs


def peak_instruction_rate(cores: int = 2048,
                          freq_ghz: float = CORE_FREQ_GHZ) -> float:
    """Peak instructions/second: single-issue cores x frequency.

    2048 x 1.35 GHz = 2.76e12, the paper's "2.8 Tera RISC-V
    instructions/s" (rounded).
    """
    if cores <= 0 or freq_ghz <= 0:
        raise ValueError("cores and frequency must be positive")
    return cores * freq_ghz * 1e9


def hundred_k_projection(die_mm2: float = 600.0) -> Dict[str, float]:
    """Fig 2's right-hand claim: 100K+ cores on a 600 mm^2 die at 3 nm."""
    cores = cores_on_die(die_mm2)
    return {
        "die_mm2": die_mm2,
        "tile_um2": TILE_AREA_3NM_UM2,
        "cores": cores,
        "peak_tera_ops": peak_instruction_rate(cores) / 1e12,
    }


@dataclass
class ChipProjection:
    """One kernel projected onto a multi-Cell chip."""

    kernel: str
    cells: int
    cell_cycles: float
    transfer_cycles: float
    total_cycles: float
    aggregate_instructions: float

    @property
    def instructions_per_cycle(self) -> float:
        return self.aggregate_instructions / self.total_cycles

    @property
    def transfer_fraction(self) -> float:
        return self.transfer_cycles / self.total_cycles


def project_chip(kernel_name: str, cells_x: int = 8, cells_y: int = 8,
                 size: str = "small",
                 exchange_bytes_per_cell: Optional[int] = None,
                 phases: int = 1,
                 config: MachineConfig = HB_16x8,
                 result: Optional[RunResult] = None) -> ChipProjection:
    """The paper's multi-Cell methodology over one measured Cell.

    Every Cell runs the kernel on its partition (one measured single-Cell
    simulation stands for all of them); between phases each Cell
    exchanges ``exchange_bytes_per_cell`` of partial results with its
    neighbours over the inter-Cell word network.
    """
    if result is None:
        from ..kernels import registry
        from ..session import run as run_kernel

        bench = registry.SUITE[kernel_name]
        result = run_kernel(config, bench.kernel,
                            suite_args(kernel_name, size))
    return _project(kernel_name, result.cycles, result.instructions,
                    cells_x, cells_y, exchange_bytes_per_cell, phases,
                    config)


def _project(kernel_name: str, cell_cycles: float, instructions: float,
             cells_x: int, cells_y: int,
             exchange_bytes_per_cell: Optional[int], phases: int,
             config: MachineConfig) -> ChipProjection:
    """The projection arithmetic over one measured Cell's numbers."""
    cells = cells_x * cells_y
    if exchange_bytes_per_cell is None:
        # Default: each Cell shares ~1/8 of its cache footprint per phase.
        exchange_bytes_per_cell = config.cell_cache_bytes // 8
    # Word-network exchange across the Cell boundary: 4 channels per tile
    # row per direction (1 mesh + 3 ruche), measured at ~85% utilization
    # in the Fig 3 experiment.
    channel = WordChannelModel(links=4 * config.cell.tiles_y,
                               utilization=0.85)
    per_phase = channel.transfer(exchange_bytes_per_cell).cycles
    transfer = per_phase * phases
    total = cell_cycles + transfer
    return ChipProjection(
        kernel=kernel_name,
        cells=cells,
        cell_cycles=cell_cycles,
        transfer_cycles=transfer,
        total_cycles=total,
        aggregate_instructions=instructions * cells,
    )


def simulate_chip(kernel_name: str, cells_x: int = 2, cells_y: int = 1,
                  size: str = "tiny",
                  exchange_bytes_per_cell: Optional[int] = None,
                  config: MachineConfig = HB_16x8,
                  workers: int = 1,
                  window: Optional[float] = None) -> Dict[str, Any]:
    """Ground truth for :func:`project_chip`: actually simulate the grid.

    Every Cell of a ``cells_x x cells_y`` chip runs its own instance of
    the suite kernel under the conservative-window PDES -- the "multiple
    single-Cell simulations running in parallel" half of the paper's
    Section V-A methodology, made literal.  The suite kernels are
    Cell-local by design, so the truly simulated multi-Cell time must
    equal the single-Cell time and the projection's analytic transfer
    term is pure conservative margin: ``bound_holds`` asserts
    ``project_chip(...) >= simulate_chip(...)``.  (Workloads that cross
    the seam live in :mod:`repro.pdes.fixture`; a Cell's tiles can only
    run one kernel at a time, so boundary traffic is validated there,
    not by co-launching it under the suite kernel.)
    """
    from ..kernels import registry
    from ..pdes import LaunchSpec, run_cells
    from ..session import run as run_kernel

    multi = config.with_geometry(cells_x=cells_x, cells_y=cells_y)
    launches = [LaunchSpec(cell=xy, kernel=kernel_name,
                           args=suite_args(kernel_name, size),
                           remote=False)
                for xy in multi.chip.cells()]
    sim = run_cells(multi, launches, workers=workers, window=window)
    # Seed the projection from a run of the same size tier so the two
    # sides share their single-Cell baseline.
    bench = registry.SUITE[kernel_name]
    single = run_kernel(config, bench.kernel, suite_args(kernel_name, size))
    projection = _project(kernel_name, single.cycles, single.instructions,
                          cells_x, cells_y, exchange_bytes_per_cell, 1,
                          config)
    simulated = sim.max_cycles
    return {
        "kernel": kernel_name,
        "size": size,
        "cells": [cells_x, cells_y],
        "workers": sim.workers,
        "simulated_cycles": simulated,
        "per_cell_cycles": sim.cycles,
        "messages": sim.messages,
        "rounds": sim.rounds,
        "single_cell_cycles": single.cycles,
        "projected_cycles": projection.total_cycles,
        "projected_transfer_cycles": projection.transfer_cycles,
        "bound_holds": projection.total_cycles >= simulated,
        "projection_slack": projection.total_cycles - simulated,
    }


def compare_transfer_models(exchange_bytes: int = 1 << 20,
                            sparse: bool = True) -> Dict[str, Any]:
    """Inter-Cell exchange: HB word network vs hierarchical channels."""
    word = WordChannelModel(links=4 * HB_16x8.cell.tiles_y,
                            utilization=0.85).transfer(exchange_bytes)
    wide = WideChannelModel().transfer(exchange_bytes, sparse=sparse)
    return {
        "bytes": exchange_bytes,
        "sparse": sparse,
        "hb_cycles": word.cycles,
        "hierarchical_cycles": wide.cycles,
        "hb_advantage": wide.cycles / word.cycles,
    }


#: Kernels whose measured single-Cell runs seed the chip projection.
PROJECTED = ("SGEMM", "PR", "BFS")


def jobs(size: str = "small") -> List[Any]:
    return suite_jobs("chip_scale", HB_16x8, size=size, kernels=PROJECTED)


def reduce(payloads: Mapping[str, Dict[str, Any]]) -> Dict[str, Any]:
    projections = []
    for name in payloads:
        payload = payloads[name]
        p = _project(name, payload["cycles"], payload["instructions"],
                     8, 8, None, 1, HB_16x8)
        projections.append({
            "kernel": p.kernel,
            "cells": p.cells,
            "cell_cycles": p.cell_cycles,
            "transfer_cycles": p.transfer_cycles,
            "total_cycles": p.total_cycles,
            "chip_ipc": p.instructions_per_cycle,
            "transfer_fraction": p.transfer_fraction,
        })
    return {
        "peak_tera_ops": peak_instruction_rate() / 1e12,
        "hundred_k": hundred_k_projection(),
        "projections": projections,
        "transfer_models": compare_transfer_models(),
    }


def run(size: str = "small") -> Dict[str, Any]:
    from ..orch import execute_serial

    return reduce(execute_serial(jobs(size=size)))


def render(out: Dict[str, Any]) -> None:
    from ..perf.report import format_table

    print("== chip-scale projections ==")
    print(f"2048-core ASIC peak: {out['peak_tera_ops']:.2f} Tera inst/s "
          "(paper: 2.8)")
    prj100k = out["hundred_k"]
    print(f"3 nm projection: {prj100k['cores']:,} cores on "
          f"{prj100k['die_mm2']:.0f} mm^2 "
          f"({prj100k['peak_tera_ops']:.0f} Tera inst/s peak)")
    rows = [[p["kernel"], p["cells"], p["cell_cycles"],
             p["transfer_cycles"], p["chip_ipc"], p["transfer_fraction"]]
            for p in out["projections"]]
    print(format_table(
        ["kernel", "cells", "cell cycles", "xfer cycles", "chip IPC",
         "xfer frac"], rows))
    cmp = out["transfer_models"]
    print(f"\n1 MiB sparse exchange: HB {cmp['hb_cycles']:.0f} cycles vs "
          f"hierarchical {cmp['hierarchical_cycles']:.0f} "
          f"({cmp['hb_advantage']:.1f}x)")
