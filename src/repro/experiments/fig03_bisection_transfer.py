"""Fig 3: bisection-link utilization during sparse inter-Cell transfer.

Two adjacent 16x8 Cells; every tile of Cell 0 stores its share of a
sparse, randomly-addressed buffer into Cell 1's Local DRAM through Group
DRAM pointers.  The paper reports 80-90% utilization of the bisection
links for the word-oriented Cellular network, against ~3% payload
efficiency for a 1024-bit-channel hierarchical NoC moving the same data.

``orientation`` selects horizontally adjacent Cells (the vertical cut)
or vertically stacked Cells (the horizontal cut).
"""

from __future__ import annotations

from typing import Any, Dict

from ..arch.config import HB_16x8, MachineConfig
from ..arch.geometry import CellGeometry
from ..baselines.hierarchical import WideChannelModel


def _sparse_writer():
    """The transfer kernel, built where it runs: its decorator, its
    helpers and numpy are simulate-tier imports (docs/API.md)."""
    import numpy as np

    from ..isa.program import kernel
    from ..kernels.base import num_tiles, range_split, tile_id

    @kernel("sparse-writer")
    def sparse_writer(t, args):
        """Blast random single-word stores into the adjacent Cell's DRAM."""
        total_words = args["total_words"]
        dst_cell = args["dst_cell"]
        lo, hi = range_split(total_words, num_tiles(t), tile_id(t))
        rng = np.random.default_rng(args["seed"] + tile_id(t))
        offsets = rng.integers(0, args["dst_bytes"] // 4,
                               size=hi - lo) * 4
        val = t.reg()
        yield t.alu(val)
        top = t.loop_top()
        for i, off in enumerate(offsets):
            addr = t.group_dram(dst_cell[0], dst_cell[1], int(off))
            yield t.store(addr, srcs=[val])
            yield t.branch_back(top, taken=(i < len(offsets) - 1))
        yield t.fence()
        yield t.barrier()

    return sparse_writer


def run(transfer_bytes: int = 256 * 1024, orientation: str = "horizontal",
        tiles_x: int = 16, tiles_y: int = 8, ruche: bool = True,
        bin_width: float = 256.0, seed: int = 7) -> Dict[str, Any]:
    """Run the transfer and measure the inter-Cell cut."""
    from ..perf.bisection import (LinkSeries, horizontal_cut,
                                  utilization_series, vertical_cut)
    from ..probe import attach
    from ..runtime.machine import Machine

    if orientation not in ("horizontal", "vertical"):
        raise ValueError("orientation must be horizontal or vertical")
    cells = (2, 1) if orientation == "horizontal" else (1, 2)
    config = MachineConfig(
        name=f"fig3-{orientation}",
        cell=CellGeometry(tiles_x, tiles_y),
        cells_x=cells[0], cells_y=cells[1],
        features=HB_16x8.features if ruche else
        HB_16x8.features.__class__(ruche_network=False),
    )
    machine = Machine(config)
    recorder = attach(machine, LinkSeries(bin_width))
    cell0 = machine.cell(0, 0)
    dst_cell = (1, 0) if orientation == "horizontal" else (0, 1)
    args = {
        "total_words": transfer_bytes // 4,
        "dst_cell": dst_cell,
        "dst_bytes": transfer_bytes,
        "seed": seed,
    }
    cell0.load_kernel(_sparse_writer())
    handle = cell0.launch(args)
    cycles = machine.run_to_completion([handle])

    net = machine.memsys.req_net
    if orientation == "horizontal":
        plane = tiles_x - 0.5
        stats = vertical_cut(net, plane, cycles)
        series = utilization_series(recorder, net, plane)
    else:
        plane = (tiles_y + 2) - 0.5
        stats = horizontal_cut(net, plane, cycles)
        series = []  # series recording keys off vertical cuts only

    # The hierarchical comparison: the same payload over wide channels.
    wide = WideChannelModel().transfer(transfer_bytes, sparse=True)
    return {
        "cycles": cycles,
        "orientation": orientation,
        "cut_links": stats.num_links,
        "utilization": stats.utilization,
        # Fig 3's y-axis: utilization of the links carrying the transfer.
        "active_links": stats.active_links,
        "active_utilization": stats.active_utilization,
        "peak_link_utilization": stats.peak_link_utilization,
        "stall_fraction": stats.stall_fraction,
        "series": series,
        "wide_channel_efficiency": wide.efficiency,
        "wide_channel_cycles": wide.cycles,
        "payload_bytes": transfer_bytes,
    }


#: Transfer payload per --size knob (the comparative claim is
#: size-independent; tiny keeps the smoke sweep fast).
SIZE_BYTES = {"tiny": 16 * 1024, "small": 256 * 1024, "full": 1024 * 1024}


def transfer_job(params: Dict[str, Any], config) -> Dict[str, Any]:
    """Orchestrator run function: one orientation of the Fig 3 transfer."""
    from ..orch import jsonable

    return jsonable(run(**params))


def jobs(size: str = "small") -> list:
    from ..orch import Job

    transfer_bytes = SIZE_BYTES.get(size, SIZE_BYTES["small"])
    return [
        Job("fig3", orientation,
            "repro.experiments.fig03_bisection_transfer:transfer_job",
            params={"transfer_bytes": transfer_bytes,
                    "orientation": orientation, "seed": 7})
        for orientation in ("horizontal", "vertical")
    ]


def reduce(payloads: Dict[str, Dict[str, Any]]) -> Dict[str, Any]:
    return dict(payloads)


def render(out: Dict[str, Dict[str, Any]]) -> None:
    from ..perf.report import format_series

    for orientation in ("horizontal", "vertical"):
        o = out[orientation]
        print(f"== Fig 3 ({orientation} adjacency) ==")
        print(f"cut links: {o['cut_links']} "
              f"({o['active_links']} carrying traffic), "
              f"active utilization: {o['active_utilization']:.2f}, "
              f"peak link: {o['peak_link_utilization']:.2f}, "
              f"transfer cycles: {o['cycles']:.0f}")
        print(f"1024-bit hierarchical channel payload efficiency: "
              f"{o['wide_channel_efficiency']:.3f}")
        if o["series"]:
            print(format_series(o["series"],
                                title="bisection utilization over time"))
        print()
