"""Fig 4: HW barrier latency and scalability vs software barriers.

Checks the paper's worked example -- with Ruche links of hop distance 3,
the remotest tile of a 16x8 group reaches the root in 8 cycles -- and
sweeps group sizes to show the HW tree's near-flat scaling against the
linear serialization of an amoadd-counter software barrier.

Both analytic curves are cross-validated against the event-driven
HwBarrierGroup/SwBarrierGroup models on a live simulator.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from ..arch.params import BarrierTiming
from ..noc.analysis import (
    analytic_hw_latency,
    analytic_sw_latency,
    barrier_hops,
    tree_root,
)

GROUP_SIZES: List[Tuple[int, int]] = [
    (2, 2), (4, 2), (4, 4), (8, 4), (8, 8), (16, 8), (16, 16), (32, 16),
]


def simulated_latency(width: int, height: int, hw: bool = True,
                      ruche: bool = True) -> float:
    """Drive a barrier group with simultaneous arrivals; returns release
    latency of the slowest member."""
    from ..engine import Simulator
    from ..noc.barrier import HwBarrierGroup, SwBarrierGroup

    sim = Simulator()
    members = [(x, y) for y in range(height) for x in range(width)]
    if hw:
        group = HwBarrierGroup(sim, members, BarrierTiming(), ruche=ruche)
    else:
        group = SwBarrierGroup(sim, members)
    futures = [group.arrive(m, 0.0) for m in members]
    done = {}
    for m, fut in zip(members, futures):
        fut.add_callback(lambda _v, m=m: done.setdefault(m, sim.now))
    sim.run()
    return max(done.values())


def barrier_job(params: Dict[str, Any], config) -> Dict[str, Any]:
    """Orchestrator run function: one live barrier-group simulation."""
    return {"latency": simulated_latency(params["width"], params["height"],
                                         hw=params["hw"])}


def jobs(size: str = "small") -> list:  # size: barriers have no input size
    from ..orch import Job

    out = []
    for width, height in GROUP_SIZES:
        for flavor, hw in (("hw", True), ("sw", False)):
            out.append(Job(
                "fig4", f"{flavor}/{width}x{height}",
                "repro.experiments.fig04_barrier:barrier_job",
                params={"width": width, "height": height, "hw": hw}))
    return out


def reduce(payloads: Dict[str, Dict[str, Any]]) -> Dict[str, Any]:
    rows = []
    for width, height in GROUP_SIZES:
        rows.append({
            "group": f"{width}x{height}",
            "tiles": width * height,
            "hw_ruche": analytic_hw_latency(width, height, ruche=True),
            "hw_mesh": analytic_hw_latency(width, height, ruche=False),
            "sw": analytic_sw_latency(width, height),
            "hw_ruche_sim": payloads[f"hw/{width}x{height}"]["latency"],
            "sw_sim": payloads[f"sw/{width}x{height}"]["latency"],
        })
    # The paper's worked example: remotest tile -> root in 8 cycles.
    members = [(x, y) for y in range(8) for x in range(16)]
    root = tree_root(members)
    worst_in_sweep = max(barrier_hops(m, root, ruche=True) for m in members)
    return {"rows": rows, "in_sweep_16x8": worst_in_sweep}


def run() -> Dict[str, Any]:
    from ..orch import execute_serial

    return reduce(execute_serial(jobs()))


def render(out: Dict[str, Any]) -> None:
    from ..perf.report import format_table

    print("== Fig 4: barrier latency (cycles) ==")
    print(f"16x8 in-sweep to root via Ruche: {out['in_sweep_16x8']} cycles "
          "(paper: 8)")
    rows = [(r["group"], r["tiles"], r["hw_ruche"], r["hw_mesh"], r["sw"],
             r["hw_ruche_sim"], r["sw_sim"]) for r in out["rows"]]
    print(format_table(
        ["group", "tiles", "HW(ruche)", "HW(mesh)", "SW", "HW sim", "SW sim"],
        rows))
