"""Fig 13: energy-per-instruction vs the OpenPiton power study.

Reproduces the paper's methodology directly (it is an analytic,
CV^2-normalized comparison): HB EPI from per-component event energies,
Piton EPI from the published measurements scaled to the same node.
Headline: HB is 3.6-15.1x more energy-efficient per instruction.

Also demonstrates the kernel-level use: estimating a measured run's core
energy from its executed instruction mix.  That one measured run is the
harness's single :class:`repro.orch.Job`; the EPI table itself is
analytic and lives in :func:`reduce`.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping

from ..arch.config import HB_16x8
from ..energy.epi import (
    INSTRUCTION_CLASSES,
    efficiency_ratios,
    hb_epi,
    hb_epi_breakdown,
    kernel_energy,
    piton_epi_scaled,
)
from .common import suite_jobs


def _measure_config(size: str):
    if size != "tiny":
        return HB_16x8
    from ..arch.config import small_config

    return small_config(4, 4)


def jobs(size: str = "tiny", measure_kernel: str = "AES") -> list:
    return suite_jobs("fig13", _measure_config(size), size=size,
                      kernels=[measure_kernel])


def reduce(payloads: Mapping[str, Dict[str, Any]]) -> Dict[str, Any]:
    (measure_kernel, result), = payloads.items()
    ratios = efficiency_ratios()
    rows = []
    for cls in INSTRUCTION_CLASSES:
        rows.append({
            "class": cls,
            "hb_pj": hb_epi(cls),
            "piton_pj": piton_epi_scaled(cls),
            "ratio": ratios[cls],
            "hb_breakdown": hb_epi_breakdown(cls),
        })
    counts = {
        "int": result["int_instructions"],
        "fp": result["fp_instructions"],
    }
    report = kernel_energy(counts)
    return {
        "rows": rows,
        "min_ratio": min(ratios.values()),
        "max_ratio": max(ratios.values()),
        "kernel": measure_kernel,
        "kernel_energy_pj": report.total_pj,
        "kernel_instructions": result["instructions"],
    }


def run(measure_kernel: str = "AES", size: str = "tiny") -> Dict[str, Any]:
    from ..orch import execute_serial

    return reduce(execute_serial(jobs(size=size,
                                      measure_kernel=measure_kernel)))


def render(out: Dict[str, Any]) -> None:
    from ..perf.report import format_table

    print("== Fig 13: energy per instruction (pJ, 14/16 nm normalized) ==")
    print(format_table(
        ["class", "HB", "Piton (CV^2)", "Piton/HB"],
        [(r["class"], r["hb_pj"], r["piton_pj"], r["ratio"])
         for r in out["rows"]]))
    print(f"\nefficiency band: {out['min_ratio']:.1f}x - "
          f"{out['max_ratio']:.1f}x (paper: 3.6-15.1x)")
    print(f"{out['kernel']} run energy: {out['kernel_energy_pj']/1e6:.2f} uJ "
          f"over {out['kernel_instructions']:.0f} instructions")
