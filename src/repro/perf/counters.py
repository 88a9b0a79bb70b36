"""Aggregation helpers over core/cache/HBM counters."""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, Iterable, List, Mapping

from ..core import stall as st

if TYPE_CHECKING:
    from ..runtime.result import RunResult

#: Display order for the Fig 11 core-utilization stack.
BREAKDOWN_ORDER = (
    st.EXEC_INT,
    st.EXEC_FP,
    st.STALL_DEPEND_LOAD,
    st.STALL_BYPASS,
    st.STALL_FDIV,
    st.STALL_ICACHE,
    st.STALL_BRANCH,
    st.STALL_BARRIER,
    st.STALL_FENCE,
    st.STALL_CREDIT,
    st.STALL_AMO,
    st.STALL_IDLE,
    "other",
)

HBM_ORDER = ("read", "write", "busy", "idle")

#: Kernel order used by Fig 11 (memory-intensive to compute-intensive).
FIG11_ORDER = ("PR", "BFS", "SpGEMM", "BH", "FFT", "Jacobi",
               "SGEMM", "SW", "BS", "AES")


def ordered_from(breakdown: Mapping[str, float]) -> Dict[str, float]:
    """A raw category->fraction mapping in canonical display order."""
    return {cat: breakdown.get(cat, 0.0)
            for cat in BREAKDOWN_ORDER if breakdown.get(cat, 0.0) > 0}


def ordered_breakdown(result: RunResult) -> Dict[str, float]:
    """Core-cycle breakdown in canonical display order."""
    return ordered_from(result.core_breakdown)


def merge_breakdowns(results: Iterable[RunResult]) -> Dict[str, float]:
    """Tile-weighted average breakdown over several runs."""
    total = 0.0
    acc: Dict[str, float] = {}
    for r in results:
        weight = r.num_tiles * r.cycles
        total += weight
        for cat, frac in r.core_breakdown.items():
            acc[cat] = acc.get(cat, 0.0) + frac * weight
    if total == 0:
        return {}
    return {cat: v / total for cat, v in acc.items()}


def speedups(baseline_cycles: Mapping[str, float],
             variant_cycles: Mapping[str, float]) -> Dict[str, float]:
    """Per-kernel speedup of a variant over a baseline."""
    out = {}
    for kernel, base in baseline_cycles.items():
        if kernel in variant_cycles and variant_cycles[kernel] > 0:
            out[kernel] = base / variant_cycles[kernel]
    return out


def geomean(values: Iterable[float]) -> float:
    """Geometric mean; raises on empty or non-positive input."""
    values = list(values)
    if not values:
        raise ValueError("geomean of empty sequence")
    if any(v <= 0 for v in values):
        raise ValueError("geomean requires positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def instructions_per_cycle(results: List[RunResult]) -> float:
    instr = sum(r.instructions for r in results)
    cycles = sum(r.cycles for r in results)
    return instr / cycles if cycles else 0.0
