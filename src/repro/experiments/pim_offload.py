"""PIM offload study: the same primitive tile-side vs memory-side.

For each registered :class:`repro.pim.kernels.Offload` (GEMV, DOT,
AXPY) this harness runs

* the tile-side kernel across the Cell's tile array, streaming operands
  through the NoC and caches the usual way, and
* the memory-side kernel on one control tile driving the Cell's PIM
  engine with AiM-style commands,

then compares cycles, an energy estimate (core EPI model tile-side;
per-PIM-op EPI plus the control tile memory-side), and -- the point of
the exercise -- the *functional results*, which must match bitwise
(inputs are integer-valued floats, so summation order cannot perturb
them; any difference is a real datapath bug).

``sweep_banks`` additionally re-runs the memory side with the HBM bank
count swept down, demonstrating that PIM cycles scale with the bank
parallelism (``MAC_ABK`` completion is the max over enabled banks).

This harness drives live machines (host-side bank preloads via
``setup=``), so it is not in the sweepable ``HARNESSES`` registry; run
it through ``repro pim`` (``repro pim all`` also prints the GEMV bank
sweep).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional, Tuple

from ..arch.config import HB_16x8, MachineConfig, small_config
from ..energy.epi import kernel_energy, pim_energy
from ..pim.kernels import OFFLOADS
from ..session import run as session_run

SIZES = ("tiny", "small", "full")

#: Bank counts for the scaling sweep (every offload size keeps its rows
#: divisible by all of these).
BANK_SWEEP = (4, 8, 16)


def _base_config(size: str) -> MachineConfig:
    return small_config(4, 4) if size == "tiny" else HB_16x8


def _tile_energy_pj(result) -> float:
    """Core-side energy estimate from the run's instruction mix.

    Loads/stores are not counted separately by :class:`RunResult`; the
    non-int, non-fp remainder (memory ops and branches) is split evenly
    between the load and store classes -- a deliberate coarse estimate,
    consistent across both sides of the comparison.
    """
    mem = max(0.0, result.instructions
              - result.int_instructions - result.fp_instructions)
    return kernel_energy({
        "int": result.int_instructions,
        "fp": result.fp_instructions,
        "load": mem / 2,
        "store": mem / 2,
    }).total_pj


def _offload_args(off, config: MachineConfig, size: str) -> Dict[str, Any]:
    pim = config.pim
    return off.make_args(nbanks=config.timings.hbm.banks,
                        simd_width=pim.simd_width,
                        grf_entries=pim.grf_entries,
                        **off.sizes[size])


def run_offload(name: str, size: str = "small",
                config: Optional[MachineConfig] = None,
                cell: Tuple[int, int] = (0, 0),
                trace: Any = False, sanitize: Any = False,
                audit: Any = False) -> Dict[str, Any]:
    """One offload comparison; returns a JSON-able report dict."""
    if name not in OFFLOADS:
        raise ValueError(f"unknown offload kernel {name!r}; one of "
                         f"{sorted(OFFLOADS)}")
    if size not in SIZES:
        raise ValueError(f"size must be one of {SIZES}")
    off = OFFLOADS[name]
    base = config if config is not None else _base_config(size)
    pim_config = base if base.pim is not None else base.with_pim()

    tile_args = _offload_args(off, pim_config, size)
    tile_res = session_run(base, off.tile, tile_args, cell=cell,
                           trace=trace, sanitize=sanitize, audit=audit)

    pim_args = _offload_args(off, pim_config, size)

    def _preload(machine):
        off.preload(machine.memsys.pim_engines[cell], pim_args)

    pim_res = session_run(pim_config, off.pim, pim_args, cell=cell,
                          setup=_preload, keep_machine=True, trace=trace,
                          sanitize=sanitize, audit=audit)
    engine = pim_res.machine.memsys.pim_engines[cell]
    ops = engine.counters.as_dict()
    pim_res.machine = None  # drop live simulator state from the report

    match = tile_args["out"] == pim_args["out"]
    report = {
        "kernel": name,
        "size": size,
        "config": base.name,
        "match": bool(match),
        "tile": {
            "cycles": float(tile_res.cycles),
            "instructions": float(tile_res.instructions),
            "energy_pj": _tile_energy_pj(tile_res),
            "tiles": int(tile_res.num_tiles),
        },
        "pim": {
            "cycles": float(pim_res.cycles),
            "instructions": float(pim_res.instructions),
            "energy_pj": (pim_energy(ops).total_pj
                          + _tile_energy_pj(pim_res)),
            "ops": {k: int(v) for k, v in ops.items()},
        },
    }
    report["speedup"] = (report["tile"]["cycles"] / report["pim"]["cycles"]
                         if report["pim"]["cycles"] else 0.0)
    if trace:
        # Live Trace objects, not JSON-able: only set when tracing was
        # requested, so the plain report stays serializable.
        report["tile_trace"] = tile_res.trace
        report["pim_trace"] = pim_res.trace
    if not match:
        bad = [i for i, (a, b) in
               enumerate(zip(tile_args["out"], pim_args["out"])) if a != b]
        report["mismatch_indices"] = bad[:16]
    return report


def sweep_banks(name: str = "GEMV", size: str = "small",
                banks: Iterable[int] = BANK_SWEEP,
                config: Optional[MachineConfig] = None) -> Dict[str, Any]:
    """Memory-side cycles vs HBM bank count (the parallelism knob).

    More banks means more concurrent ``MAC_ABK`` lanes, so PIM cycles
    must not increase with the bank count; ``scales`` reports whether
    the sweep is monotone non-increasing.
    """
    base = config if config is not None else _base_config(size)
    points = []
    for nb in banks:
        rep = run_offload(name, size=size, config=base.with_hbm(banks=nb))
        points.append({"banks": nb, "pim_cycles": rep["pim"]["cycles"],
                       "match": rep["match"]})
    cycles = [p["pim_cycles"] for p in points]
    return {
        "kernel": name,
        "size": size,
        "points": points,
        "scales": all(b <= a for a, b in zip(cycles, cycles[1:])),
    }


def sweep_line(sweep: Dict[str, Any]) -> str:
    """One text line for a :func:`sweep_banks` result."""
    pts = ", ".join(f"{p['banks']}b={p['pim_cycles']:.0f}"
                    for p in sweep["points"])
    ok = "scales with banks" if sweep["scales"] else "DOES NOT SCALE"
    return f"{sweep['kernel']} bank sweep: {pts} -- {ok}"
