"""Machine geometry, parameters and configurations."""

from .._lazy import lazy

__getattr__, __dir__, __all__ = lazy(__name__, {
    ".serialize": None,
    ".config": ["ALL_FEATURES", "HB_16x8", "HB_16x16", "HB_2x16x8", "HB_32x8",
                "NO_FEATURES", "FeatureSet", "MachineConfig", "TABLE_II",
                "small_config"],
    ".geometry": ["CellGeometry", "ChipGeometry", "Coord", "NodeKind",
                  "manhattan"],
    ".params": ["CLOCK_RATIO", "CORE_FREQ_GHZ", "DEFAULT_TIMINGS",
                "ICACHE_BYTES", "ICACHE_LINE_INSTRS", "MEM_FREQ_GHZ",
                "RUCHE_FACTOR", "SCOREBOARD_ENTRIES", "SPM_BYTES",
                "WORD_BYTES", "BarrierTiming", "CacheTiming", "CoreTiming",
                "HBMTiming", "NocTiming", "Timings"],
})
