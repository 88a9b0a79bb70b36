"""Performance reporting: breakdowns, bisection stats, text rendering."""

from .._lazy import lazy

__getattr__, __dir__, __all__ = lazy(__name__, {
    ".bisection": ["BisectionStats", "cell_bisection", "horizontal_cut",
                   "utilization_series", "vertical_cut"],
    ".counters": ["BREAKDOWN_ORDER", "HBM_ORDER", "geomean",
                  "instructions_per_cycle", "merge_breakdowns",
                  "ordered_breakdown", "speedups"],
    ".report": ["format_bars", "format_series", "format_stacked",
                "format_table", "speedup_table"],
})
