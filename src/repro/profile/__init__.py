"""Performance debugging tools (paper Section III-D).

Bottleneck diagnosis from run counters, spatial heatmaps of tile, bank
and router activity, and sweep run-journal summaries (``journal``).
The simulator's own host throughput is measured by
``benchmarks/spine/run.py``.
"""

from .._lazy import lazy

__getattr__, __dir__, __all__ = lazy(__name__, {
    ".blame": ["Diagnosis", "diagnose"],
    ".journal": [("summarize_journal", "summarize")],
    ".heatmap": ["bank_access_map", "cell_report", "full_report",
                 "render_grid", "router_load_map", "tile_finish_map",
                 "tile_utilization_map"],
})
