"""Performance debugging tools (paper Section III-D).

Bottleneck diagnosis from run counters, spatial heatmaps of tile, bank
and router activity, host-throughput measurement of the simulator
itself (``speed``), and sweep run-journal summaries (``journal``).
"""

from .._lazy import lazy

__getattr__, __dir__, __all__ = lazy(__name__, {
    ".blame": ["Diagnosis", "diagnose"],
    ".journal": [("summarize_journal", "summarize")],
    ".speed": ["measure_kernel", "measure_suite", "profile_top"],
    ".heatmap": ["bank_access_map", "cell_report", "full_report",
                 "render_grid", "router_load_map", "tile_finish_map",
                 "tile_utilization_map"],
})
