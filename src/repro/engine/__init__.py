"""Discrete-event simulation engine underlying every model in ``repro``."""

from .._lazy import lazy

__getattr__, __dir__, __all__ = lazy(__name__, {
    ".event": ["Event", "SimulationError", "Simulator"],
    ".process": ["Future", "Process", "join", "spawn"],
    ".stats": ["BinnedSeries", "Counter", "Interval", "geomean", "mean"],
})
