"""Memory system: cache banks, MSHRs, scratchpads, HBM2."""

from .._lazy import lazy

__getattr__, __dir__, __all__ = lazy(__name__, {
    ".cache": ["CacheBank"],
    ".hbm": ["PseudoChannel"],
    ".mshr": ["MshrEntry", "MshrFile"],
    ".spm": ["Scratchpad"],
})
