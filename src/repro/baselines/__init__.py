"""Baseline architectures the paper compares against."""

from .._lazy import lazy

__getattr__, __dir__, __all__ = lazy(__name__, {
    ".features": ["DENSITY_RATIO", "ladder", "ladder_names"],
    ".hierarchical": ["CACHE_RATIO", "CHANNEL_BITS", "THREAD_RATIO",
                      "TransferEstimate", "WideChannelModel",
                      "WordChannelModel", "et_config"],
})
