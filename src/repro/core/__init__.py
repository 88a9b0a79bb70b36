"""Tile core model: pipeline timing, scoreboard, icache, branch predictor."""

from .._lazy import lazy

__getattr__, __dir__, __all__ = lazy(__name__, {
    ".stall": None,
    ".branch": ["BranchPredictor"],
    ".icache": ["ICache"],
    ".scoreboard": ["Scoreboard"],
    ".tile": ["TileCore"],
})
