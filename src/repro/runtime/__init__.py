"""Host runtime: machines, Cells, tile groups, launches.

The entry point that builds and runs them is :class:`repro.Session` /
:func:`repro.run`.
"""

from .._lazy import lazy

__getattr__, __dir__, __all__ = lazy(__name__, {
    ".dma": None,
    ".cell": ["Cell", "LaunchHandle"],
    ".machine": ["Machine"],
    ".memsys": ["MemorySystem"],
    ".result": ["RunResult"],
    ".tilegroup": ["TileGroup", "partition_cell"],
})
