"""Host runtime: machines, Cells, tile groups, launches.

The preferred entry point is :class:`repro.Session` /
:func:`repro.run`; the ``run_on_cell`` family re-exported here is a
deprecated shim layer (see ``docs/API.md``).
"""

from .._lazy import lazy

__getattr__, __dir__, __all__ = lazy(__name__, {
    ".dma": None,
    ".cell": ["Cell", "LaunchHandle"],
    ".host": ["collect_result", "run_on_cell", "run_on_cells"],
    ".machine": ["Machine"],
    ".memsys": ["MemorySystem"],
    ".result": ["RunResult"],
    ".tilegroup": ["TileGroup", "partition_cell"],
})
