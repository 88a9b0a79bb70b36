"""The top-level machine: simulator + memory system + Cells + cores."""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional

from ..arch.config import MachineConfig
from ..arch.geometry import Coord, NodeKind
from ..core.tile import TileCore
from ..engine import Simulator
from .cell import Cell, LaunchHandle
from .memsys import MemorySystem


class Machine:
    """One instantiated HammerBlade machine model.

    ``owned_cells`` shards the machine for PDES: only the named Cells
    get cores, scratchpads, cache banks and HBM channels -- the rest of
    the chip exists as geometry (the network grid and translator cover
    it) but is another shard's to simulate.  ``None`` (the default)
    owns everything: the monolithic machine, bit-identical to before.
    """

    def __init__(self, config: MachineConfig,
                 owned_cells: Optional[Iterable[Coord]] = None) -> None:
        self.config = config
        self.sim = Simulator()
        self.owned_cells = (frozenset(owned_cells)
                            if owned_cells is not None else None)
        if self.owned_cells is not None:
            bad = self.owned_cells - set(config.chip.cells())
            if bad:
                raise ValueError(f"owned_cells not on this chip: {sorted(bad)}")
        self.memsys = MemorySystem(self.sim, config,
                                   owned_cells=self.owned_cells)
        #: The probe :func:`repro.probe.attach` installed, if any.
        self._probe: Optional[Any] = None
        self.cells: Dict[Coord, Cell] = {
            xy: Cell(self, xy) for xy in config.chip.cells()
        }
        self.cores: Dict[Coord, TileCore] = {}
        chip = config.chip
        for node, kind in chip.all_nodes():
            if kind is NodeKind.TILE:
                if (self.owned_cells is not None
                        and chip.to_local(node)[0] not in self.owned_cells):
                    continue
                self.cores[node] = TileCore(
                    self.sim, node, config.timings, config.features,
                    self.memsys, name=f"tile{node}",
                )

    def owns(self, cell_xy: Coord) -> bool:
        """Whether this machine simulates ``cell_xy`` (always true when
        unsharded)."""
        return self.owned_cells is None or cell_xy in self.owned_cells

    def cell(self, x: int, y: int = 0) -> Cell:
        """Look up a Cell by its Cell-array coordinate (paper Fig 6)."""
        try:
            return self.cells[(x, y)]
        except KeyError as exc:
            raise KeyError(
                f"no cell ({x}, {y}); machine has "
                f"{self.config.cells_x}x{self.config.cells_y} cells"
            ) from exc

    # -- execution ---------------------------------------------------------------

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> float:
        """Drain the event queue (optionally bounded); returns final time."""
        return self.sim.run(until=until, max_events=max_events)

    def run_to_completion(self, handles: Iterable[LaunchHandle],
                          max_events: Optional[int] = None) -> float:
        """Run until every launch finishes; returns the slowest handle's
        elapsed cycles (the kernel's wall clock)."""
        handles = list(handles)
        self.run(max_events=max_events)
        unfinished = [h for h in handles if not h.finished]
        if unfinished:
            raise RuntimeError(
                f"{len(unfinished)} launch(es) did not finish; a process is "
                "deadlocked or waiting on an unresolved future: "
                + "; ".join(self._describe_stuck(h) for h in unfinished)
            )
        return max(h.cycles() for h in handles)

    @staticmethod
    def _describe_stuck(handle, max_cores: int = 8) -> str:
        """One launch's unfinished tiles with their last blocking reason."""
        stuck = handle.stuck_cores()
        parts = [
            f"{core.name}:{core.last_stall or 'never-blocked'}"
            for core in stuck[:max_cores]
        ]
        if len(stuck) > max_cores:
            parts.append(f"... {len(stuck) - max_cores} more")
        detail = ", ".join(parts) if parts else "no stuck tiles?"
        return f"{handle.name} ({len(stuck)} of {len(handle.cores)} tiles stuck: {detail})"

    # -- stats -------------------------------------------------------------------------

    def active_cores(self) -> List[TileCore]:
        return [c for c in self.cores.values() if c.process is not None]

    def elapsed(self) -> float:
        cores = self.active_cores()
        if not cores:
            return 0.0
        return (max(c.finish_time for c in cores)
                - min(c.start_time for c in cores))
