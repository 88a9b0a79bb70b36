"""The Cell: HB's unit of SPMD execution and PGAS affinity.

Mirrors the host-side API of the paper's Fig 6: construct (or look up) a
Cell, ``malloc`` in its Local DRAM, ``load_kernel``, ``launch``.  Cross-
Cell producer-consumer patterns use :meth:`group_dram` pointers.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..arch.geometry import Coord
from ..engine import Future, join
from ..isa.context import KernelContext
from ..isa.program import Kernel
from ..pgas import spaces
from .tilegroup import TileGroup, partition_cell


class LaunchHandle:
    """One kernel launch across a Cell's tiles."""

    def __init__(self, cell: "Cell", cores: List[Any], launch_time: float,
                 name: Optional[str] = None) -> None:
        self.cell = cell
        self.cores = cores
        self.launch_time = launch_time
        self.name = name or f"launch@cell{cell.cell_xy}"
        #: Each core's counters at launch (cores keep counting across
        #: launches; a result reports this launch's share).
        self.baseline = [core.counters.as_dict() for core in cores]
        self.done: Future = join(cell.machine.sim, [c.done for c in cores])

    @property
    def finished(self) -> bool:
        return self.done.done

    def cycles(self) -> float:
        """Wall-clock cycles from launch to the last tile's completion."""
        if not self.finished:
            raise RuntimeError("kernel still running; call machine.run() first")
        return max(c.finish_time for c in self.cores) - self.launch_time

    def stuck_cores(self) -> List[Any]:
        """Cores whose kernel process has not finished (deadlock triage)."""
        return [c for c in self.cores
                if c.process is not None and not c.process.done.done]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "finished" if self.finished else "running"
        return f"LaunchHandle({self.name!r}, {state}, {len(self.cores)} tiles)"


class Cell:
    """One Cell and its Local DRAM heap."""

    #: Heap starts above a small reserved region for runtime control words.
    HEAP_BASE = 4096

    def __init__(self, machine: Any, cell_xy: Coord) -> None:
        self.machine = machine
        self.cell_xy = cell_xy
        self.origin = machine.config.chip.cell_origin(cell_xy)
        self._brk = self.HEAP_BASE
        self.kernel: Optional[Kernel] = None
        self.groups: List[TileGroup] = []
        self._last_handle: Optional[LaunchHandle] = None
        #: Probe bus hook (set by :func:`repro.probe.attach`): launches,
        #: and the barrier groups each launch partitions.
        self._probe: Optional[Any] = None

    # -- memory management -----------------------------------------------------

    def malloc(self, nbytes: int, align: int = 64) -> int:
        """Allocate in this Cell's Local DRAM; returns the byte offset."""
        if nbytes <= 0:
            raise ValueError("malloc needs a positive size")
        if align & (align - 1):
            raise ValueError("alignment must be a power of two")
        self._brk = (self._brk + align - 1) & ~(align - 1)
        offset = self._brk
        self._brk += nbytes
        return offset

    def local_dram(self, offset: int) -> int:
        """Encode an offset as a Local-DRAM address (usable by own tiles)."""
        return spaces.local_dram(offset)

    def group_dram(self, offset: int) -> int:
        """Encode an offset as a Group-DRAM pointer into *this* Cell,
        usable by any other Cell (the Fig 6 producer-consumer idiom)."""
        return spaces.group_dram(self.cell_xy[0], self.cell_xy[1], offset)

    def poke(self, offset: int, value: int) -> None:
        """Host functional write into this Cell's atomic memory."""
        self._check_owned("poke")
        node = self._any_tile()
        self.machine.memsys.poke(spaces.local_dram(offset), value, node)

    def peek(self, offset: int) -> int:
        self._check_owned("peek")
        node = self._any_tile()
        return self.machine.memsys.peek(spaces.local_dram(offset), node)

    def _check_owned(self, what: str) -> None:
        """PDES shards only drive their own Cells; touching a foreign
        Cell object here would act on state another shard simulates."""
        if not self.machine.owns(self.cell_xy):
            raise RuntimeError(
                f"cannot {what} cell {self.cell_xy}: this shard owns "
                f"{sorted(self.machine.owned_cells)} -- address the "
                "owning shard (malloc/group_dram are pure address "
                "arithmetic and stay usable)")

    # -- kernel launch --------------------------------------------------------------

    def load_kernel(self, kernel: Kernel) -> None:
        self.kernel = kernel

    def tiles(self) -> List[Coord]:
        chip = self.machine.config.chip
        return [chip.to_global(self.cell_xy, local)
                for local in chip.cell.tile_coords()]

    def _any_tile(self) -> Coord:
        chip = self.machine.config.chip
        return chip.to_global(self.cell_xy, next(iter(chip.cell.tile_coords())))

    def launch(self, args: Any = None,
               group_shape: Optional[Tuple[int, int]] = None) -> LaunchHandle:
        """Start the loaded kernel on every tile of this Cell.

        ``group_shape`` splits the Cell into tile groups (default: one
        group covering the whole Cell).
        """
        if self.kernel is None:
            raise RuntimeError("no kernel loaded; call load_kernel() first")
        self._check_owned("launch on")
        # A launch claims every tile of the Cell; starting another while
        # one is in flight would hand the same cores a second program
        # and silently corrupt both (shared scoreboards, clobbered
        # ``done`` futures).  Sequential launches -- run to completion,
        # then launch again -- remain fine.
        if self._last_handle is not None and not self._last_handle.finished:
            raise RuntimeError(
                f"cell {self.cell_xy} already has kernel "
                f"{self._last_handle.name!r} in flight; run the machine "
                "to completion before launching again")
        config = self.machine.config
        cell_geo = config.chip.cell
        shape = group_shape or (cell_geo.tiles_x, cell_geo.tiles_y)
        self.groups = partition_cell(
            self.machine.sim, cell_geo, self.origin, shape,
            config.features, config.timings.barrier,
        )
        probe = self._probe
        if probe is not None:
            for group in self.groups:
                group.barrier._probe = probe
                probe.barrier_group(group.barrier,
                                    f"cell{self.origin} g{group.index}")
        cores = []
        num_groups = len(self.groups)
        shared_blocks: dict = {}
        for group in self.groups:
            for rank, node in enumerate(group.members):
                ctx = KernelContext(
                    node=node,
                    cell_xy=self.cell_xy,
                    cell_origin=self.origin,
                    group_rank=rank,
                    group_size=group.size,
                    group_shape=group.shape,
                    barrier_group=group.barrier,
                    num_groups=num_groups,
                    group_index=group.index,
                    shared_blocks=shared_blocks,
                )
                core = self.machine.cores[node]
                gen = self.kernel.instantiate(ctx, args)
                core.start(gen)
                cores.append(core)
        name = f"{self.kernel.name}@cell{self.cell_xy}"
        handle = LaunchHandle(self, cores, self.machine.sim.now, name=name)
        self._last_handle = handle
        if probe is not None:
            # Launch is a host -> tiles happens-before edge: everything
            # the host set up (pokes, DMA) is visible to the kernel.
            probe.launch(handle)
        return handle
