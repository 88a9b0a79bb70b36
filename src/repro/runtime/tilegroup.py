"""Tile groups: rectangular sub-arrays of a Cell's tiles.

Tile groups are HB's fine-grained thread-management unit (vs. SIMT warps):
each group gets its own reconfigured barrier tree and typically works on
an independent task over the Cell's shared data (Fig 12's task-level
parallelism for irregular workloads).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..arch.config import FeatureSet
from ..arch.geometry import CellGeometry, Coord
from ..arch.params import BarrierTiming
from ..engine import Simulator
from ..noc.barrier import HwBarrierGroup, SwBarrierGroup


@dataclass
class TileGroup:
    """One rectangular group of tiles with its barrier."""

    index: int
    origin: Tuple[int, int]  # tile coordinates within the Cell (x, y)
    shape: Tuple[int, int]  # (width, height) in tiles
    members: List[Coord]  # global node coordinates, row-major
    barrier: object  # HwBarrierGroup or SwBarrierGroup

    @property
    def size(self) -> int:
        return len(self.members)

    def rank_of(self, node: Coord) -> int:
        return self.members.index(node)


def partition_cell(sim: Simulator, cell: CellGeometry, cell_origin: Coord,
                   group_shape: Tuple[int, int], features: FeatureSet,
                   barrier_timing: BarrierTiming) -> List[TileGroup]:
    """Split a Cell's tile array into equal rectangular tile groups.

    ``group_shape=(tiles_x, tiles_y)`` reproduces the single-group
    default; Fig 12 uses shapes like ``(4, 4)`` for eight groups.
    """
    gw, gh = group_shape
    if gw <= 0 or gh <= 0:
        raise ValueError("group shape must be positive")
    if cell.tiles_x % gw or cell.tiles_y % gh:
        raise ValueError(
            f"group shape {group_shape} does not tile a "
            f"{cell.tiles_x}x{cell.tiles_y} Cell"
        )
    ox, oy = cell_origin
    groups: List[TileGroup] = []
    index = 0
    for gy in range(cell.tiles_y // gh):
        for gx in range(cell.tiles_x // gw):
            members: List[Coord] = []
            for ty in range(gy * gh, (gy + 1) * gh):
                for tx in range(gx * gw, (gx + 1) * gw):
                    # +1 skips the north cache strip row.
                    members.append((ox + tx, oy + 1 + ty))
            if features.hw_barrier:
                barrier = HwBarrierGroup(
                    sim, members, barrier_timing,
                    ruche=features.ruche_network,
                )
            else:
                barrier = SwBarrierGroup(sim, members)
            groups.append(TileGroup(
                index=index, origin=(gx * gw, gy * gh),
                shape=(gw, gh), members=members, barrier=barrier,
            ))
            index += 1
    return groups
