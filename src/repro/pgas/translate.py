"""Address translation: PGAS virtual address -> network destination.

This is the "low-cost combinational logic" of the paper: no TLB, just bit
slicing plus the bank hash.  The translator is the single authority both
cores and the host runtime use to find where a word lives.

:meth:`Translator.translate` is that logic spelled as table reads: it
slices the tag, the coordinate fields and the offset out of the integer
and assembles a :class:`Destination` from per-machine tables keyed by
what the hardware's wires carry -- node, Cell, cache line.  Nothing is
keyed by ``(address, tile)``, so a tile touching an address for the first
time costs what the thousandth touch costs.  The tables fill lazily, are
bounded by the chip (nodes, Cells) or by the lines the run touches, and
die with the machine.  (:func:`repro.audit.reference.reference_translate`
is the ``decode()``-based spelling the differential test holds this
against.)
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, Tuple

from ..arch.geometry import ChipGeometry, Coord
from .hashing import bank_of_line
from .spaces import (
    FIELD_A_SHIFT,
    FIELD_B_SHIFT,
    FIELD_MASK,
    OFFSET_MASK,
    TAG_SHIFT,
    Space,
)


class TargetKind(Enum):
    SPM = "spm"
    CACHE = "cache"
    PIM = "pim"


# Keeps the chip-wide interleaved space's backing-DRAM addresses disjoint
# from every Cell-private partition within a bank's exclusive range.
GLOBAL_DRAM_BASE = 1 << 34

_LOCAL_SPM = int(Space.LOCAL_SPM)
_GROUP_SPM = int(Space.GROUP_SPM)
_LOCAL_DRAM = int(Space.LOCAL_DRAM)
_GROUP_DRAM = int(Space.GROUP_DRAM)
_GLOBAL_DRAM = int(Space.GLOBAL_DRAM)
_PIM = int(Space.PIM)
_SPM = TargetKind.SPM
_CACHE = TargetKind.CACHE


class Destination:
    """Where a memory operation physically goes.

    A value: compares, hashes and pickles by its five fields.  One is
    built per translation, so it is a ``__slots__`` class with a plain
    ``__init__`` rather than a frozen dataclass.
    """

    __slots__ = ("node", "kind", "cell_xy", "bank_index", "mem_addr")

    def __init__(self, node: Coord, kind: TargetKind, cell_xy: Coord,
                 bank_index: int, mem_addr: int) -> None:
        self.node = node  # global grid coordinate of the serving node
        self.kind = kind
        self.cell_xy = cell_xy  # owning Cell
        self.bank_index = bank_index  # bank within the Cell (caches only, else 0)
        self.mem_addr = mem_addr  # byte address within the owning memory

    def _fields(self) -> Tuple[Coord, TargetKind, Coord, int, int]:
        return (self.node, self.kind, self.cell_xy, self.bank_index,
                self.mem_addr)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Destination:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __reduce__(self):
        return (Destination, self._fields())

    def __repr__(self) -> str:
        return (f"Destination(node={self.node!r}, kind={self.kind!r}, "
                f"cell_xy={self.cell_xy!r}, bank_index={self.bank_index!r}, "
                f"mem_addr={self.mem_addr!r})")


class Translator:
    """Maps kernel-visible addresses onto the machine's node grid."""

    def __init__(self, chip: ChipGeometry, block_bytes: int, use_ipoly: bool,
                 grid_cells: Tuple[int, int] = (0, 0)) -> None:
        """``grid_cells`` optionally partitions GLOBAL_DRAM into rectangular
        grids of Cells (paper Section IV-A(5)); ``(0, 0)`` disables grids
        and hashes across the whole chip."""
        self.chip = chip
        self.block_bytes = block_bytes
        self.use_ipoly = use_ipoly
        self.grid_cells = grid_cells
        # node -> (cell_xy, is_tile, that Cell's bank nodes); <= node count.
        self._nodes: Dict[Coord, Tuple[Coord, bool, Tuple[Coord, ...]]] = {}
        # cell_xy -> global node of each of its banks; <= Cell count.
        self._cells: Dict[Coord, Tuple[Coord, ...]] = {}
        # line -> bank for the Cell-private hash (the same in every Cell).
        self._bank_of: Dict[int, int] = {}
        # line -> (node, cell_xy, bank) for the chip-wide hash.
        self._global: Dict[int, Tuple[Coord, Coord, int]] = {}
        # Bank index -> cell-local coordinate, precomputed once.
        self._bank_local = tuple(
            chip.cell.bank_coord(b) for b in range(chip.cell.num_banks)
        )

    def translate(self, addr: int, tile_node: Coord) -> Destination:
        """Translate ``addr`` as issued by the tile at global ``tile_node``."""
        tag = addr >> TAG_SHIFT
        if tag == _LOCAL_DRAM or tag == _GROUP_DRAM:
            # A Cell-private DRAM word, striped across that Cell's banks.
            if tag == _LOCAL_DRAM:
                home = self._nodes.get(tile_node)
                if home is None:
                    home = self._locate(tile_node)
                cell_xy = home[0]
                banks = home[2]
            else:
                cell_xy = ((addr >> FIELD_A_SHIFT) & FIELD_MASK,
                           (addr >> FIELD_B_SHIFT) & FIELD_MASK)
                banks = self._cells.get(cell_xy)
                if banks is None:
                    banks = self._bank_nodes(cell_xy)
            offset = addr & OFFSET_MASK
            line = offset // self.block_bytes
            bank = self._bank_of.get(line)
            if bank is None:
                bank = self._bank_of[line] = bank_of_line(
                    line, len(self._bank_local), self.use_ipoly)
            return Destination(banks[bank], _CACHE, cell_xy, bank, offset)
        if tag == _GROUP_SPM:
            node = ((addr >> FIELD_A_SHIFT) & FIELD_MASK,
                    (addr >> FIELD_B_SHIFT) & FIELD_MASK)
            home = self._nodes.get(node)
            if home is None:
                home = self._locate(node)
            if not home[1]:
                raise ValueError(
                    f"GROUP_SPM address targets a cache node {node}")
            return Destination(node, _SPM, home[0], 0, addr & OFFSET_MASK)
        if tag == _GLOBAL_DRAM:
            # Chip-wide space: lines spread over every bank of every Cell.
            offset = addr & OFFSET_MASK
            line = offset // self.block_bytes
            hit = self._global.get(line)
            if hit is None:
                cell_xy, bank = self._global_line(line)
                hit = self._global[line] = (
                    self._bank_nodes(cell_xy)[bank], cell_xy, bank)
            return Destination(hit[0], _CACHE, hit[1], hit[2],
                               GLOBAL_DRAM_BASE + offset)
        if tag == _LOCAL_SPM:
            home = self._nodes.get(tile_node)
            if home is None:
                home = self._locate(tile_node)
            return Destination(tile_node, _SPM, home[0], 0,
                               addr & OFFSET_MASK)
        if tag == _PIM:
            cell_xy = ((addr >> FIELD_A_SHIFT) & FIELD_MASK,
                       (addr >> FIELD_B_SHIFT) & FIELD_MASK)
            banks = self._cells.get(cell_xy)
            if banks is None:
                banks = self._bank_nodes(cell_xy)
            # Commands enter through the Cell's first cache node; the
            # offset names the pseudo-channel behind it.
            return Destination(banks[0], TargetKind.PIM, cell_xy,
                               addr & OFFSET_MASK, 0)
        if addr < 0:
            raise ValueError("addresses are unsigned")
        raise ValueError(f"unknown address-space tag {tag} in {addr:#x}")

    def _locate(self, node: Coord) -> Tuple[Coord, bool, Tuple[Coord, ...]]:
        """Fill the node table's row for ``node`` (validates it)."""
        cell_xy, (_lx, ly) = self.chip.to_local(node)
        is_tile = 0 < ly <= self.chip.cell.tiles_y
        row = self._nodes[node] = (cell_xy, is_tile,
                                   self._bank_nodes(cell_xy))
        return row

    def _bank_nodes(self, cell_xy: Coord) -> Tuple[Coord, ...]:
        """Fill the Cell table's row for ``cell_xy`` (validates it)."""
        banks = self._cells.get(cell_xy)
        if banks is None:
            ox, oy = self.chip.cell_origin(cell_xy)
            banks = self._cells[cell_xy] = tuple(
                (ox + lx, oy + ly) for lx, ly in self._bank_local)
        return banks

    def _global_line(self, line: int) -> Tuple[Coord, int]:
        """The ``(cell_xy, bank)`` the chip-wide hash gives ``line``.

        With grids enabled, the low line bits select the grid and the
        rest hashes within it.
        """
        gx, gy = self.grid_cells
        if gx and gy:
            grids_x = self.chip.cells_x // gx
            grids_y = self.chip.cells_y // gy
            num_grids = max(1, grids_x * grids_y)
            grid = line % num_grids
            line //= num_grids
            grid_origin = ((grid % grids_x) * gx, (grid // grids_x) * gy)
            cells = [(grid_origin[0] + i, grid_origin[1] + j)
                     for j in range(gy) for i in range(gx)]
        else:
            cells = list(self.chip.cells())
        banks_per_cell = self.chip.cell.num_banks
        total = len(cells) * banks_per_cell
        flat = bank_of_line(line, _round_pow2(total), True) % total
        return cells[flat // banks_per_cell], flat % banks_per_cell


def _round_pow2(n: int) -> int:
    """Smallest power of two >= n (the hash domain, folded by modulo)."""
    p = 1
    while p < n:
        p <<= 1
    return p
