"""Network topology: 2-D mesh plus optional half-Ruche horizontal links.

Every node of the global grid (tiles and cache banks alike -- the network
is homogeneous, per the paper) gets bidirectional mesh links to its four
neighbours.  When the Ruche network is enabled, every node additionally
gets horizontal links of hop distance ``RUCHE_FACTOR`` (3): these are the
long-range channels that pass over intermediate tiles and triple the
horizontal cut width, for the paper's quoted 4x bisection bandwidth
(3 ruche + 1 mesh channel per row and direction).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

from ..arch.geometry import ChipGeometry, Coord
from ..arch.params import RUCHE_FACTOR
from ..engine.stats import BinnedSeries


class Link:
    """One directed channel with a reservation horizon and counters."""

    __slots__ = ("src", "dst", "ruche", "free_at", "busy_cycles",
                 "stall_cycles", "packets", "series")

    def __init__(self, src: Coord, dst: Coord, ruche: bool = False) -> None:
        self.src = src
        self.dst = dst
        self.ruche = ruche
        self.free_at: float = 0
        self.busy_cycles: float = 0
        self.stall_cycles: float = 0
        self.packets: int = 0
        self.series: Optional[BinnedSeries] = None

    @property
    def horizontal(self) -> bool:
        return self.src[1] == self.dst[1]

    def span(self) -> int:
        return abs(self.dst[0] - self.src[0]) + abs(self.dst[1] - self.src[1])

    def utilization(self, elapsed: float) -> float:
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_cycles / elapsed)

    def enable_series(self, bin_width: float) -> None:
        self.series = BinnedSeries(bin_width)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = "ruche" if self.ruche else "mesh"
        return f"Link({self.src}->{self.dst}, {kind})"


class Topology:
    """All links of one physical network (request or response plane).

    ``owned`` limits the plane to the links whose two endpoints both lie
    in the named Cells -- a PDES shard's own fabric; foreign Cells'
    links belong to the shards that simulate them.  ``None`` (the
    default) builds the whole chip.
    """

    def __init__(self, chip: ChipGeometry, ruche: bool,
                 ruche_factor: int = RUCHE_FACTOR,
                 owned: Optional[FrozenSet[Coord]] = None) -> None:
        self.chip = chip
        self.ruche = ruche
        self.ruche_factor = ruche_factor
        self._links: Dict[Tuple[Coord, Coord], Link] = {}
        self._build(owned)

    def _build(self, owned: Optional[FrozenSet[Coord]]) -> None:
        chip = self.chip
        cols, rows = chip.grid_cols, chip.grid_rows
        ccols, crows = chip.cell.cols, chip.cell.rows
        if owned is None:
            spans = [(0, 0, cols, rows)]
        else:  # only the owned Cells' nodes can start a kept link
            spans = [(*chip.cell_origin(xy), ccols, crows)
                     for xy in sorted(owned)]
        steps = [(1, 0, False), (-1, 0, False), (0, 1, False), (0, -1, False)]
        if self.ruche:
            steps += [(self.ruche_factor, 0, True),
                      (-self.ruche_factor, 0, True)]
        for x0, y0, wide, high in spans:
            for y in range(y0, y0 + high):
                for x in range(x0, x0 + wide):
                    src = (x, y)
                    for dx, dy, ruche in steps:
                        dst = (x + dx, y + dy)
                        if (0 <= dst[0] < cols and 0 <= dst[1] < rows
                                and (owned is None
                                     or (dst[0] // ccols,
                                         dst[1] // crows) in owned)):
                            self._links[(src, dst)] = Link(src, dst,
                                                           ruche=ruche)

    def link(self, src: Coord, dst: Coord) -> Link:
        try:
            return self._links[(src, dst)]
        except KeyError as exc:
            raise KeyError(f"no link {src}->{dst}") from exc

    def has_link(self, src: Coord, dst: Coord) -> bool:
        return (src, dst) in self._links

    def links(self) -> Iterator[Link]:
        return iter(self._links.values())

    def num_links(self) -> int:
        return len(self._links)

    def cut_links_x(self, plane_x: float) -> List[Link]:
        """Horizontal links crossing the vertical plane ``x = plane_x``.

        The per-row cut width of this list *is* the bisection channel
        count: 1 per direction for mesh, 1 + ruche_factor with Ruche.
        """
        out = []
        for link in self._links.values():
            if not link.horizontal:
                continue
            lo, hi = sorted((link.src[0], link.dst[0]))
            if lo < plane_x < hi:
                out.append(link)
        return out

    def cut_links_y(self, plane_y: float) -> List[Link]:
        """Vertical links crossing the horizontal plane ``y = plane_y``."""
        out = []
        for link in self._links.values():
            if link.horizontal:
                continue
            lo, hi = sorted((link.src[1], link.dst[1]))
            if lo < plane_y < hi:
                out.append(link)
        return out

    def cell_edge_links(self, chip: ChipGeometry, src_cell: Coord,
                        dst_cell: Coord) -> List[Link]:
        """Directed links crossing from Cell ``src_cell`` into the
        adjacent Cell ``dst_cell``: every link whose endpoints straddle
        the shared boundary in that direction, restricted to the grid
        rows (columns) the two Cells span.  This is the built-links
        ground truth for :func:`repro.noc.analysis.cell_edge_channels`.
        """
        sx, sy = src_cell
        dx, dy = dst_cell
        if abs(sx - dx) + abs(sy - dy) != 1:
            raise ValueError(
                f"cells {src_cell} and {dst_cell} are not adjacent")
        ox, oy = chip.cell_origin(dst_cell if dx > sx or dy > sy
                                  else src_cell)
        out = []
        if sy == dy:  # vertical boundary, horizontal links
            plane = ox - 0.5 if dx > sx else \
                chip.cell_origin(src_cell)[0] - 0.5
            lo, hi = oy, oy + chip.cell.rows
            forward = dx > sx
            for link in self._links.values():
                if not link.horizontal or not lo <= link.src[1] < hi:
                    continue
                a, b = link.src[0], link.dst[0]
                if (b > a) != forward:
                    continue
                if min(a, b) < plane < max(a, b):
                    out.append(link)
        else:  # horizontal boundary, vertical links
            plane = oy - 0.5 if dy > sy else \
                chip.cell_origin(src_cell)[1] - 0.5
            lo, hi = ox, ox + chip.cell.cols
            forward = dy > sy
            for link in self._links.values():
                if link.horizontal or not lo <= link.src[0] < hi:
                    continue
                a, b = link.src[1], link.dst[1]
                if (b > a) != forward:
                    continue
                if min(a, b) < plane < max(a, b):
                    out.append(link)
        return out

    def reset_counters(self) -> None:
        for link in self._links.values():
            link.free_at = 0
            link.busy_cycles = 0
            link.stall_cycles = 0
            link.packets = 0
