"""Closed-form NoC analysis: the paper's scalability arithmetic.

Section I's flat-manycore argument ("each tile can only inject packets
at the average rate of 2/N per cycle before edge network channels
become completely saturated"), Section III-A's bisection-bandwidth
claims (Ruche = 4x mesh at factor 3), and Section III-C's wiring-density
comparison against the 1024-bit hierarchical mesh (21.6x horizontal,
7.0x vertical) are all simple formulas -- this module states them
executably so tests can pin them and experiments can reuse them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import List, Optional

from ..arch.geometry import Coord
from ..arch.params import BarrierTiming


def mesh_saturation_injection_rate(n: int) -> float:
    """Max per-tile injection rate for uniform-random traffic on an
    N x N mesh before the bisection saturates.

    Half of all traffic crosses the bisection of width N channels per
    direction; with N^2 tiles injecting r packets/cycle, r * N^2 / 2
    must be <= N, so r <= 2 / N -- the paper's 2/N.
    """
    if n <= 0:
        raise ValueError("mesh dimension must be positive")
    return 2.0 / n


def bisection_channels(width_tiles: int, rows: int, ruche_factor: int) -> int:
    """Horizontal channels crossing a Cell's vertical bisection, one
    direction: 1 mesh channel plus ``ruche_factor`` ruche channels per
    row (a link of hop distance R crosses any plane from R start
    columns)."""
    if ruche_factor < 0:
        raise ValueError("ruche factor must be non-negative")
    del width_tiles  # the cut width is independent of Cell width
    return rows * (1 + ruche_factor)


def ruche_bisection_gain(ruche_factor: int = 3) -> float:
    """Bisection bandwidth of a ruche network over the plain mesh.

    Factor 3 gives the paper's 4x.
    """
    return 1.0 + ruche_factor


@dataclass(frozen=True)
class WiringDensity:
    """Bits of cross-section bandwidth per tile edge."""

    bits_per_tile_row_horizontal: float
    bits_per_tile_col_vertical: float


def hb_wiring_density(word_bits: int = 32, ruche_factor: int = 3,
                      planes: int = 2) -> WiringDensity:
    """HB: per tile row, each direction: (1 + ruche_factor) channels of
    one word, on ``planes`` physical networks (request + response)."""
    h = planes * (1 + ruche_factor) * word_bits * 2  # both directions
    v = planes * 1 * word_bits * 2
    return WiringDensity(h, v)


def hierarchical_wiring_density(channel_bits: int = 1024,
                                cluster_tiles_x: int = 8,
                                cluster_tiles_y: int = 8) -> WiringDensity:
    """The representative hierarchical manycore: one wide mesh channel
    per *cluster*, so per tile row/column the share is channel/cluster
    dimension (both directions)."""
    h = channel_bits * 2 / cluster_tiles_y
    v = channel_bits * 2 / cluster_tiles_x
    return WiringDensity(h, v)


def wiring_density_ratio(word_bits: int = 32, ruche_factor: int = 3,
                         planes: int = 2, channel_bits: int = 1024,
                         cluster_x: int = 8, cluster_y: int = 8,
                         hb_tile_mm: float = 0.194,
                         et_tile_mm: float = 1.65) -> WiringDensity:
    """Bit-per-mm ratio HB : hierarchical, normalizing by tile pitch.

    With HB's ~16x smaller tile pitch (Section V-H's 16.6x tile-area
    observation gives ~4x linear, and the minion tile is itself several
    HB tiles wide), the paper quotes 21.6x horizontal and 7.0x vertical;
    defaults here land in that neighbourhood.
    """
    hb = hb_wiring_density(word_bits, ruche_factor, planes)
    et = hierarchical_wiring_density(channel_bits, cluster_x, cluster_y)
    h = (hb.bits_per_tile_row_horizontal / hb_tile_mm) / (
        et.bits_per_tile_row_horizontal / et_tile_mm)
    v = (hb.bits_per_tile_col_vertical / hb_tile_mm) / (
        et.bits_per_tile_col_vertical / et_tile_mm)
    return WiringDensity(h, v)


def zero_load_diameter(cols: int, rows: int, ruche_factor: int) -> int:
    """Worst-case hop count corner-to-corner."""
    dx = cols - 1
    dy = rows - 1
    if ruche_factor > 1:
        q, r = divmod(dx, ruche_factor)
        dx = q + r
    return dx + dy


# ---------------------------------------------------------------------------
# Barrier closed forms (paper Fig 4); the event-driven groups they are
# cross-validated against live in :mod:`repro.noc.barrier`.

#: Hop distance of a Ruche link on the 1-bit barrier network.
BARRIER_RUCHE_FACTOR = 3


def barrier_hops(src: Coord, root: Coord, ruche: bool,
                 ruche_factor: int = BARRIER_RUCHE_FACTOR) -> int:
    """Hop count on the 1-bit barrier network from ``src`` to ``root``."""
    dx = abs(src[0] - root[0])
    dy = abs(src[1] - root[1])
    if ruche:
        q, r = divmod(dx, ruche_factor)
        return q + r + dy
    return dx + dy


def tree_root(members: List[Coord]) -> Coord:
    """The configured root: the member closest to the group centroid."""
    if not members:
        raise ValueError("empty barrier group")
    cx = sum(m[0] for m in members) / len(members)
    cy = sum(m[1] for m in members) / len(members)
    # (distance, member) tuples order exactly as a ``key=`` of the same
    # pair would -- members are unique -- without a call per member.
    return min([(abs(m[0] - cx) + abs(m[1] - cy), m) for m in members])[1]


def analytic_hw_latency(width: int, height: int, ruche: bool,
                        timing: Optional[BarrierTiming] = None) -> float:
    """Closed-form HW barrier latency for a ``width x height`` tile group
    with simultaneous arrivals (used by the Fig 4 sweep)."""
    timing = timing or BarrierTiming()
    members = [(x, y) for y in range(height) for x in range(width)]
    root = tree_root(members)
    worst = max(barrier_hops(m, root, ruche) for m in members)
    return 2 * worst * timing.hop_latency


def analytic_sw_latency(width: int, height: int, serialize_cycles: int = 2,
                        poll_interval: int = 16, hop_latency: int = 2) -> float:
    """Closed-form SW barrier latency with simultaneous arrivals."""
    members = [(x, y) for y in range(height) for x in range(width)]
    root = tree_root(members)
    n = len(members)
    worst_dist = max(abs(m[0] - root[0]) + abs(m[1] - root[1]) for m in members)
    serialization = n * serialize_cycles
    return (worst_dist * hop_latency + serialization
            + poll_interval / 2 + 2 * worst_dist * hop_latency)


def cell_edge_channels(config, axis: str) -> int:
    """Directed physical channels crossing one inter-Cell boundary.

    ``axis="x"`` counts the horizontal links crossing the vertical
    boundary between two column-adjacent Cells, one direction: one mesh
    channel per grid row of the Cell (tiles plus the two cache strips),
    plus ``ruche_factor`` ruche channels per row when the Ruche network
    is on (a hop-``R`` link crosses any plane from ``R`` start columns).
    ``axis="y"`` counts the vertical links crossing the horizontal
    boundary between two row-adjacent Cells: one mesh channel per grid
    column (ruche links are horizontal only).

    This is the serialization capacity of the PDES contention model's
    per-Cell-edge channel; :meth:`repro.noc.topology.Topology.cell_edge_links`
    counts the same thing by walking the built link set, and the tests
    pin the two against each other.
    """
    cell = config.chip.cell
    if axis == "x":
        per_row = 1
        if config.features.ruche_network:
            per_row += config.timings.noc.ruche_factor
        return cell.rows * per_row
    if axis == "y":
        return cell.cols
    raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")


# ---------------------------------------------------------------------------
# Inter-Cell latency floor: the PDES lookahead.

def _hops(dx: int, dy: int, ruche: bool, factor: int) -> int:
    """Dimension-ordered hop count between nodes ``dx`` columns and
    ``dy`` rows apart (the arithmetic of :func:`repro.noc.routing.hop_count`,
    without needing a Topology)."""
    dx, dy = abs(dx), abs(dy)
    if ruche and factor > 1:
        q, r = divmod(dx, factor)
        dx = q + r
    return dx + dy


def min_intercell_hops(config) -> int:
    """Fewest network hops any cross-Cell (tile, cache-bank) pair is apart.

    Every cross-Cell packet travels tile -> foreign bank (requests, AMOs)
    or bank -> foreign tile (responses); tile-to-tile traffic does not
    exist (remote SPM access across Cells is rejected by the PDES
    channel).  Both directions of a pair have the same dimension-ordered
    hop count, so one scan over (tile, bank) pairs of the two adjacency
    directions covers all message kinds.  With the cache strips on the
    Cell's north/south edges this floor is 2 hops for any geometry:
    horizontally, the last tile column is 1 column + >=1 row from the
    neighbour's nearest bank; vertically, the south strip row is 2 rows
    above the next Cell's north strip.
    """
    chip = config.chip
    if chip.num_cells < 2:
        raise ValueError("min_intercell_hops needs a multi-Cell chip")
    return _min_intercell_hops(chip, config.features.ruche_network,
                               config.timings.noc.ruche_factor)


@functools.lru_cache(maxsize=64)
def _min_intercell_hops(chip, ruche: bool, factor: int) -> int:
    """The brute-force scan behind :func:`min_intercell_hops`, memoized on
    everything it reads: every ``run_cells`` asks for the lookahead, and
    on HB-16x8 the scan is 4096 (tile, bank) pairs."""
    pairs = []
    if chip.cells_x > 1:
        pairs.append(((0, 0), (1, 0)))
    if chip.cells_y > 1:
        pairs.append(((0, 0), (0, 1)))
    best = None
    for cell_a, cell_b in pairs:
        for tile in chip.cell.tile_coords():
            tx, ty = chip.to_global(cell_a, tile)
            for bank in chip.cell.bank_coords():
                bx, by = chip.to_global(cell_b, bank)
                hops = _hops(bx - tx, by - ty, ruche, factor)
                if best is None or hops < best:
                    best = hops
    return best


def intercell_lookahead(config) -> float:
    """Zero-load latency floor of any cross-Cell packet: the conservative
    PDES window.  No message emitted at simulated time ``t`` can arrive
    at another Cell before ``t + lookahead``, so shards may advance
    ``lookahead`` cycles past the global minimum next-event time without
    ever receiving a message from their past.  Reuses the zero-load
    decomposition (inject + hops * hop_cost + eject, single flit) that
    the audit layer validates per delivered packet.
    """
    noc = config.timings.noc
    hop_cost = noc.router_latency + noc.link_cycles_per_flit
    return (noc.inject_latency + min_intercell_hops(config) * hop_cost
            + noc.eject_latency)
