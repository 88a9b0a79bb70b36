"""Dimension-ordered routing over mesh / half-Ruche topologies.

The paper routes requests X-then-Y and responses Y-then-X (best for
throughput given cache strips on the Cell's north/south edges).  In the
X phase, Ruche links of hop distance 3 are taken greedily while at least
3 columns remain; the remainder travels on mesh links.
"""

from __future__ import annotations

from typing import List

from ..arch.geometry import Coord
from .topology import Link, Topology


def _x_steps(x: int, tx: int, topo: Topology) -> List[int]:
    """Sequence of x coordinates visited between ``x`` and ``tx``."""
    steps = [x]
    factor = topo.ruche_factor if topo.ruche else 1
    while x != tx:
        dx = tx - x
        if topo.ruche and abs(dx) >= factor:
            x += factor if dx > 0 else -factor
        else:
            x += 1 if dx > 0 else -1
        steps.append(x)
    return steps


def path_nodes(topo: Topology, src: Coord, dst: Coord,
               order: str = "xy") -> List[Coord]:
    """Every node a dimension-ordered ``src -> dst`` packet visits, in
    order (``src`` first, ``dst`` last) -- the route as geometry, with no
    :class:`Link` looked up."""
    if order not in ("xy", "yx"):
        raise ValueError(f"order must be 'xy' or 'yx', got {order!r}")
    (x, y), (tx, ty) = src, dst
    step = 1 if ty > y else -1
    if order == "xy":
        nodes = [(sx, y) for sx in _x_steps(x, tx, topo)]
        nodes.extend((tx, sy) for sy in range(y + step, ty + step, step))
    else:
        nodes = [(x, sy) for sy in range(y, ty + step, step)]
        nodes.extend((sx, ty) for sx in _x_steps(x, tx, topo)[1:])
    return nodes


def route(topo: Topology, src: Coord, dst: Coord, order: str = "xy") -> List[Link]:
    """Full link path from ``src`` to ``dst`` under dimension order."""
    nodes = path_nodes(topo, src, dst, order)
    return [topo.link(a, b) for a, b in zip(nodes, nodes[1:])]


def hop_count(topo: Topology, src: Coord, dst: Coord) -> int:
    """Zero-load hop count (ruche-aware), without building Link objects."""
    dx = abs(dst[0] - src[0])
    dy = abs(dst[1] - src[1])
    if topo.ruche:
        q, r = divmod(dx, topo.ruche_factor)
        return q + r + dy
    return dx + dy
