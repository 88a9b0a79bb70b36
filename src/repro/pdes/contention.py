"""Deterministic inter-Cell link contention for PDES mode.

The monolithic machine prices every packet by reserving ``flits`` cycles
on each link of its dimension-ordered path (:class:`repro.noc.network.Network`).
PDES shards cannot share that link state -- mutating it from two shards
would make their histories diverge -- so cross-Cell packets used to be
priced at the zero-load floor, systematically under-charging cross-Cell
traffic.  This module closes the gap without sharing anything live: the
*coordinator* (the only place every message is visible) replays each
boundary crossing against a deterministic occupancy ledger.

Model
-----
Every directed inter-Cell boundary is a bundle of serializing lanes, one
per grid row (vertical boundaries) or grid column (horizontal
boundaries) -- exactly the physical channels
:meth:`repro.noc.topology.Topology.cell_edge_links` counts.  A packet
crosses a vertical boundary in its X phase at its source row, and a
horizontal boundary in its Y phase at its destination column (the
dimension-ordered route), so the lane each crossing uses is a pure
function of the message.  A crossing reserves ``flits / channels``
cycles on its lane (``channels`` = mesh + ruche links sharing the lane,
:func:`repro.noc.analysis.cell_edge_channels` per row/column); if the
lane is busy the packet stalls until it frees, and the stall is added to
the message's arrival.  Which lanes a message crosses depends only on
its plane, its two Cells, its source row and its destination column, so
the crossings are memoized on those five fields, each holding its lane
cell and its edge counters: pricing a message is one table read plus
arithmetic.

Determinism and lookahead safety
--------------------------------
Pricing is pure arithmetic over the message stream in global
``(arrival, src_cell, seq)`` order -- the coordinator feeds the stream
in exactly that order regardless of worker count or window size (see
``run_cells``'s release pool), so shard histories cannot diverge and
1-vs-N-worker fingerprints stay bit-identical.  Contention only *adds*
latency: the priced arrival is ``>=`` the zero-load arrival, so
``intercell_lookahead`` remains a valid conservative bound and the
window protocol (and its free-run shortcut) survive unchanged.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from ..arch.config import MachineConfig
from .channel import RESPONSE

#: One boundary crossing of a memoized route: the lane's one-element
#: ``[free_at]`` cell (shared by every route through that lane), the
#: channels sharing the lane, and the crossed edge's ``[packets, flits,
#: stall_cycles]`` counters.
Crossing = Tuple[List[float], int, List[Any]]


class EdgeContention:
    """The per-boundary-lane occupancy ledger (coordinator-owned)."""

    def __init__(self, config: MachineConfig) -> None:
        per_row = 1
        if config.features.ruche_network:
            per_row += config.timings.noc.ruche_factor
        #: Channels sharing one horizontal lane (mesh + ruche per row).
        self.x_channels = per_row
        #: Channels sharing one vertical lane (mesh only).
        self.y_channels = 1
        #: lane key -> ``[cycle at which the lane frees]``.
        self._lanes: Dict[Tuple, List[float]] = {}
        #: directed cell-edge "sx,sy->dx,dy" -> counters.
        self._stats: Dict[str, List[Any]] = {}
        #: ``(response plane?, src cell, dst cell, source row, destination
        #: column)`` -> the crossings of every message with that key.
        self._routes: Dict[Tuple, Tuple[Crossing, ...]] = {}
        self.packets = 0
        self.stalled_packets = 0
        self.stall_cycles = 0.0

    # -- the route: which lanes does this message's path cross? -------------

    def _crossings(self, response: bool, src_cell: Tuple[int, int],
                   dst_cell: Tuple[int, int], row: int,
                   col: int) -> Tuple[Crossing, ...]:
        """Every boundary a message crosses, in path order (X phase then
        Y phase, dimension-ordered).  The X phase runs at the source
        ``row``, the Y phase at the destination ``col``, so these five
        fields fix the route.  The lane key includes the physical plane:
        requests and responses ride separate networks on the chip and
        must never contend with each other."""
        (scx, scy), (dcx, dcy) = src_cell, dst_cell
        out = []
        step = 1 if dcx > scx else -1
        for c in range(scx, dcx, step):
            out.append(self._crossing(
                (response, "x", min(c, c + step), row, step),
                self.x_channels, f"{c},{scy}->{c + step},{scy}"))
        step = 1 if dcy > scy else -1
        for r in range(scy, dcy, step):
            out.append(self._crossing(
                (response, "y", min(r, r + step), col, step),
                self.y_channels, f"{dcx},{r}->{dcx},{r + step}"))
        return tuple(out)

    def _crossing(self, lane_key: Tuple, channels: int,
                  edge: str) -> Crossing:
        rec = self._stats.get(edge)
        if rec is None:
            rec = self._stats[edge] = [0, 0, 0.0]
        return self._lanes.setdefault(lane_key, [0.0]), channels, rec

    # -- pricing -------------------------------------------------------------

    def price(self, messages: List[Tuple]) -> bool:
        """Replay ``messages`` (records pre-sorted in the global
        deterministic order) through the ledger, replacing each stalled
        record in place by one whose arrival carries the stall.  Returns
        whether the batch is still in delivery order (a stall may move a
        record past its successors)."""
        routes = self._routes
        self.packets += len(messages)
        in_order = True
        prev = None
        for i, msg in enumerate(messages):
            (arrival, src_cell, _seq, kind, dst_cell, src_node, dst_node,
             flits) = msg[:8]
            key = (kind == RESPONSE, src_cell, dst_cell, src_node[1],
                   dst_node[0])
            route = routes.get(key)
            if route is None:
                route = routes[key] = self._crossings(*key)
            t = arrival
            stalled = 0.0
            for lane, channels, rec in route:
                rec[0] += 1
                rec[1] += flits
                at = lane[0]
                if at > t:
                    rec[2] += at - t
                    stalled += at - t
                    t = at
                lane[0] = t + flits / channels
            if stalled > 0.0:
                self.stalled_packets += 1
                self.stall_cycles += stalled
                msg = messages[i] = (t,) + msg[1:]
            if prev is not None and msg < prev:
                in_order = False
            prev = msg
        return in_order

    def summary(self) -> Dict[str, Any]:
        """JSON-able stats: deterministic, so safe to fingerprint."""
        return {
            "packets": self.packets,
            "stalled_packets": self.stalled_packets,
            "stall_cycles": self.stall_cycles,
            "x_channels_per_lane": self.x_channels,
            "edges": {edge: {"packets": packets, "flits": flits,
                             "stall_cycles": stall}
                      for edge, (packets, flits, stall)
                      in sorted(self._stats.items())},
        }
