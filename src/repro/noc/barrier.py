"""Barrier synchronization: the 1-bit HW tree network and a SW fallback.

HW barrier (paper Fig 4): each tile's two configuration registers define
a reduction tree over the 1-bit Ruche-topology network.  Signals converge
at a root tile, then a wake-up propagates back out.  Latency per join is
``(in-sweep + out-sweep)`` hops at one cycle per hop; with Ruche links of
hop distance 3, the remotest tile of a 16x8 group reaches the root in 8
cycles, matching the paper's example.

SW barrier: the conventional amoadd-counter-plus-spin scheme.  Arrivals
serialize at one cache bank; waiters learn of the release one polling
round-trip after the flag flips.  Latency therefore grows linearly in
group size, which is exactly the scalability gap Fig 4 plots.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..arch.geometry import Coord
from ..arch.params import BarrierTiming
from ..engine import Future, Simulator
from .analysis import (  # noqa: F401 -- the closed forms, re-exported
    analytic_hw_latency,
    analytic_sw_latency,
    barrier_hops,
    tree_root,
)


class HwBarrierGroup:
    """One configured barrier tree over a set of tiles.

    ``arrive`` returns a future that resolves when the wake-up signal
    reaches the arriving tile.  The group is reusable (epochs).
    """

    #: Timeline tracer hook (set by the tile-group partitioner).
    _trace = None
    _trace_track = 0
    #: Race-checker hook (set by the tile-group partitioner): a barrier
    #: epoch is a release/acquire edge over the whole group.
    _san = None

    def __init__(self, sim: Simulator, members: List[Coord],
                 timing: BarrierTiming, ruche: bool = True) -> None:
        if not members:
            raise ValueError("barrier group needs at least one member")
        self.sim = sim
        self.members = list(members)
        self.timing = timing
        self.ruche = ruche
        self.root = tree_root(self.members)
        self._hops: Dict[Coord, int] = {
            m: barrier_hops(m, self.root, ruche) for m in self.members
        }
        self._pending: Dict[Coord, Tuple[float, Future]] = {}
        self.epochs = 0
        self.last_latency: float = 0

    @property
    def size(self) -> int:
        return len(self.members)

    def max_hops(self) -> int:
        return max(self._hops.values())

    def arrive(self, node: Coord, time: float) -> Future:
        if self._san is not None:
            self._san.barrier_join(self, node, time)
        if node not in self._hops:
            raise ValueError(f"{node} is not a member of this barrier group")
        if node in self._pending:
            raise ValueError(f"{node} arrived twice in one epoch")
        fut = Future(self.sim)
        self._pending[node] = (time, fut)
        if len(self._pending) == len(self.members):
            self._release()
        return fut

    def _release(self) -> None:
        if self._san is not None:
            self._san.barrier_release(self)
        hop = self.timing.hop_latency
        root_time = max(t + self._hops[n] * hop for n, (t, _f) in self._pending.items())
        first_arrival = min(t for t, _f in self._pending.values())
        for node, (_t, fut) in self._pending.items():
            fut.resolve_at(root_time + self._hops[node] * hop, None)
        self.last_latency = (root_time + self.max_hops() * hop) - max(
            t for t, _f in self._pending.values()
        )
        del first_arrival
        if self._trace is not None:
            self._trace.instant(
                self._trace_track, "hw-release", root_time,
                {"size": len(self.members), "epoch": self.epochs})
        self._pending = {}
        self.epochs += 1


class SwBarrierGroup:
    """Counter-and-spin software barrier (the Fig 4 baseline).

    Model: each arrival's amoadd serializes at the counter's cache bank
    (``serialize_cycles`` apiece) after a one-way trip; the final arrival
    flips the release flag; each waiter observes it one polling interval
    plus a round-trip later.
    """

    #: Timeline tracer hook (set by the tile-group partitioner).
    _trace = None
    _trace_track = 0
    #: Race-checker hook: the SW counter-and-spin barrier is the same
    #: release/acquire edge as the HW tree, just slower.
    _san = None

    def __init__(self, sim: Simulator, members: List[Coord],
                 counter_node: Optional[Coord] = None,
                 serialize_cycles: int = 2, poll_interval: int = 16,
                 hop_latency: int = 2) -> None:
        if not members:
            raise ValueError("barrier group needs at least one member")
        self.sim = sim
        self.members = list(members)
        self.counter_node = counter_node or tree_root(self.members)
        self.serialize_cycles = serialize_cycles
        self.poll_interval = poll_interval
        self.hop_latency = hop_latency
        self._pending: Dict[Coord, Tuple[float, Future]] = {}
        self._bank_free: float = 0
        self.epochs = 0

    @property
    def size(self) -> int:
        return len(self.members)

    def _distance(self, node: Coord) -> int:
        return (abs(node[0] - self.counter_node[0])
                + abs(node[1] - self.counter_node[1]))

    def arrive(self, node: Coord, time: float) -> Future:
        if self._san is not None:
            self._san.barrier_join(self, node, time)
        if node not in self.members:
            raise ValueError(f"{node} is not a member of this barrier group")
        if node in self._pending:
            raise ValueError(f"{node} arrived twice in one epoch")
        fut = Future(self.sim)
        self._pending[node] = (time, fut)
        if len(self._pending) == len(self.members):
            self._release()
        return fut

    def _release(self) -> None:
        if self._san is not None:
            self._san.barrier_release(self)
        # Serialize the amoadds at the counter bank in arrival order.
        bank_free = self._bank_free
        flag_time = 0.0
        for node, (t, _fut) in sorted(self._pending.items(),
                                      key=lambda kv: (kv[1][0], kv[0])):
            reach = t + self._distance(node) * self.hop_latency
            start = max(reach, bank_free)
            bank_free = start + self.serialize_cycles
            flag_time = bank_free
        self._bank_free = bank_free
        if self._trace is not None:
            self._trace.instant(
                self._trace_track, "sw-release", flag_time,
                {"size": len(self.members), "epoch": self.epochs})
        for node, (_t, fut) in self._pending.items():
            rtt = 2 * self._distance(node) * self.hop_latency
            fut.resolve_at(flag_time + self.poll_interval / 2 + rtt, None)
        self._pending = {}
        self.epochs += 1
