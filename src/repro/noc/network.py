"""The word-oriented global network: contention-aware packet timing.

Each of the two physical planes (requests, responses) is a
:class:`Network`.  A packet's delivery time is computed by walking its
dimension-ordered path once and reserving ``flits`` cycles on every link
against that link's ``free_at`` horizon.  This reproduces serialization,
head-of-line waiting and bisection saturation at O(hops) per packet --
the fidelity tier appropriate to an architectural (non-RTL) model.

Dimension-ordered paths are static per (src, dst) pair, so the path is
memoized: every later packet replays the cached tuple of
:class:`~repro.noc.topology.Link` objects.  A pair seen for the first
time does not re-walk the mesh either -- its path is one run along a row
plus one along a column, and each such run is itself an entry of the
table, routed once per network.  Timing is unchanged -- the links are
the same objects either way.

There are two reservation loops and they must stay in step: the full
path (:meth:`Network._reserve`, behind both :meth:`Network.send` and
:meth:`Network.send_arrival`) and the boxed leg
(:meth:`Network.reserve_leg`).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional, Tuple

from ..arch.geometry import ChipGeometry, Coord
from ..arch.params import NocTiming
from ..engine.stats import Counter
from .routing import hop_count, path_nodes, route
from .topology import Link, Topology


class DeliveryReport:
    """Timing of one packet's traversal."""

    __slots__ = ("arrival", "hops", "stall_cycles")

    def __init__(self, arrival: float, hops: int, stall_cycles: float) -> None:
        self.arrival = arrival
        self.hops = hops
        self.stall_cycles = stall_cycles

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DeliveryReport):
            return NotImplemented
        return (self.arrival == other.arrival and self.hops == other.hops
                and self.stall_cycles == other.stall_cycles)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"DeliveryReport(arrival={self.arrival}, hops={self.hops}, "
                f"stall_cycles={self.stall_cycles})")


class Network:
    """One physical network plane."""

    def __init__(self, chip: ChipGeometry, timing: NocTiming, ruche: bool,
                 order: str, name: str = "net",
                 owned: Optional[FrozenSet[Coord]] = None) -> None:
        self.chip = chip
        self.timing = timing
        self.order = order
        self.name = name
        #: ``owned`` limits the plane to those Cells' links (a PDES
        #: shard's; see :class:`~repro.noc.topology.Topology`).
        self.topology = Topology(chip, ruche=ruche,
                                 ruche_factor=timing.ruche_factor,
                                 owned=owned)
        self.counters = Counter()
        # Hot-path constants and the path memo (see module docstring).
        self._hop_cost = timing.router_latency + timing.link_cycles_per_flit
        self._inject = timing.inject_latency
        self._eject = timing.eject_latency
        self._routes: Dict[Tuple[Coord, Coord], Tuple[Link, ...]] = {}
        self._hops: Dict[Tuple[Coord, Coord], int] = {}
        self._legs: Dict[Tuple[Coord, Coord, Tuple[int, int, int, int]],
                         Tuple[Tuple[int, Link], ...]] = {}
        #: Probe bus hook (set by :func:`repro.probe.attach`): every
        #: packet of :meth:`send` / :meth:`send_arrival`, with its report.
        self._probe = None

    def _path(self, src: Coord, dst: Coord) -> Tuple[Link, ...]:
        """The ``src -> dst`` link path, memoized per pair.

        A dimension-ordered path is a straight run to the corner where
        the packet turns plus a straight run from it, so a pair seen for
        the first time costs two table reads and a concatenation, not a
        walk of the mesh.  Only straight runs -- at most ``rows*cols^2 +
        cols*rows^2`` of the table's entries -- are ever walked, each
        once, by :func:`~repro.noc.routing.route`.
        """
        path = self._routes.get((src, dst))
        if path is None:
            corner = ((dst[0], src[1]) if self.order == "xy"
                      else (src[0], dst[1]))
            if corner == src or corner == dst:
                path = tuple(route(self.topology, src, dst, order=self.order))
            else:
                path = self._path(src, corner) + self._path(corner, dst)
            self._routes[(src, dst)] = path
        return path

    def _reserve(self, src: Coord, dst: Coord, flits: int,
                 time: float) -> Tuple[float, int, float]:
        """Walk the full path of a packet injected at ``time``, reserving
        ``flits`` cycles on every link; returns ``(arrival, hops, stall)``.
        """
        if flits <= 0:
            raise ValueError("packets carry at least one flit")
        path = self._routes.get((src, dst))  # _path's hit, minus the call
        if path is None:
            path = self._path(src, dst)
        hop_cost = self._hop_cost
        stall_total = 0.0
        head = time + self._inject
        for link in path:
            start = link.free_at
            if start < head:
                start = head
            else:
                stall = start - head
                stall_total += stall
                link.stall_cycles += stall
            link.free_at = start + flits
            link.busy_cycles += flits
            link.packets += 1
            head = start + hop_cost
        hops = len(path)
        cv = self.counters.raw
        cv["packets"] += 1
        cv["flits"] += flits
        cv["hops"] += hops
        cv["stall_cycles"] += stall_total
        return head + (flits - 1) + self._eject, hops, stall_total

    def send(self, src: Coord, dst: Coord, flits: int, time: float) -> DeliveryReport:
        """Reserve the path for a packet injected at ``time``.

        Returns the cycle at which the last flit is ejected at ``dst``.
        Same-node delivery (e.g. a tile loading from a bank in its own
        column position) still pays inject + eject.
        """
        report = DeliveryReport(*self._reserve(src, dst, flits, time))
        if self._probe is not None:
            self._probe.noc_send(self, src, dst, flits, time, report)
        return report

    def send_arrival(self, src: Coord, dst: Coord, flits: int,
                     time: float) -> float:
        """Hot-path variant of :meth:`send` returning only the arrival
        cycle: the same walk, without the :class:`DeliveryReport` -- unless
        a probe is attached, whose ``noc_send`` point takes the report.
        """
        if self._probe is not None:
            return self.send(src, dst, flits, time).arrival
        return self._reserve(src, dst, flits, time)[0]

    def reserve_leg(self, src: Coord, dst: Coord, flits: int, time: float,
                    box: Tuple[int, int, int, int]) -> float:
        """Reserve only part of the ``src -> dst`` path: the links whose
        both endpoints lie inside ``box`` (``(x0, y0, cols, rows)`` in
        grid coordinates).  Returns the total stall accumulated on the
        reserved links.

        This is the PDES shard's half of a cross-Cell walk: the shard
        owns (and shares with its Cell-local traffic) exactly the links
        inside its own Cell, while the boundary crossing itself is
        priced by the coordinator's edge ledger and foreign Cells' links
        by the shard that owns them.  The head advances through skipped
        links at zero-load cost, so reserved-link start times line up
        with where a full :meth:`send` walk would put them.

        The leg is static per ``(src, dst, box)``, so it is memoized as a
        tuple of ``(links skipped since the previous reserved link,
        link)``: the loop below is :meth:`send_arrival`'s, plus one
        multiply per reserved link.  Links skipped after the last
        reserved one cannot stall anything and are dropped.
        (:func:`repro.audit.reference.reference_reserve_leg` is the naive
        per-link walk the differential test holds this against.)
        """
        leg = self._legs.get((src, dst, box))
        if leg is None:
            leg = self._legs[(src, dst, box)] = self._build_leg(src, dst, box)
        hop_cost = self._hop_cost
        stall_total = 0.0
        head = time + self._inject
        for skipped, link in leg:
            if skipped:
                head += skipped * hop_cost
            start = link.free_at
            if start < head:
                start = head
            else:
                stall = start - head
                stall_total += stall
                link.stall_cycles += stall
            link.free_at = start + flits
            link.busy_cycles += flits
            link.packets += 1
            head = start + hop_cost
        return stall_total

    def _build_leg(self, src: Coord, dst: Coord,
                   box: Tuple[int, int, int, int]) -> Tuple[Tuple[int, Link], ...]:
        """The in-box stretch of the route, from its geometry alone: the
        nodes of the dimension-ordered path, with a link looked up only
        for hops whose two endpoints lie in ``box`` -- so a plane that
        holds just its own Cell's links (a PDES shard's) serves every
        cross-Cell pair."""
        x0, y0, cols, rows = box
        x1, y1 = x0 + cols, y0 + rows
        link = self.topology.link
        leg = []
        skipped = 0
        nodes = path_nodes(self.topology, src, dst, self.order)
        for a, b in zip(nodes, nodes[1:]):
            if (x0 <= a[0] < x1 and y0 <= a[1] < y1
                    and x0 <= b[0] < x1 and y0 <= b[1] < y1):
                leg.append((skipped, link(a, b)))
                skipped = 0
            else:
                skipped += 1
        return tuple(leg)

    def zero_load_latency(self, src: Coord, dst: Coord, flits: int = 1) -> float:
        """Latency with no contention (for tests and analytic checks)."""
        hops = len(self._path(src, dst))
        return (self._inject + hops * self._hop_cost
                + (flits - 1) + self._eject)

    def conservative_latency(self, src: Coord, dst: Coord,
                             flits: int = 1) -> float:
        """Zero-load latency with *no state touched*: pure arithmetic on a
        memoized hop count.  Equal to :meth:`zero_load_latency` (dimension-
        ordered paths take exactly ``hop_count`` links), but safe to call
        from the PDES cross-Cell channel, where pricing a packet must not
        mutate link reservations -- shards never share link state, so any
        mutation here would make their histories diverge.
        """
        key = (src, dst)
        hops = self._hops.get(key)
        if hops is None:
            hops = hop_count(self.topology, src, dst)
            self._hops[key] = hops
        return (self._inject + hops * self._hop_cost
                + (flits - 1) + self._eject)

    def reset(self) -> None:
        self.topology.reset_counters()
        self.counters = Counter()
