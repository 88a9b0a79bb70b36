"""Bisection-link measurement (Figs 3 and 14).

Works on the request/response :class:`~repro.noc.network.Network` pair of
a machine: identifies the links crossing a cut plane and aggregates their
busy/stall accounting into utilization fractions and -- from a
:class:`LinkSeries` recorder on the probe bus -- time series.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from ..engine.stats import BinnedSeries
from ..noc.network import Network
from ..noc.topology import Link
from ..probe import Probe


@dataclass
class BisectionStats:
    """Aggregated view of one cut through one network plane."""

    num_links: int
    busy_cycles: float
    stall_cycles: float
    packets: int
    elapsed: float
    per_link_busy: Tuple[float, ...] = ()

    @property
    def utilization(self) -> float:
        if self.elapsed <= 0 or self.num_links == 0:
            return 0.0
        return min(1.0, self.busy_cycles / (self.elapsed * self.num_links))

    @property
    def active_links(self) -> int:
        """Links that carried any traffic (the ones Fig 3 plots)."""
        return sum(1 for b in self.per_link_busy if b > 0)

    @property
    def active_utilization(self) -> float:
        """Utilization over the links actually carrying the transfer."""
        active = self.active_links
        if self.elapsed <= 0 or active == 0:
            return 0.0
        return min(1.0, self.busy_cycles / (self.elapsed * active))

    @property
    def peak_link_utilization(self) -> float:
        if self.elapsed <= 0 or not self.per_link_busy:
            return 0.0
        return min(1.0, max(self.per_link_busy) / self.elapsed)

    @property
    def stall_fraction(self) -> float:
        """Fraction of packet-cycles spent stalled at the cut (the Fig 14
        metric: how often bisection packets are blocked)."""
        denom = self.busy_cycles + self.stall_cycles
        if denom <= 0:
            return 0.0
        return self.stall_cycles / denom


def _collect(links: List[Link], elapsed: float) -> BisectionStats:
    return BisectionStats(
        num_links=len(links),
        busy_cycles=sum(l.busy_cycles for l in links),
        stall_cycles=sum(l.stall_cycles for l in links),
        packets=sum(l.packets for l in links),
        elapsed=elapsed,
        per_link_busy=tuple(l.busy_cycles for l in links),
    )


def vertical_cut(net: Network, plane_x: float, elapsed: float) -> BisectionStats:
    """Horizontal traffic crossing the vertical plane ``x = plane_x``."""
    return _collect(net.topology.cut_links_x(plane_x), elapsed)


def horizontal_cut(net: Network, plane_y: float, elapsed: float) -> BisectionStats:
    """Vertical traffic crossing the horizontal plane ``y = plane_y``."""
    return _collect(net.topology.cut_links_y(plane_y), elapsed)


def cell_bisection(net: Network, tiles_x: int, elapsed: float) -> BisectionStats:
    """The canonical Cell bisection: the vertical cut through the middle
    of the first Cell (the Fig 14 measurement point).  The plane sits
    half-way between the two centre columns so both mesh and ruche links
    crossing it are counted."""
    return vertical_cut(net, tiles_x / 2 - 0.5, elapsed)


class LinkSeries(Probe):
    """Per-link busy time of every packet, binned ``bin_width`` cycles.

    A ``noc_send`` subscriber: right after a packet's walk each link of
    its path has ``free_at`` at the end of the packet's ``flits``-cycle
    reservation there, so the recorder bins ``[free_at - flits,
    free_at)`` -- the link's busy window for that packet.  Attach it with
    :func:`repro.probe.attach`, as Fig 3's harness does.
    """

    def __init__(self, bin_width: float) -> None:
        if bin_width <= 0:
            raise ValueError("bin_width must be positive")
        self.bin_width = bin_width
        #: plane -> link -> its series (a link no packet crossed has none).
        self.planes: Dict[Network, Dict[Link, BinnedSeries]] = {}

    def bind(self, machine: Any) -> None:
        memsys = machine.memsys
        for net in (memsys.req_net, memsys.resp_net):
            self.planes.setdefault(net, {})

    def noc_send(self, net: Network, src: Any, dst: Any, flits: int,
                 time: float, report: Any) -> None:
        links = self.planes.get(net)
        if links is None:
            links = self.planes[net] = {}
        for link in net._path(src, dst):
            series = links.get(link)
            if series is None:
                series = links[link] = BinnedSeries(self.bin_width)
            end = link.free_at
            series.add_range(end - flits, end)


def utilization_series(series: LinkSeries, net: Network, plane_x: float,
                       normalize: bool = True) -> List[Tuple[float, float]]:
    """Summed busy time series across the cut's links (Fig 3's y-axis),
    as ``series`` recorded them on ``net``."""
    recorded = series.planes.get(net)
    if recorded is None:
        raise RuntimeError(
            "no link series recorded on this network; attach a "
            "LinkSeries with repro.probe.attach before the run")
    links = net.topology.cut_links_x(plane_x)
    merged: Dict[float, float] = {}
    for link in links:
        link_series = recorded.get(link)
        if link_series is not None:
            for t, v in link_series.series():
                merged[t] = merged.get(t, 0.0) + v
    if not merged:
        return []
    capacity = (len(links) * series.bin_width) if normalize else 1.0
    return [(t, v / capacity) for t, v in sorted(merged.items())]
