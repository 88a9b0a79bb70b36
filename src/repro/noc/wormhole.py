"""Wormhole refill/evict channels along each cache-bank strip.

Cache banks do not use the global word network for DRAM traffic; each
strip of banks has dedicated 1-D wormhole flow-controlled channels to the
memory controller, with *skipped* channel pairs that halve the effective
distance for banks in the middle of the strip (paper Section III-A).

The model: a strip owns ``num_channels`` parallel channels; a line
transfer picks the earliest-free one, pays a distance-dependent transit
latency plus the burst serialization.
"""

from __future__ import annotations

from typing import List, Tuple

from ..engine.stats import Interval


class WormholeStrip:
    """Refill/evict channels for one cache-bank strip."""

    def __init__(self, num_banks: int, num_channels: int = 2,
                 channel_bytes_per_cycle: int = 8, skip_distance: int = 2,
                 base_latency: int = 2) -> None:
        if num_banks <= 0 or num_channels <= 0:
            raise ValueError("strip needs banks and channels")
        self.num_banks = num_banks
        self.num_channels = num_channels
        self.channel_bytes_per_cycle = channel_bytes_per_cycle
        self.skip_distance = skip_distance
        self.base_latency = base_latency
        self._channels: List[Interval] = [Interval() for _ in range(num_channels)]
        self.transfers = 0
        self.bytes_moved = 0
        #: Probe bus hook (set by :func:`repro.probe.attach`): every
        #: transfer's channel, occupancy window and completion.
        self._probe = None

    def _transit_latency(self, bank_x: int) -> int:
        """Hops to the controller at the strip edge; skip channels let the
        head flit jump ``skip_distance`` banks per cycle."""
        distance = min(bank_x, self.num_banks - 1 - bank_x)
        return self.base_latency + -(-distance // self.skip_distance)

    def transfer(self, bank_x: int, nbytes: int, time: float) -> Tuple[float, float]:
        """Move ``nbytes`` between bank ``bank_x`` and the controller.

        Returns ``(start, done)``: the channel occupancy window.  ``done``
        is when the tail flit clears the strip.
        """
        if not 0 <= bank_x < self.num_banks:
            raise ValueError(f"bank {bank_x} outside strip of {self.num_banks}")
        if nbytes <= 0:
            raise ValueError("transfer needs a positive byte count")
        burst = -(-nbytes // self.channel_bytes_per_cycle)
        # Earliest-free channel, first wins ties (hot path: no key lambda).
        channels = self._channels
        channel = channels[0]
        for cand in channels:
            if cand.free_at < channel.free_at:
                channel = cand
        start = channel.reserve(time, burst)
        done = start + burst + self._transit_latency(bank_x)
        self.transfers += 1
        self.bytes_moved += nbytes
        if self._probe is not None:
            self._probe.strip_transfer(
                self, channels.index(channel), time, start, burst, done,
                bank_x, nbytes)
        return start, done

    def utilization(self, elapsed: float) -> float:
        if elapsed <= 0:
            return 0.0
        busy = sum(c.busy_cycles for c in self._channels)
        return min(1.0, busy / (elapsed * self.num_channels))
