"""Statistics primitives shared by all model components.

Everything the harness reports (utilization breakdowns, time series,
speedups) is accumulated through these classes so that experiments never
have to reach into component internals.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Sequence, Tuple

# Lives with the other report aggregates, where reducing cached results
# can reach it without importing the engine; still importable from here.
from ..perf.counters import geomean  # noqa: F401


class Counter:
    """A named bag of additive counters."""

    def __init__(self) -> None:
        self._values: Dict[str, float] = defaultdict(float)

    def add(self, name: str, amount: float = 1) -> None:
        self._values[name] += amount

    @property
    def raw(self) -> Dict[str, float]:
        """The backing (default)dict, for hot loops that inline ``add``.

        ``counter.raw[name] += amount`` is a C-level dict update; binding
        ``raw`` once outside a loop removes a Python call per increment.
        """
        return self._values

    def get(self, name: str) -> float:
        return self._values.get(name, 0.0)

    def total(self) -> float:
        return sum(self._values.values())

    def as_dict(self) -> Dict[str, float]:
        return dict(self._values)

    def fractions(self) -> Dict[str, float]:
        """Each counter as a fraction of the total (empty dict if zero)."""
        tot = self.total()
        if tot == 0:
            return {}
        return {k: v / tot for k, v in self._values.items()}

    def merge(self, other: "Counter") -> None:
        for name, value in other._values.items():
            self._values[name] += value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        inner = ", ".join(f"{k}={v:g}" for k, v in sorted(self._values.items()))
        return f"Counter({inner})"


class BinnedSeries:
    """Accumulates a quantity into fixed-width time bins.

    Used for link-utilization-over-time plots (Fig 3, Fig 14): each busy
    cycle on a link adds 1 into the bin covering that cycle.
    """

    def __init__(self, bin_width: float) -> None:
        if bin_width <= 0:
            raise ValueError("bin_width must be positive")
        self.bin_width = bin_width
        self._bins: Dict[int, float] = defaultdict(float)

    def add(self, time: float, amount: float = 1) -> None:
        self._bins[int(time // self.bin_width)] += amount

    def add_range(self, start: float, end: float) -> None:
        """Add one unit per cycle over [start, end), split across bins."""
        if end <= start:
            return
        first = int(start // self.bin_width)
        last = int(end // self.bin_width)
        if last * self.bin_width == end:
            last -= 1  # exclusive end sitting exactly on a bin boundary
        if last <= first:
            self._bins[first] += end - start
            return
        self._bins[first] += (first + 1) * self.bin_width - start
        for b in range(first + 1, last):
            self._bins[b] += self.bin_width
        self._bins[last] += end - last * self.bin_width

    def series(self) -> List[Tuple[float, float]]:
        """Sorted ``(bin_start_time, amount)`` pairs, gaps filled with zero."""
        if not self._bins:
            return []
        lo = min(self._bins)
        hi = max(self._bins)
        return [
            (b * self.bin_width, self._bins.get(b, 0.0)) for b in range(lo, hi + 1)
        ]

    def normalized(self, capacity_per_bin: float) -> List[Tuple[float, float]]:
        """Series scaled to a utilization fraction of ``capacity_per_bin``."""
        if capacity_per_bin <= 0:
            raise ValueError("capacity_per_bin must be positive")
        return [(t, v / capacity_per_bin) for t, v in self.series()]


def mean(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("mean of empty sequence")
    return sum(values) / len(values)


class Interval:
    """Tracks occupancy of a single server (cache bank port, DRAM bus).

    ``reserve`` returns the granted start time given an earliest-possible
    start, extending the busy horizon; ``busy_cycles`` accumulates total
    occupancy for utilization reports.
    """

    __slots__ = ("free_at", "busy_cycles")

    def __init__(self) -> None:
        self.free_at: float = 0
        self.busy_cycles: float = 0

    def reserve(self, earliest: float, duration: float) -> float:
        free_at = self.free_at
        start = free_at if free_at > earliest else earliest
        self.free_at = start + duration
        self.busy_cycles += duration
        return start

    def utilization(self, elapsed: float) -> float:
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_cycles / elapsed)
