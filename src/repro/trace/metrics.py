"""The metrics registry: named time-series samplers on the simulator clock.

Components (or :func:`repro.trace.attach`) register zero-argument
callables that read a live quantity -- queue depth, MSHR occupancy, link
busy-cycles, hit rate.  The registry samples every series once per
``window`` cycles, driven by :meth:`Trace.engine_tick` from the event
loop (passively: no sampler events enter the queue, so sampling cannot
perturb simulated timing).

Two sampler modes:

* ``"value"`` -- record the callable's return directly (gauges:
  occupancy, depth, rate);
* ``"delta"`` -- record the increase since the previous sample
  (monotonic cycle/byte counters become per-window rates).

Each sample is also emitted as a Chrome-trace counter event, so Perfetto
renders the series under its group's process.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional


class MetricSeries:
    """One registered sampler and its collected (time, value) samples."""

    __slots__ = ("group", "name", "fn", "mode", "track", "times", "values",
                 "_last_raw")

    def __init__(self, group: str, name: str,
                 fn: Optional[Callable[[], float]], mode: str,
                 track: int) -> None:
        self.group = group
        self.name = name
        self.fn = fn
        self.mode = mode
        self.track = track
        self.times: List[float] = []
        self.values: List[float] = []
        self._last_raw = 0.0

    @property
    def key(self) -> str:
        return f"{self.group}/{self.name}"

    def _take(self) -> float:
        raw = float(self.fn() or 0.0)
        if self.mode == "delta":
            value = raw - self._last_raw
            self._last_raw = raw
            return value
        return raw

    def stats(self) -> Dict[str, float]:
        """min/max/mean/last over the collected samples."""
        if not self.values:
            return {"samples": 0}
        values = self.values
        return {
            "samples": len(values),
            "min": min(values),
            "max": max(values),
            "mean": sum(values) / len(values),
            "last": values[-1],
        }


class MetricsRegistry:
    """All metric series of one trace, sampled on a shared window."""

    def __init__(self, trace: Any, window: float = 100.0,
                 enabled: bool = True) -> None:
        if window <= 0:
            raise ValueError("metrics window must be positive")
        self.trace = trace
        self.window = window
        self.enabled = enabled
        self.series: List[MetricSeries] = []
        self._by_key: Dict[str, MetricSeries] = {}
        #: Next sample boundary; ``Trace.engine_tick`` compares against it.
        self.next_at: float = window if enabled else float("inf")

    def register(self, group: str, name: str, fn: Callable[[], float],
                 mode: str = "value") -> Optional[MetricSeries]:
        """Add a sampler; returns its series (``None`` if metrics are off)."""
        if not self.enabled:
            return None
        if mode not in ("value", "delta"):
            raise ValueError(f"unknown sampler mode {mode!r}")
        key = f"{group}/{name}"
        if key in self._by_key:
            raise ValueError(f"metric {key!r} registered twice")
        track = self.trace.track(group, "counters")
        series = MetricSeries(group, name, fn, mode, track)
        self.series.append(series)
        self._by_key[key] = series
        return series

    def get(self, key: str) -> Optional[MetricSeries]:
        return self._by_key.get(key)

    def sample(self, now: float) -> None:
        """Sample every series at ``now`` and advance the window."""
        if not self.enabled:
            return
        counter = self.trace.counter
        for series in self.series:
            value = series._take()
            series.times.append(now)
            series.values.append(value)
            counter(series.track, series.name, now, value)
        # Next boundary strictly after ``now``, aligned to the window grid.
        self.next_at = (now // self.window + 1) * self.window

    def frozen(self) -> "MetricsRegistry":
        """The collected samples without the samplers.

        A registry that answers ``series`` / ``get`` / ``report`` but has
        no trace to sample into and no callables: the gauges close over
        machine components, which a finished run must not keep alive.
        """
        out = MetricsRegistry(None, self.window, self.enabled)
        for series in self.series:
            copy = MetricSeries(series.group, series.name, None,
                                series.mode, series.track)
            copy.times = list(series.times)
            copy.values = list(series.values)
            out.series.append(copy)
            out._by_key[copy.key] = copy
        return out

    def report(self) -> Dict[str, Dict[str, float]]:
        """Per-series summary statistics keyed by ``group/name``."""
        return {series.key: series.stats() for series in self.series}
