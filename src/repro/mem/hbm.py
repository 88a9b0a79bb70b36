"""HBM2 pseudo-channel timing model.

Captures the three DRAM effects the paper's evaluation leans on:

* **row-buffer locality** -- a hit pays ``tCL``, a conflict pays
  ``tRP + tRCD + tCL``;
* **bank-level parallelism** -- 16 banks per pseudo-channel with
  per-bank readiness, interleaved at row granularity;
* **channel bandwidth** -- each 64 B burst holds the shared data bus for
  ``tBL`` cycles, so a saturated channel serializes bursts back-to-back.

Utilization accounting matches Fig 11's categories: *reading* / *writing*
(bus occupied), *busy* (requests pending but the bus idle, e.g. blocked
on bank timing), *idle* (queue empty).  Refresh is handled the way the
paper reports it: as a fixed fraction excluded from the denominator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..arch.params import HBMTiming
from ..engine.stats import Counter, Interval


@dataclass
class _Bank:
    ready_at: float = 0
    # A bank that has activated at least once keeps a row open until the
    # next activation: only a never-touched bank may skip the precharge.
    # One-way flag -- pruning stale ``rows`` timestamps must not turn an
    # activated bank back into a fresh one.
    opened: bool = False
    # row -> last access completion time; emulates the FR-FCFS reorder
    # window (see PseudoChannel.REORDER_WINDOW).
    rows: Dict[int, float] = None

    def __post_init__(self) -> None:
        if self.rows is None:
            self.rows = {}


class PseudoChannel:
    """One HBM2 pseudo-channel (16 GB/s at full rate in the paper)."""

    def __init__(self, timing: HBMTiming, name: str = "pc",
                 bandwidth_scale: float = 1.0) -> None:
        """``bandwidth_scale`` < 1 stretches the burst occupancy, modelling
        several Cells statically sharing one channel's bandwidth (the
        constant-bandwidth scaling study of Fig 15)."""
        if bandwidth_scale <= 0:
            raise ValueError("bandwidth_scale must be positive")
        self.timing = timing
        self.name = name
        self.burst_cycles = max(1, round(timing.t_bl / bandwidth_scale))
        self._banks: List[_Bank] = [_Bank() for _ in range(timing.banks)]
        self._bus = Interval()
        self.counters = Counter()
        self._pressure_covered: float = 0
        self.read_cycles: float = 0
        self.write_cycles: float = 0
        self.busy_cycles: float = 0
        self.first_request: Optional[float] = None
        self.last_completion: float = 0
        #: Probe bus hook (set by :func:`repro.probe.attach`): bank
        #: readiness, bus bursts and row states of every access.
        self._probe = None

    def _bank_and_row(self, addr: int) -> (int, int):
        t = self.timing
        row_unit = addr // t.row_bytes
        return row_unit % t.banks, row_unit // t.banks

    #: Column-to-column command spacing within a bank (tCCD), core cycles.
    T_CCD = 4

    #: FR-FCFS approximation: a controller with a deep request queue
    #: groups same-row requests even when many streams interleave at a
    #: bank.  Accesses to a row last touched within this many core cycles
    #: are treated as row hits; outside the window the activation is paid
    #: again.  Strict in-order row state would make every multi-stream
    #: sequential workload conflict-bound, which real controllers avoid.
    REORDER_WINDOW = 150.0

    def _row_machine(self, bank: _Bank, row: int, time: float,
                     extra_busy: float = 0.0) -> (float, float, float, str):
        """Advance one bank's row state for a command arriving at ``time``.

        Returns ``(start, latency, bank_busy, row_state)`` and commits the
        bank's readiness (``extra_busy`` extends the occupancy, e.g. the
        ``t_mac`` of a PIM MAC_ABK).  Shared by :meth:`access` and the PIM
        engine so both traffic classes pay the same tRP/tRCD/tCL rules.
        """
        t = self.timing
        ready_at = bank.ready_at
        start = ready_at if ready_at > time else time
        last = bank.rows.get(row)
        # Column commands pipeline (tCCD); activations occupy the bank for
        # the full row cycle.  Data appears a latency after the command.
        if last is not None and start - last <= self.REORDER_WINDOW:
            latency = t.row_hit_latency
            bank_busy = self.T_CCD
            row_state = "hit"
            self.counters.add("row_hits")
        elif not bank.opened:
            # First-ever activation of this bank: no row to precharge.
            latency = t.t_rcd + t.t_cl
            bank_busy = t.t_rcd + self.T_CCD
            row_state = "open"
            self.counters.add("row_opens")
        else:
            # Some row is open (even if its timestamp has been pruned
            # from ``rows``), so the activation pays tRP first.
            latency = t.row_miss_latency
            bank_busy = t.t_rp + t.t_rcd + self.T_CCD
            row_state = "conflict"
            self.counters.add("row_conflicts")
        bank.ready_at = start + bank_busy + extra_busy
        bank.opened = True
        return start, latency, bank_busy, row_state

    def access(self, addr: int, is_write: bool, time: float) -> float:
        """A 64 B line access; returns the completion cycle."""
        bank_idx, row = self._bank_and_row(addr)
        bank = self._banks[bank_idx]
        ready_at = bank.ready_at
        start, latency, _bank_busy, row_state = self._row_machine(
            bank, row, time)
        burst_start = self._bus.reserve(start + latency, self.burst_cycles)
        bank.rows[row] = burst_start + self.burst_cycles
        if len(bank.rows) > 64:
            horizon = start - self.REORDER_WINDOW
            bank.rows = {r: tt for r, tt in bank.rows.items() if tt >= horizon}
        done = burst_start + self.burst_cycles
        self.counters.add("writes" if is_write else "reads")
        if is_write:
            self.write_cycles += self.burst_cycles
        else:
            self.read_cycles += self.burst_cycles
        self._account_pressure(time, burst_start)
        if self.first_request is None:
            self.first_request = time
        if done > self.last_completion:
            self.last_completion = done
        if self._probe is not None:
            self._probe.hbm_access(
                self, bank_idx, row, time, start, row_state, burst_start,
                self.burst_cycles, done, ready_at, bank.ready_at, is_write)
        return done

    def _account_pressure(self, arrival: float, burst_start: float) -> None:
        """Accumulate 'busy' cycles: waiting time not already covered by an
        earlier request's waiting window (an online interval-union)."""
        base = max(arrival, self._pressure_covered)
        if burst_start > base:
            self.busy_cycles += burst_start - base
            self._pressure_covered = burst_start

    def utilization(self, elapsed: float) -> Dict[str, float]:
        """Fractions of (refresh-adjusted) elapsed cycles per category.

        The four categories partition time, so they always sum to 1:
        on a saturated channel (bus cycles exceeding the refresh-adjusted
        denominator) the active categories are rescaled proportionally
        rather than clamped one by one -- independent ``min(1, ...)``
        clamps would let read + write + busy exceed 1.
        """
        if elapsed <= 0:
            return {"read": 0.0, "write": 0.0, "busy": 0.0, "idle": 1.0}
        denom = elapsed * (1 - self.timing.refresh_overhead)
        read = self.read_cycles / denom
        write = self.write_cycles / denom
        # Categories are exclusive: 'busy' is pending-but-not-transferring,
        # so waiting that overlaps a transfer is folded into read/write.
        busy_cap = max(0.0, denom - self.read_cycles - self.write_cycles)
        busy = min(self.busy_cycles, busy_cap) / denom
        active = read + write + busy
        if active > 1.0:
            scale = 1.0 / active
            read *= scale
            write *= scale
            busy *= scale
            active = 1.0
        idle = max(0.0, 1.0 - active)
        return {"read": read, "write": write, "busy": busy, "idle": idle}

    def bytes_per_cycle_peak(self) -> float:
        """Peak deliverable bandwidth in bytes per core cycle."""
        return 64.0 / self.burst_cycles

    def reset(self) -> None:
        self._banks = [_Bank() for _ in range(self.timing.banks)]
        self._bus = Interval()
        self.counters = Counter()
        self._pressure_covered = 0
        self.read_cycles = self.write_cycles = self.busy_cycles = 0
        self.first_request = None
        self.last_completion = 0
