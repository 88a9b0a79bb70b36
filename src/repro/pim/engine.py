"""Bank-parallel PIM execution engine embedded in one pseudo-channel.

The engine owns the *functional* PIM state (per-bank units, the global
buffer, the CRF program) but borrows all *timing* state from the host
:class:`~repro.mem.hbm.PseudoChannel`: every command claims the shared
data bus (`Interval`), and bank-touching commands run the channel's own
row state machine, so tRP/tRCD/tCL, tCCD spacing and bus-burst
serialization are charged exactly as for ordinary reads and writes.

Timing rules (documented in docs/MODEL.md):

* ``WR_GB`` / ``WR_SBK`` carry a row chunk: a full ``burst_cycles`` bus
  occupancy.  ``WR_CRF`` / ``WR_BIAS`` / ``MAC_ABK`` are control
  commands: one bus cycle.  ``RD_MAC`` is a one-cycle command followed
  by its readout bursts.
* ``WR_SBK`` and ``MAC_ABK`` run the row state machine of each touched
  bank (hit/open/conflict exactly as ``PseudoChannel.access``);
  ``MAC_ABK`` additionally holds each bank ``t_mac`` cycles.
* Per-bank completion of ``MAC_ABK`` is ``start + latency + t_mac``;
  command completion is the max over enabled banks -- this is where the
  bank-level parallelism comes from.
* ``WR_BIAS`` and ``RD_MAC`` occupy their bank at least one cycle
  (``RD_MAC``: tCCD) without touching row state.

Functional state is mutated at the ``execute`` call, i.e. in command
arrival order at the channel -- the same serialization-point discipline
the model uses for AMOs.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..engine.stats import Counter
from .commands import (MacAbk, PimCommand, RdMac, WrBias, WrCrf, WrGb,
                       WrSbk)
from .config import PimConfig
from .unit import PimUnit


class PimEngine:
    """AiM-style per-bank compute for one HBM pseudo-channel."""

    def __init__(self, config: PimConfig, channel: Any,
                 name: str = "pim") -> None:
        self.config = config
        self.channel = channel
        self.name = name
        self.units: List[PimUnit] = [
            PimUnit(config) for _ in range(channel.timing.banks)]
        self.gb: List[float] = [0.0] * config.simd_width
        self.crf: List[Optional[Any]] = [None] * config.crf_entries
        self.counters = Counter()
        #: Probe bus hook (set by :func:`repro.probe.attach`): bus claims,
        #: per-bank ops, GRF traffic and each command's span.
        self._probe = None

    @property
    def nbanks(self) -> int:
        return self.channel.timing.banks

    # -- host-side preload ---------------------------------------------------

    def load_bank_rows(self, bank: int,
                       rows: Dict[int, Iterable[float]]) -> None:
        """Host-side functional preload of a bank's row chunks.

        Zero simulated cost: the data already resides in DRAM (the tile
        side reads the same arrays through the NoC; the PIM side pays
        the activations when ``MAC_ABK`` touches the rows).
        """
        unit = self.units[bank]
        for row, values in rows.items():
            unit.set_row(row, values)

    # -- execution -----------------------------------------------------------

    def _claim_bus(self, time: float, cycles: int) -> float:
        ch = self.channel
        bus_start = ch._bus.reserve(time, cycles)
        ch._account_pressure(time, bus_start)
        if ch.first_request is None:
            ch.first_request = time
        return bus_start

    def _check_grf(self, idx: int, what: str) -> None:
        if not 0 <= idx < self.config.grf_entries:
            raise ValueError(f"{what} GRF index {idx} out of range "
                             f"[0, {self.config.grf_entries})")

    def _check_bank(self, bank: int, what: str) -> None:
        if not 0 <= bank < self.nbanks:
            raise ValueError(f"{what} bank {bank} out of range "
                             f"[0, {self.nbanks})")

    def execute(self, cmd: PimCommand, time: float) -> Tuple[float, Any]:
        """Serve one command arriving at ``time``.

        Returns ``(completion_cycle, payload)``; the payload is a tuple
        of floats for ``RD_MAC`` and ``None`` for every other command.
        """
        ch = self.channel
        probe = self._probe
        payload: Any = None
        self.counters.add(cmd.name)

        if isinstance(cmd, WrGb):
            bus_start = span_start = self._claim_bus(time, ch.burst_cycles)
            done = bus_start + ch.burst_cycles
            ch.write_cycles += ch.burst_cycles
            w = self.config.simd_width
            vals = list(cmd.values)[:w]
            vals.extend(0.0 for _ in range(w - len(vals)))
            self.gb = vals
            if probe is not None:
                probe.pim_bus(self, cmd.name, bus_start, ch.burst_cycles)

        elif isinstance(cmd, WrCrf):
            if not 0 <= cmd.slot < self.config.crf_entries:
                raise ValueError(f"WR_CRF slot {cmd.slot} out of range "
                                 f"[0, {self.config.crf_entries})")
            self._check_grf(cmd.mop.dst, "WR_CRF micro-op dst")
            if cmd.mop.kind in ("add", "mul"):
                self._check_grf(cmd.mop.src, "WR_CRF micro-op src")
            bus_start = span_start = self._claim_bus(time, 1)
            done = bus_start + 1
            self.crf[cmd.slot] = cmd.mop
            if probe is not None:
                probe.pim_bus(self, cmd.name, bus_start, 1)

        elif isinstance(cmd, WrBias):
            self._check_grf(cmd.grf, "WR_BIAS")
            bus_start = span_start = self._claim_bus(time, 1)
            cmd_done = bus_start + 1
            done = cmd_done
            if probe is not None:
                probe.pim_bus(self, cmd.name, bus_start, 1)
            w = self.config.simd_width
            for bank_idx, unit in enumerate(self.units):
                bank = ch._banks[bank_idx]
                ready_before = bank.ready_at
                start = ready_before if ready_before > cmd_done else cmd_done
                bank.ready_at = start + 1
                unit.grf[cmd.grf] = [cmd.value] * w
                unit.written[cmd.grf] = True
                if start + 1 > done:
                    done = start + 1
                if probe is not None:
                    probe.pim_bank_op(self, cmd.name, bank_idx, time, start,
                                      ready_before, bank.ready_at)
                    probe.pim_grf(self, cmd.name, bank_idx, (), (cmd.grf,))

        elif isinstance(cmd, WrSbk):
            self._check_bank(cmd.bank, "WR_SBK")
            bank = ch._banks[cmd.bank]
            ready_before = bank.ready_at
            start, latency, _busy, row_state = ch._row_machine(
                bank, cmd.row, time)
            burst_start = span_start = ch._bus.reserve(
                start + latency, ch.burst_cycles)
            done = burst_start + ch.burst_cycles
            bank.rows[cmd.row] = done
            if len(bank.rows) > 64:
                horizon = start - ch.REORDER_WINDOW
                bank.rows = {r: tt for r, tt in bank.rows.items()
                             if tt >= horizon}
            ch.write_cycles += ch.burst_cycles
            ch._account_pressure(time, burst_start)
            if ch.first_request is None:
                ch.first_request = time
            self.units[cmd.bank].set_row(cmd.row, cmd.values)
            if probe is not None:
                probe.pim_bus(self, cmd.name, burst_start, ch.burst_cycles)
                probe.pim_bank_op(self, cmd.name, cmd.bank, time, start,
                                  ready_before, bank.ready_at, cmd.row,
                                  row_state, done)

        elif isinstance(cmd, MacAbk):
            if not 0 <= cmd.slot < self.config.crf_entries:
                raise ValueError(f"MAC_ABK slot {cmd.slot} out of range "
                                 f"[0, {self.config.crf_entries})")
            mop = self.crf[cmd.slot]
            if mop is None:
                raise ValueError(f"MAC_ABK executes unprogrammed CRF slot "
                                 f"{cmd.slot}")
            banks = cmd.banks if cmd.banks is not None \
                else tuple(range(self.nbanks))
            for b in banks:
                self._check_bank(b, "MAC_ABK")
            bus_start = span_start = self._claim_bus(time, 1)
            cmd_done = bus_start + 1
            done = cmd_done
            if probe is not None:
                probe.pim_bus(self, cmd.name, bus_start, 1)
            t_mac = self.config.t_mac
            if mop.kind == "mac":
                reads = (mop.dst,)
            elif mop.kind in ("add", "mul"):
                reads = (mop.src,)
            else:
                reads = ()
            for bank_idx in banks:
                bank = ch._banks[bank_idx]
                ready_before = bank.ready_at
                start, latency, _busy, row_state = ch._row_machine(
                    bank, cmd.row, cmd_done, extra_busy=t_mac)
                bank_done = start + latency + t_mac
                bank.rows[cmd.row] = bank_done
                if len(bank.rows) > 64:
                    horizon = start - ch.REORDER_WINDOW
                    bank.rows = {r: tt for r, tt in bank.rows.items()
                                 if tt >= horizon}
                if probe is not None:
                    probe.pim_grf(self, cmd.name, bank_idx, reads,
                                  (mop.dst,))
                self.units[bank_idx].execute(mop, cmd.row, self.gb)
                if bank_done > done:
                    done = bank_done
                if probe is not None:
                    probe.pim_bank_op(self, cmd.name, bank_idx, time, start,
                                      ready_before, bank.ready_at, cmd.row,
                                      row_state, bank_done)
            self.counters.add("mac_bank_ops", len(banks))

        elif isinstance(cmd, RdMac):
            self._check_bank(cmd.bank, "RD_MAC")
            if cmd.count < 1:
                raise ValueError("RD_MAC count must be >= 1")
            self._check_grf(cmd.grf0, "RD_MAC")
            self._check_grf(cmd.grf0 + cmd.count - 1, "RD_MAC")
            bus_cmd = span_start = self._claim_bus(time, 1)
            cmd_done = bus_cmd + 1
            if probe is not None:
                probe.pim_bus(self, cmd.name, bus_cmd, 1)
            bank = ch._banks[cmd.bank]
            ready_before = bank.ready_at
            start = ready_before if ready_before > cmd_done else cmd_done
            bank.ready_at = start + ch.T_CCD
            words = cmd.payload_words(self.config.simd_width)
            nbursts = -(-words // 16)  # 16 words per 64 B burst
            data_cycles = nbursts * ch.burst_cycles
            # GRF read latency of one cycle before the readout burst.
            burst_start = ch._bus.reserve(start + 1, data_cycles)
            done = burst_start + data_cycles
            ch.read_cycles += data_cycles
            ch._account_pressure(time, burst_start)
            entries = range(cmd.grf0, cmd.grf0 + cmd.count)
            if probe is not None:
                probe.pim_bus(self, cmd.name, burst_start, data_cycles)
                probe.pim_bank_op(self, cmd.name, cmd.bank, time, start,
                                  ready_before, bank.ready_at)
                probe.pim_grf(self, cmd.name, cmd.bank, tuple(entries))
            unit = self.units[cmd.bank]
            if cmd.reduce:
                payload = tuple(sum(unit.grf[e]) for e in entries)
            else:
                payload = tuple(v for e in entries for v in unit.grf[e])
            self.counters.add("rd_words", words)

        else:
            raise TypeError(f"unknown PIM command {cmd!r}")

        if done > ch.last_completion:
            ch.last_completion = done
        if probe is not None:
            probe.pim_command(self, cmd, span_start, done)
        return done, payload

    def reset(self) -> None:
        self.units = [PimUnit(self.config) for _ in range(self.nbanks)]
        self.gb = [0.0] * self.config.simd_width
        self.crf = [None] * self.config.crf_entries
        self.counters = Counter()
