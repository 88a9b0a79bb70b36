"""The invariant and differential-validation engine.

An :class:`Auditor` receives observational callbacks from instrumented
components (see :mod:`repro.audit.instrument` for the wiring and
``docs/MODEL.md`` "Model invariants & validation" for the rule list) and
checks two kinds of property:

* **invariants** -- facts that must hold at every single step: event
  time never moves backwards, a bank port never double-books a cycle,
  MSHR entries are allocated/merged/released in balance, a cache set
  never holds more lines than it has ways, an HBM bank's ``ready_at``
  only advances, bus bursts serialize, utilization categories sum to 1;

* **differentials** -- the fast implementations shadowed live by the
  naive reference models of :mod:`repro.audit.reference`: the
  dict-ordered LRU against an O(ways) recency-list scan, the DRAM
  row-state classifier against an explicit opened-bank flag, packet
  latency against the hop-count lower bound.

Auditing is purely observational: an audited run is cycle-identical to
an unaudited one (pinned by ``tests/test_audit.py``).  Violations are
deduplicated per (kind, component) site with occurrence counts, the way
the sanitizer reports findings.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

from .reference import RefLruSet, RefRowState, min_hops


@dataclass(frozen=True)
class AuditConfig:
    """Knobs for ``Session(audit=...)``.

    * ``max_sites`` -- distinct (kind, component) violation sites kept;
      further occurrences at recorded sites still count.
    * ``tolerance`` -- slack for floating-point comparisons (category
      sums, latency bounds).
    * ``shadow_cache`` / ``shadow_hbm`` / ``check_noc`` -- disable
      individual check families (all on by default).
    """

    max_sites: int = 64
    tolerance: float = 1e-9
    shadow_cache: bool = True
    shadow_hbm: bool = True
    check_noc: bool = True


@dataclass
class Violation:
    """One deduplicated invariant/differential failure site."""

    kind: str
    component: str
    detail: str
    time: float
    count: int = 1
    extra: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        out = {
            "kind": self.kind,
            "component": self.component,
            "detail": self.detail,
            "time": self.time,
            "count": self.count,
        }
        if self.extra:
            out["extra"] = dict(self.extra)
        return out


class _BankShadow:
    """Reference state mirrored per audited cache bank."""

    __slots__ = ("sets", "ways", "mshr_lines", "mshr_capacity",
                 "port_free", "retries")

    def __init__(self, nsets: int, ways: int, mshr_capacity: int) -> None:
        self.sets = [RefLruSet(ways) for _ in range(nsets)]
        self.ways = ways
        self.mshr_lines: set = set()
        self.mshr_capacity = mshr_capacity
        self.port_free: float = 0.0
        self.retries = 0


class _ChannelShadow:
    """Reference state mirrored per audited HBM pseudo-channel."""

    __slots__ = ("rowstate", "bus_free", "bank_ready")

    def __init__(self, window: float) -> None:
        self.rowstate = RefRowState(window)
        self.bus_free: float = 0.0
        self.bank_ready: Dict[int, float] = {}


class _PimShadow:
    """Reference state mirrored per audited PIM engine."""

    __slots__ = ("grf_entries", "written")

    def __init__(self, grf_entries: int) -> None:
        self.grf_entries = grf_entries
        #: (bank, grf index) pairs initialized by WR_BIAS or a
        #: destination-writing micro-op; MAC accumulation and RD_MAC
        #: reads of anything else hit stale silicon.
        self.written: set = set()


class Auditor:
    """Collects violations from every instrumented component of one run."""

    def __init__(self, config: Optional[AuditConfig] = None) -> None:
        self.config = config or AuditConfig()
        #: Total individual checks evaluated (cheap integer bump each).
        self.checks = 0
        self.counts: Dict[str, int] = {}
        self.violations: List[Violation] = []
        self._sites: Dict[Tuple[str, str], Violation] = {}
        self._machine: Optional[Any] = None
        self._last_event_time: float = 0.0
        self._banks: Dict[int, _BankShadow] = {}
        self._channels: Dict[int, _ChannelShadow] = {}
        self._pims: Dict[int, _PimShadow] = {}
        self._strip_free: Dict[Tuple[int, int], float] = {}
        self.finalized = False

    # -- plumbing -----------------------------------------------------------

    @property
    def clean(self) -> bool:
        return not self.violations

    def bind(self, machine: Any) -> None:
        self._machine = machine

    def _record(self, kind: str, component: str, time: float, detail: str,
                **extra: Any) -> None:
        site = self._sites.get((kind, component))
        if site is not None:
            site.count += 1
        elif len(self._sites) < self.config.max_sites:
            site = Violation(kind, component, detail, time, extra=extra)
            self._sites[(kind, component)] = site
            self.violations.append(site)
        self.counts[kind] = self.counts.get(kind, 0) + 1

    # -- registration (instrument.attach + the differential tests) ----------

    def watch_bank(self, bank: Any) -> None:
        timing = bank.timing
        self._banks[id(bank)] = _BankShadow(
            timing.sets, timing.ways, timing.mshr_entries)

    def watch_channel(self, channel: Any) -> None:
        self._channels[id(channel)] = _ChannelShadow(channel.REORDER_WINDOW)

    def watch_pim(self, engine: Any) -> None:
        self._pims[id(engine)] = _PimShadow(engine.config.grf_entries)

    def watch_strip(self, strip: Any) -> None:
        for idx in range(strip.num_channels):
            self._strip_free[(id(strip), idx)] = 0.0

    def watch_network(self, net: Any) -> None:
        pass  # stateless checks; hook attribute is enough

    # -- engine -------------------------------------------------------------

    def engine_event(self, now: float) -> None:
        """Called after every dispatched event (slow run loop only)."""
        self.checks += 1
        if now < self._last_event_time:
            self._record(
                "event-time-regression", "engine", now,
                f"event dispatched at t={now:g} after t="
                f"{self._last_event_time:g}")
        else:
            self._last_event_time = now

    # -- cache banks --------------------------------------------------------

    def cache_access(self, bank: Any, set_idx: int, line: int, hit: bool,
                     time: float, start: float, port_cycles: float,
                     retry: bool = False) -> None:
        shadow = self._banks.get(id(bank))
        if shadow is None:
            return
        self.checks += 1
        tol = self.config.tolerance
        if port_cycles < 1:
            self._record(
                "port-occupancy-zero", bank.name, time,
                f"access reserved {port_cycles:g} port cycles (< 1): the "
                f"request occupies no bank-port time")
        if start < time - tol:
            self._record(
                "port-reserve-past", bank.name, time,
                f"port granted start {start:g} before request time {time:g}")
        if start < shadow.port_free - tol:
            self._record(
                "port-overlap", bank.name, time,
                f"reservation at {start:g} overlaps previous window ending "
                f"{shadow.port_free:g}")
        shadow.port_free = max(shadow.port_free, start + port_cycles)
        if not self.config.shadow_cache or retry:
            # A retried miss re-arbitrates for the port but deliberately
            # skips the tag probe, so the recency shadow has nothing to
            # compare against.
            return
        lru = shadow.sets[set_idx]
        present = lru.probe(line)
        if hit != present:
            self._record(
                "lru-divergence", bank.name, time,
                f"fast path classified line {line:#x} as "
                f"{'hit' if hit else 'miss'}, reference recency list says "
                f"{'resident' if present else 'absent'}")
            # Re-sync so one divergence does not cascade.
            if hit and not present:
                lru.install(line)
        if hit:
            lru.promote(line)

    def cache_evict(self, bank: Any, set_idx: int, victim: int,
                    time: float) -> None:
        shadow = self._banks.get(id(bank))
        if shadow is None or not self.config.shadow_cache:
            return
        self.checks += 1
        lru = shadow.sets[set_idx]
        expected = lru.lines[0] if lru.lines else None
        if expected != victim:
            self._record(
                "lru-victim-divergence", bank.name, time,
                f"fast path evicted line {victim:#x}, reference LRU order "
                f"expected {expected if expected is None else hex(expected)}")
        if lru.probe(victim):
            lru.evict(victim)
        elif expected is not None:
            lru.evict(expected)

    def cache_install(self, bank: Any, set_idx: int, line: int,
                      time: float) -> None:
        shadow = self._banks.get(id(bank))
        if shadow is None:
            return
        self.checks += 1
        occupancy = len(bank._sets[set_idx])
        if occupancy > shadow.ways:
            self._record(
                "set-overflow", bank.name, time,
                f"set {set_idx} holds {occupancy} lines but has only "
                f"{shadow.ways} ways")
        if self.config.shadow_cache:
            lru = shadow.sets[set_idx]
            if not lru.probe(line):
                lru.install(line)

    # -- MSHR accounting ----------------------------------------------------

    def mshr_alloc(self, bank: Any, line: int, time: float) -> None:
        shadow = self._banks.get(id(bank))
        if shadow is None:
            return
        self.checks += 1
        if line in shadow.mshr_lines:
            self._record(
                "mshr-double-alloc", bank.name, time,
                f"line {line:#x} allocated while already in flight")
        elif len(shadow.mshr_lines) >= shadow.mshr_capacity:
            self._record(
                "mshr-overflow", bank.name, time,
                f"allocation beyond the {shadow.mshr_capacity}-entry file")
        shadow.mshr_lines.add(line)

    def mshr_merge(self, bank: Any, line: int, time: float) -> None:
        shadow = self._banks.get(id(bank))
        if shadow is None:
            return
        self.checks += 1
        if line not in shadow.mshr_lines:
            self._record(
                "mshr-merge-missing", bank.name, time,
                f"secondary miss merged onto line {line:#x} with no "
                f"primary entry in flight")

    def mshr_release(self, bank: Any, line: int, time: float) -> None:
        shadow = self._banks.get(id(bank))
        if shadow is None:
            return
        self.checks += 1
        if line not in shadow.mshr_lines:
            self._record(
                "mshr-double-release", bank.name, time,
                f"line {line:#x} released twice (or never allocated)")
        else:
            shadow.mshr_lines.discard(line)

    def mshr_retry(self, bank: Any, line: int, time: float,
                   retry_at: float) -> None:
        shadow = self._banks.get(id(bank))
        if shadow is None:
            return
        self.checks += 1
        shadow.retries += 1
        if retry_at <= time:
            self._record(
                "mshr-retry-spin", bank.name, time,
                f"full-MSHR retry rescheduled at {retry_at:g} <= now "
                f"{time:g}: the retry can spin without advancing time")

    # -- HBM pseudo-channels ------------------------------------------------

    def hbm_access(self, channel: Any, bank_idx: int, row: int, time: float,
                   start: float, row_state: str, burst_start: float,
                   burst_cycles: float, done: float, ready_before: float,
                   ready_after: float) -> None:
        shadow = self._channels.get(id(channel))
        if shadow is None:
            return
        self.checks += 1
        tol = self.config.tolerance
        name = channel.name
        if ready_after < ready_before - tol:
            self._record(
                "hbm-ready-regression", name, time,
                f"bank {bank_idx} ready_at moved backwards "
                f"({ready_before:g} -> {ready_after:g})")
        last_bus = shadow.bus_free
        if burst_start < last_bus - tol:
            self._record(
                "hbm-bus-overlap", name, time,
                f"burst at {burst_start:g} overlaps previous burst ending "
                f"{last_bus:g}: the shared data bus must serialize")
        shadow.bus_free = max(last_bus, burst_start + burst_cycles)
        floor = channel.timing.row_hit_latency + burst_cycles
        if done - time < floor - tol:
            self._record(
                "hbm-latency-floor", name, time,
                f"access completed in {done - time:g} cycles, below the "
                f"analytic floor tCL + tBL = {floor:g}")
        if self.config.shadow_hbm:
            expected = shadow.rowstate.classify(bank_idx, row, start)
            if expected != row_state:
                self._record(
                    "row-state-divergence", name, time,
                    f"bank {bank_idx} row {row} classified "
                    f"'{row_state}', reference opened-row tracker says "
                    f"'{expected}'")
            shadow.rowstate.update(bank_idx, row,
                                   burst_start + burst_cycles)

    # -- PIM engines --------------------------------------------------------

    def pim_bus(self, engine: Any, cmd: str, start: float,
                cycles: float) -> None:
        """A PIM command's bus claim -- shares the channel's bus shadow,
        so PIM bursts and ordinary read/write bursts must mutually
        serialize (a separate shadow would miss mixed-traffic overlap)."""
        shadow = self._channels.get(id(engine.channel))
        if shadow is None:
            return
        self.checks += 1
        tol = self.config.tolerance
        if start < shadow.bus_free - tol:
            self._record(
                "pim-bus-overlap", engine.name, start,
                f"{cmd} bus claim at {start:g} overlaps previous burst "
                f"ending {shadow.bus_free:g}: PIM commands share the data "
                f"bus with ordinary traffic")
        shadow.bus_free = max(shadow.bus_free, start + cycles)

    def pim_bank_op(self, engine: Any, cmd: str, bank_idx: int, time: float,
                    start: float, ready_before: float, ready_after: float,
                    row: Optional[int] = None,
                    row_state: Optional[str] = None,
                    completion: Optional[float] = None) -> None:
        """One bank's share of a PIM command.

        Invariants: the op starts no earlier than the bank's ready time,
        occupies the bank at least one cycle, and never moves
        ``ready_at`` backwards.  Row-touching commands (``WR_SBK``,
        ``MAC_ABK``) pass ``row``/``row_state``/``completion`` and are
        additionally checked against the channel's reference opened-row
        tracker -- the same shadow ``hbm_access`` uses, so a PIM op can
        never overlap a row cycle an ordinary access already claimed.
        """
        if id(engine) not in self._pims:
            return
        self.checks += 1
        tol = self.config.tolerance
        name = engine.name
        if start < ready_before - tol:
            self._record(
                "pim-bank-overlap", name, time,
                f"{cmd} starts on bank {bank_idx} at {start:g}, before the "
                f"bank's ready time {ready_before:g}")
        if ready_after < start + 1 - tol:
            self._record(
                "pim-bank-underoccupied", name, time,
                f"{cmd} holds bank {bank_idx} until {ready_after:g}, less "
                f"than one cycle past its start {start:g}")
        if ready_after < ready_before - tol:
            self._record(
                "pim-ready-regression", name, time,
                f"bank {bank_idx} ready_at moved backwards "
                f"({ready_before:g} -> {ready_after:g})")
        if row is not None and self.config.shadow_hbm:
            shadow = self._channels.get(id(engine.channel))
            if shadow is not None:
                expected = shadow.rowstate.classify(bank_idx, row, start)
                if expected != row_state:
                    self._record(
                        "row-state-divergence", name, time,
                        f"{cmd} bank {bank_idx} row {row} classified "
                        f"'{row_state}', reference opened-row tracker says "
                        f"'{expected}'")
                shadow.rowstate.update(bank_idx, row, completion)

    def pim_grf(self, engine: Any, cmd: str, bank_idx: int,
                reads: Tuple[int, ...] = (),
                writes: Tuple[int, ...] = ()) -> None:
        """GRF discipline: indices in range, accumulators written before
        read (``reads`` are checked before ``writes`` are recorded, so a
        MAC accumulating into a never-initialized entry is flagged)."""
        shadow = self._pims.get(id(engine))
        if shadow is None:
            return
        self.checks += 1
        name = engine.name
        for idx in reads + writes:
            if not 0 <= idx < shadow.grf_entries:
                self._record(
                    "pim-grf-bounds", name, 0.0,
                    f"{cmd} touches GRF entry {idx} of bank {bank_idx}, "
                    f"outside [0, {shadow.grf_entries})")
        for idx in reads:
            if (bank_idx, idx) not in shadow.written:
                self._record(
                    "pim-acc-uninit", name, 0.0,
                    f"{cmd} reads GRF entry {idx} of bank {bank_idx} "
                    f"before any WR_BIAS or micro-op wrote it")
        for idx in writes:
            shadow.written.add((bank_idx, idx))

    # -- wormhole strips ----------------------------------------------------

    def strip_transfer(self, strip: Any, channel_idx: int, time: float,
                       start: float, burst: float, done: float,
                       bank_x: int) -> None:
        key = (id(strip), channel_idx)
        if key not in self._strip_free:
            return
        self.checks += 1
        tol = self.config.tolerance
        name = f"strip:ch{channel_idx}"
        last = self._strip_free[key]
        if start < last - tol:
            self._record(
                "strip-overlap", name, time,
                f"burst at {start:g} overlaps previous burst ending "
                f"{last:g} on channel {channel_idx}")
        self._strip_free[key] = max(last, start + burst)
        floor = burst + strip._transit_latency(bank_x)
        if done - start < floor - tol:
            self._record(
                "strip-latency-floor", name, time,
                f"transfer took {done - start:g} cycles, below burst + "
                f"transit = {floor:g}")

    # -- global NoC ---------------------------------------------------------

    def noc_send(self, net: Any, src: Any, dst: Any, flits: int, time: float,
                 report: Any) -> None:
        if not self.config.check_noc:
            return
        self.checks += 1
        tol = self.config.tolerance
        if report.stall_cycles < -tol:
            self._record(
                "noc-negative-stall", net.name, time,
                f"packet {src}->{dst} reports negative stall "
                f"{report.stall_cycles:g}")
        floor_hops = min_hops(src, dst, net.timing.ruche_factor,
                              net.topology.ruche)
        if report.hops < floor_hops:
            self._record(
                "noc-hop-undercount", net.name, time,
                f"packet {src}->{dst} traversed {report.hops} links, below "
                f"the topological minimum {floor_hops}")
        # Wormhole arrival decomposes exactly into the store-and-forward
        # style bound plus accumulated link stalls.
        bound = (time + net._inject + report.hops * net._hop_cost
                 + (flits - 1) + net._eject)
        if abs((report.arrival - report.stall_cycles) - bound) > tol:
            self._record(
                "noc-latency-decomposition", net.name, time,
                f"packet {src}->{dst}: arrival {report.arrival:g} - stalls "
                f"{report.stall_cycles:g} != zero-load bound {bound:g}")

    # -- end-of-run sweeps --------------------------------------------------

    def check_result(self, result: Any) -> None:
        """Post-run: reported utilization categories must sum to one."""
        tol = max(self.config.tolerance, 1e-6)
        self.checks += 1
        total = sum(result.core_breakdown.values())
        if result.core_breakdown and abs(total - 1.0) > tol:
            self._record(
                "breakdown-sum", f"result:{result.kernel_name}",
                result.cycles,
                f"core stall breakdown sums to {total:.9f}, not 1")
        self.checks += 1
        if result.hbm:
            total = sum(result.hbm.values())
            bad_range = any(not (0.0 - tol <= v <= 1.0 + tol)
                            for v in result.hbm.values())
            if abs(total - 1.0) > tol or bad_range:
                self._record(
                    "utilization-sum", f"result:{result.kernel_name}",
                    result.cycles,
                    f"HBM utilization categories sum to {total:.9f} "
                    f"(read/write/busy/idle must partition elapsed time)")

    def finalize(self, now: float) -> None:
        """End-of-run sweeps: leaked MSHRs, occupancy, channel categories.

        Safe to call after every ``Session.run`` batch: each call sweeps
        the state that batch left behind.
        """
        self.finalized = True
        machine = self._machine
        if machine is None:
            return
        memsys = machine.memsys
        tol = max(self.config.tolerance, 1e-6)
        for bank in memsys.banks.values():
            shadow = self._banks.get(id(bank))
            self.checks += 1
            if len(bank.mshr) != 0:
                self._record(
                    "mshr-leak", bank.name, now,
                    f"{len(bank.mshr)} MSHR entr(ies) still allocated after "
                    f"the run drained: a refill never released them")
            elif shadow is not None and shadow.mshr_lines:
                self._record(
                    "mshr-leak", bank.name, now,
                    f"shadow accounting holds {len(shadow.mshr_lines)} "
                    f"entr(ies) the bank no longer tracks")
            self.checks += 1
            for set_idx, ways in enumerate(bank._sets):
                if len(ways) > bank.timing.ways:
                    self._record(
                        "set-overflow", bank.name, now,
                        f"set {set_idx} ended with {len(ways)} lines in "
                        f"{bank.timing.ways} ways")
                    break
        for channel in memsys.hbm.values():
            if channel.counters.total() == 0:
                continue
            self.checks += 1
            util = channel.utilization(max(now, channel.last_completion))
            total = sum(util.values())
            bad_range = any(not (0.0 - tol <= v <= 1.0 + tol)
                            for v in util.values())
            if abs(total - 1.0) > tol or bad_range:
                self._record(
                    "utilization-sum", channel.name, now,
                    f"utilization categories sum to {total:.9f} "
                    f"(values: " + ", ".join(
                        f"{k}={v:.6f}" for k, v in util.items()) + ")")

    # -- reporting ----------------------------------------------------------

    def _reader_state(self) -> Dict[str, Any]:
        """What :func:`repro.runtime.result.detached` keeps: the verdict
        as it stands (a later batch bumps the live sites' counts)."""
        return {"checks": self.checks,
                "counts": dict(self.counts),
                "violations": [replace(v) for v in self.violations],
                "finalized": self.finalized}

    def summary(self) -> str:
        if self.clean:
            return f"audit: clean ({self.checks} checks)"
        total = sum(self.counts.values())
        kinds = ", ".join(f"{k} x{v}" for k, v in sorted(self.counts.items()))
        return (f"audit: {total} violation(s) ({kinds}; "
                f"{self.checks} checks)")
