"""The timing-model auditor: neutrality, clean runs, violation detection."""

import json

import pytest

from repro.arch.config import HB_16x8
from repro.arch.geometry import CellGeometry, ChipGeometry
from repro.arch.params import CacheTiming, HBMTiming, NocTiming
from repro.audit import (
    AuditConfig,
    Auditor,
    attach,
    audit_report,
    format_report,
)
from repro.engine import Simulator
from repro.kernels import registry
from repro.mem.cache import CacheBank
from repro.mem.hbm import PseudoChannel
from repro.noc.network import Network
from repro.noc.wormhole import WormholeStrip
from repro.sanitize import FIXTURE, fixture_args
from repro.session import Session, run

#: Same pins as tests/test_engine_golden.py and tests/test_sanitize.py:
#: the auditor must not move a single cycle, on or off.
GOLDEN_CYCLES = {"AES": 4743, "PR": 2686}


def make_bank(sim, auditor=None, sets=4, ways=2, mshrs=4,
              write_validate=True):
    timing = CacheTiming(sets=sets, ways=ways, mshr_entries=mshrs)
    hbm = PseudoChannel(HBMTiming())
    strip = WormholeStrip(num_banks=4)
    bank = CacheBank(sim, timing, hbm, strip, bank_x=0,
                     write_validate=write_validate)
    if auditor is not None:
        bank._audit = auditor
        auditor.watch_bank(bank)
    return bank


def make_channel(auditor=None):
    channel = PseudoChannel(HBMTiming())
    if auditor is not None:
        channel._audit = auditor
        auditor.watch_channel(channel)
    return channel


def make_net(auditor=None, ruche=False):
    chip = ChipGeometry(CellGeometry(8, 4), cells_x=1, cells_y=1)
    net = Network(chip, NocTiming(), ruche=ruche, order="xy")
    if auditor is not None:
        net._audit = auditor
        auditor.watch_network(net)
    return net


class TestGoldenCycles:
    @pytest.mark.parametrize("name", sorted(GOLDEN_CYCLES))
    def test_audited_run_is_cycle_identical(self, name):
        bench = registry.SUITE[name]
        result = run(HB_16x8, bench.kernel, registry.fast_args(name),
                     audit=True)
        assert result.cycles == GOLDEN_CYCLES[name]
        assert result.audit.clean
        assert result.audit.checks > 0

    def test_audit_is_cycle_neutral(self, tiny_config):
        def fixture_run(audit):
            session = Session(tiny_config, audit=audit)
            session.launch(FIXTURE, fixture_args(clean=True))
            return session.run()[0]

        on, off = fixture_run(True), fixture_run(False)
        assert on.cycles == off.cycles


class TestSessionSurface:
    def test_session_carries_auditor(self, tiny_config):
        session = Session(tiny_config, audit=True)
        session.launch(FIXTURE, fixture_args(clean=True))
        result = session.run()[0]
        assert session.auditor is not None
        assert result.audit is not session.auditor
        assert result.audit.summary() == session.auditor.summary()
        assert session.auditor.finalized
        assert "audited" in repr(session)

    def test_audit_accepts_config(self, tiny_config):
        config = AuditConfig(max_sites=2, check_noc=False)
        session = Session(tiny_config, audit=config)
        assert session.auditor.config is config

    def test_audit_off_costs_nothing(self, tiny_config):
        session = Session(tiny_config)
        assert session.auditor is None
        assert session.machine.sim.audit is None

    def test_double_attach_rejected(self, tiny_config):
        session = Session(tiny_config, audit=True)
        with pytest.raises(RuntimeError, match="already has an auditor"):
            attach(session.machine, Auditor())


class TestEngineInvariant:
    def test_monotone_time_is_clean(self):
        auditor = Auditor()
        for t in (0.0, 1.0, 1.0, 5.5):
            auditor.engine_event(t)
        assert auditor.clean

    def test_time_regression_flagged(self):
        auditor = Auditor()
        auditor.engine_event(10.0)
        auditor.engine_event(3.0)
        assert auditor.counts["event-time-regression"] == 1


class TestCacheInvariants:
    def test_clean_traffic_is_clean(self):
        sim = Simulator()
        auditor = Auditor()
        bank = make_bank(sim, auditor)
        for addr in (0x0, 0x40, 0x0, 0x80, 0x100, 0x40):
            fut = bank.access(addr, addr % 0x80 == 0, sim.now)
            done = []
            fut.add_callback(lambda _v: done.append(True))
            sim.run()
            assert done
        assert auditor.clean
        assert auditor.checks > 6

    def test_zero_port_occupancy_flagged(self):
        sim = Simulator()
        auditor = Auditor(AuditConfig(shadow_cache=False))
        bank = make_bank(sim, auditor)
        auditor.cache_access(bank, 0, 0, False, 5.0, 5.0, 0)
        assert auditor.counts["port-occupancy-zero"] == 1

    def test_port_overlap_flagged(self):
        sim = Simulator()
        auditor = Auditor(AuditConfig(shadow_cache=False))
        bank = make_bank(sim, auditor)
        auditor.cache_access(bank, 0, 0, False, 0.0, 0.0, 4)
        auditor.cache_access(bank, 0, 1, False, 2.0, 2.0, 1)
        assert auditor.counts["port-overlap"] == 1

    def test_port_grant_in_past_flagged(self):
        sim = Simulator()
        auditor = Auditor(AuditConfig(shadow_cache=False))
        bank = make_bank(sim, auditor)
        auditor.cache_access(bank, 0, 0, False, 10.0, 7.0, 1)
        assert auditor.counts["port-reserve-past"] == 1

    def test_lru_divergence_flagged(self):
        sim = Simulator()
        auditor = Auditor()
        bank = make_bank(sim, auditor)
        # Claim a hit on a line the reference recency list never saw.
        auditor.cache_access(bank, 0, 0x123, True, 0.0, 0.0, 1)
        assert auditor.counts["lru-divergence"] == 1

    def test_set_overflow_flagged(self):
        sim = Simulator()
        auditor = Auditor()
        bank = make_bank(sim, auditor, sets=1, ways=2)
        # Bypass _install's eviction to overfill the set, then observe.
        from repro.mem.cache import _Line
        for line in (0, 1, 2):
            bank._sets[0][line] = _Line(line)
        auditor.cache_install(bank, 0, 2, 0.0)
        assert auditor.counts["set-overflow"] == 1


class TestMshrInvariants:
    def test_balanced_accounting_is_clean(self):
        sim = Simulator()
        auditor = Auditor()
        bank = make_bank(sim, auditor, mshrs=2)
        auditor.mshr_alloc(bank, 1, 0.0)
        auditor.mshr_merge(bank, 1, 1.0)
        auditor.mshr_alloc(bank, 2, 1.0)
        auditor.mshr_release(bank, 1, 50.0)
        auditor.mshr_release(bank, 2, 60.0)
        assert auditor.clean

    def test_double_alloc_flagged(self):
        sim = Simulator()
        auditor = Auditor()
        bank = make_bank(sim, auditor)
        auditor.mshr_alloc(bank, 1, 0.0)
        auditor.mshr_alloc(bank, 1, 1.0)
        assert auditor.counts["mshr-double-alloc"] == 1

    def test_overflow_flagged(self):
        sim = Simulator()
        auditor = Auditor()
        bank = make_bank(sim, auditor, mshrs=2)
        for line in (1, 2, 3):
            auditor.mshr_alloc(bank, line, 0.0)
        assert auditor.counts["mshr-overflow"] == 1

    def test_merge_without_primary_flagged(self):
        sim = Simulator()
        auditor = Auditor()
        bank = make_bank(sim, auditor)
        auditor.mshr_merge(bank, 9, 0.0)
        assert auditor.counts["mshr-merge-missing"] == 1

    def test_double_release_flagged(self):
        sim = Simulator()
        auditor = Auditor()
        bank = make_bank(sim, auditor)
        auditor.mshr_alloc(bank, 1, 0.0)
        auditor.mshr_release(bank, 1, 5.0)
        auditor.mshr_release(bank, 1, 6.0)
        assert auditor.counts["mshr-double-release"] == 1

    def test_retry_spin_flagged(self):
        sim = Simulator()
        auditor = Auditor()
        bank = make_bank(sim, auditor)
        auditor.mshr_retry(bank, 1, 10.0, 10.0)
        assert auditor.counts["mshr-retry-spin"] == 1

    def test_mshr_stress_audits_clean(self):
        """Fill the MSHR file repeatedly; the retry path must stay
        balanced under audit (the bug fixed alongside this checker)."""
        sim = Simulator()
        auditor = Auditor()
        bank = make_bank(sim, auditor, mshrs=2)
        futs = [bank.access(i * 0x40, False, 0) for i in range(12)]
        sim.run()
        assert all(f.done for f in futs)
        assert bank.counters.get("mshr_full_stalls") > 0
        auditor.finalize(sim.now)
        assert auditor.clean
        assert len(bank.mshr) == 0


class TestHbmInvariants:
    def test_clean_traffic_is_clean(self):
        auditor = Auditor()
        channel = make_channel(auditor)
        t = 0.0
        for i in range(64):
            t = channel.access(i * 64, i % 3 == 0, t)
        assert auditor.clean

    def test_ready_regression_flagged(self):
        auditor = Auditor()
        channel = make_channel(auditor)
        done = channel.access(0, False, 0.0)
        auditor.hbm_access(channel, 0, 0, done, done, "hit", done,
                           channel.burst_cycles, done + 30.0, 50.0, 10.0)
        assert auditor.counts["hbm-ready-regression"] == 1

    def test_bus_overlap_flagged(self):
        auditor = Auditor(AuditConfig(shadow_hbm=False))
        channel = make_channel(auditor)
        bc = channel.burst_cycles
        lat = channel.timing.row_hit_latency
        auditor.hbm_access(channel, 0, 0, 0.0, 0.0, "open", lat, bc,
                           lat + bc, 0.0, 4.0)
        auditor.hbm_access(channel, 1, 0, 0.0, 0.0, "open", lat + 1, bc,
                           lat + 1 + bc, 0.0, 4.0)
        assert auditor.counts["hbm-bus-overlap"] == 1

    def test_latency_floor_flagged(self):
        auditor = Auditor(AuditConfig(shadow_hbm=False))
        channel = make_channel(auditor)
        # Completes in 1 cycle: impossible even for a row hit.
        auditor.hbm_access(channel, 0, 0, 0.0, 0.0, "hit", 0.0,
                           channel.burst_cycles, 1.0, 0.0, 4.0)
        assert auditor.counts["hbm-latency-floor"] == 1

    def test_row_state_divergence_flagged(self):
        auditor = Auditor()
        channel = make_channel(auditor)
        bc = channel.burst_cycles
        lat = channel.timing.row_hit_latency
        # A first-ever access claiming "conflict": the reference
        # opened-row tracker knows the bank was never activated.
        auditor.hbm_access(channel, 0, 0, 0.0, 0.0, "conflict", lat, bc,
                           lat + bc, 0.0, 4.0)
        assert auditor.counts["row-state-divergence"] == 1


class TestStripInvariants:
    def test_clean_transfers_are_clean(self):
        auditor = Auditor()
        strip = WormholeStrip(num_banks=4)
        strip._audit = auditor
        auditor.watch_strip(strip)
        t = 0.0
        for i in range(16):
            _start, t = strip.transfer(i % 4, 64, t)
        assert auditor.clean

    def test_overlap_flagged(self):
        auditor = Auditor()
        strip = WormholeStrip(num_banks=4, num_channels=1)
        auditor.watch_strip(strip)
        auditor.strip_transfer(strip, 0, 0.0, 0.0, 8.0, 10.0, 0)
        auditor.strip_transfer(strip, 0, 4.0, 4.0, 8.0, 14.0, 0)
        assert auditor.counts["strip-overlap"] == 1

    def test_latency_floor_flagged(self):
        auditor = Auditor()
        strip = WormholeStrip(num_banks=4, num_channels=1)
        auditor.watch_strip(strip)
        auditor.strip_transfer(strip, 0, 0.0, 0.0, 8.0, 8.0, 1)
        assert auditor.counts["strip-latency-floor"] == 1


class TestNocInvariants:
    def test_clean_sends_are_clean(self):
        auditor = Auditor()
        net = make_net(auditor)
        for dst in ((1, 0), (5, 3), (0, 2), (7, 1)):
            net.send((0, 0), dst, flits=3, time=0)
        assert auditor.clean

    def test_negative_stall_flagged(self):
        from repro.noc.network import DeliveryReport
        auditor = Auditor()
        net = make_net(auditor)
        report = DeliveryReport(arrival=4.0, hops=1, stall_cycles=-2.0)
        auditor.noc_send(net, (0, 0), (1, 0), 1, 0.0, report)
        assert auditor.counts["noc-negative-stall"] == 1

    def test_hop_undercount_flagged(self):
        from repro.noc.network import DeliveryReport
        auditor = Auditor()
        net = make_net(auditor)
        # (0,0)->(5,3) needs at least 8 links without ruche; claim 2.
        report = DeliveryReport(arrival=100.0, hops=2, stall_cycles=0.0)
        auditor.noc_send(net, (0, 0), (5, 3), 1, 0.0, report)
        assert auditor.counts["noc-hop-undercount"] == 1

    def test_decomposition_mismatch_flagged(self):
        from repro.noc.network import DeliveryReport
        auditor = Auditor()
        net = make_net(auditor)
        good = net.send((0, 0), (3, 2), flits=2, time=0)
        bad = DeliveryReport(good.arrival + 1, good.hops, good.stall_cycles)
        auditor.noc_send(net, (0, 0), (3, 2), 2, 0.0, bad)
        assert auditor.counts["noc-latency-decomposition"] == 1


class TestDedupAndReporting:
    def test_sites_deduplicate_with_counts(self):
        auditor = Auditor()
        for t in (10.0, 5.0, 2.0):
            auditor.engine_event(t)
        assert len(auditor.violations) == 1
        assert auditor.violations[0].count == 2
        assert auditor.counts["event-time-regression"] == 2

    def test_max_sites_caps_recording(self):
        sim = Simulator()
        auditor = Auditor(AuditConfig(max_sites=1))
        bank = make_bank(sim, auditor)
        auditor.engine_event(10.0)
        auditor.engine_event(1.0)  # site 1: engine regression
        auditor.mshr_merge(bank, 9, 0.0)  # would be site 2: dropped
        assert len(auditor.violations) == 1
        assert auditor.counts["mshr-merge-missing"] == 1  # still counted

    def test_report_schema_and_formatting(self):
        auditor = Auditor()
        auditor.engine_event(10.0)
        auditor.engine_event(1.0)
        auditor.engine_event(0.5)
        report = audit_report(auditor)
        assert report["clean"] is False
        assert report["counts"] == {"event-time-regression": 2}
        assert report["violations_recorded"] == 1
        json.dumps(report)  # must be JSON-able
        text = format_report(report)
        assert "event-time-regression" in text
        assert "x2 occurrences" in text

    def test_clean_report(self):
        auditor = Auditor()
        auditor.engine_event(1.0)
        report = audit_report(auditor)
        assert report["clean"] is True
        assert "clean" in format_report(report)
        assert "clean" in auditor.summary()

    def test_summary_counts_violations(self):
        auditor = Auditor()
        auditor.engine_event(10.0)
        auditor.engine_event(1.0)
        assert "1 violation(s)" in auditor.summary()


class TestResultChecks:
    class _FakeResult:
        kernel_name = "fake"
        cycles = 100.0

        def __init__(self, breakdown, hbm):
            self.core_breakdown = breakdown
            self.hbm = hbm

    def test_breakdown_sum_violation(self):
        auditor = Auditor()
        auditor.check_result(self._FakeResult({"exec_int": 0.7}, {}))
        assert auditor.counts["breakdown-sum"] == 1

    def test_utilization_sum_violation(self):
        auditor = Auditor()
        auditor.check_result(self._FakeResult(
            {"exec_int": 1.0},
            {"read": 0.9, "write": 0.6, "busy": 0.1, "idle": 0.0}))
        assert auditor.counts["utilization-sum"] == 1

    def test_valid_result_is_clean(self):
        auditor = Auditor()
        auditor.check_result(self._FakeResult(
            {"exec_int": 0.6, "stall_idle": 0.4},
            {"read": 0.5, "write": 0.2, "busy": 0.1, "idle": 0.2}))
        assert auditor.clean


class TestCli:
    def test_audit_cmd_clean_kernel(self, tmp_path, capsys):
        from repro.cli import main
        out = tmp_path / "audit.json"
        code = main(["audit", "AES", "--size", "tiny",
                     "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["clean"] is True
        assert report["kernel"] == "AES"
        assert report["cycles"] == GOLDEN_CYCLES["AES"]
        assert "audit: clean" in capsys.readouterr().out

    def test_audit_cmd_json_mode(self, capsys):
        from repro.cli import main
        code = main(["audit", "aes", "--size", "tiny", "--json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["clean"] is True

    def test_audit_cmd_unknown_kernel(self, capsys):
        from repro.cli import main
        assert main(["audit", "nonesuch"]) == 2

    def test_audit_cmd_missing_target(self, capsys):
        from repro.cli import main
        assert main(["audit"]) == 2
