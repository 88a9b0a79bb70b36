"""The PIM subsystem: engine semantics, offload equality, hooks, CLI."""

import json

import pytest

from repro.arch.config import HB_16x8, TABLE_II, small_config
from repro.arch.params import HBMTiming
from repro.audit import Auditor
from repro.experiments import pim_offload
from repro.kernels import registry
from repro.mem.hbm import PseudoChannel
from repro.pim import PimConfig, PimEngine
from repro.pim.commands import MacAbk, MicroOp, RdMac, WrBias, WrCrf, WrGb
from repro.pim.kernels import OFFLOADS, lcg_values
from repro.runtime.machine import Machine
from repro.session import run

#: Same pins as tests/test_engine_golden.py: adding the PIM subsystem
#: must not move a single cycle of the existing suite.
GOLDEN_CYCLES = {"AES": 4743, "PR": 2686}


def _engine(banks=4, **pim_fields):
    channel = PseudoChannel(HBMTiming(banks=banks))
    return PimEngine(PimConfig(**pim_fields), channel), channel


class TestEngineSemantics:
    def test_wr_gb_pads_and_truncates(self):
        engine, _ = _engine(simd_width=4)
        engine.execute(WrGb([1.0, 2.0]), 0.0)
        assert engine.gb == [1.0, 2.0, 0.0, 0.0]
        engine.execute(WrGb(range(9)), 0.0)
        assert engine.gb == [0.0, 1.0, 2.0, 3.0]

    def test_mac_accumulates_gb_times_row(self):
        engine, _ = _engine(banks=2, simd_width=4)
        engine.load_bank_rows(0, {0: [1.0, 2.0, 3.0, 4.0]})
        engine.execute(WrCrf(0, MicroOp("mac", dst=0)), 0.0)
        engine.execute(WrBias(0, 0.0), 0.0)
        engine.execute(WrGb([2.0] * 4), 0.0)
        engine.execute(MacAbk(row=0, slot=0), 0.0)
        engine.execute(MacAbk(row=0, slot=0), 100.0)
        _done, payload = engine.execute(
            RdMac(bank=0, grf0=0, count=1), 200.0)
        assert payload == (2 * 2.0 * (1 + 2 + 3 + 4),)

    def test_rd_mac_raw_lanes(self):
        engine, _ = _engine(banks=2, simd_width=4)
        engine.load_bank_rows(1, {3: [5.0, 6.0, 7.0, 8.0]})
        engine.execute(WrCrf(2, MicroOp("mov", dst=1)), 0.0)
        engine.execute(MacAbk(row=3, slot=2, banks=(1,)), 0.0)
        _done, payload = engine.execute(
            RdMac(bank=1, grf0=1, count=1, reduce=False), 50.0)
        assert payload == (5.0, 6.0, 7.0, 8.0)

    def test_bank_parallel_completion(self):
        """MAC_ABK over all banks finishes when the slowest bank does --
        from a cold channel that is the *same* cycle as one bank, which
        is exactly the bank-level parallelism the offloads exploit."""
        engine_all, _ = _engine(banks=8)
        engine_one, _ = _engine(banks=8)
        for engine in (engine_all, engine_one):
            engine.execute(WrCrf(0, MicroOp("fill", dst=0, imm=1.0)), 0.0)
        done_all, _ = engine_all.execute(MacAbk(row=0, slot=0), 10.0)
        done_one, _ = engine_one.execute(
            MacAbk(row=0, slot=0, banks=(0,)), 10.0)
        assert done_all == done_one

    def test_validation_errors(self):
        engine, _ = _engine(banks=2, grf_entries=2, crf_entries=2)
        with pytest.raises(ValueError):
            engine.execute(WrCrf(5, MicroOp("mac", dst=0)), 0.0)
        with pytest.raises(ValueError):
            engine.execute(WrCrf(0, MicroOp("mac", dst=7)), 0.0)
        with pytest.raises(ValueError):
            engine.execute(MacAbk(row=0, slot=0), 0.0)  # unprogrammed
        with pytest.raises(ValueError):
            engine.execute(WrBias(9, 0.0), 0.0)
        with pytest.raises(ValueError):
            engine.execute(RdMac(bank=7), 0.0)
        with pytest.raises(ValueError):
            engine.execute(RdMac(bank=0, grf0=1, count=2), 0.0)

    def test_reset_clears_state(self):
        engine, _ = _engine(banks=2, simd_width=4)
        engine.execute(WrGb([1.0] * 4), 0.0)
        engine.execute(WrCrf(0, MicroOp("fill", dst=0, imm=2.0)), 0.0)
        engine.reset()
        assert engine.gb == [0.0] * 4
        assert engine.crf == [None] * engine.config.crf_entries
        assert engine.counters.total() == 0

    def test_lcg_values_are_small_integers(self):
        vals = lcg_values(64, seed=3)
        assert all(v == int(v) and -3.0 <= v <= 3.0 for v in vals)
        assert vals != lcg_values(64, seed=4)


class TestPimDisabled:
    """With no ``pim`` block the subsystem must hold zero state."""

    def test_presets_carry_no_pim(self):
        for cfg in TABLE_II.values():
            assert cfg.pim is None

    def test_machine_has_no_engines(self):
        machine = Machine(small_config(2, 2))
        assert machine.memsys.pim_engines == {}

    def test_machine_with_pim_has_engine_per_cell(self):
        machine = Machine(small_config(2, 2).with_pim())
        assert set(machine.memsys.pim_engines) == set(machine.memsys.hbm)

    def test_describe_mentions_pim(self):
        assert "pim" not in HB_16x8.describe()
        assert "pim" in HB_16x8.with_pim().describe()

    @pytest.mark.parametrize("kernel", sorted(GOLDEN_CYCLES))
    def test_golden_cycles_unmoved(self, kernel):
        bench = registry.SUITE[kernel]
        result = run(HB_16x8, bench.kernel, registry.fast_args(kernel))
        assert result.cycles == GOLDEN_CYCLES[kernel]


class TestOffloads:
    """tile-side vs memory-side: the ISSUE's functional-equality bar."""

    @pytest.fixture(scope="class", params=sorted(OFFLOADS))
    def report(self, request):
        return pim_offload.run_offload(request.param, size="tiny")

    def test_results_match_bitwise(self, report):
        assert report["match"], report.get("mismatch_indices")

    def test_both_sides_report_cycles_and_energy(self, report):
        for side in ("tile", "pim"):
            assert report[side]["cycles"] > 0
            assert report[side]["energy_pj"] > 0

    def test_pim_side_ran_on_the_engine(self, report):
        ops = report["pim"]["ops"]
        assert ops.get("mac_abk", 0) > 0
        assert ops.get("rd_mac", 0) > 0

    def test_hooks_are_cycle_neutral_and_clean(self):
        plain = pim_offload.run_offload("DOT", size="tiny")
        hooked = pim_offload.run_offload("DOT", size="tiny",
                                         audit=True, sanitize=True)
        assert hooked["pim"]["cycles"] == plain["pim"]["cycles"]
        assert hooked["match"]

    def test_gemv_scales_with_banks(self):
        """More banks per channel -> fewer PIM cycles (bank-parallel
        MAC_ABK is the dominant term)."""
        sweep = pim_offload.sweep_banks("GEMV", size="tiny",
                                        banks=(4, 8, 16))
        assert sweep["scales"], sweep["points"]
        cycles = [p["pim_cycles"] for p in sweep["points"]]
        assert cycles[0] > cycles[-1]

    def test_unknown_kernel_and_size_rejected(self):
        with pytest.raises(ValueError):
            pim_offload.run_offload("nope")
        with pytest.raises(ValueError):
            pim_offload.run_offload("GEMV", size="huge")


class TestAuditInvariants:
    """The checker-side negative paths (the engine itself validates its
    inputs, so violations are injected at the hook level)."""

    def _watched(self, banks=2):
        engine, channel = _engine(banks=banks)
        auditor = Auditor()
        channel._probe = auditor
        auditor.watch_channel(channel)
        engine._probe = auditor
        auditor.watch_pim(engine)
        return engine, channel, auditor

    def test_clean_command_stream(self):
        engine, _channel, auditor = self._watched()
        engine.execute(WrCrf(0, MicroOp("mac", dst=0)), 0.0)
        engine.execute(WrBias(0, 0.0), 1.0)
        engine.execute(WrGb([1.0] * engine.config.simd_width), 2.0)
        engine.execute(MacAbk(row=0, slot=0), 3.0)
        engine.execute(RdMac(bank=0), 99.0)
        assert auditor.clean, auditor.summary()

    def test_acc_read_before_write(self):
        engine, _channel, auditor = self._watched()
        engine.execute(WrCrf(0, MicroOp("mac", dst=0)), 0.0)
        # MAC reads its accumulator; no WR_BIAS ever initialized it.
        engine.execute(MacAbk(row=0, slot=0), 1.0)
        assert auditor.counts.get("pim-acc-uninit", 0) > 0

    def test_grf_bounds_hook(self):
        engine, _channel, auditor = self._watched()
        auditor.pim_grf(engine, "rd_mac", 0,
                        reads=(engine.config.grf_entries,))
        assert auditor.counts.get("pim-grf-bounds", 0) > 0

    def test_bank_occupancy_hooks(self):
        engine, _channel, auditor = self._watched()
        auditor.pim_bank_op(engine, "wr_bias", 0, 10.0,
                            start=10.0, ready_before=0.0,
                            ready_after=10.0)  # < start + 1
        assert auditor.counts.get("pim-bank-underoccupied", 0) > 0
        auditor.pim_bank_op(engine, "wr_bias", 0, 20.0,
                            start=20.0, ready_before=30.0,
                            ready_after=31.0)  # starts before ready
        assert auditor.counts.get("pim-bank-overlap", 0) > 0

    def test_bus_overlap_hook(self):
        engine, _channel, auditor = self._watched()
        auditor.pim_bus(engine, "wr_gb", 0.0, 6)
        auditor.pim_bus(engine, "wr_gb", 3.0, 6)  # overlaps the first
        assert auditor.counts.get("pim-bus-overlap", 0) > 0


class TestFenceSanitizer:
    def test_unfenced_commands_flagged(self):
        from repro.isa.program import kernel
        from repro.kernels.base import sync, tile_id
        from repro.session import Session

        @kernel("pim-unfenced-test", category="test")
        def unfenced(t, args):
            if tile_id(t) == 0:
                yield t.pim_issue(WrCrf(0, MicroOp("mac", dst=0)))
            yield from sync(t)

        session = Session(small_config(2, 2).with_pim(), sanitize=True)
        session.launch(unfenced, {})
        session.run()
        assert session.sanitizer.counts.get("pim-unfenced-commands", 0) > 0

    def test_fenced_stream_is_clean(self):
        report = pim_offload.run_offload("AXPY", size="tiny",
                                         sanitize=True)
        assert report["match"]


class TestCli:
    def test_kernels_lists_sides(self, capsys):
        from repro.cli import main
        assert main(["kernels"]) == 0
        out = capsys.readouterr().out
        assert "side" in out
        for name in OFFLOADS:
            assert name in out

    def test_pim_command_runs_comparison(self, capsys, tmp_path):
        from repro.cli import main
        out_path = tmp_path / "pim.json"
        code = main(["pim", "dot", "--size", "tiny", "--json",
                     "--out", str(out_path)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["match"] is True
        assert json.loads(out_path.read_text())["kernel"] == "DOT"

    def test_pim_command_unknown_kernel(self, capsys):
        from repro.cli import main
        assert main(["pim", "nope"]) == 2
        assert "unknown offload kernel" in capsys.readouterr().err

    def test_pim_command_requires_target(self, capsys):
        from repro.cli import main
        assert main(["pim"]) == 2
