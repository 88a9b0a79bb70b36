"""The race checker: fixture detection, timing neutrality, suite cleanliness."""

import json

import pytest

from repro.arch.config import HB_16x8, small_config
from repro.arch.params import BarrierTiming
from repro.isa.program import kernel
from repro.kernels import registry
from repro.kernels.base import tile_id
from repro.noc.barrier import HwBarrierGroup, SwBarrierGroup
from repro.pgas import spaces
from repro.sanitize import (
    DEADLOCK_FIXTURE,
    FIXTURE,
    SanitizeConfig,
    Sanitizer,
    fixture_args,
    format_report,
    sanitize_report,
)
from repro.sanitize.fixture import SHARED_OFF, SPM_UNWRITTEN_OFF, STAGE_OFF
from repro.session import Session, run

#: Same pins as tests/test_engine_golden.py and tests/test_trace.py: the
#: sanitizer must not move a single cycle, on or off.
GOLDEN_CYCLES = {"AES": 4743, "PR": 2686}


def _run_fixture(config, sanitize=True, clean=False, kern=FIXTURE):
    session = Session(config, sanitize=sanitize)
    session.launch(kern, fixture_args(clean=clean))
    result = session.run()[0]
    return session, result


class TestFixture:
    def test_racy_mode_is_flagged(self, tiny_config):
        session, _result = _run_fixture(tiny_config)
        san = session.sanitizer
        assert not san.clean
        assert san.counts["data-race"] >= 2
        assert san.counts["uninit-read"] == 1
        details = {f.detail for f in san.findings if f.kind == "data-race"}
        assert any("prior store never fenced" in d for d in details)

    def test_clean_mode_is_clean(self, tiny_config):
        session, _result = _run_fixture(tiny_config, clean=True)
        assert session.sanitizer.clean
        assert session.sanitizer.ops_checked > 0

    def test_sanitize_is_cycle_neutral(self, tiny_config):
        _s_on, on = _run_fixture(tiny_config, sanitize=True)
        _s_off, off = _run_fixture(tiny_config, sanitize=False)
        assert on.cycles == off.cycles

    def test_result_carries_sanitizer(self, tiny_config):
        # The findings, not the live checker (tests/test_result_lifecycle.py
        # pins the rest of that contract).
        session, result = _run_fixture(tiny_config)
        assert result.sanitize is not session.sanitizer
        assert result.sanitize.report() == session.sanitizer.report()

    def test_findings_carry_disassembly_and_coords(self, tiny_config):
        session, _result = _run_fixture(tiny_config)
        race = next(f for f in session.sanitizer.findings
                    if f.kind == "data-race")
        assert "store" in race.access["op"]
        assert race.access["pc"] >= 0
        assert isinstance(race.access["tile"], list)
        assert race.other is not None
        assert race.addr.startswith(("dram(", "spm["))


class TestGoldenCycles:
    @pytest.mark.parametrize("name", sorted(GOLDEN_CYCLES))
    def test_sanitized_run_is_cycle_identical(self, name):
        bench = registry.SUITE[name]
        result = run(HB_16x8, bench.kernel, registry.fast_args(name),
                     sanitize=True)
        assert result.cycles == GOLDEN_CYCLES[name]
        assert result.sanitize.clean


class TestSuiteClean:
    """The tentpole's bar: every paper kernel is sanitizer-clean."""

    @pytest.mark.parametrize("name", sorted(registry.SUITE))
    def test_kernel_is_clean(self, name):
        bench = registry.SUITE[name]
        result = run(HB_16x8, bench.kernel, registry.fast_args(name),
                     sanitize=True)
        san = result.sanitize
        assert san.clean, san.summary()
        assert san.ops_checked > 0


class TestSuppression:
    def test_suppress_kind(self, tiny_config):
        config = SanitizeConfig(suppress=("data-race",))
        session, _result = _run_fixture(tiny_config, sanitize=config)
        assert "data-race" not in session.sanitizer.counts
        assert session.sanitizer.counts["uninit-read"] == 1

    def test_allow_ranges(self, tiny_config):
        session = Session(tiny_config, sanitize=True)
        san = session.sanitizer
        san.allow(spaces.local_dram(SHARED_OFF))
        san.allow(spaces.local_dram(STAGE_OFF))
        san.allow(spaces.group_spm(1, 1, SPM_UNWRITTEN_OFF))
        session.launch(FIXTURE, fixture_args())
        session.run()
        assert san.clean, san.summary()

    def test_racy_annotation(self, tiny_config):
        @kernel("RacyOk", dwarf="diagnostic", category="fixture")
        def racy_ok(t, args):
            v = t.reg()
            yield t.alu(dst=v)
            # Every tile hits one word, but the access is annotated.
            yield t.store(t.local_dram(0x9300), srcs=[v], racy=True)

        session = Session(tiny_config, sanitize=True)
        session.launch(racy_ok)
        session.run()
        assert session.sanitizer.clean


class TestBarrierMisuse:
    def test_deadlock_is_reported(self, tiny_config):
        session = Session(tiny_config, sanitize=True)
        session.launch(DEADLOCK_FIXTURE)
        with pytest.raises(RuntimeError):
            session.run()
        san = session.sanitizer
        assert san.counts.get("barrier-deadlock") == 1
        finding = next(f for f in san.findings
                       if f.kind == "barrier-deadlock")
        assert "incomplete" in finding.detail

    def test_non_member_join(self, tiny_machine):
        san = Sanitizer()
        san.bind(tiny_machine)
        members = sorted(tiny_machine.cores)[:4]
        group = HwBarrierGroup(tiny_machine.sim, members, BarrierTiming())
        group._probe = san
        with pytest.raises(ValueError):
            group.arrive((99, 99), 0.0)
        assert san.counts.get("barrier-non-member") == 1


# Local-DRAM offsets clear of the runtime page and the fixture's words.
_DATA, _FLAG, _ACK = 0x9400, 0x9500, 0x9600


def _handoff_kernel(fenced):
    """Tile 0 publishes a word and raises a flag with an AMO; tile 1
    spins on the flag, reads the word, and acks.  The ack pins the
    observation order: tile 1's read always precedes tile 0's kernel-end
    drain, so the unfenced variant races deterministically."""

    @kernel("AmoHandoff", dwarf="diagnostic", category="fixture")
    def handoff(t, args):
        tid = tile_id(t)
        v = t.reg()
        yield t.alu(dst=v)
        if tid == 0:
            yield t.store(t.local_dram(_DATA), srcs=[v])
            if fenced:
                yield t.fence()
            yield t.amoor(t.local_dram(_FLAG), 1)
            top = t.loop_top()
            while True:
                got = yield t.amoadd(t.local_dram(_ACK), 0)
                yield t.branch_back(top, taken=(got == 0))
                if got:
                    break
        elif tid == 1:
            top = t.loop_top()
            while True:
                got = yield t.amoadd(t.local_dram(_FLAG), 0)
                yield t.branch_back(top, taken=(got == 0))
                if got:
                    break
            ld = t.load(t.local_dram(_DATA))
            yield ld
            yield t.amoor(t.local_dram(_ACK), 1)

    return handoff


class TestAmoEdges:
    def test_fence_then_amo_flag_is_clean(self, tiny_config):
        session = Session(tiny_config, sanitize=True)
        session.launch(_handoff_kernel(fenced=True))
        session.run()
        assert session.sanitizer.clean, session.sanitizer.summary()

    def test_unfenced_amo_flag_races(self, tiny_config):
        session = Session(tiny_config, sanitize=True)
        session.launch(_handoff_kernel(fenced=False))
        session.run()
        san = session.sanitizer
        assert san.counts.get("data-race") == 1
        finding = san.findings[0]
        assert finding.detail == "store-load (prior store never fenced)"


class TestSwBarrierFallback:
    """The software-barrier path (hw_barrier=False): satellite 3."""

    @pytest.fixture
    def sw_config(self):
        return small_config(4, 4).with_features(hw_barrier=False)

    def test_uses_sw_barrier_and_completes(self, sw_config):
        session = Session(sw_config, sanitize=True)
        session.launch(FIXTURE, fixture_args(clean=True))
        result = session.run()[0]
        barrier = session.cell().groups[0].barrier
        assert isinstance(barrier, SwBarrierGroup)
        assert barrier.epochs >= 3  # the clean fixture joins 3 barriers
        assert result.cycles > 0

    def test_sw_barrier_is_an_ordering_edge(self, sw_config):
        # The clean fixture's SPM handoff is ordered *only* by the
        # barrier: if the SW path were not a release/acquire edge the
        # sanitizer would flag the cross-tile scratchpad read.
        session, _result = _run_fixture(sw_config, clean=True)
        assert session.sanitizer.clean, session.sanitizer.summary()

    def test_sw_barrier_still_detects_races(self, sw_config):
        session, _result = _run_fixture(sw_config, clean=False)
        assert session.sanitizer.counts["data-race"] >= 2
        assert session.sanitizer.counts["uninit-read"] == 1

    def test_sw_barrier_is_slower_than_hw(self, sw_config, tiny_config):
        _s_sw, sw = _run_fixture(sw_config, clean=True)
        _s_hw, hw = _run_fixture(tiny_config, clean=True)
        assert sw.cycles > hw.cycles  # Fig 4's scalability gap


class TestReport:
    def test_json_report_round_trips(self, tiny_config):
        session, _result = _run_fixture(tiny_config)
        report = sanitize_report(session.sanitizer)
        parsed = json.loads(json.dumps(report))
        assert parsed["clean"] is False
        assert parsed["counts"]["uninit-read"] == 1
        assert parsed["findings_recorded"] == len(session.sanitizer.findings)

    def test_text_report_mentions_every_kind(self, tiny_config):
        session, _result = _run_fixture(tiny_config)
        text = format_report(sanitize_report(session.sanitizer))
        assert "data-race" in text
        assert "uninit-read" in text
        assert "never fenced" in text

    def test_clean_report_is_one_line(self, tiny_config):
        session, _result = _run_fixture(tiny_config, clean=True)
        text = session.sanitizer.summary()
        assert text.startswith("sanitize: clean")

    def test_max_findings_caps_recording_not_counting(self, tiny_config):
        config = SanitizeConfig(max_findings=1)
        session, _result = _run_fixture(tiny_config, sanitize=config)
        san = session.sanitizer
        assert len(san.findings) == 1
        assert sum(san.counts.values()) > 1


class TestCli:
    def test_sanitize_fixture_exits_nonzero(self, capsys):
        from repro.cli import main

        assert main(["sanitize", "fixture"]) == 1
        out = capsys.readouterr().out
        assert "data-race" in out
        assert "uninit-read" in out

    def test_sanitize_clean_kernel_exits_zero(self, capsys):
        from repro.cli import main

        assert main(["sanitize", "aes", "--size", "tiny"]) == 0
        assert "sanitize: clean" in capsys.readouterr().out

    def test_sanitize_json_output(self, capsys, tmp_path):
        from repro.cli import main

        out_path = tmp_path / "san.json"
        code = main(["sanitize", "fixture", "--json",
                     "--out", str(out_path)])
        assert code == 1
        printed = json.loads(capsys.readouterr().out)
        written = json.loads(out_path.read_text())
        assert printed == written
        assert written["kernel"] == "fixture"
        assert written["clean"] is False

    def test_sanitize_unknown_kernel(self, capsys):
        from repro.cli import main

        assert main(["sanitize", "nosuchkernel"]) == 2

    def test_sanitize_missing_target(self, capsys):
        from repro.cli import main

        assert main(["sanitize"]) == 2

    def test_kernels_lists_the_registry(self, capsys):
        from repro.cli import main

        assert main(["kernels"]) == 0
        out = capsys.readouterr().out
        for name in registry.SUITE:
            assert name in out
        assert "fixture" in out
