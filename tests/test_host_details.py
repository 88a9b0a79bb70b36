"""RunResult collection details and translator totality."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import run
from repro.arch.config import small_config
from repro.arch.geometry import CellGeometry, ChipGeometry, NodeKind
from repro.isa.program import kernel
from repro.pgas import spaces
from repro.pgas.translate import TargetKind, Translator


class TestTailIdleAttribution:
    def test_imbalanced_launch_charges_idle(self, tiny_config):
        @kernel("skew")
        def skew(t, args):
            # One tile works 100x longer than the rest; no barrier, so
            # early finishers idle until the straggler completes.
            n = 2000 if t.group_rank == 0 else 20
            r = t.reg()
            top = t.loop_top()
            for i in range(n):
                yield t.alu(r)
                yield t.branch_back(top, taken=(i < n - 1))

        res = run(tiny_config, skew)
        assert res.core_breakdown.get("stall_idle", 0) > 0.5
        assert sum(res.core_breakdown.values()) == pytest.approx(1.0, abs=0.02)

    def test_balanced_launch_has_little_idle(self, tiny_config):
        @kernel("flat")
        def flat(t, args):
            r = t.reg()
            top = t.loop_top()
            for i in range(500):
                yield t.alu(r)
                yield t.branch_back(top, taken=(i < 499))

        res = run(tiny_config, flat)
        assert res.core_breakdown.get("stall_idle", 0) < 0.05

    def test_throughput_bounded_by_tiles(self, tiny_config):
        @kernel("flat2")
        def flat2(t, args):
            r = t.reg()
            top = t.loop_top()
            for i in range(200):
                yield t.alu(r)
                yield t.branch_back(top, taken=(i < 199))

        res = run(tiny_config, flat2)
        assert 0 < res.throughput <= res.num_tiles


class TestTranslatorTotality:
    """Every well-formed DRAM/SPM address lands on a real node."""

    @settings(max_examples=60)
    @given(
        offset=st.integers(0, (1 << 28) - 1),
        space=st.sampled_from(["local", "global"]),
    )
    def test_dram_addresses_hit_cache_nodes(self, offset, space):
        chip = ChipGeometry(CellGeometry(4, 4), cells_x=2, cells_y=2)
        tr = Translator(chip, 64, use_ipoly=True)
        addr = (spaces.local_dram(offset) if space == "local"
                else spaces.global_dram(offset))
        dest = tr.translate(addr, (1, 2))
        assert dest.kind is TargetKind.CACHE
        assert chip.kind_of(dest.node) is NodeKind.CACHE
        assert 0 <= dest.bank_index < chip.cell.num_banks

    @settings(max_examples=60)
    @given(cx=st.integers(0, 1), cy=st.integers(0, 1),
           offset=st.integers(0, (1 << 20) - 1))
    def test_group_dram_targets_requested_cell(self, cx, cy, offset):
        chip = ChipGeometry(CellGeometry(4, 4), cells_x=2, cells_y=2)
        tr = Translator(chip, 64, use_ipoly=True)
        dest = tr.translate(spaces.group_dram(cx, cy, offset), (0, 1))
        assert dest.cell_xy == (cx, cy)

    @settings(max_examples=40)
    @given(offset=st.integers(0, (1 << 22) - 64))
    def test_line_granularity(self, offset):
        """All words of a line land on the same bank."""
        chip = ChipGeometry(CellGeometry(4, 4), cells_x=2, cells_y=2)
        tr = Translator(chip, 64, use_ipoly=True)
        line_base = (offset // 64) * 64
        nodes = {
            tr.translate(spaces.local_dram(line_base + 4 * w), (0, 1)).node
            for w in range(16)
        }
        assert len(nodes) == 1
