"""The profiling tools: blame analysis and spatial heatmaps."""

import pytest

from repro import run
from repro.arch.config import small_config
from repro.isa.program import kernel
from repro.kernels.registry import SUITE, fast_args
from repro.profile import (
    cell_report,
    diagnose,
    full_report,
    render_grid,
    tile_finish_map,
    tile_utilization_map,
)


@pytest.fixture(scope="module")
def cfg():
    return small_config(4, 4)


class TestDiagnose:
    def test_compute_kernel_diagnosed_compute_bound(self, cfg):
        res = run(cfg, SUITE["SW"].kernel, fast_args("SW"))
        d = diagnose(res)
        assert d.verdict in ("compute-bound", "FP-pipeline-bound",
                             "frontend-bound")
        assert d.findings and d.suggestions

    def test_memory_kernel_diagnosed_memory_bound(self, cfg):
        res = run(cfg, SUITE["PR"].kernel, fast_args("PR"))
        d = diagnose(res)
        assert "memory" in d.verdict or "synchronization" in d.verdict

    def test_latency_bound_suggests_unrolling(self, cfg):
        @kernel("pointer-chase")
        def chase(t, args):
            for i in range(60):
                ld = t.load(t.local_dram(64 * (i * 977 % 4096)))
                yield ld
                yield t.alu(t.reg(), [ld.dst])  # consume immediately
            yield t.fence()
            yield t.barrier()

        res = run(cfg, chase)
        d = diagnose(res)
        assert "memory" in d.verdict
        if "underutilized" in d.verdict:
            assert any("unroll" in s for s in d.suggestions)

    def test_render_is_text(self, cfg):
        res = run(cfg, SUITE["AES"].kernel, fast_args("AES"))
        text = diagnose(res).render()
        assert "verdict:" in text
        assert "suggestions:" in text


class TestHeatmaps:
    def test_render_grid_shades(self):
        values = {(0, 0): 0.0, (1, 0): 0.5, (2, 0): 1.0}
        text = render_grid(values, cols=3, rows=1, title="t")
        assert "t (peak=1)" in text
        assert "@" in text  # the hot cell

    def test_render_grid_empty(self):
        text = render_grid({}, cols=2, rows=2)
        assert "|  |" in text

    def test_tile_maps_cover_tiles(self, cfg):
        res = run(cfg, SUITE["AES"].kernel, fast_args("AES"),
                  keep_machine=True)
        util = tile_utilization_map(res.machine)
        finish = tile_finish_map(res.machine)
        assert len(util) == 16
        assert len(finish) == 16
        assert all(0 <= v <= 1 for v in util.values())

    def test_cell_report_metrics(self, cfg):
        res = run(cfg, SUITE["SpGEMM"].kernel, fast_args("SpGEMM"),
                  keep_machine=True)
        for metric in ("utilization", "finish", "bank_accesses",
                       "router_load"):
            text = cell_report(res.machine, metric)
            assert metric in text

    def test_cell_report_rejects_unknown(self, cfg):
        res = run(cfg, SUITE["AES"].kernel, fast_args("AES"),
                  keep_machine=True)
        with pytest.raises(ValueError):
            cell_report(res.machine, "temperature")

    def test_full_report(self, cfg):
        res = run(cfg, SUITE["BH"].kernel, fast_args("BH"),
                  keep_machine=True)
        text = full_report(res.machine)
        assert text.count("peak=") == 4

    def test_camping_visible_without_ipoly(self):
        """The heatmap shows the partition-camping hot bank."""
        from repro.arch.config import FeatureSet
        from repro.profile import bank_access_map

        cfg = small_config(4, 4, features=FeatureSet(ipoly_hashing=False))
        res = run(cfg, SUITE["BH"].kernel, fast_args("BH"),
                  keep_machine=True)
        accesses = list(bank_access_map(res.machine).values())
        top = max(accesses)
        mean = sum(accesses) / len(accesses)
        assert top > 2.5 * mean  # one bank is hammered
