"""The kernel-authoring helpers in kernels.base, driven on a machine."""

import pytest

from repro import run
from repro.arch.config import small_config
from repro.isa.program import kernel
from repro.kernels.base import (
    copy_dram_to_spm,
    copy_spm_to_dram,
    stream_dram_block,
    sync,
)


@pytest.fixture(scope="module")
def cfg():
    return small_config(2, 2)


class TestCopyHelpers:
    def test_copy_dram_to_spm_touches_both(self, cfg):
        @kernel("stage")
        def stage(t, args):
            yield from copy_dram_to_spm(t, 0x10000, 0, 32)
            yield from sync(t)

        res = run(cfg, stage, keep_machine=True)
        spms = res.machine.memsys.spms
        # 32 words stored into each tile's SPM.
        assert all(s.counters.get("writes") == 0 for s in spms.values())
        # (local stores reserve the port but are pipeline-side; check the
        # DRAM side instead)
        reads = sum(b.counters.get("load_hits") + b.counters.get("load_misses")
                    for b in res.machine.memsys.banks.values())
        assert reads > 0

    def test_copy_handles_non_multiple_of_four(self, cfg):
        @kernel("stage7")
        def stage7(t, args):
            yield from copy_dram_to_spm(t, 0x10000, 0, 7)
            yield from sync(t)

        res = run(cfg, stage7)
        assert res.cycles > 0

    def test_copy_spm_to_dram_stores(self, cfg):
        @kernel("spill")
        def spill(t, args):
            yield from copy_spm_to_dram(t, 0, 0x20000, 16)
            yield from sync(t)

        res = run(cfg, spill, keep_machine=True)
        stores = sum(b.counters.get("store_hits")
                     + b.counters.get("store_misses")
                     for b in res.machine.memsys.banks.values())
        assert stores == 16 * res.num_tiles

    def test_stream_block_reads_sequentially(self, cfg):
        @kernel("stream")
        def stream(t, args):
            yield from stream_dram_block(t, 0x30000, 64)
            yield from sync(t)

        res = run(cfg, stream, keep_machine=True)
        # 64 words = 16 vloads per tile, single compressed flit each.
        assert res.network["packets"] >= 16 * res.num_tiles

    def test_sync_is_fence_plus_barrier(self, cfg):
        @kernel("s")
        def s(t, args):
            yield t.store(t.local_dram(0), srcs=[])
            yield from sync(t)
            args.setdefault("order", []).append(t.group_rank)

        args = {}
        run(cfg, s, args)
        assert sorted(args["order"]) == list(range(4))


class TestCompressionInteraction:
    def test_copy_faster_with_compression(self):
        from repro.arch.config import FeatureSet

        @kernel("stage")
        def stage(t, args):
            yield from copy_dram_to_spm(t, 0x10000, 0, 64)
            yield from sync(t)

        on = run(small_config(2, 2), stage)
        off_cfg = small_config(2, 2,
                               features=FeatureSet(load_compression=False))
        off = run(off_cfg, stage)
        assert on.cycles <= off.cycles
