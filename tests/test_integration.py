"""Cross-module integration scenarios on small machines."""

import numpy as np
import pytest

from repro import Session, run
from repro.arch.config import FeatureSet, MachineConfig, small_config
from repro.arch.geometry import CellGeometry
from repro.isa.program import kernel
from repro.kernels.base import num_tiles, range_split, sync, tile_id
from repro.runtime.machine import Machine


class TestProducerConsumer:
    """The Fig 6 pattern end-to-end (miniature of the example)."""

    def test_cross_cell_flag_handoff(self):
        @kernel("prod")
        def prod(t, args):
            v = t.reg()
            yield t.alu(v)
            yield t.store(args["out_ptr"] + 4 * t.group_rank, srcs=[v])
            yield from sync(t)
            if t.group_rank == 0:
                yield t.amoadd(args["flag_ptr"], 1)
                args["shared"]["ready_at"] = True
            yield t.fence()

        @kernel("cons")
        def cons(t, args):
            spins = 0
            while True:
                flag = yield t.amoadd(t.local_dram(args["flag"]), 0)
                if flag > 0:
                    break
                spins += 1
                yield t.sleep(32)
            args["shared"].setdefault("spins", []).append(spins)
            yield t.barrier()

        cfg = MachineConfig(name="pc", cell=CellGeometry(2, 2), cells_x=2)
        machine = Machine(cfg)
        c0, c1 = machine.cell(0, 0), machine.cell(1, 0)
        data = c1.malloc(256)
        flag = c1.malloc(64)
        shared = {}
        c0.load_kernel(prod)
        h0 = c0.launch({"out_ptr": c1.group_dram(data),
                        "flag_ptr": c1.group_dram(flag), "shared": shared})
        c1.load_kernel(cons)
        h1 = c1.launch({"flag": flag, "shared": shared})
        machine.run()
        assert h0.finished and h1.finished
        assert c1.peek(flag) == 1
        assert shared["ready_at"]

    def test_concurrent_different_kernels(self):
        @kernel("spin")
        def spin(t, args):
            for _ in range(args["n"]):
                yield t.alu(t.reg())
            yield t.barrier()

        session = Session(MachineConfig(name="pc", cell=CellGeometry(2, 2),
                                        cells_x=2))
        session.launch(spin, {"n": 10}, cell=(0, 0))
        session.launch(spin, {"n": 1000}, cell=(1, 0))
        results = session.run()
        assert results[1].cycles > results[0].cycles


class TestGroupSpmPatterns:
    def test_neighbour_exchange(self):
        """Every tile writes its SPM then reads its east neighbour's."""

        @kernel("ring")
        def ring(t, args):
            v = t.reg()
            yield t.alu(v)
            yield t.store(t.spm(0), srcs=[v])
            yield from sync(t)
            gw, _gh = t.group_shape
            px = t.tile_x % gw
            if px < gw - 1:
                ld = t.load(t.group_spm_ptr(1, 0, 0))
                yield ld
                yield t.alu(t.reg(), [ld.dst])
            yield from sync(t)

        res = run(small_config(4, 4), ring, keep_machine=True)
        spms = res.machine.memsys.spms
        # Three of four columns read a neighbour: 12 remote reads total.
        reads = sum(s.counters.get("reads") for s in spms.values())
        assert reads == 12

    def test_systolic_row_pipeline(self):
        """Values propagate west->east through scratchpads with barriers."""
        log = {}

        @kernel("systolic")
        def systolic(t, args):
            gw, _gh = t.group_shape
            px = t.tile_x % gw
            acc = t.reg()
            yield t.alu(acc)
            yield t.store(t.spm(0), srcs=[acc])
            for step in range(gw - 1):
                yield from sync(t)
                if px > 0:
                    ld = t.load(t.group_spm_ptr(-1, 0, 0))
                    yield ld
                    yield t.alu(acc, [acc, ld.dst])
                    yield t.store(t.spm(0), srcs=[acc])
            yield from sync(t)
            log.setdefault("done", []).append(t.group_rank)

        res = run(small_config(4, 4), systolic)
        assert len(log["done"]) == 16
        assert res.cycles > 0


class TestChipWideGlobalSpace:
    def test_global_reduction_across_cells(self):
        @kernel("global_sum")
        def global_sum(t, args):
            yield t.amoadd(t.global_dram(0), 1)
            yield t.fence()
            yield t.barrier()

        cfg = MachineConfig(name="quad", cell=CellGeometry(2, 2),
                            cells_x=2, cells_y=2)
        machine = Machine(cfg)
        handles = []
        for xy in cfg.chip.cells():
            cell = machine.cell(*xy)
            cell.load_kernel(global_sum)
            handles.append(cell.launch())
        machine.run()
        assert all(h.finished for h in handles)
        from repro.pgas import spaces

        total = machine.memsys.peek(spaces.global_dram(0), (0, 1))
        assert total == 16  # every tile on the chip incremented once


class TestRobustness:
    def test_deadlocked_kernel_reported(self, tiny_machine, cell):
        @kernel("hang")
        def hang(t, args):
            # Rank 0 never joins: the barrier can never release.
            if t.group_rank != 0:
                yield t.barrier()
            else:
                yield t.alu(t.reg())

        cell.load_kernel(hang)
        handle = cell.launch()
        with pytest.raises(RuntimeError, match="did not finish"):
            tiny_machine.run_to_completion([handle])

    def test_runaway_kernel_hits_event_guard(self, tiny_machine, cell):
        from repro.engine import SimulationError

        @kernel("forever")
        def forever(t, args):
            while True:
                yield t.amoadd(t.local_dram(0), 0)

        cell.load_kernel(forever)
        cell.launch()
        with pytest.raises(SimulationError, match="max_events"):
            tiny_machine.run(max_events=20_000)

    def test_kernel_exception_propagates(self, tiny_machine, cell):
        @kernel("boom")
        def boom(t, args):
            yield t.alu(t.reg())
            raise ValueError("kernel bug")

        cell.load_kernel(boom)
        cell.launch()
        with pytest.raises(ValueError, match="kernel bug"):
            tiny_machine.run()

    def test_feature_combinations_all_run(self):
        """Every single-feature machine completes the mixed kernel."""
        import dataclasses

        @kernel("mixed")
        def mixed(t, args):
            vl = t.vload(t.local_dram(0))
            yield vl
            acc = t.reg()
            for r in vl.dsts:
                yield t.fma(acc, [acc, r])
            yield t.store(t.local_dram(64), srcs=[acc])
            yield t.amoadd(t.local_dram(128), 1)
            yield t.fence()
            yield t.barrier()

        for field in dataclasses.fields(FeatureSet):
            feats = FeatureSet(**{field.name: False})
            res = run(small_config(2, 2, features=feats), mixed)
            assert res.cycles > 0, field.name
