"""repro.pdes: conservative-window multi-Cell simulation.

The load-bearing claims pinned here:

* determinism -- ``workers=1`` and ``workers=N`` are bit-identical
  (same fingerprint) on suite kernels and on the cross-Cell fixtures,
  for every legal window size and any message-arrival interleaving;
* safety -- the window never exceeds the inter-Cell lookahead, and the
  lookahead really is the zero-load latency floor;
* the chip-scale validation -- ``project_chip``'s conservative analytic
  estimate upper-bounds the truly simulated multi-Cell cycles.
"""

import pickle

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.arch.config import small_config
from repro.experiments.chip_scale import simulate_chip
from repro.experiments.common import suite_args
from repro.pdes import (
    CellsResult,
    LaunchSpec,
    PdesError,
    intercell_lookahead,
    min_intercell_hops,
    resolve_kernel,
    resolve_workers,
    run_cells,
    sort_key,
)
from repro.pdes import fixture as xfix
from repro.pdes.channel import (ARRIVAL, FLITS, KIND, PAYLOAD, REQUEST,
                                 RESPONSE)
from repro.pdes.coordinator import WORKER_BUDGET_ENV
from repro.pdes.shard import CellShard, ShardSpec, kernel_ref


def grid(cells_x=2, cells_y=1, tiles=4):
    return small_config(tiles, tiles).with_geometry(cells_x=cells_x,
                                                    cells_y=cells_y)


def suite_launches(config, name, size="tiny", remote=True):
    return [LaunchSpec(cell=xy, kernel=name, args=suite_args(name, size),
                       remote=remote)
            for xy in config.chip.cells()]


# ---------------------------------------------------------------------------
# Determinism: 1 worker == N workers, bit for bit.

class TestDeterminism:
    @pytest.mark.parametrize("name", ["AES", "PR", "BS"])
    def test_suite_kernels_bit_identical(self, name):
        """Three suite kernels: serial and parallel fingerprints match."""
        cfg = grid(2, 1)
        serial = run_cells(cfg, suite_launches(cfg, name), workers=1)
        parallel = run_cells(cfg, suite_launches(cfg, name), workers=2)
        assert serial.workers == 1 and parallel.workers == 2
        assert serial.fingerprint() == parallel.fingerprint()

    def test_exchange_fixture_bit_identical_and_audited(self):
        cfg = grid(2, 1)
        launches = lambda: xfix.exchange_launches(cfg, words=64)  # noqa: E731
        serial = run_cells(cfg, launches(), workers=1, audit=True)
        parallel = run_cells(cfg, launches(), workers=2, audit=True)
        assert serial.fingerprint() == parallel.fingerprint()
        assert serial.messages > 0
        assert serial.clean and parallel.clean

    def test_pipeline_fixture_bit_identical_2x2(self):
        cfg = grid(2, 2)
        launches = lambda: xfix.pipeline_launches(cfg, words=32)  # noqa: E731
        fps = {run_cells(cfg, launches(), workers=w).fingerprint()
               for w in (1, 2, 4)}
        assert len(fps) == 1

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(window=st.integers(min_value=1, max_value=6),
           seed=st.integers(min_value=0, max_value=2**16))
    def test_any_window_any_interleaving(self, window, seed):
        """Parallel delivery order and window size never change results.

        The jitter seed shuffles each round's message batch before the
        canonical sort (standing in for OS-dependent arrival order);
        the serial reference uses the same window, no jitter.
        """
        cfg = grid(2, 1)
        if window > intercell_lookahead(cfg):  # pragma: no cover - W=6 is max
            window = int(intercell_lookahead(cfg))
        launches = lambda: xfix.exchange_launches(cfg, words=16)  # noqa: E731
        ref = run_cells(cfg, launches(), workers=1, window=window)
        jittered = run_cells(cfg, launches(), workers=2, window=window,
                             _jitter_seed=seed)
        assert ref.fingerprint() == jittered.fingerprint()


# ---------------------------------------------------------------------------
# The conservative window: lookahead floor and its enforcement.

class TestLookahead:
    def test_lookahead_is_zero_load_floor(self):
        """inject + min_hops * (router + link) + eject, min_hops == 2."""
        cfg = grid(2, 2)
        noc = cfg.timings.noc
        hops = min_intercell_hops(cfg)
        assert hops == 2  # cache strips on the Cell edges: 2-hop floor
        expect = (noc.inject_latency
                  + hops * (noc.router_latency + noc.link_cycles_per_flit)
                  + noc.eject_latency)
        assert intercell_lookahead(cfg) == expect

    def test_no_message_beats_the_lookahead(self):
        """Every delivered cross-Cell message costs >= the lookahead --
        the property that makes advancing shards to T+W safe.  A
        violation would schedule an event in a shard's past and the
        engine raises, so a clean traffic-heavy run is the assertion;
        spot-check the run's window against the analytic floor too."""
        cfg = grid(2, 1)
        res = run_cells(cfg, xfix.exchange_launches(cfg, words=16), workers=1)
        assert res.window <= res.lookahead == intercell_lookahead(cfg)
        assert res.messages > 0

    def test_window_must_fit_the_lookahead(self):
        cfg = grid(2, 1)
        launches = xfix.exchange_launches(cfg, words=16)
        with pytest.raises(ValueError, match="window"):
            run_cells(cfg, launches, window=0)
        with pytest.raises(ValueError, match="window"):
            run_cells(cfg, launches, window=intercell_lookahead(cfg) + 1)

    def test_single_cell_config_rejected(self):
        with pytest.raises(ValueError, match="multi-Cell"):
            run_cells(small_config(4, 4), [])

    def test_launch_on_unknown_cell_rejected(self):
        cfg = grid(2, 1)
        bad = [LaunchSpec(cell=(5, 5), kernel="AES",
                          args=suite_args("AES", "tiny"))]
        with pytest.raises(ValueError, match="not on this chip"):
            run_cells(cfg, bad)


# ---------------------------------------------------------------------------
# Cross-Cell traffic accounting.

class TestTraffic:
    def test_exchange_counts_balance(self):
        """Every message sent by some shard is received by another, and
        the AMO flags prove the payload protocol completed."""
        cfg = grid(2, 1)
        res = run_cells(cfg, xfix.exchange_launches(cfg, words=32), workers=2)
        total_sent = sum(s["sent"] for s in res.shards)
        total_received = sum(s["received"] for s in res.shards)
        assert total_sent == total_received == res.messages > 0
        for shard in res.shards:
            flags = {k: v for k, v in shard["atomic_mem"].items()
                     if str(xfix.FLAG_OFFSET) in k}
            assert 1 in flags.values()  # my inbound block arrived

    def test_rounds_and_progress(self):
        cfg = grid(2, 2)
        res = run_cells(cfg, xfix.exchange_launches(cfg, words=16), workers=2)
        assert res.rounds > 0
        assert all(c > 0 for c in res.cycles)
        assert res.aggregate_cycles >= res.max_cycles
        assert len(res.shards) == 4

    def test_messages_pickle_roundtrip(self):
        req = (42.0, (0, 0), 3, REQUEST, (1, 0), (1, 1), (5, 0), 2, 7,
               0x8040, True, 4, 1)
        clone = pickle.loads(pickle.dumps(req))
        assert clone == req
        assert sort_key(clone) == sort_key(req) == (42.0, (0, 0), 3)
        assert (clone[FLITS], clone[KIND]) == (2, REQUEST)
        resp = (50.0, (1, 0), 9, RESPONSE, (0, 0), (4, 0), (1, 1), 1, 7, 5)
        clone = pickle.loads(pickle.dumps(resp))
        assert clone[PAYLOAD] == 5 and clone[ARRIVAL] == 50.0
        assert clone[KIND] == RESPONSE
        # Records sort into delivery order on their own.
        assert sorted([resp, req]) == sorted([resp, req], key=sort_key)


# ---------------------------------------------------------------------------
# Kernels travel by import path.

class TestKernelRefs:
    def test_roundtrip_fixture_kernel(self):
        ref = kernel_ref(xfix.EXCHANGE)
        assert ref.startswith("repro.pdes.fixture:")
        assert resolve_kernel(ref) is xfix.EXCHANGE

    def test_suite_name_resolves(self):
        from repro.kernels.registry import SUITE

        assert resolve_kernel("AES") is SUITE["AES"].kernel

    def test_bad_refs_rejected(self):
        with pytest.raises(ValueError, match="neither a suite name"):
            resolve_kernel("NOPE")
        with pytest.raises(TypeError, match="not a Kernel"):
            resolve_kernel("repro.pdes.fixture:BUF_OFFSET")

    def test_non_module_level_kernel_rejected(self):
        from repro.isa.program import kernel

        @kernel("local-only")
        def local_kernel(t, args):
            yield t.fence()

        with pytest.raises(PdesError, match="import path"):
            kernel_ref(local_kernel)


# ---------------------------------------------------------------------------
# Shard isolation: one Cell per shard, foreign state untouchable.

class TestShardIsolation:
    def test_foreign_cell_untouchable(self):
        from repro.arch import serialize

        cfg = grid(2, 1)
        spec = ShardSpec(config=serialize.to_dict(cfg), cell=(0, 0))
        shard = CellShard(spec)
        other = shard.machine.cells[(1, 0)]
        with pytest.raises(RuntimeError, match="owning shard"):
            other.poke(0, 1)
        with pytest.raises(RuntimeError, match="owning shard"):
            other.peek(0)
        # Address arithmetic stays usable (the Fig 6 pointer idiom):
        # pointers into a foreign Cell differ only in the cell bits.
        own = shard.machine.cells[(0, 0)]
        assert other.group_dram(64) != own.group_dram(64)
        assert other.malloc(64) == own.malloc(64)

    def test_concurrent_launches_on_one_cell_rejected(self, tiny_machine):
        """Two in-flight launches would hand one core two programs."""
        from repro.kernels.registry import SUITE

        cell = tiny_machine.cell(0, 0)
        cell.load_kernel(SUITE["AES"].kernel)
        cell.launch(suite_args("AES", "tiny"))
        with pytest.raises(RuntimeError, match="in flight"):
            cell.launch(suite_args("AES", "tiny"))


# ---------------------------------------------------------------------------
# Worker budgeting (the orch composability contract, PDES side).

class TestWorkerBudget:
    def test_clamps_to_env_budget(self, monkeypatch):
        monkeypatch.setenv(WORKER_BUDGET_ENV, "2")
        assert resolve_workers(8) == 2
        assert resolve_workers(1) == 1

    def test_clamps_to_shard_count(self, monkeypatch):
        monkeypatch.delenv(WORKER_BUDGET_ENV, raising=False)
        assert resolve_workers(8, num_shards=2) == 2
        assert resolve_workers(0, num_shards=2) == 1

    def test_bad_budget_raises(self, monkeypatch):
        monkeypatch.setenv(WORKER_BUDGET_ENV, "lots")
        with pytest.raises(PdesError, match=WORKER_BUDGET_ENV):
            resolve_workers(4)

    def test_run_cells_obeys_budget(self, monkeypatch):
        """Under a budget of 1 the run silently degrades to serial mode
        -- no nested pool oversubscription."""
        monkeypatch.setenv(WORKER_BUDGET_ENV, "1")
        cfg = grid(2, 1)
        res = run_cells(cfg, xfix.exchange_launches(cfg, words=16), workers=4)
        assert res.workers == 1


# ---------------------------------------------------------------------------
# The Session front end.

class TestSessionCells:
    def test_plan_poke_launch_run(self):
        from repro import Session

        sess = Session(small_config(4, 4), cells=(2, 1), workers=2,
                       audit=True)
        src, dst = sess.cell(0, 0), sess.cell(1, 0)
        dst.poke(xfix.FLAG_OFFSET, 0)
        words = 16
        sess.launch(xfix.PRODUCE, cell=(0, 0), args={
            "words": words,
            "out_ptr": dst.group_dram(xfix.BUF_OFFSET),
            "flag_out": dst.group_dram(xfix.FLAG_OFFSET)})
        sess.launch(xfix.CONSUME, cell=(1, 0), args={
            "words": words, "flag_in": xfix.FLAG_OFFSET})
        res = sess.run()
        assert isinstance(res, CellsResult)
        assert res is sess.pdes
        assert res.clean and len(res.shards) == 2
        flag_key = repr(((1, 0), xfix.FLAG_OFFSET))
        assert res.shards[1]["atomic_mem"][flag_key] == 1

    def test_plan_cell_is_pure_arithmetic(self):
        from repro import Session

        sess = Session(small_config(4, 4), cells=(2, 1))
        cell = sess.cell(1, 0)
        a = cell.malloc(256)
        b = cell.malloc(64)
        assert b >= a + 256 and a >= 4096  # heap above the reserved page
        with pytest.raises(PdesError, match="peek"):
            cell.peek(a)
        with pytest.raises(KeyError):
            sess.cell(3, 3)

    def test_trace_mode_incompatible(self):
        from repro import Session

        with pytest.raises(ValueError, match="trace"):
            Session(small_config(4, 4), cells=(2, 1), trace=True)

    def test_sim_unavailable_in_plan_mode(self):
        from repro import Session

        sess = Session(small_config(4, 4), cells=(2, 1))
        with pytest.raises(RuntimeError):
            sess.sim


# ---------------------------------------------------------------------------
# Satellite validation: the chip-scale projection is conservative.

class TestChipProjectionBound:
    @pytest.mark.parametrize("kernel", ["AES", "PR"])
    @pytest.mark.parametrize("cells", [(2, 1), (2, 2)])
    def test_projection_upper_bounds_simulation(self, kernel, cells):
        """project_chip >= the truly simulated multi-Cell cycles.

        The suite kernels are Cell-local, so the PDES ground truth must
        equal the single-Cell time exactly (the "parallel single-Cell
        simulations" half of the paper's methodology) and the analytic
        transfer term is pure conservative margin.
        """
        out = simulate_chip(kernel, *cells, size="tiny",
                            config=small_config(4, 4), workers=2)
        assert out["bound_holds"]
        assert out["simulated_cycles"] == out["single_cell_cycles"]
        assert out["projected_transfer_cycles"] > 0
        assert out["projection_slack"] > 0
        assert len(out["per_cell_cycles"]) == cells[0] * cells[1]


# ---------------------------------------------------------------------------
# The remote=False contract: declared Cell-locality drops the barriers.

class TestFreeRun:
    def test_local_declaration_collapses_rounds(self):
        """remote=False on every launch: one unbounded stride, same bits.

        The windowed and free-run executions must agree on everything a
        kernel can observe -- cycles, events, counters, memory; only the
        final clock may differ (the windowed run parks at its last
        barrier, the free-run at the last event).
        """
        cfg = grid(2, 1)
        windowed = run_cells(cfg, suite_launches(cfg, "AES"), workers=1)
        free = run_cells(cfg, suite_launches(cfg, "AES", remote=False),
                         workers=1)
        assert windowed.rounds > 1
        assert free.rounds == 1
        assert free.messages == 0
        assert free.cycles == windowed.cycles
        for fs, ws in zip(free.shards, windowed.shards):
            differ = {k for k in fs if fs[k] != ws[k]}
            assert differ <= {"now"}

    def test_free_run_bit_identical_across_workers(self):
        cfg = grid(2, 1)
        fps = {run_cells(cfg, suite_launches(cfg, "PR", remote=False),
                         workers=w).fingerprint()
               for w in (1, 2)}
        assert len(fps) == 1

    def test_local_promise_enforced_at_runtime(self):
        """A remote=False launch that sends cross-Cell traffic raises."""
        cfg = grid(2, 1)
        bad = [LaunchSpec(cell=l.cell, kernel=l.kernel, args=l.args,
                          group_shape=l.group_shape, remote=False)
               for l in xfix.exchange_launches(cfg, words=8)]
        with pytest.raises(PdesError, match="remote=False"):
            run_cells(cfg, bad, workers=1)

    def test_mixed_declarations_keep_windows(self):
        """One undeclared Cell is enough to keep the whole chip windowed."""
        cfg = grid(2, 1)
        launches = suite_launches(cfg, "AES", remote=False)
        undeclared = launches[1]
        launches[1] = LaunchSpec(cell=undeclared.cell,
                                 kernel=undeclared.kernel,
                                 args=undeclared.args, remote=True)
        mixed = run_cells(cfg, launches, workers=1)
        reference = run_cells(cfg, suite_launches(cfg, "AES"), workers=1)
        assert mixed.rounds > 1
        assert mixed.cycles == reference.cycles

    def test_session_launch_remote_flag(self):
        from repro import Session
        from repro.kernels.registry import SUITE

        sess = Session(grid(2, 1), cells=(2, 1))
        for xy in ((0, 0), (1, 0)):
            sess.launch(SUITE["AES"].kernel, suite_args("AES", "tiny"),
                        cell=xy, remote=False)
        res = sess.run()
        assert res.rounds == 1
        assert res.messages == 0
