"""Inter-Cell contention pricing and cross-shard sanitizer stitching.

The load-bearing claims pinned here:

* the floor -- contention only ever *adds* latency: every priced
  arrival is ``>=`` the zero-load arrival (the lookahead bound), for
  arbitrary message streams (hypothesis) and on real fixture runs;
* accuracy -- on the congested exchange fixture the contention-priced
  PDES cycles sit at or above the zero-load-priced cycles and strictly
  closer to the monolithic single-queue machine's cycles;
* inertness -- Cell-local workloads (``remote=False``) are untouched by
  the contention knob, and windows/workers still never change results;
* stitching -- the offline cross-shard pass flags the seeded race
  fixture that per-shard sanitizers cannot see, and stays clean on the
  disciplined exchange/pipeline fixtures.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.arch.config import small_config
from repro.noc.analysis import cell_edge_channels, intercell_lookahead
from repro.pdes import LaunchSpec, run_cells
from repro.pdes import fixture as xfix
from repro.pdes.channel import ARRIVAL, REQUEST, RESPONSE
from repro.pdes.contention import EdgeContention
from repro.pdes.shard import CellShard, ShardSpec
from repro.session import Session


def grid(cells_x=2, cells_y=1, tiles=4):
    return small_config(tiles, tiles).with_geometry(cells_x=cells_x,
                                                    cells_y=cells_y)


def suite_launches(config, name, size="tiny", remote=True):
    from repro.experiments.common import suite_args

    return [LaunchSpec(cell=xy, kernel=name, args=suite_args(name, size),
                       remote=remote)
            for xy in config.chip.cells()]


def mono_cycles(config, launches):
    """The monolithic single-event-queue reference for fixture launches."""
    from repro.pdes.shard import resolve_kernel

    sess = Session(config)
    handles = [sess.launch(resolve_kernel(spec.kernel),
                           dict(spec.args) if spec.args else None,
                           cell=tuple(spec.cell))
               for spec in launches]
    sess.run()
    return [h.cycles() for h in handles]


def _msg(plane, src_cell, dst_cell, src_node, dst_node, flits, arrival,
         seq=0):
    """A bare message record for driving the edge ledger directly: the
    fields it reads, a plain load's tail for the rest."""
    if plane == "req":
        return (arrival, src_cell, seq, REQUEST, dst_cell, src_node,
                dst_node, flits, 0, 0, False, 1, 1)
    return (arrival, src_cell, seq, RESPONSE, dst_cell, src_node, dst_node,
            flits, 0, None)


# ---------------------------------------------------------------------------
# The ledger: pure arithmetic, never below the zero-load floor.

class TestEdgeLedger:
    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(
        st.tuples(st.sampled_from(["req", "resp"]),   # plane
                  st.integers(0, 1), st.integers(0, 1),  # src/dst cell x
                  st.integers(0, 7), st.integers(0, 7),  # src/dst node
                  st.integers(1, 8),                     # flits
                  st.floats(0.0, 100.0)),                # arrival
        min_size=1, max_size=40))
    def test_priced_arrival_never_below_zero_load(self, raws):
        """For any traffic pattern, pricing only moves arrivals up --
        the property that keeps ``intercell_lookahead`` a valid bound
        after contention is applied."""
        cfg = grid(2, 1)
        msgs = []
        for seq, (plane, scx, dcx, sn, dn, flits, arrival) in enumerate(raws):
            if scx == dcx:
                continue  # the ledger only ever sees cross-Cell traffic
            msgs.append(_msg(plane, (scx, 0), (dcx, 0),
                             (sn, sn % 6), (dn, dn % 6), flits, arrival, seq))
        msgs.sort()
        floors = [m[ARRIVAL] for m in msgs]
        pricer = EdgeContention(cfg)
        in_order = pricer.price(msgs)
        for msg, floor in zip(msgs, floors):
            assert msg[ARRIVAL] >= floor
        assert in_order == (msgs == sorted(msgs))
        summary = pricer.summary()
        assert summary["packets"] == len(msgs)
        assert summary["stall_cycles"] >= 0.0

    def test_same_lane_packets_serialize(self):
        """Two same-cycle packets on one lane: the second one stalls by
        the first one's occupancy (flits / channels)."""
        cfg = grid(2, 1)
        pricer = EdgeContention(cfg)
        batch = [_msg("req", (0, 0), (1, 0), (1, 2), (5, 2), 4, 10.0, 0),
                 _msg("req", (0, 0), (1, 0), (2, 2), (6, 2), 4, 10.0, 1)]
        assert pricer.price(batch)
        assert batch[0][ARRIVAL] == 10.0
        assert batch[1][ARRIVAL] == 10.0 + 4 / pricer.x_channels
        assert pricer.stalled_packets == 1

    def test_planes_never_contend(self):
        """A request and a response on the same geometric lane must not
        stall each other: the chip has two physical networks."""
        cfg = grid(2, 1)
        pricer = EdgeContention(cfg)
        batch = [_msg("req", (0, 0), (1, 0), (1, 2), (5, 2), 4, 10.0, 0),
                 _msg("resp", (0, 0), (1, 0), (1, 2), (5, 2), 4, 10.0, 1)]
        pricer.price(batch)
        assert batch[0][ARRIVAL] == batch[1][ARRIVAL] == 10.0
        assert pricer.stalled_packets == 0

    def test_channel_counts_match_built_links(self):
        """The ledger's per-lane capacity is the analytic channel count,
        which in turn matches the built link set."""
        cfg = grid(2, 2)
        pricer = EdgeContention(cfg)
        assert pricer.x_channels * cfg.chip.cell.rows == \
            cell_edge_channels(cfg, "x")
        assert pricer.y_channels * cfg.chip.cell.cols == \
            cell_edge_channels(cfg, "y")
        from repro.noc.topology import Topology

        topo = Topology(cfg.chip, ruche=cfg.features.ruche_network,
                        ruche_factor=cfg.timings.noc.ruche_factor)
        assert len(topo.cell_edge_links(cfg.chip, (0, 0), (1, 0))) == \
            cell_edge_channels(cfg, "x")
        assert len(topo.cell_edge_links(cfg.chip, (0, 0), (0, 1))) == \
            cell_edge_channels(cfg, "y")


# ---------------------------------------------------------------------------
# Accuracy: priced PDES vs the monolithic machine on the exchange seam.

class TestExchangeAccuracy:
    def test_contention_bounded_below_and_closer_to_monolithic(self):
        """The acceptance anchor, on the congested 1x2 geometry (the
        y-boundary has no ruche channels, so the seam actually loads):
        contention-priced cycles are >= the zero-load-priced cycles and
        strictly closer to the monolithic single-queue cycles."""
        cfg = grid(1, 2)
        words = 256
        mono = mono_cycles(cfg, xfix.exchange_launches(cfg, words))
        zero = run_cells(cfg, xfix.exchange_launches(cfg, words),
                         contention=False)
        cont = run_cells(cfg, xfix.exchange_launches(cfg, words),
                         contention=True)
        for c, z in zip(cont.cycles, zero.cycles):
            assert c >= z
        zero_gap = sum(abs(m - c) for m, c in zip(mono, zero.cycles))
        cont_gap = sum(abs(m - c) for m, c in zip(mono, cont.cycles))
        assert cont_gap < zero_gap
        assert cont.contention["stall_cycles"] > 0
        assert cont.contention["packets"] == cont.messages

    def test_zero_load_run_reports_no_contention(self):
        cfg = grid(2, 1)
        res = run_cells(cfg, xfix.exchange_launches(cfg, words=16),
                        contention=False)
        assert res.contention is None


# ---------------------------------------------------------------------------
# Inertness and invariance.

class TestContentionDeterminism:
    def test_local_workloads_untouched_by_the_knob(self):
        """remote=False launches produce cycle-identical shards whether
        contention pricing is on or off: no cross-Cell message ever
        exists, so there is nothing to price."""
        cfg = grid(2, 1)
        on = run_cells(cfg, suite_launches(cfg, "AES", remote=False),
                       contention=True)
        off = run_cells(cfg, suite_launches(cfg, "AES", remote=False),
                        contention=False)
        assert on.cycles == off.cycles
        assert [s["now"] for s in on.shards] == \
            [s["now"] for s in off.shards]

    def test_fingerprint_invariant_across_workers_and_windows(self):
        """1-vs-N workers and every legal window size, with contention
        pricing and the cross-shard sanitizer both on."""
        cfg = grid(1, 2)
        look = intercell_lookahead(cfg)
        fps = set()
        for workers, window in ((1, None), (2, None), (1, look),
                                (2, look / 2), (1, look / 4)):
            res = run_cells(cfg, xfix.exchange_launches(cfg, words=32),
                            workers=workers, window=window,
                            contention=True, sanitize=True)
            fps.add(res.fingerprint())
        assert len(fps) == 1

    def test_fingerprint_invariant_between_windowed_and_free_run(self):
        """Cell-local suite launches: the declared (remote=False)
        free-run and the undeclared windowed run report the same final
        clocks and fingerprints -- the coordinator normalizes 'now' to
        the last event, not the barrier it happened to park at."""
        cfg = grid(2, 1)
        free = run_cells(cfg, suite_launches(cfg, "BS", remote=False))
        windowed = run_cells(cfg, suite_launches(cfg, "BS", remote=True))
        assert free.rounds != windowed.rounds  # genuinely different paths
        assert [s["now"] for s in free.shards] == \
            [s["now"] for s in windowed.shards]
        assert free.fingerprint() == windowed.fingerprint()


# ---------------------------------------------------------------------------
# Cross-shard sanitizer stitching.

class TestXShardStitching:
    def test_seeded_race_is_flagged_only_by_the_stitcher(self):
        """The race fixture's producer and consumer are each internally
        disciplined -- per-shard sanitizers pass -- but the pair races
        across the seam, and only the stitching pass can see it."""
        cfg = grid(1, 2)
        res = run_cells(cfg, xfix.race_launches(cfg, words=16),
                        sanitize=True)
        assert all(s["sanitize_clean"] for s in res.shards)
        assert res.xshard is not None
        assert not res.xshard["clean"]
        assert not res.clean
        assert res.xshard["counts"].get("xcell-race", 0) > 0
        finding = res.xshard["findings"][0]
        assert finding["kind"] == "xcell-race"
        assert finding["access"]["cell"] != finding["other"]["cell"]

    @pytest.mark.parametrize("make", [xfix.exchange_launches,
                                      xfix.pipeline_launches])
    def test_disciplined_fixtures_stitch_clean(self, make):
        """The AMO-flagged protocols carry real cross-Cell
        happens-before edges; the stitcher must honor them."""
        cfg = grid(1, 2)
        res = run_cells(cfg, make(cfg, words=16), sanitize=True)
        assert res.xshard is not None
        assert res.xshard["clean"], res.xshard["findings"]
        assert res.clean
        assert res.xshard["sync_events"] > 0

    def test_stitching_needs_every_shard_sanitized(self):
        from repro.sanitize.xshard import stitch_shards

        assert stitch_shards([{"cell": [0, 0]}]) is None

    def test_race_survives_contention_and_workers(self):
        """The stitched verdict is part of the deterministic payload:
        same findings with 1 or 2 workers, contention on."""
        cfg = grid(1, 2)
        runs = [run_cells(cfg, xfix.race_launches(cfg, words=16),
                          sanitize=True, contention=True, workers=w)
                for w in (1, 2)]
        assert runs[0].xshard == runs[1].xshard
        assert not runs[0].xshard["clean"]


# ---------------------------------------------------------------------------
# The shard-side knob plumbing.

class TestShardPlumbing:
    def test_shard_spec_carries_contention(self):
        from repro.arch import serialize

        cfg = grid(2, 1)
        spec = ShardSpec(config=serialize.to_dict(cfg), cell=(0, 0),
                         contention=False)
        shard = CellShard(spec)
        assert shard.channel.contention is False

    def test_session_cells_forwards_contention(self):
        sess = Session(small_config(4, 4), cells=(1, 2), contention=False)
        for xy in sess.config.chip.cells():
            sess.launch(xfix.EXCHANGE, {
                "words": 16,
                "out_ptr": sess.cell(*xy).group_dram(xfix.BUF_OFFSET),
                "flag_out": sess.cell(*xy).group_dram(xfix.FLAG_OFFSET),
                "flag_in": xfix.FLAG_OFFSET,
            }, cell=xy)
        sess.run()
        assert sess.pdes.contention is None
