"""HW barrier tree and SW barrier models."""

import pytest

from repro.arch.params import BarrierTiming
from repro.engine import Simulator
from repro.experiments.fig04_barrier import GROUP_SIZES, simulated_latency
from repro.noc.barrier import (
    HwBarrierGroup,
    SwBarrierGroup,
    analytic_hw_latency,
    analytic_sw_latency,
    barrier_hops,
    tree_root,
)


def make_members(w, h):
    return [(x, y) for y in range(h) for x in range(w)]


class TestBarrierHops:
    def test_mesh_hops_are_manhattan(self):
        assert barrier_hops((0, 0), (3, 4), ruche=False) == 7

    def test_ruche_compresses_horizontal(self):
        assert barrier_hops((0, 0), (9, 0), ruche=True) == 3
        assert barrier_hops((0, 0), (8, 0), ruche=True) == 4  # 2 ruche + 2 mesh

    def test_vertical_unaffected(self):
        assert barrier_hops((0, 0), (0, 5), ruche=True) == 5

    def test_paper_example_16x8(self):
        """The remotest tile of a 16x8 group reaches the root in 8 cycles."""
        members = make_members(16, 8)
        root = tree_root(members)
        worst = max(barrier_hops(m, root, ruche=True) for m in members)
        assert worst == 8


class TestTreeRoot:
    def test_root_is_central(self):
        root = tree_root(make_members(5, 5))
        assert root == (2, 2)

    def test_root_is_member(self):
        members = [(0, 0), (10, 0)]
        assert tree_root(members) in members

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            tree_root([])


class TestHwBarrier:
    def test_all_members_released(self):
        sim = Simulator()
        members = make_members(4, 2)
        group = HwBarrierGroup(sim, members, BarrierTiming())
        released = []
        for m in members:
            group.arrive(m, 0).add_callback(lambda _v, m=m: released.append(m))
        sim.run()
        assert sorted(released) == sorted(members)

    def test_latency_bounded_by_analytic(self):
        sim = Simulator()
        members = make_members(8, 4)
        group = HwBarrierGroup(sim, members, BarrierTiming(), ruche=True)
        done = {}
        for m in members:
            group.arrive(m, 0).add_callback(lambda _v, m=m: done.setdefault(m, sim.now))
        sim.run()
        assert max(done.values()) == analytic_hw_latency(8, 4, ruche=True)

    def test_staggered_arrivals_wait_for_last(self):
        sim = Simulator()
        members = [(0, 0), (1, 0)]
        group = HwBarrierGroup(sim, members, BarrierTiming())
        releases = []
        group.arrive((0, 0), 0).add_callback(lambda _v: releases.append(sim.now))
        group.arrive((1, 0), 100).add_callback(lambda _v: releases.append(sim.now))
        sim.run()
        assert min(releases) >= 100

    def test_reusable_across_epochs(self):
        sim = Simulator()
        members = [(0, 0), (1, 0)]
        group = HwBarrierGroup(sim, members, BarrierTiming())
        for _epoch in range(3):
            futs = [group.arrive(m, sim.now) for m in members]
            sim.run()
            assert all(f.done for f in futs)
        assert group.epochs == 3

    def test_double_arrival_rejected(self):
        sim = Simulator()
        group = HwBarrierGroup(sim, [(0, 0), (1, 0)], BarrierTiming())
        group.arrive((0, 0), 0)
        with pytest.raises(ValueError):
            group.arrive((0, 0), 1)

    def test_non_member_rejected(self):
        sim = Simulator()
        group = HwBarrierGroup(sim, [(0, 0)], BarrierTiming())
        with pytest.raises(ValueError):
            group.arrive((5, 5), 0)


class TestSwBarrier:
    def test_all_released(self):
        sim = Simulator()
        members = make_members(4, 2)
        group = SwBarrierGroup(sim, members)
        futs = [group.arrive(m, 0) for m in members]
        sim.run()
        assert all(f.done for f in futs)

    def test_sw_slower_than_hw(self):
        sim = Simulator()
        members = make_members(8, 4)
        hw = HwBarrierGroup(sim, members, BarrierTiming())
        sw = SwBarrierGroup(sim, members)
        hw_done, sw_done = [], []
        for m in members:
            hw.arrive(m, 0).add_callback(lambda _v: hw_done.append(sim.now))
            sw.arrive(m, 0).add_callback(lambda _v: sw_done.append(sim.now))
        sim.run()
        assert max(sw_done) > max(hw_done)

    def test_serialization_grows_with_size(self):
        small = analytic_sw_latency(4, 4)
        large = analytic_sw_latency(16, 8)
        assert large > small + 100  # linear-in-size serialization

    def test_hw_scales_much_better(self):
        """Fig 4's point: HW latency grows ~sqrt, SW grows linearly."""
        hw_ratio = analytic_hw_latency(32, 16, True) / analytic_hw_latency(4, 4, True)
        sw_ratio = analytic_sw_latency(32, 16) / analytic_sw_latency(4, 4)
        assert sw_ratio > 3 * hw_ratio


#: ``simulated_latency`` of every Fig 4 job (simultaneous arrivals).
#: The SW values are pinned literals; the HW ones must equal the
#: closed form.
FIG4_SW_LATENCY = {
    (2, 2): 24.0, (4, 2): 38.0, (4, 4): 60.0, (8, 4): 104.0,
    (8, 8): 180.0, (16, 8): 332.0, (16, 16): 612.0, (32, 16): 1172.0,
}


class TestFig4Latencies:
    def test_every_group_size_is_pinned(self):
        assert list(FIG4_SW_LATENCY) == GROUP_SIZES

    @pytest.mark.parametrize("w,h", GROUP_SIZES)
    def test_hw_equals_closed_form(self, w, h):
        assert simulated_latency(w, h, hw=True) == \
            analytic_hw_latency(w, h, ruche=True)

    @pytest.mark.parametrize("w,h", GROUP_SIZES)
    def test_sw_pinned(self, w, h):
        assert simulated_latency(w, h, hw=False) == FIG4_SW_LATENCY[(w, h)]


def _one_epoch(group, sim, arrivals):
    done = []
    futs = [group.arrive(m, t) for m, t in arrivals.items()]
    for m, fut in zip(arrivals, futs):
        fut.add_callback(lambda _v, m=m: done.append((m, sim.now)))
    sim.run()
    return done


class TestEpochCost:
    @pytest.mark.parametrize("hw", [True, False])
    def test_one_event_per_member(self, hw):
        sim = Simulator()
        members = make_members(8, 4)
        group = (HwBarrierGroup(sim, members, BarrierTiming()) if hw
                 else SwBarrierGroup(sim, members))
        _one_epoch(group, sim, dict.fromkeys(members, 0.0))
        assert sim.events_executed == len(members)
        _one_epoch(group, sim, dict.fromkeys(members, sim.now))
        assert sim.events_executed == 2 * len(members)

    def test_sw_staggered_and_tied_arrivals(self):
        """Ties in arrival time serialize in node order at the counter
        bank; the bank's busy time carries into the next epoch."""
        sim = Simulator()
        members = make_members(4, 2)
        group = SwBarrierGroup(sim, members)
        assert group.counter_node == (1, 0)
        arrivals = {(0, 0): 0, (1, 0): 3, (2, 0): 3, (3, 0): 0,
                    (0, 1): 10, (1, 1): 3, (2, 1): 40, (3, 1): 10}
        assert _one_epoch(group, sim, arrivals) == [
            ((1, 0), 54.0), ((0, 0), 58.0), ((2, 0), 58.0), ((1, 1), 58.0),
            ((3, 0), 62.0), ((0, 1), 62.0), ((2, 1), 62.0), ((3, 1), 66.0)]
        assert group._bank_free == 46
        base = sim.now
        again = {m: base + t % 4 for m, t in arrivals.items()}
        assert _one_epoch(group, sim, again) == [
            ((1, 0), 92.0), ((0, 0), 96.0), ((2, 0), 96.0), ((1, 1), 96.0),
            ((3, 0), 100.0), ((0, 1), 100.0), ((2, 1), 100.0),
            ((3, 1), 104.0)]
        assert group._bank_free == 84.0
        assert sim.events_executed == 2 * len(members)


class _NoScanList(list):
    """A member list that refuses every linear scan once armed."""

    armed = False

    def _scan(self):
        if self.armed:
            raise AssertionError("barrier epoch scanned its member list")

    def __contains__(self, item):
        self._scan()
        return super().__contains__(item)

    def index(self, *args):
        self._scan()
        return super().index(*args)

    def count(self, item):
        self._scan()
        return super().count(item)


class TestNoMemberScan:
    @pytest.mark.parametrize("hw", [True, False])
    def test_64x32_epoch_without_list_scans(self, hw):
        """An epoch must not search the member list: that is a scan per
        arrival, quadratic in the group size."""
        sim = Simulator()
        members = _NoScanList(make_members(64, 32))
        group = (HwBarrierGroup(sim, members, BarrierTiming()) if hw
                 else SwBarrierGroup(sim, members))
        group.members = members  # the group keeps a plain-list copy
        members.armed = True
        futs = [group.arrive(m, 0.0) for m in make_members(64, 32)]
        sim.run()
        assert all(f.done for f in futs)
        assert sim.events_executed == len(members)
