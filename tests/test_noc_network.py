"""The contention-aware network timing model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.config import HB_2x16x8, HB_16x8
from repro.arch.geometry import CellGeometry, ChipGeometry
from repro.arch.params import NocTiming
from repro.audit.reference import reference_reserve_leg
from repro.noc.network import DeliveryReport, Network
from repro.noc.routing import route


@pytest.fixture
def chip():
    return ChipGeometry(CellGeometry(8, 4), cells_x=1, cells_y=1)


@pytest.fixture
def net(chip):
    return Network(chip, NocTiming(), ruche=False, order="xy")


class TestZeroLoad:
    def test_single_hop_latency(self, net):
        r = net.send((0, 0), (1, 0), flits=1, time=0)
        # inject 1 + hop (router 1 + link 1) + eject 1
        assert r.arrival == 4
        assert r.hops == 1
        assert r.stall_cycles == 0

    def test_latency_linear_in_hops(self, net):
        r1 = net.send((0, 0), (4, 0), flits=1, time=0)
        net.reset()
        r2 = net.send((0, 0), (2, 0), flits=1, time=0)
        assert r1.arrival - r2.arrival == 2 * 2  # 2 extra hops x 2 cycles

    def test_multi_flit_tail_latency(self, net):
        r1 = net.send((0, 0), (3, 0), flits=1, time=0)
        net.reset()
        r4 = net.send((0, 0), (3, 0), flits=4, time=0)
        assert r4.arrival - r1.arrival == 3

    def test_zero_load_latency_helper(self, net):
        predicted = net.zero_load_latency((0, 0), (5, 3))
        measured = net.send((0, 0), (5, 3), flits=1, time=0).arrival
        assert predicted == measured

    def test_rejects_zero_flits(self, net):
        with pytest.raises(ValueError):
            net.send((0, 0), (1, 0), flits=0, time=0)


class TestContention:
    def test_second_packet_stalls_behind_first(self, net):
        net.send((0, 0), (4, 0), flits=4, time=0)
        r = net.send((0, 0), (4, 0), flits=4, time=0)
        assert r.stall_cycles > 0

    def test_disjoint_paths_do_not_interact(self, net):
        net.send((0, 0), (4, 0), flits=4, time=0)
        r = net.send((0, 3), (4, 3), flits=4, time=0)
        assert r.stall_cycles == 0

    def test_link_busy_accounting(self, net):
        net.send((0, 0), (2, 0), flits=3, time=0)
        link = net.topology.link((0, 0), (1, 0))
        assert link.busy_cycles == 3
        assert link.packets == 1

    def test_saturation_throughput(self, net):
        # 100 single-flit packets over one link: last arrives ~100 cycles.
        last = 0.0
        for i in range(100):
            r = net.send((0, 0), (1, 0), flits=1, time=i * 0.0)
            last = r.arrival
        assert 100 <= last <= 110

    def test_counters(self, net):
        net.send((0, 0), (2, 2), flits=2, time=0)
        assert net.counters.get("packets") == 1
        assert net.counters.get("flits") == 2
        assert net.counters.get("hops") == 4

    def test_reset_clears_state(self, net):
        net.send((0, 0), (4, 0), flits=4, time=0)
        net.reset()
        r = net.send((0, 0), (4, 0), flits=4, time=0)
        assert r.stall_cycles == 0


class TestRuchePlane:
    def test_ruche_lowers_latency(self, chip):
        mesh = Network(chip, NocTiming(), ruche=False, order="xy")
        ruche = Network(chip, NocTiming(), ruche=True, order="xy")
        m = mesh.send((0, 2), (7, 2), 1, 0).arrival
        r = ruche.send((0, 2), (7, 2), 1, 0).arrival
        assert r < m

    def test_ruche_raises_cut_throughput(self, chip):
        mesh = Network(chip, NocTiming(), ruche=False, order="xy")
        ruche = Network(chip, NocTiming(), ruche=True, order="xy")
        # Saturate the row: many packets crossing the middle from spread
        # sources (different sources use different ruche lanes).
        for net in (mesh, ruche):
            for i in range(200):
                net.send((i % 4, 1), (7, 1), 1, 0)
        m_stall = mesh.counters.get("stall_cycles")
        r_stall = ruche.counters.get("stall_cycles")
        assert r_stall < m_stall


class TestSeriesRecording:
    def test_series_recorded_when_enabled(self, chip):
        net = Network(chip, NocTiming(), ruche=False, order="xy",
                      record_bin_width=8)
        net.send((0, 0), (3, 0), flits=2, time=0)
        link = net.topology.link((0, 0), (1, 0))
        assert link.series is not None
        assert sum(v for _t, v in link.series.series()) == pytest.approx(2)

    def test_series_absent_by_default(self, net):
        link = net.topology.link((0, 0), (1, 0))
        assert link.series is None


# -- walk-table paths vs route() ---------------------------------------------

_PLANES = [(order, ruche) for order in ("xy", "yx") for ruche in (True, False)]


def _assert_paths_match(net, pairs):
    for src, dst in pairs:
        want = route(net.topology, src, dst, order=net.order)
        got = net._path(src, dst)
        assert len(got) == len(want)
        # The very Link objects, in order: reservations land on them.
        assert all(a is b for a, b in zip(got, want))
        assert net._path(src, dst) is got  # memoized per pair


@pytest.mark.parametrize("order,ruche", _PLANES)
def test_every_path_of_a_small_two_cell_chip(order, ruche):
    chip = ChipGeometry(CellGeometry(4, 4), cells_x=2, cells_y=1)
    net = Network(chip, NocTiming(), ruche=ruche, order=order)
    nodes = [(x, y) for x in range(chip.grid_cols)
             for y in range(chip.grid_rows)]
    _assert_paths_match(net, [(s, d) for s in nodes for d in nodes])
    assert len(net._routes) == len(nodes) ** 2


@pytest.mark.parametrize("order,ruche", _PLANES)
@pytest.mark.parametrize("config", [HB_16x8, HB_2x16x8],
                         ids=lambda cfg: cfg.name)
@given(data=st.data())
@settings(max_examples=12, deadline=None)
def test_walk_table_paths_match_route(config, order, ruche, data):
    chip = config.chip
    net = Network(chip, config.timings.noc, ruche=ruche, order=order)
    node = st.tuples(st.integers(0, chip.grid_cols - 1),
                     st.integers(0, chip.grid_rows - 1))
    _assert_paths_match(net, data.draw(
        st.lists(st.tuples(node, node), min_size=1, max_size=40)))


def test_each_straight_run_is_routed_once(chip, monkeypatch):
    import repro.noc.network as network

    calls = []
    monkeypatch.setattr(
        network, "route",
        lambda topo, src, dst, order="xy":
            calls.append((src, dst)) or route(topo, src, dst, order=order))
    net = Network(chip, NocTiming(), ruche=True, order="xy")
    tiles = [(x, y) for x in range(8) for y in range(1, 5)]
    banks = [(x, 0) for x in range(8)]
    for tile in tiles:
        for bank in banks:
            net.send(tile, bank, 1, 0)
    assert len(calls) == len(set(calls))  # no run walked twice
    assert all(src[0] == dst[0] or src[1] == dst[1] for src, dst in calls)
    walked = len(calls)
    for tile in tiles:  # the same traffic again walks nothing
        for bank in banks:
            net.send(tile, bank, 2, 50)
    assert len(calls) == walked


@given(packets=st.lists(
    st.tuples(st.integers(0, 9), st.integers(0, 5), st.integers(0, 9),
              st.integers(0, 5), st.integers(1, 4), st.integers(0, 6)),
    min_size=1, max_size=40),
    order=st.sampled_from(["xy", "yx"]), ruche=st.booleans())
@settings(max_examples=40, deadline=None)
def test_send_and_send_arrival_match_the_naive_walk(packets, order, ruche):
    """``send``/``send_arrival`` are one walker: either must leave every
    link where the per-link reference walk leaves it."""
    chip = ChipGeometry(CellGeometry(4, 4), cells_x=2, cells_y=1)
    timing = NocTiming()
    fast, slim, naive = (Network(chip, timing, ruche=ruche, order=order)
                         for _ in range(3))
    clock = 0
    for sx, sy, dx, dy, flits, gap in packets:
        clock += gap
        src, dst = (sx % chip.grid_cols, sy), (dx % chip.grid_cols, dy)
        stall = reference_reserve_leg(naive, src, dst, flits, clock,
                                      lambda _node: True)
        report = fast.send(src, dst, flits, clock)
        hops = len(route(naive.topology, src, dst, order=order))
        assert report == DeliveryReport(
            clock + timing.inject_latency + stall
            + hops * (timing.router_latency + timing.link_cycles_per_flit)
            + (flits - 1) + timing.eject_latency, hops, stall)
        assert slim.send_arrival(src, dst, flits, clock) == report.arrival
    for a, b, c in zip(fast.topology.links(), slim.topology.links(),
                       naive.topology.links()):
        state = (c.free_at, c.busy_cycles, c.stall_cycles, c.packets)
        assert (a.free_at, a.busy_cycles, a.stall_cycles, a.packets) == state
        assert (b.free_at, b.busy_cycles, b.stall_cycles, b.packets) == state
    assert fast.counters.as_dict() == slim.counters.as_dict()
