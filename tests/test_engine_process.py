"""Process/future semantics: delays, joins, resumption values."""

import pytest

from repro.engine.event import SimulationError, Simulator
from repro.engine.process import Future, Process, join, spawn


def test_process_delays_advance_clock():
    sim = Simulator()
    trace = []

    def proc():
        trace.append(sim.now)
        yield 5
        trace.append(sim.now)
        yield 3
        trace.append(sim.now)

    spawn(sim, proc())
    sim.run()
    assert trace == [0, 5, 8]


def test_process_done_future_resolves_with_return():
    sim = Simulator()

    def proc():
        yield 1
        return "result"

    p = spawn(sim, proc())
    sim.run()
    assert p.done.done
    assert p.done.value == "result"


def test_future_wait_receives_value():
    sim = Simulator()
    fut = Future(sim)
    got = []

    def proc():
        value = yield fut
        got.append((value, sim.now))

    spawn(sim, proc())
    fut.resolve_at(9, "payload")
    sim.run()
    assert got == [("payload", 9)]


def test_wait_on_already_resolved_future():
    sim = Simulator()
    fut = Future(sim)
    fut.resolve("early")
    got = []

    def proc():
        value = yield fut
        got.append(value)

    spawn(sim, proc())
    sim.run()
    assert got == ["early"]


def test_double_resolve_raises():
    sim = Simulator()
    fut = Future(sim)
    fut.resolve(1)
    with pytest.raises(SimulationError):
        fut.resolve(2)


def test_value_before_resolution_raises():
    fut = Future(Simulator())
    with pytest.raises(SimulationError):
        _ = fut.value


def test_join_collects_all_values():
    sim = Simulator()
    futs = [Future(sim) for _ in range(3)]
    for i, f in enumerate(futs):
        f.resolve_at(10 - i, i)
    joined = join(sim, futs)
    sim.run()
    assert joined.value == [0, 1, 2]


def test_join_empty_resolves_immediately():
    sim = Simulator()
    assert join(sim, []).done


def test_process_yield_list_of_futures():
    sim = Simulator()
    futs = [Future(sim) for _ in range(2)]
    got = []

    def proc():
        values = yield futs
        got.append((values, sim.now))

    spawn(sim, proc())
    futs[0].resolve_at(3, "a")
    futs[1].resolve_at(7, "b")
    sim.run()
    assert got == [(["a", "b"], 7)]


def test_fork_join_processes():
    sim = Simulator()

    def worker(d):
        yield d
        return d

    def parent():
        children = [spawn(sim, worker(d)) for d in (4, 2, 6)]
        values = yield [c.done for c in children]
        return values

    p = spawn(sim, parent())
    sim.run()
    assert p.done.value == [4, 2, 6]
    assert sim.now == 6


def test_start_delay():
    sim = Simulator()
    times = []

    def proc():
        times.append(sim.now)
        yield 0

    Process(sim, proc(), start_delay=11)
    sim.run()
    assert times == [11]


def test_negative_yield_raises():
    sim = Simulator()

    def proc():
        yield -5

    spawn(sim, proc())
    with pytest.raises(SimulationError):
        sim.run()


def test_nan_yield_raises():
    sim = Simulator()

    def proc():
        yield float("nan")

    spawn(sim, proc())
    with pytest.raises(SimulationError):
        sim.run()


def test_unsupported_yield_raises():
    sim = Simulator()

    def proc():
        yield "nonsense"

    spawn(sim, proc())
    with pytest.raises(SimulationError):
        sim.run()


def test_many_waiters_wake_deterministically():
    sim = Simulator()
    fut = Future(sim)
    order = []

    def proc(i):
        yield fut
        order.append(i)

    for i in range(20):
        spawn(sim, proc(i))
    fut.resolve_at(5, None)
    sim.run()
    assert order == list(range(20))


@pytest.mark.parametrize("count", [0, 1, 2, 5])
def test_callbacks_fire_once_in_registration_order(count):
    # One callback rides in a bare slot, a second promotes it to a list:
    # neither form may reorder, drop or repeat a callback.
    sim = Simulator()
    fut = Future(sim)
    seen = []
    for i in range(count):
        fut.add_callback(lambda value, i=i: seen.append((i, value)))
    fut.resolve("v")
    assert seen == [(i, "v") for i in range(count)]
    fut.add_callback(lambda value: seen.append(("late", value)))
    assert seen[count:] == [("late", "v")]


def test_callback_and_waiting_process_share_a_future():
    # The remote-op shape: a scoreboard release registered first, then the
    # issuing process blocks on the same future.
    sim = Simulator()
    fut = Future(sim)
    seen = []
    fut.add_callback(lambda value: seen.append(("release", value)))

    def waiter():
        seen.append(("woke", (yield fut)))

    spawn(sim, waiter())
    fut.resolve_at(5, 42)
    sim.run()
    assert seen == [("release", 42), ("woke", 42)]
