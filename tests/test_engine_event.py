"""Event-queue semantics: ordering, cancellation, run bounds."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.event import SimulationError, Simulator


def test_initial_time_is_zero():
    assert Simulator().now == 0


def test_schedule_and_run_order():
    sim = Simulator()
    seen = []
    sim.schedule(5, lambda: seen.append("b"))
    sim.schedule(1, lambda: seen.append("a"))
    sim.schedule(9, lambda: seen.append("c"))
    sim.run()
    assert seen == ["a", "b", "c"]


def test_ties_break_in_schedule_order():
    sim = Simulator()
    seen = []
    for i in range(10):
        sim.schedule(3, lambda i=i: seen.append(i))
    sim.run()
    assert seen == list(range(10))


def test_clock_advances_to_event_time():
    sim = Simulator()
    times = []
    sim.schedule(7, lambda: times.append(sim.now))
    sim.run()
    assert times == [7]
    assert sim.now == 7


def test_schedule_at_absolute():
    sim = Simulator()
    sim.schedule_at(42, lambda: None)
    sim.run()
    assert sim.now == 42


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1, lambda: None)


def test_nan_delay_rejected():
    # NaN fails every comparison, so a naive ``delay < 0`` check lets it
    # through and silently corrupts the heap order; the guard must catch it.
    sim = Simulator()
    with pytest.raises(SimulationError, match="NaN"):
        sim.schedule(float("nan"), lambda: None)


def test_nan_absolute_time_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule_at(float("nan"), lambda: None)


def test_schedule_in_past_rejected():
    sim = Simulator()
    sim.schedule(10, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(5, lambda: None)


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    seen = []
    ev = sim.schedule(3, lambda: seen.append("x"))
    ev.cancel()
    sim.run()
    assert seen == []


def test_peek_skips_cancelled():
    sim = Simulator()
    ev = sim.schedule(3, lambda: None)
    sim.schedule(8, lambda: None)
    ev.cancel()
    assert sim.peek() == 8


def test_peek_empty_returns_none():
    assert Simulator().peek() is None


def test_run_until_stops_before_later_events():
    sim = Simulator()
    seen = []
    sim.schedule(5, lambda: seen.append(5))
    sim.schedule(15, lambda: seen.append(15))
    sim.run(until=10)
    assert seen == [5]
    assert sim.now == 10
    sim.run()
    assert seen == [5, 15]


def test_events_scheduled_during_run_execute():
    sim = Simulator()
    seen = []

    def first():
        sim.schedule(2, lambda: seen.append("second"))

    sim.schedule(1, first)
    sim.run()
    assert seen == ["second"]
    assert sim.now == 3


def test_max_events_guard():
    sim = Simulator()

    def rearm():
        sim.schedule(1, rearm)

    sim.schedule(1, rearm)
    with pytest.raises(SimulationError):
        sim.run(max_events=100)


def test_step_returns_false_when_drained():
    sim = Simulator()
    sim.schedule(1, lambda: None)
    assert sim.step() is True
    assert sim.step() is False


def test_drained():
    sim = Simulator()
    assert sim.drained()
    sim.schedule(1, lambda: None)
    assert not sim.drained()
    sim.run()
    assert sim.drained()


def test_not_reentrant():
    sim = Simulator()
    errors = []

    def nested():
        try:
            sim.run()
        except SimulationError as exc:
            errors.append(exc)

    sim.schedule(1, nested)
    sim.run()
    assert len(errors) == 1


# -- internal entries and public Events share one (time, seq) order ----------

#: One action: (kind, delay, parent selector, cancel selector).  Action
#: ``i`` is scheduled when its parent fires (roots: before the run), fires
#: ``delay`` cycles later, and may then cancel some other action's Event.
_programs = st.lists(
    st.tuples(st.sampled_from(["post", "event", "event_noarg"]),
              st.integers(0, 4), st.integers(0, 10**6),
              st.one_of(st.none(), st.integers(0, 10**6))),
    min_size=1, max_size=40)


def _shape(program):
    children = {i: [] for i in range(-1, len(program))}
    for i, (_kind, _delay, parent, _cancel) in enumerate(program):
        children[parent % (i + 1) - 1].append(i)
    cancels = [None if c is None else c % len(program)
               for _k, _d, _p, c in program]
    return children, cancels


def _model(program):
    """The order a sorted list gives: ``(fired, live depth after each)``."""
    children, cancels = _shape(program)
    pending, cancelled, done = [], set(), set()
    fired, depths = [], []
    now = seq = 0

    def launch(ids):
        nonlocal seq
        for i in ids:
            pending.append((now + program[i][1], seq, i))
            seq += 1

    launch(children[-1])
    while pending:
        entry = min(pending)
        pending.remove(entry)
        now, _seq, i = entry
        fired.append((now, i))
        done.add(i)
        launch(children[i])
        target = cancels[i]
        if (target is not None and program[target][0] != "post"
                and any(p[2] == target for p in pending)):
            pending[:] = [p for p in pending if p[2] != target]
            cancelled.add(target)
        depths.append(len(pending))
    assert not cancelled & done
    return fired, depths


class _Driven:
    """The same program on a real :class:`Simulator`."""

    def __init__(self, program):
        self.program = program
        self.children, self.cancels = _shape(program)
        self.sim = Simulator()
        self.fired = []
        self.handles = {}
        self.launch(self.children[-1])

    def launch(self, ids):
        sim = self.sim
        for i in ids:
            kind, delay = self.program[i][:2]
            if kind == "post":
                sim._post(sim.now + delay, self.fire, i)
            elif kind == "event":
                self.handles[i] = sim.schedule_at(sim.now + delay,
                                                  self.fire, i)
            else:
                self.handles[i] = sim.schedule(delay,
                                               lambda i=i: self.fire(i))

    def fire(self, i):
        self.fired.append((self.sim.now, i))
        self.launch(self.children[i])
        handle = self.handles.get(self.cancels[i])
        if handle is not None:
            handle.cancel()  # a no-op when it already fired


@given(program=_programs)
@settings(max_examples=150, deadline=None)
def test_mixed_entries_dispatch_in_time_seq_order_under_run(program):
    fired, _depths = _model(program)
    driven = _Driven(program)
    driven.sim.run()
    assert driven.fired == fired
    assert driven.sim.events_executed == len(fired)
    assert driven.sim.queue_depth() == 0 and driven.sim.peek() is None


@given(program=_programs, window=st.integers(1, 3))
@settings(max_examples=150, deadline=None)
def test_mixed_entries_dispatch_in_time_seq_order_under_windows(program,
                                                                window):
    fired, _depths = _model(program)
    driven = _Driven(program)
    sim = driven.sim
    horizon = 0
    while len(driven.fired) < len(fired):
        assert sim.run(until=horizon) == horizon
        want = [f for f in fired if f[0] <= horizon]
        assert driven.fired == want
        assert sim.events_executed == len(want)
        nxt = sim.peek()
        assert nxt is None or nxt > horizon
        horizon += window
    assert sim.queue_depth() == 0


@given(program=_programs, hooked=st.booleans())
@settings(max_examples=150, deadline=None)
def test_mixed_entries_dispatch_in_time_seq_order_under_step(program, hooked):
    fired, depths = _model(program)
    driven = _Driven(program)
    sim = driven.sim
    if hooked:
        # The loop run() takes with a tracer, an auditor or max_events.
        sim.run(max_events=len(program) + 1)
        assert sim.queue_depth() == 0
    else:
        for count, depth in enumerate(depths, 1):
            assert sim.step() is True
            assert sim.queue_depth() == depth
            assert sim.events_executed == count
        assert sim.step() is False
    assert driven.fired == fired
    assert sim.events_executed == len(fired)


def test_compaction_keeps_internal_entries_and_live_events():
    sim = Simulator()
    seen = []
    events = []
    for i in range(300):
        if i % 3 == 0:
            sim._post(10 + i % 2, seen.append, ("post", i))
        events.append(sim.schedule_at(10 + i % 2, seen.append, ("event", i)))
    for i, event in enumerate(events):
        if i % 4:
            event.cancel()  # 225 of 400 entries: crosses the compaction bar
    assert sim._ncancelled < 64  # compaction ran and restarted the count
    assert sim.queue_depth() == 175
    sim.run()
    assert sim.events_executed == 175 and sim.queue_depth() == 0
    order = lambda tag, ids: sorted(  # noqa: E731
        ((tag, i) for i in ids), key=lambda s: (s[1] % 2, s[1]))
    assert [s for s in seen if s[0] == "event"] == order(
        "event", range(0, 300, 4))
    assert [s for s in seen if s[0] == "post"] == order(
        "post", range(0, 300, 3))
