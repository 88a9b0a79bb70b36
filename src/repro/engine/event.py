"""Discrete-event simulation core.

The simulator maintains a two-lane event queue:

* a **heap lane** of ``(time, sequence, fn, arg)`` entries for future
  events, and
* a **zero-delay FIFO lane** (a deque of the same entries) for events
  scheduled at the *current* simulation time -- the dominant case, since
  processes resume through a delay-0 hop for deterministic ordering.

An entry whose ``fn`` is ``None`` carries a cancellable :class:`Event` in
its ``arg`` slot (the public :meth:`Simulator.schedule` /
:meth:`Simulator.schedule_at` form); every other entry is an internal
:meth:`Simulator._post` and *is* the event -- no record is allocated for
it and nothing is recycled.

Both lanes share one monotonically increasing sequence counter, and the
dispatcher always executes the globally smallest ``(time, sequence)``
pair, so the observable order is exactly the classic single-heap order:
time-sorted, ties broken by schedule order.  The FIFO lane merely avoids
the O(log n) sift for the events that would land at the top of the heap
anyway.

Time is measured in core clock cycles (integers by convention, though
floats are accepted).  This engine is deliberately tiny: components
interact by scheduling plain callbacks or by running generator-based
:class:`~repro.engine.process.Process` objects on top of it.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Deque, List, Optional, Tuple

#: Sentinel meaning "call the event's callback with no argument".
_NO_ARG = object()

#: ``run()``'s horizon when no ``until`` is given.
_FOREVER = float("inf")

#: Compact the heap once cancelled entries outnumber live ones and the
#: absolute count is large enough to matter.
_COMPACT_MIN = 64


class SimulationError(RuntimeError):
    """Raised when the simulation reaches an inconsistent state."""


class Event:
    """A scheduled callback.

    Events are returned by :meth:`Simulator.schedule` and may be
    cancelled before they fire.  Cancelled events stay queued but are
    skipped (and lazily purged once they dominate the heap).
    """

    __slots__ = ("time", "seq", "fn", "arg", "cancelled", "_sim")

    def __init__(self, sim: Optional["Simulator"], time: float, seq: int,
                 fn: Optional[Callable[..., None]], arg: Any) -> None:
        self.time = time
        self.seq = seq
        self.fn = fn
        self.arg = arg
        self.cancelled = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent this event from firing (no-op after it has fired)."""
        if self.cancelled or self._sim is None:
            return
        self.cancelled = True
        self._sim._note_cancel()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        if self.cancelled:
            state = "cancelled"
        elif self._sim is None:
            state = "fired"
        else:
            state = "pending"
        return f"Event(t={self.time}, {state}, fn={self.fn!r})"


#: One queued event: ``(time, seq, fn, arg)``; ``fn is None`` marks a
#: public, cancellable :class:`Event` riding in ``arg``.
_Entry = Tuple[float, int, Optional[Callable[..., None]], Any]


def _dead(entry: _Entry) -> bool:
    """True for a queued :class:`Event` that was cancelled."""
    return entry[2] is None and entry[3].cancelled


class Simulator:
    """The event loop.

    A single :class:`Simulator` instance drives one machine model.  All
    model components hold a reference to it and use :meth:`schedule` /
    :meth:`schedule_at` to advance state.  Engine-internal callers use
    :meth:`_post`, which queues the bare ``(time, seq, fn, arg)`` entry:
    no :class:`Event` is built, handed out or recycled.
    """

    def __init__(self) -> None:
        self._queue: List[_Entry] = []
        self._fast: Deque[_Entry] = deque()
        self._seq = 0
        self._now: float = 0
        self._running = False
        self._ncancelled = 0
        #: Total events dispatched over this simulator's lifetime
        #: (the numerator of the host events/sec throughput metric).
        self.events_executed = 0
        #: Clock of the most recently dispatched event.  Unlike ``now``,
        #: this never moves to a ``run(until=...)`` horizon the queue
        #: drained short of, so a windowed run and a free run of the same
        #: workload report the same value -- the PDES coordinator uses it
        #: as the barrier-invariant final clock.
        self.last_event_time: float = 0
        #: Probe bus hook (see :mod:`repro.probe`).  When set, ``run()``
        #: leaves the inlined fast path and emits the ``event`` point
        #: after every dispatched event.
        self._probe = None

    @property
    def now(self) -> float:
        """Current simulation time in cycles."""
        return self._now

    # -- scheduling ---------------------------------------------------------

    def schedule(self, delay: float, fn: Callable[..., None],
                 arg: Any = _NO_ARG) -> Event:
        """Schedule ``fn`` to run ``delay`` cycles from now.

        With ``arg`` given, the callback fires as ``fn(arg)`` -- this lets
        hot callers pass a bound method plus its argument instead of
        allocating a closure per event.
        """
        # ``not (delay >= 0)`` instead of ``delay < 0``: NaN fails every
        # comparison, so it slips through the naive check and then rots
        # the heap's ordering invariant silently.
        if not delay >= 0:
            raise SimulationError(
                f"cannot schedule at a negative or NaN delay (delay={delay})"
            )
        return self.schedule_at(self._now + delay, fn, arg)

    def schedule_at(self, time: float, fn: Callable[..., None],
                    arg: Any = _NO_ARG) -> Event:
        """Schedule ``fn`` to run at absolute ``time``."""
        now = self._now
        if not time >= now:
            raise SimulationError(
                f"cannot schedule at t={time} before now={now} (or at NaN)"
            )
        seq = self._seq
        self._seq = seq + 1
        event = Event(self, time, seq, fn, arg)
        if time == now:
            self._fast.append((time, seq, None, event))
        else:
            heapq.heappush(self._queue, (time, seq, None, event))
        return event

    def _post(self, time: float, fn: Callable[..., None], arg: Any) -> None:
        """Internal fast-path schedule: fires as ``fn(arg)``, uncancellable.

        The queue entry is the whole event -- nothing escapes, so there is
        nothing to hand out or recycle.  Callers that need to cancel use
        :meth:`schedule_at`.
        """
        now = self._now
        if not time >= now:
            raise SimulationError(
                f"cannot schedule at t={time} before now={now} (or at NaN)"
            )
        seq = self._seq
        self._seq = seq + 1
        if time == now:
            self._fast.append((time, seq, fn, arg))
        else:
            heapq.heappush(self._queue, (time, seq, fn, arg))

    # -- cancellation bookkeeping ------------------------------------------

    def _note_cancel(self) -> None:
        self._ncancelled += 1
        n = self._ncancelled
        if n >= _COMPACT_MIN and 2 * n > len(self._queue) + len(self._fast):
            self._compact()

    def _compact(self) -> None:
        """Purge cancelled entries so they cannot rot in the heap forever.

        Mutates the containers in place: ``run()``'s drain loop holds
        direct references to them, and compaction can be triggered from a
        callback mid-drain.
        """
        self._queue[:] = [e for e in self._queue if not _dead(e)]
        heapq.heapify(self._queue)
        live = [e for e in self._fast if not _dead(e)]
        self._fast.clear()
        self._fast.extend(live)
        self._ncancelled = 0

    # -- dispatch -----------------------------------------------------------

    def peek(self) -> Optional[float]:
        """Time of the next pending event, or ``None`` if the queue is empty."""
        fast = self._fast
        while fast and _dead(fast[0]):
            fast.popleft()
            self._ncancelled -= 1
        queue = self._queue
        while queue and _dead(queue[0]):
            heapq.heappop(queue)
            self._ncancelled -= 1
        if fast:
            return self._now  # FIFO-lane events always run at the current time
        if queue:
            return queue[0][0]
        return None

    def _pop_next(self) -> Optional[_Entry]:
        """Remove and return the next live entry in (time, seq) order."""
        fast = self._fast
        queue = self._queue
        while True:
            if fast:
                # A heap entry at the current time was scheduled before
                # the clock reached it, hence carries a smaller seq; tuple
                # order is (time, seq) order because seq is unique.
                if queue and queue[0] < fast[0]:
                    entry = heapq.heappop(queue)
                else:
                    entry = fast.popleft()
            elif queue:
                entry = heapq.heappop(queue)
            else:
                return None
            if _dead(entry):
                self._ncancelled -= 1
                continue
            return entry

    def step(self) -> bool:
        """Run the next event.  Returns ``False`` when the queue is empty."""
        entry = self._pop_next()
        if entry is None:
            return False
        time, _seq, fn, arg = entry
        self._now = time
        self.last_event_time = time
        self.events_executed += 1
        if fn is not None:
            fn(arg)
            return True
        # A public Event: detach before the callback runs, so a late
        # ``cancel()`` is a no-op and the record holds nothing alive.
        event = arg
        fn = event.fn
        arg = event.arg
        event.fn = None
        event.arg = None
        event._sim = None
        if arg is _NO_ARG:
            fn()
        else:
            fn(arg)
        return True

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run events until the queue drains (or a limit is hit).

        ``until`` stops the loop once simulated time would exceed it; the
        clock is then advanced to ``until`` (never backwards).  Events at
        exactly ``t == until`` still execute.  ``max_events`` guards
        against runaway models.  Returns the final simulation time.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        try:
            if max_events is None and self._probe is None:
                # Hot path: ``step``/``_pop_next`` inlined into one drain
                # loop -- two fewer Python calls per event.  ``_compact``
                # mutates the containers in place, so the local aliases
                # stay valid across callbacks.
                #
                # Quiescence skip-ahead: the loop maintains the invariant
                # that every event in the FIFO lane is at the current
                # time and every heap entry is strictly in the future.
                # When the FIFO drains, nothing in the machine is
                # runnable *now* -- every component is quiescent until
                # the next deadline -- so the clock jumps straight to the
                # heap's head time and all events tied at that timestamp
                # are bulk-moved (in seq order) into the FIFO lane.  Idle
                # spans cost one heap inspection instead of per-cycle
                # machinery, and dispatch itself no longer compares heap
                # heads or re-assigns ``_now`` per event.
                #
                # The same loop serves ``run(until=...)`` -- the PDES
                # window path, thousands of calls per shard: only the
                # guarded heap refill looks at the horizon, because the
                # FIFO lane's events are at the current time, which only
                # reaches ``until`` through that refill.
                horizon = _FOREVER if until is None else until
                fast = self._fast
                queue = self._queue
                heappop = heapq.heappop
                append = fast.append
                popleft = fast.popleft
                executed = 0
                try:
                    while True:
                        if fast:
                            _time, _seq, fn, arg = popleft()
                        elif queue:
                            tnext = queue[0][0]
                            if tnext > horizon:
                                break
                            self._now = tnext
                            while queue and queue[0][0] == tnext:
                                append(heappop(queue))
                            continue
                        else:
                            break
                        if fn is not None:
                            executed += 1
                            fn(arg)
                            continue
                        event = arg
                        if event.cancelled:
                            self._ncancelled -= 1
                            continue
                        fn = event.fn
                        arg = event.arg
                        event.fn = None
                        event.arg = None
                        event._sim = None
                        executed += 1
                        if arg is _NO_ARG:
                            fn()
                        else:
                            fn(arg)
                finally:
                    self.events_executed += executed
                    if executed:
                        # ``_now`` sits at the last dispatched event here:
                        # the horizon clamp below is what must not leak
                        # into the barrier-invariant clock.
                        self.last_event_time = self._now
                if until is not None and until > self._now:
                    self._now = until
                return self._now
            count = 0
            probe = self._probe
            while True:
                nxt = self.peek()
                if nxt is None:
                    # Queue drained before the horizon: the clock still
                    # advances to ``until`` (never backwards), so callers
                    # can rely on ``run(until=T)`` leaving ``now == T``.
                    if until is not None and until > self._now:
                        self._now = until
                    break
                if until is not None and nxt > until:
                    if until > self._now:
                        self._now = until
                    break
                self.step()
                if probe is not None:
                    probe.event(self._now)
                count += 1
                if max_events is not None and count >= max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events} at t={self._now}"
                    )
        finally:
            self._running = False
        return self._now

    def drained(self) -> bool:
        """True when no runnable events remain."""
        return self.peek() is None

    def queue_depth(self) -> int:
        """Pending (non-cancelled) events across both lanes."""
        return len(self._queue) + len(self._fast) - self._ncancelled
