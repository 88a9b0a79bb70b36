"""Generator-based processes on top of the event loop.

A *process* is a Python generator that yields one of:

* a number -- sleep that many cycles;
* a :class:`Future` -- suspend until the future resolves; the future's
  value is sent back into the generator;
* a list/tuple of futures -- suspend until *all* resolve (a join).

Processes are how tile cores, DMA engines and host programs are written.
Each process owns a :class:`Future` (``process.done``) that resolves with
the generator's return value, enabling fork/join composition.

Hot-path note: every resume travels through the simulator's internal
``_post`` lane with a *prebound* ``_advance`` method and the resume value
as the event argument, so steady-state process scheduling allocates no
closures and no :class:`~repro.engine.event.Event` objects.  An already-
resolved future short-circuits straight to the queue without touching the
callback list.  Ordering is identical to the classic path: resumption
always takes one delay-0 hop through the queue, keeping wake-up order
deterministic when many processes block on the same future.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Iterable, List

from .event import Simulator, SimulationError


class Future:
    """A single-assignment value that callbacks/processes can wait on."""

    __slots__ = ("sim", "_done", "_value", "_callbacks")

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._done = False
        self._value: Any = None
        # None, the one callback, or a list once a second one registers:
        # a remote op's future sees its scoreboard release and at most one
        # waiter, so most futures never need the list.
        self._callbacks: Any = None

    @property
    def done(self) -> bool:
        return self._done

    @property
    def value(self) -> Any:
        if not self._done:
            raise SimulationError("future not resolved yet")
        return self._value

    def resolve(self, value: Any = None) -> None:
        """Resolve the future now; fires callbacks at the current time."""
        if self._done:
            raise SimulationError("future resolved twice")
        self._done = True
        self._value = value
        callbacks = self._callbacks
        if callbacks is not None:
            self._callbacks = None
            if callbacks.__class__ is list:
                for fn in callbacks:
                    fn(value)
            else:
                callbacks(value)

    def resolve_at(self, time: float, value: Any = None) -> None:
        """Resolve the future at absolute simulation time ``time``."""
        self.sim._post(time, self.resolve, value)

    def add_callback(self, fn: Callable[[Any], None]) -> None:
        """Run ``fn(value)`` on resolution (immediately if already done)."""
        if self._done:
            fn(self._value)
            return
        callbacks = self._callbacks
        if callbacks is None:
            self._callbacks = fn
        elif callbacks.__class__ is list:
            callbacks.append(fn)
        else:
            self._callbacks = [callbacks, fn]


def join(sim: Simulator, futures: Iterable[Future]) -> Future:
    """A future that resolves with a list of values once all inputs resolve."""
    futures = list(futures)
    out = Future(sim)
    if not futures:
        out.resolve([])
        return out
    remaining = [len(futures)]
    values: List[Any] = [None] * len(futures)

    def make_cb(i: int) -> Callable[[Any], None]:
        def cb(value: Any) -> None:
            values[i] = value
            remaining[0] -= 1
            if remaining[0] == 0:
                out.resolve(values)

        return cb

    for i, fut in enumerate(futures):
        fut.add_callback(make_cb(i))
    return out


class Process:
    """Drives a generator against the simulator clock."""

    __slots__ = ("sim", "gen", "done", "name", "_step", "_wake")

    def __init__(
        self,
        sim: Simulator,
        gen: Generator[Any, Any, Any],
        name: str = "proc",
        start_delay: float = 0,
    ) -> None:
        self.sim = sim
        self.gen = gen
        self.done = Future(sim)
        self.name = name
        if start_delay < 0:
            raise SimulationError(
                f"cannot schedule in the past (delay={start_delay})"
            )
        # Bind once; every subsequent resume reuses these two callables.
        self._step = self._advance
        self._wake = self._resume_soon
        sim._post(sim._now + start_delay, self._step, None)
        probe = sim._probe
        if probe is not None:
            probe.process_started(self, sim._now)

    def _advance(self, send_value: Any) -> None:
        try:
            yielded = self.gen.send(send_value)
        except StopIteration as stop:
            self.done.resolve(stop.value)
            probe = self.sim._probe
            if probe is not None:
                probe.process_finished(self, self.sim._now)
            return
        sim = self.sim
        # Exact-class dispatch first: yields are overwhelmingly plain
        # ints/floats (sleeps) and Futures, so two identity checks beat
        # the isinstance chain; subclasses fall through to the old path.
        cls = yielded.__class__
        if cls is int or cls is float:
            if not yielded >= 0:
                raise SimulationError(
                    f"process {self.name!r} yielded negative or NaN "
                    f"delay {yielded}"
                )
            sim._post(sim._now + yielded, self._step, None)
        elif cls is Future:
            if yielded._done:
                # Fast lane: no callback registration, straight to the queue.
                sim._post(sim._now, self._step, yielded._value)
            else:
                yielded.add_callback(self._wake)
        elif isinstance(yielded, (int, float)):
            if not yielded >= 0:
                raise SimulationError(
                    f"process {self.name!r} yielded negative or NaN "
                    f"delay {yielded}"
                )
            sim._post(sim._now + yielded, self._step, None)
        elif isinstance(yielded, Future):
            if yielded._done:
                sim._post(sim._now, self._step, yielded._value)
            else:
                yielded.add_callback(self._wake)
        elif isinstance(yielded, (list, tuple)):
            join(sim, yielded).add_callback(self._wake)
        else:
            raise SimulationError(
                f"process {self.name!r} yielded unsupported {yielded!r}"
            )

    def _resume_soon(self, value: Any) -> None:
        # Resume through the event queue so resolution order stays
        # deterministic even when many processes wake on the same future.
        sim = self.sim
        sim._post(sim._now, self._step, value)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "done" if self.done.done else "running"
        return f"Process({self.name!r}, {state})"


def spawn(
    sim: Simulator,
    gen: Generator[Any, Any, Any],
    name: str = "proc",
    start_delay: float = 0,
) -> Process:
    """Convenience wrapper to start a process."""
    return Process(sim, gen, name=name, start_delay=start_delay)
