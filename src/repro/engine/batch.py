"""Batched (lockstep) execution windows for the tile interpreter.

The classic execution model interprets one op object per simulated
instruction: the kernel generator constructs it, ``TileCore._run``
re-inspects its class and attributes, and every loop iteration repeats
both.  For the compute-only inner loops that dominate the dense kernels
(AES rounds, SGEMM fma chunks, stencil updates) all of that work is
identical every time -- the stream of (pc, operands, latency class) is
static.

This module turns such regions into :class:`~repro.isa.ops.BlockOp`
windows:

* :class:`BlockBuilder` -- records one copy of the region through the
  kernel context (so pcs and registers are assigned exactly as the
  hand-unrolled code would have assigned them) and decodes each op into
  a flat tuple at *kernel load time*, not per execution;
* :class:`FoldTracker` -- watches consecutive replayed iterations of a
  window; once two match in duration and relative end-state, every
  remaining iteration is provably identical and the tracker advances
  them all arithmetically (clock, counters, register ready times) in
  O(1) -- the compute-side analogue of the event queue's quiescence
  skip-ahead;
* :func:`expand_blocks` -- the exact path: a generator adapter that
  re-materializes each window into the per-op stream whenever a
  trace/sanitize/audit hook is attached, so observability always sees
  (and checks) the classic interpreter, cycle-identical to the batched
  one.

Soundness of the fold: a window never yields to the event queue unless
it hits an unresolved future, so between futures it executes atomically
in host order -- no other component can interleave with it.  Within
that atomic span the iteration's evolution is a deterministic function
of the entry state *relative to the entry clock*: the ready offsets of
every register the body touches, the iterative FP unit's backlog, the
SPM port horizon, and the icache contents.  If iteration *k+1* starts
from the same relative state iteration *k* did (checked by signature
equality, with read-only registers clamped at "already ready") and
neither missed the icache nor touched a future, then by induction every
following iteration replays the same deltas shifted in time -- so the
tracker applies ``k`` iterations as multiplication.  The final
iteration always executes op-by-op: its closing backward branch falls
through and mispredicts, unlike the folded ones.
"""

from __future__ import annotations

from typing import Any, Generator, List, Optional, Sequence, Tuple

from ..isa.ops import K_BR, K_FP, K_INT, K_LD, BlockOp, FpOp
from ..pgas.spaces import TAG_SHIFT

#: Stall/exec categories a block body can charge; the fold tracker
#: captures per-iteration deltas for exactly these.
_FOLD_CATS = None  # resolved lazily to avoid a core<->engine import cycle


def _fold_cats():
    global _FOLD_CATS
    if _FOLD_CATS is None:
        from ..core import stall as st

        _FOLD_CATS = (st.EXEC_INT, st.EXEC_FP, st.STALL_DEPEND_LOAD,
                      st.STALL_FDIV, st.STALL_BYPASS, st.STALL_BRANCH)
    return _FOLD_CATS


class BlockBuilder:
    """Records one iteration of a compute-only region into a window.

    Obtained from :meth:`KernelContext.block`; mirrors the context's op
    constructors but appends decoded entries instead of returning op
    objects.  Recording advances the context's pc exactly like emitting
    the ops would, so code after the block sees the same fetch stream.
    """

    def __init__(self, ctx: Any, label: str) -> None:
        self._ctx = ctx
        self._label = label
        self._body: List[Tuple] = []
        self._closed = False
        self.start_pc = ctx._pc

    #: True while this region still needs its ops recorded (first use).
    recording = True

    def _open(self) -> None:
        if self._closed:
            raise ValueError(
                f"block {self._label!r}: branch_back closed the window; "
                "no further ops can be recorded"
            )

    # -- compute ----------------------------------------------------------

    def alu(self, dst: Optional[int] = None,
            srcs: Sequence[int] = ()) -> Optional[int]:
        self._open()
        ctx = self._ctx
        pc = ctx._pc
        ctx._pc = pc + 1
        self._body.append((K_INT, pc, dst, tuple(srcs), 1, None))
        return dst

    def mul(self, dst: Optional[int] = None,
            srcs: Sequence[int] = ()) -> Optional[int]:
        self._open()
        ctx = self._ctx
        pc = ctx._pc
        ctx._pc = pc + 1
        self._body.append((K_INT, pc, dst, tuple(srcs), 2, None))
        return dst

    def _fp(self, unit: str, dst: int, srcs: Sequence[int]) -> int:
        self._open()
        if unit not in FpOp.UNITS:
            raise ValueError(f"unknown FP unit {unit!r}")
        ctx = self._ctx
        pc = ctx._pc
        ctx._pc = pc + 1
        self._body.append((K_FP, pc, dst, tuple(srcs), unit,
                           unit in ("fdiv", "fsqrt")))
        return dst

    def fadd(self, dst: int, srcs: Sequence[int] = ()) -> int:
        return self._fp("fadd", dst, srcs)

    def fmul(self, dst: int, srcs: Sequence[int] = ()) -> int:
        return self._fp("fmul", dst, srcs)

    def fma(self, dst: int, srcs: Sequence[int] = ()) -> int:
        return self._fp("fma", dst, srcs)

    def fdiv(self, dst: int, srcs: Sequence[int] = ()) -> int:
        return self._fp("fdiv", dst, srcs)

    def fsqrt(self, dst: int, srcs: Sequence[int] = ()) -> int:
        return self._fp("fsqrt", dst, srcs)

    # -- local memory ------------------------------------------------------

    def load(self, addr: int, dst: Optional[int] = None,
             srcs: Sequence[int] = ()) -> int:
        """A Local-SPM load (the only memory op with tile-local timing)."""
        self._open()
        if (addr >> TAG_SHIFT) != 0:  # Local SPM carries tag 0
            raise ValueError(
                "block windows accept Local-SPM loads only (tag 0); "
                f"got address {addr:#x}"
            )
        ctx = self._ctx
        pc = ctx._pc
        ctx._pc = pc + 1
        if dst is None:
            dst = ctx._next_reg
            ctx._next_reg = dst + 1
        self._body.append((K_LD, pc, dst, tuple(srcs), addr, None))
        return dst

    # -- control ----------------------------------------------------------

    def branch_fwd(self, taken: bool, srcs: Sequence[int] = ()) -> None:
        """A forward branch with a static outcome."""
        self._open()
        ctx = self._ctx
        pc = ctx._pc
        ctx._pc = pc + 1
        self._body.append((K_BR, pc, None, tuple(srcs), taken, False))

    def branch_back(self, srcs: Sequence[int] = ()) -> None:
        """The backward branch closing the window's loop.

        Must be the last recorded op.  Its outcome is per-iteration:
        taken on every replayed iteration except the final fall-through
        (exactly the ``rnd < ROUNDS - 1`` pattern of unrolled kernels).
        """
        self._open()
        ctx = self._ctx
        pc = ctx._pc
        ctx._pc = pc + 1
        self._body.append((K_BR, pc, None, tuple(srcs), None, True))
        self._closed = True

    # -- finalization ------------------------------------------------------

    def emit(self, iters: int = 1) -> BlockOp:
        """Finalize the recording and return the window op to yield."""
        if not self._body:
            raise ValueError(f"block {self._label!r} recorded no ops")
        if iters < 1:
            raise ValueError("blocks replay at least one iteration")
        if iters > 1 and not self._closed:
            raise ValueError(
                f"block {self._label!r} replays {iters} iterations but has "
                "no closing branch_back"
            )
        ctx = self._ctx
        key = (tuple(self._body), ctx._pc)
        proto = ctx._shared_blocks.get(key)
        if proto is None:
            proto = ctx._shared_blocks[key] = BlockOp(key[0], iters, ctx._pc)
        op = ctx._blocks[self._label] = proto.replayed(iters)
        return op


class BlockReplay:
    """The cached-window handle :meth:`KernelContext.block` returns on
    every use after the first.  ``emit`` advances the context's pc past
    the region (the fetch stream re-enters the same lines) and hands
    back the recorded window."""

    recording = False

    def __init__(self, ctx: Any, op: BlockOp) -> None:
        self._ctx = ctx
        self._op = op

    def emit(self, iters: int = 1) -> BlockOp:
        op = self._op
        if iters > 1 and op.body[-1][4] is not None:
            raise ValueError("multi-iteration replay needs a closing "
                             "branch_back in the recorded block")
        self._ctx._pc = op.end_pc
        return op.replayed(iters)


class FoldTracker:
    """Detects the steady state of a replayed window and folds it.

    Usage (from the core's replay loop)::

        tracker = FoldTracker(op, core)
        for each iteration i:
            tracker.begin_iter(t)
            ... execute ops, reporting misses/futures ...
            k = tracker.end_iter(t, i)
            if k:  t = tracker.fold(t, k); jump to final iteration

    ``end_iter`` returns the number of foldable iterations (0 when the
    steady state is not yet established).
    """

    __slots__ = ("op", "core", "cats", "port", "t_start", "counts",
                 "mispred", "dirty", "prev_sig", "prev_dt", "deltas",
                 "mis_delta")

    def __init__(self, op: BlockOp, core: Any) -> None:
        self.op = op
        self.core = core
        self.cats = _fold_cats()
        # The SPM port horizon folds only when the body reserves it every
        # iteration (load_count > 0); bodies without loads never read it.
        self.port = (core.memsys.spms[core.node]._port
                     if op.load_count else None)
        self.prev_sig = None
        self.prev_dt = 0.0
        self.deltas = None
        self.mis_delta = 0
        self.dirty = False

    def begin_iter(self, t: float) -> None:
        self.t_start = t
        self.dirty = False
        cv_get = self.core.counters.raw.get
        self.counts = [cv_get(cat, 0.0) for cat in self.cats]
        self.mispred = self.core.branch.mispredictions

    def taint(self) -> None:
        """Mark the current iteration unfoldable (miss or future)."""
        self.dirty = True

    def end_iter(self, t: float, i: int) -> int:
        """Close iteration ``i``; returns how many iterations to fold."""
        op = self.op
        if self.dirty:
            self.prev_sig = None
            return 0
        core = self.core
        reg_ready = core.reg_ready
        get = reg_ready.get
        sig = [t - self.t_start]
        append = sig.append
        for r in op.writes:
            v = get(r)
            if v is None or v.__class__ is not float and v.__class__ is not int:
                self.prev_sig = None
                return 0
            append(v - t)
        for r in op.readonly:
            v = get(r)
            if v is None:
                append(0.0)
                continue
            if v.__class__ is not float and v.__class__ is not int:
                self.prev_sig = None
                return 0
            off = v - t
            # Already-ready sources can never stall again (the clock only
            # advances), so any non-positive offset is equivalent.
            append(off if off > 0 else 0.0)
        if op.has_fdiv:
            append(core._fdiv_free - t)
        if self.port is not None:
            append(self.port.free_at - t)
        prev = self.prev_sig
        self.prev_sig = sig
        if prev != sig:
            return 0
        # Steady state confirmed: capture this iteration's deltas.
        cv_get = core.counters.raw.get
        self.deltas = [cv_get(cat, 0.0) - c
                       for cat, c in zip(self.cats, self.counts)]
        self.mis_delta = core.branch.mispredictions - self.mispred
        self.prev_dt = sig[0]
        # Fold everything up to (not including) the final iteration.
        return op.iters - 2 - i

    def fold(self, t: float, k: int) -> float:
        """Advance ``k`` verified iterations arithmetically; returns t."""
        op = self.op
        core = self.core
        dt = self.prev_dt
        kdt = k * dt
        cv = core.counters.raw
        for cat, d in zip(self.cats, self.deltas):
            if d:
                cv[cat] += k * d
        branch = core.branch
        branch.predictions += k * op.branch_count
        branch.mispredictions += k * self.mis_delta
        # (icache hits are folded by the caller, which owns the
        # localized hit counter during replay.)
        reg_ready = core.reg_ready
        for r in op.writes:
            reg_ready[r] += kdt
        if op.has_fdiv:
            core._fdiv_free += kdt
        port = self.port
        if port is not None:
            port.free_at += kdt
            port.busy_cycles += k * op.load_count
        return t + kdt


def expand_blocks(gen: Generator[Any, Any, Any]) -> Generator[Any, Any, Any]:
    """Adapter re-materializing windows into the per-op stream.

    Wrapped around the kernel generator whenever any observability hook
    is attached: the classic interpreter (and the hooks watching it)
    then see exactly the op stream the recorder captured.  Send values
    (AMO old values) pass through to the inner generator untouched --
    block bodies never consume them.
    """
    send_val = None
    while True:
        try:
            op = gen.send(send_val)
        except StopIteration as stop:
            return stop.value
        if op.__class__ is BlockOp:
            send_val = None
            for sub in op.expand():
                yield sub
        else:
            send_val = yield op
