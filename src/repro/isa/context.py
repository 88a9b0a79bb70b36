"""Per-tile kernel context: the API kernel code is written against.

A kernel is ``def kernel(t, args): yield ...`` where ``t`` is a
:class:`KernelContext`.  The context provides

* tile identity (global coordinates, Cell, tile-group rank and shape),
* register allocation,
* op constructors that assign program counters (with loop-back support so
  the icache model sees loops, not an infinite straight line),
* PGAS address helpers bound to this tile's position.

It deliberately mirrors the C/CUDA-flavoured examples in the paper
(Figs 6-8): ``__tile_x``/``__tile_y`` become ``t.tile_x``/``t.tile_y``,
``group_spm(x, y, p)`` becomes ``t.group_spm_ptr(dx, dy, off)``, and the
amoadd parallel for-loop becomes :meth:`amoadd`.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from ..arch.geometry import Coord
from ..pgas import spaces
from .ops import (
    AmoOp,
    BarrierOp,
    BranchOp,
    FenceOp,
    FpOp,
    IntOp,
    LoadOp,
    PimFenceOp,
    PimIssueOp,
    PimReadOp,
    SleepOp,
    StoreOp,
    VecLoadOp,
)


class KernelContext:
    """Everything a kernel can see from one tile."""

    def __init__(self, node: Coord, cell_xy: Coord, cell_origin: Coord,
                 group_rank: int, group_size: int,
                 group_shape: Tuple[int, int], barrier_group: object,
                 num_groups: int = 1, group_index: int = 0,
                 shared_blocks: Optional[dict] = None) -> None:
        self.node = node
        self.cell_xy = cell_xy
        self._cell_origin = cell_origin
        self.group_rank = group_rank
        self.group_size = group_size
        self.group_shape = group_shape
        self.barrier_group = barrier_group
        self.num_groups = num_groups
        self.group_index = group_index
        self._next_reg = 1
        self._pc = 0
        # Recorded compute windows, by label (see :meth:`block`).
        self._blocks = {}
        # Windows recorded by any tile of the same launch, by body: the
        # tiles of a launch record the same few bodies, so each is
        # analysed (and decoded for replay) once, not once per tile.
        self._shared_blocks = {} if shared_blocks is None else shared_blocks
        # r0 behaves like RISC-V x0: always ready, never written.
        self.zero = 0

    # -- identity ---------------------------------------------------------

    @property
    def tile_x(self) -> int:
        """Tile x within its Cell (0-based)."""
        return self.node[0] - self._cell_origin[0]

    @property
    def tile_y(self) -> int:
        """Tile y within its Cell's compute array (0-based)."""
        return self.node[1] - self._cell_origin[1] - 1

    # -- registers and program counters ------------------------------------

    def reg(self) -> int:
        """Allocate a fresh virtual register."""
        r = self._next_reg
        self._next_reg += 1
        return r

    def regs(self, n: int) -> Tuple[int, ...]:
        return tuple(self.reg() for _ in range(n))

    def _pc_next(self) -> int:
        pc = self._pc
        self._pc += 1
        return pc

    def loop_top(self) -> int:
        """Mark the top of a loop; pass to :meth:`branch_back`."""
        return self._pc

    def branch_back(self, top: int, taken: bool = True,
                    srcs: Sequence[int] = ()) -> BranchOp:
        """The backward branch closing a loop.

        When taken, the pc rolls back to ``top`` so the next iteration
        re-fetches the same icache lines.  The static predictor guesses
        taken for backward branches, so only the final (fall-through)
        execution mispredicts.
        """
        op = BranchOp(taken=taken, backward=True, srcs=srcs, pc=self._pc_next())
        if taken:
            self._pc = top
        return op

    def branch_fwd(self, taken: bool, srcs: Sequence[int] = ()) -> BranchOp:
        """A forward branch; predicted not-taken, so taken ones flush."""
        return BranchOp(taken=taken, backward=False, srcs=srcs, pc=self._pc_next())

    # -- batched compute windows -------------------------------------------

    def block(self, label: str):
        """A recorded compute-only window (see :mod:`repro.engine.batch`).

        The first call for ``label`` returns a recording builder
        (``blk.recording`` is True); later calls return a replay handle
        for the cached window.  Both provide ``emit(iters)``, so the
        idiomatic use records lazily at the loop position -- keeping pcs
        identical to the hand-unrolled stream::

            blk = t.block("round")
            if blk.recording:
                ... blk.alu(...)/blk.load(...)/blk.branch_back() ...
            yield blk.emit(iters=ROUNDS)
        """
        from ..engine.batch import BlockBuilder, BlockReplay

        cached = self._blocks.get(label)
        if cached is not None:
            return BlockReplay(self, cached)
        return BlockBuilder(self, label)

    # -- compute ops --------------------------------------------------------

    # The compute/memory constructors below inline the pc bump
    # (``self._pc``) instead of calling :meth:`_pc_next`: kernels create
    # one op per simulated instruction, so each avoided call counts.

    def alu(self, dst: Optional[int] = None, srcs: Sequence[int] = ()) -> IntOp:
        pc = self._pc
        self._pc = pc + 1
        return IntOp(dst, srcs, 1, pc)

    def mul(self, dst: Optional[int] = None, srcs: Sequence[int] = ()) -> IntOp:
        pc = self._pc
        self._pc = pc + 1
        return IntOp(dst, srcs, 2, pc)

    def fadd(self, dst: int, srcs: Sequence[int] = ()) -> FpOp:
        pc = self._pc
        self._pc = pc + 1
        return FpOp(dst, srcs, "fadd", pc)

    def fmul(self, dst: int, srcs: Sequence[int] = ()) -> FpOp:
        pc = self._pc
        self._pc = pc + 1
        return FpOp(dst, srcs, "fmul", pc)

    def fma(self, dst: int, srcs: Sequence[int] = ()) -> FpOp:
        pc = self._pc
        self._pc = pc + 1
        return FpOp(dst, srcs, "fma", pc)

    def fdiv(self, dst: int, srcs: Sequence[int] = ()) -> FpOp:
        pc = self._pc
        self._pc = pc + 1
        return FpOp(dst, srcs, "fdiv", pc)

    def fsqrt(self, dst: int, srcs: Sequence[int] = ()) -> FpOp:
        pc = self._pc
        self._pc = pc + 1
        return FpOp(dst, srcs, "fsqrt", pc)

    # -- memory ops ----------------------------------------------------------

    def load(self, addr: int, dst: Optional[int] = None,
             srcs: Sequence[int] = (), racy: bool = False) -> LoadOp:
        pc = self._pc
        self._pc = pc + 1
        if dst is None:
            dst = self._next_reg
            self._next_reg = dst + 1
        return LoadOp(dst, addr, srcs, pc, racy)

    def vload(self, addr: int, n: int = 4, srcs: Sequence[int] = (),
              racy: bool = False,
              dsts: Optional[Sequence[int]] = None) -> VecLoadOp:
        """``n`` sequential word loads (the Load Packet Compression idiom).

        ``dsts`` names the destination registers explicitly (they must
        number ``n``); kernels with recorded compute windows use this to
        land each stripe in a fixed register set so the window's operand
        tuples stay valid across iterations.  Timing is identical either
        way -- ready times are tracked per register id.
        """
        if dsts is None:
            dsts = self.regs(n)
        elif len(dsts) != n:
            raise ValueError(f"vload of {n} words got {len(dsts)} dsts")
        return VecLoadOp(dsts, addr, srcs=srcs, pc=self._pc_next(),
                         racy=racy)

    def store(self, addr: int, srcs: Sequence[int] = (),
              racy: bool = False) -> StoreOp:
        pc = self._pc
        self._pc = pc + 1
        return StoreOp(addr, srcs, pc, racy)

    def amoadd(self, addr: int, value: int = 1) -> AmoOp:
        return AmoOp(self.reg(), addr, "add", value, pc=self._pc_next())

    def amoor(self, addr: int, value: int) -> AmoOp:
        return AmoOp(self.reg(), addr, "or", value, pc=self._pc_next())

    def amoswap(self, addr: int, value: int) -> AmoOp:
        return AmoOp(self.reg(), addr, "swap", value, pc=self._pc_next())

    def fence(self) -> FenceOp:
        return FenceOp(pc=self._pc_next())

    def barrier(self) -> BarrierOp:
        return BarrierOp(group=self.barrier_group, pc=self._pc_next())

    def sleep(self, cycles: int) -> SleepOp:
        return SleepOp(cycles, pc=self._pc_next())

    # -- processing-in-memory ops --------------------------------------------

    def pim_issue(self, command: object,
                  addr: Optional[int] = None) -> PimIssueOp:
        """Fire-and-forget PIM command to this Cell's channel (or ``addr``)."""
        if addr is None:
            addr = self.pim()
        return PimIssueOp(addr, command, pc=self._pc_next())

    def pim_read(self, command: object,
                 addr: Optional[int] = None) -> PimReadOp:
        """Blocking PIM command; ``yield`` returns its payload tuple."""
        if addr is None:
            addr = self.pim()
        return PimReadOp(addr, command, pc=self._pc_next())

    def pim_fence(self) -> PimFenceOp:
        """Wait for every PIM command this tile has issued."""
        return PimFenceOp(pc=self._pc_next())

    # -- PGAS address helpers -------------------------------------------------

    def spm(self, offset: int) -> int:
        """This tile's own scratchpad."""
        return spaces.local_spm(offset)

    def group_spm_ptr(self, dx: int, dy: int, offset: int) -> int:
        """A neighbour tile's scratchpad, by relative tile offset."""
        return spaces.group_spm(self.node[0] + dx, self.node[1] + dy, offset)

    def tile_spm_ptr(self, tile_x: int, tile_y: int, offset: int) -> int:
        """Another tile's scratchpad by cell-local tile coordinates."""
        ox, oy = self._cell_origin
        return spaces.group_spm(ox + tile_x, oy + 1 + tile_y, offset)

    def local_dram(self, offset: int) -> int:
        return spaces.local_dram(offset)

    def group_dram(self, cell_x: int, cell_y: int, offset: int) -> int:
        return spaces.group_dram(cell_x, cell_y, offset)

    def global_dram(self, offset: int) -> int:
        return spaces.global_dram(offset)

    def pim(self, channel: int = 0) -> int:
        """This Cell's PIM command window (one per pseudo-channel)."""
        return spaces.pim_window(self.cell_xy[0], self.cell_xy[1], channel)
