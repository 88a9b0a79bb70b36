"""Batched execution: golden pins, exact-path equivalence, and a
property test over random fast-path/fallback instruction interleavings.

The batched engine (BlockOp windows + FoldTracker + the inlined remote
fast paths in ``TileCore._run``) must be cycle- and counter-identical to
the exact per-op interpreter (``EXACT_MODE`` / ``expand_blocks``).  The
golden pins here cover the *whole* ten-kernel suite at small size, so a
fold-soundness bug in any kernel's steady state moves a pinned number.
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as hs

import repro.core.tile as tile_mod
from repro.arch.config import HB_16x8, small_config
from repro.engine import Future
from repro.experiments.common import run_suite
from repro.isa.program import kernel
from repro.runtime.machine import Machine

#: Absolute cycle counts at small size on the full HB-16x8 machine,
#: captured from the exact per-op interpreter.  The batched path must
#: reproduce every one bit-identically.
GOLDEN_CYCLES_SMALL = {
    "AES": 9027,
    "BS": 3642,
    "SW": 3290,
    "SGEMM": 4753,
    "FFT": 5204,
    "Jacobi": 3978,
    "SpGEMM": 11569,
    "PR": 3211,
    "BFS": 46757,
    "BH": 12044,
}


@pytest.fixture(scope="module")
def small_suite():
    return run_suite(HB_16x8, size="small",
                     kernels=sorted(GOLDEN_CYCLES_SMALL))


@pytest.mark.parametrize("name", sorted(GOLDEN_CYCLES_SMALL))
def test_small_suite_golden_cycles(small_suite, name):
    assert small_suite[name].cycles == GOLDEN_CYCLES_SMALL[name]


def test_small_suite_finite_stats(small_suite):
    for result in small_suite.values():
        assert math.isfinite(result.cycles)
        assert sum(result.core_breakdown.values()) == pytest.approx(1.0)


# -- batched vs exact interpreter -------------------------------------------


def _snapshot(result):
    return {
        "cycles": result.cycles,
        "instructions": result.instructions,
        "int_instructions": result.int_instructions,
        "fp_instructions": result.fp_instructions,
        "core_breakdown": result.core_breakdown,
        "cache_hit_rate": result.cache_hit_rate,
        "network": result.network,
        "hbm": result.hbm,
    }


def _run_exact(fn, *args, **kwargs):
    old = tile_mod.EXACT_MODE
    tile_mod.EXACT_MODE = True
    try:
        return fn(*args, **kwargs)
    finally:
        tile_mod.EXACT_MODE = old


@pytest.mark.parametrize("name", ["AES", "SGEMM", "Jacobi"])
def test_batched_matches_exact_interpreter(name):
    batched = run_suite(HB_16x8, size="tiny", kernels=[name])
    exact = _run_exact(run_suite, HB_16x8, size="tiny", kernels=[name])
    assert _snapshot(batched[name]) == _snapshot(exact[name])


# -- property: random fast-path/fallback interleavings ----------------------

_NREGS = 6

_simple_ops = hs.tuples(
    hs.sampled_from(["alu", "mul", "fadd", "fma", "fdiv"]),
    hs.integers(0, _NREGS - 1),   # dst register index
    hs.integers(0, _NREGS - 1),   # src register index
)
_mem_ops = hs.one_of(
    hs.tuples(hs.just("load_local"), hs.integers(0, 63),
              hs.integers(0, _NREGS - 1)),
    hs.tuples(hs.just("load_remote"), hs.integers(0, 63),
              hs.integers(0, _NREGS - 1)),
    hs.tuples(hs.just("store_remote"), hs.integers(0, 63),
              hs.integers(0, _NREGS - 1)),
    hs.tuples(hs.just("amo"), hs.integers(0, 15)),
)
_block_body_op = hs.one_of(
    hs.tuples(hs.sampled_from(["alu", "fma"]),
              hs.integers(0, _NREGS - 1), hs.integers(0, _NREGS - 1)),
    hs.tuples(hs.just("load"), hs.integers(0, 63),
              hs.integers(0, _NREGS - 1)),
)
_block = hs.tuples(
    hs.just("block"),
    hs.integers(1, 5),                                  # iterations
    hs.lists(_block_body_op, min_size=1, max_size=4),   # body
)
_program = hs.lists(hs.one_of(_simple_ops, _mem_ops, _block),
                    min_size=1, max_size=12)


def _make_kernel(descrs):
    @kernel("prop")
    def prop(t, args):
        regs = t.regs(_NREGS)
        blocks = 0
        for d in descrs:
            kind = d[0]
            if kind == "alu":
                yield t.alu(regs[d[1]], [regs[d[2]]])
            elif kind == "mul":
                yield t.mul(regs[d[1]], [regs[d[2]]])
            elif kind == "fadd":
                yield t.fadd(regs[d[1]], [regs[d[2]]])
            elif kind == "fma":
                yield t.fma(regs[d[1]], [regs[d[2]]])
            elif kind == "fdiv":
                yield t.fdiv(regs[d[1]], [regs[d[2]]])
            elif kind == "load_local":
                yield t.load(t.spm(d[1] * 4), regs[d[2]])
            elif kind == "load_remote":
                yield t.load(t.local_dram(d[1] * 4), regs[d[2]])
            elif kind == "store_remote":
                yield t.store(t.local_dram(d[1] * 4), [regs[d[2]]])
            elif kind == "amo":
                yield t.amoadd(t.local_dram(4096 + d[1] * 4))
            elif kind == "block":
                _, iters, body = d
                blocks += 1
                blk = t.block(f"b{blocks}")
                if blk.recording:
                    for b in body:
                        if b[0] == "alu":
                            blk.alu(regs[b[1]], [regs[b[2]]])
                        elif b[0] == "fma":
                            blk.fma(regs[b[1]], [regs[b[2]]])
                        else:
                            blk.load(t.spm(b[1] * 4), regs[b[2]])
                    blk.branch_back()
                yield blk.emit(iters=iters)
        yield t.barrier()

    return prop


def _norm_ready(value):
    # Outstanding nonblocking loads leave a Future in the ready table;
    # compare by resolution state, not object identity.
    if isinstance(value, Future):
        return ("future", value._done, value._value)
    return value


def _run_program(descrs):
    cfg = small_config(2, 2)
    machine = Machine(cfg)
    cell = machine.cell(0, 0)
    cell.load_kernel(_make_kernel(descrs))
    handle = cell.launch(None)
    machine.run_to_completion([handle])
    core = handle.cores[0]
    return {
        "cycles": machine.sim.now,
        "counters": core.counters.as_dict(),
        "reg_ready": {r: _norm_ready(v) for r, v in core.reg_ready.items()},
        "reg_kind": dict(core.reg_kind),
        "atomics": dict(machine.memsys.atomic_mem),
    }


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_program)
def test_random_interleavings_match_exact_interpreter(descrs):
    batched = _run_program(descrs)
    exact = _run_exact(_run_program, descrs)
    assert batched == exact


# -- one analysis per recorded body, shared by the tiles of a launch ---------

def _record(ctx, iters, fp_unit="fma"):
    blk = ctx.block("round")
    assert blk.recording
    acc = blk.alu(dst=ctx.reg())
    getattr(blk, fp_unit)(ctx.reg(), srcs=(acc,))
    blk.branch_back()
    return blk.emit(iters=iters)


def test_tiles_of_a_launch_share_a_recorded_body():
    from repro.isa.context import KernelContext

    shared = {}
    ops = []
    for rank, node in enumerate([(0, 1), (1, 1), (2, 1)]):
        ctx = KernelContext(node=node, cell_xy=(0, 0), cell_origin=(0, 0),
                            group_rank=rank, group_size=3, group_shape=(3, 1),
                            barrier_group=None, shared_blocks=shared)
        ops.append(_record(ctx, iters=8 if rank < 2 else 5))
    assert len(shared) == 1
    assert ops[0] is ops[1]
    assert ops[2] is not ops[0] and ops[2].iters == 5
    assert ops[2].body is ops[0].body and ops[2].writes is ops[0].writes
    # A different body (or the same one at another pc) is its own entry.
    other = KernelContext(node=(3, 1), cell_xy=(0, 0), cell_origin=(0, 0),
                          group_rank=0, group_size=1, group_shape=(1, 1),
                          barrier_group=None, shared_blocks=shared)
    assert _record(other, iters=8, fp_unit="fmul") is not ops[0]
    assert len(shared) == 2
    # Without a launch-wide table a context keeps its own.
    alone = KernelContext(node=(0, 1), cell_xy=(0, 0), cell_origin=(0, 0),
                          group_rank=0, group_size=1, group_shape=(1, 1),
                          barrier_group=None)
    assert _record(alone, iters=8) is not ops[0]
