"""Kernel IR: ops, per-tile context and programs."""

from .._lazy import lazy

__getattr__, __dir__, __all__ = lazy(__name__, {
    ".context": ["KernelContext"],
    ".disasm": ["format_op", "format_trace"],
    ".ops": ["AmoOp", "BarrierOp", "BranchOp", "FenceOp", "FpOp", "IntOp",
             "LoadOp", "MemoryOps", "Op", "SleepOp", "StoreOp", "VecLoadOp"],
    ".program": ["Kernel", "kernel"],
})
