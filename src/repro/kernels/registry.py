"""The benchmark registry: Table I in code.

``SUITE`` maps short names to ``(kernel, default-args factory)`` pairs;
experiment harnesses iterate it to cover every kernel.  ``FAST_SCALE``
factories produce reduced inputs for quick runs (tests, smoke benches).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Tuple

from ..isa.program import Kernel
from ..perf.counters import FIG11_ORDER  # noqa: F401 -- re-exported
from . import (
    aes,
    barneshut,
    bfs,
    blackscholes,
    fft,
    jacobi,
    pagerank,
    sgemm,
    smithwaterman,
    spgemm,
)


@dataclass(frozen=True)
class Benchmark:
    """One Table-I row: kernel + workload factory + dwarf metadata."""

    name: str
    kernel: Kernel
    make_args: Callable[..., Dict[str, Any]]
    dwarf: str
    category: str


SUITE: Dict[str, Benchmark] = {
    "AES": Benchmark("AES", aes.KERNEL, aes.make_args,
                     "Combinational Logic", "compute-low-comm"),
    "BS": Benchmark("BS", blackscholes.KERNEL, blackscholes.make_args,
                    "MapReduce", "compute-low-comm"),
    "SW": Benchmark("SW", smithwaterman.KERNEL, smithwaterman.make_args,
                    "Dynamic Programming", "compute-low-comm"),
    "SGEMM": Benchmark("SGEMM", sgemm.KERNEL, sgemm.make_args,
                       "Dense Linear Algebra", "compute-sequential"),
    "FFT": Benchmark("FFT", fft.KERNEL, fft.make_args,
                     "Spectral Methods", "compute-sequential"),
    "Jacobi": Benchmark("Jacobi", jacobi.KERNEL, jacobi.make_args,
                        "Structured Grids", "compute-sequential"),
    "SpGEMM": Benchmark("SpGEMM", spgemm.KERNEL, spgemm.make_args,
                        "Sparse Linear Algebra", "memory-irregular"),
    "PR": Benchmark("PR", pagerank.KERNEL, pagerank.make_args,
                    "Sparse Linear Algebra", "memory-irregular"),
    "BFS": Benchmark("BFS", bfs.KERNEL, bfs.make_args,
                     "Graph Traversal", "memory-irregular"),
    "BH": Benchmark("BH", barneshut.KERNEL, barneshut.make_args,
                    "N-Body Methods", "memory-irregular"),
}


def fast_args(name: str, tiles: int = 16) -> Dict[str, Any]:
    """Reduced-size inputs sized for small test machines."""
    makers: Dict[str, Callable[[], Dict[str, Any]]] = {
        "AES": lambda: aes.make_args(blocks_per_tile=2, tiles=tiles),
        "BS": lambda: blackscholes.make_args(options_per_tile=3, tiles=tiles),
        "SW": lambda: smithwaterman.make_args(query_len=8, ref_len=12,
                                              tiles=tiles),
        "SGEMM": lambda: sgemm.make_args(n=16),
        "FFT": lambda: fft.make_args(n=256),
        "Jacobi": lambda: jacobi.make_args(z_depth=16, iters=1, tiles=tiles),
        "SpGEMM": lambda: spgemm.make_args(scale=0.1),
        "PR": lambda: pagerank.make_args(scale=0.1, iters=1),
        "BFS": lambda: bfs.make_args(width=10),
        "BH": lambda: barneshut.make_args(num_bodies=24, tiles=tiles),
    }
    return makers[name]()
