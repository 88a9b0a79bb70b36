"""Seeded inputs: everything the benchmark hands the program.

``--seed`` reaches the program only through what is generated here --
kernel arguments (``make_args(seed=...)`` and the graph generators),
the serve job seeds, and the drive traces.  The same seed gives the
same inputs; the program never sees the seed itself.

Input sizes are the benchmark's own (``SIZES`` below), chosen so one
pass over eleven kernels costs ~2 s of host time on HB-16x8 while
every kernel still runs >= 0.1 s (a shorter run times machine
construction, not simulation).  See README.md, "Sizing".
"""

from __future__ import annotations

import dataclasses
import random
from typing import Any, Callable, Dict, List, Tuple

from repro.experiments import HARNESSES
from repro.kernels import (aes, barneshut, bfs, blackscholes, fft, jacobi,
                           pagerank, sgemm, smithwaterman, spgemm)
from repro.kernels.registry import SUITE
from repro.pdes import LaunchSpec
from repro.pdes import fixture as xfix
from repro.pim.kernels import OFFLOADS
from repro.workloads import hollywood_like, roadnet_like, wiki_vote_like

#: 0.7-2 host events per instruction, up to 18 per simulated cycle: the
#: engine, noc, pgas and mem layers do the work.
REMOTE_GROUP = ("SGEMM", "Jacobi", "FFT", "BH", "SpGEMM", "PR", "BFS")
#: < 0.6 events per instruction: folded block replay inside core/isa.
LOCAL_GROUP = ("AES", "BS", "SW")
#: Run a second time with trace + sanitize + audit attached.
CHECKED = ("PR", "AES", "Jacobi", "BFS")
GEMV = "GEMV-pim"
KERNELS = REMOTE_GROUP + LOCAL_GROUP + (GEMV,)

#: name -> (seed -> args).  The graph generators' own default seeds
#: (1, 2, 3) are kept as offsets so seed 0 is the repo's usual input.
SIZES: Dict[str, Callable[[int], Dict[str, Any]]] = {
    "SGEMM": lambda s: sgemm.make_args(n=24, seed=s),
    "Jacobi": lambda s: jacobi.make_args(z_depth=8, iters=1, tiles=128),
    "FFT": lambda s: fft.make_args(n=256, seed=s),
    "BH": lambda s: barneshut.make_args(num_bodies=24, tiles=16, seed=s),
    "SpGEMM": lambda s: spgemm.make_args(
        matrix=wiki_vote_like(scale=0.1, seed=1 + s)),
    "PR": lambda s: pagerank.make_args(
        graph=hollywood_like(scale=0.1, seed=2 + s), iters=1),
    "BFS": lambda s: bfs.make_args(
        graph=roadnet_like(width=10, height=10, seed=3 + s)),
    "AES": lambda s: aes.make_args(blocks_per_tile=1, tiles=128, seed=s),
    "BS": lambda s: blackscholes.make_args(options_per_tile=8, tiles=128,
                                           seed=s),
    "SW": lambda s: smithwaterman.make_args(query_len=8, ref_len=12,
                                            tiles=128, seed=s),
}


def kernel_args(name: str, seed: int) -> Dict[str, Any]:
    """Fresh args for one run (kernels mutate them, so never reuse)."""
    return SIZES[name](seed)


def kernel_of(name: str) -> Any:
    return SUITE[name].kernel


def gemv_args(config: Any, seed: int) -> Dict[str, Any]:
    """GEMV operands for both the tile side and the memory side."""
    pim = config.pim
    return OFFLOADS["GEMV"].make_args(
        m=32, n=32, seed=seed, nbanks=config.timings.hbm.banks,
        simd_width=pim.simd_width, grf_entries=pim.grf_entries)


# -- multi-Cell entries -------------------------------------------------------

#: Cross-Cell fixtures (round- and transport-bound) and Cell-local
#: free-run kernels (engine-bound, one round).
FIXTURES = ("exchange-256", "exchange-2048", "pipeline-256", "pipeline-2048")
FREE = ("PR-free", "Jacobi-free")
CELL_ENTRIES = FIXTURES + FREE


def cells_launches(entry: str, config: Any, seed: int) -> List[Any]:
    kind, _, arg = entry.rpartition("-")
    if kind == "exchange":
        return xfix.exchange_launches(config, words=int(arg))
    if kind == "pipeline":
        return xfix.pipeline_launches(config, words=int(arg))
    return [LaunchSpec(cell=xy, kernel=kind, args=kernel_args(kind, seed),
                       remote=False)
            for xy in config.chip.cells()]


# -- serve job lists ----------------------------------------------------------

def _reseeded(jobs: List[Any], n: int, first_seed: int) -> List[Any]:
    return [dataclasses.replace(jobs[i % len(jobs)], seed=first_seed + i)
            for i in range(n)]


def tiny_jobs(n: int, seed: int, batch: int) -> List[Any]:
    """``n`` fig4 barrier jobs (< 1 ms of simulation each) whose job
    seeds no earlier batch of this run used, so each is executed."""
    return _reseeded(HARNESSES["fig4"].jobs(), n,
                     (seed + 1) * 10_000_000 + batch * 100_000)


def sim_jobs(n: int, seed: int, batch: int) -> List[Any]:
    """``n`` jobs of the fig10 ladder's last rungs at tiny size (~0.15 s
    of simulation each): the simulation, not the daemon, dominates."""
    ladder = HARNESSES["fig10"].jobs(size="tiny")
    return _reseeded(ladder[-n:], n,
                     (seed + 1) * 10_000_000 + 5_000_000 + batch * 1000)


# -- drive traces -------------------------------------------------------------

#: One pseudo-channel's physical address, after the layout in the
#: HBM-PIMulator traces (SNIPPETS.md snippet 1), channel bits dropped
#: because a Cell owns exactly one pseudo-channel:
#: [2 bankgroup][2 bank][14 row][5 column][5 offset].
BG_BITS, BANK_BITS, COL_BITS = 2, 2, 5


def mem_trace(seed: int, n: int, rows: int) -> List[str]:
    """``R|W MEM <bg> <bank> <row> <col>`` lines: bursts of sequential
    columns in one row (row hits) broken by jumps to a random bank and
    one of ``rows`` rows (opens and conflicts), 1 write in 4.  The
    footprint is ``rows`` x 16 banks x 1 KB."""
    rng = random.Random(seed)
    lines: List[str] = []
    while len(lines) < n:
        bg, bank = rng.randrange(1 << BG_BITS), rng.randrange(1 << BANK_BITS)
        row = rng.randrange(rows)
        col = rng.randrange(1 << COL_BITS)
        for _ in range(rng.randint(1, 8)):
            op = "W" if rng.random() < 0.25 else "R"
            lines.append(f"{op} MEM {bg} {bank} {row} {col}")
            col = (col + 2) % (1 << COL_BITS)  # 64 B line = two 32 B columns
    return lines[:n]


def parse_mem_trace(lines: List[str], row_bytes: int, banks: int
                    ) -> List[Tuple[int, bool]]:
    """Trace lines -> ``(byte address, is_write)`` under the model's own
    row-interleaved bank mapping (row unit = addr // row_bytes)."""
    out = []
    for line in lines:
        op, _mem, bg, bank, row, col = line.split()
        bank_index = (int(bg) << BANK_BITS | int(bank)) % banks
        addr = (int(row) * banks + bank_index) * row_bytes + int(col) * 32
        out.append((addr, op == "W"))
    return out


def pim_trace(seed: int, n: int, rows: int = 8) -> List[str]:
    """AiM lines: ``WR_GB`` an operand, ``MAC_ABK`` a few rows on every
    bank, ``RD_MAC`` one bank's accumulator -- the GEMV inner loop."""
    rng = random.Random(seed)
    lines: List[str] = []
    while len(lines) < n:
        lines.append(f"AiM WR_GB {rng.randrange(1 << 16)}")
        for _ in range(rng.randint(2, 6)):
            lines.append(f"AiM MAC_ABK {rng.randrange(rows)} 0")
        lines.append(f"AiM RD_MAC {rng.randrange(16)} 0")
    return lines[:n]


def noc_pairs(seed: int, pattern: str, n: int, width: int, height: int
              ) -> List[Tuple[Tuple[int, int], Tuple[int, int]]]:
    """``n`` (src, dst) tile pairs in Cell-local coordinates."""
    rng = random.Random(seed)
    pairs = []
    for _ in range(n):
        sx, sy = rng.randrange(width), rng.randrange(height)
        if pattern == "uniform":
            dst = (rng.randrange(width), rng.randrange(height))
        else:  # transpose across the Cell's two axes, scaled to 2:1
            dst = (sy * width // height, sx * height // width)
        pairs.append(((sx, sy), dst))
    return pairs


def pgas_addrs(seed: int, n: int) -> List[int]:
    """Local-DRAM byte offsets with a strided and a random half."""
    rng = random.Random(seed)
    return [(i * 64) % (1 << 20) if i % 2 else rng.randrange(1 << 20) & ~3
            for i in range(n)]
