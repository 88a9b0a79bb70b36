"""Standalone drives: one layer's public API, fed seeded synthetic input,
with none of the other layers in the way (traced run only).

Each drive returns ``{metric: (value, unit)}``.  A rate says how fast
the host pushes operations through the layer; a ratio or latency next
to it is a *count* -- a simulated statistic of the same input that must
repeat exactly, so a later change that moves it changed the model, not
just the simulator.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Tuple

import repro
from repro.engine import Simulator
from repro.mem.cache import CacheBank
from repro.mem.hbm import PseudoChannel
from repro.noc import Network, WormholeStrip
from repro.pgas import Translator, local_dram
from repro.pim import MacAbk, MicroOp, PimConfig, PimEngine, RdMac, WrCrf, WrGb

import inputs

Metric = Tuple[float, str]


def _noop(_arg: Any = None) -> None:
    pass


def engine_drive(rec: Any, n: int = 200_000) -> Dict[str, Metric]:
    """No-op callbacks through ``Simulator.schedule``/``run``: half land
    in the same-cycle FIFO lane, half in the heap lane."""
    sim = Simulator()
    chunk = 1000
    t0 = time.perf_counter()
    with rec.span("engine.null_events"):
        for _ in range(n // (2 * chunk)):
            for i in range(chunk):
                sim.schedule(0, _noop)            # same-cycle lane
                sim.schedule(1 + (i & 63), _noop)  # heap lane
            sim.run()
    wall = time.perf_counter() - t0
    if sim.events_executed != n:
        raise RuntimeError("engine drive lost events")
    return {"engine.null_events_per_s": (n / wall, "1/s")}


def noc_drive(rec: Any, seed: int, n: int = 100_000) -> Dict[str, Metric]:
    """``Network.send`` on the HB-16x8 half-Ruche request plane."""
    cfg = repro.HB_16x8
    chip, cell = cfg.chip, cfg.chip.cell
    out: Dict[str, Metric] = {}
    # (x, y) among the tiles -> global node (tile rows start below the
    # north cache strip).
    lookup = {(x, y): chip.to_global(
                  (0, 0), cell.tile_coord(y * cell.tiles_x + x))
              for y in range(cell.tiles_y) for x in range(cell.tiles_x)}
    for pattern in ("uniform", "transpose"):
        net = Network(chip, cfg.timings.noc,
                      ruche=cfg.features.ruche_network, order="xy",
                      name="req")
        pairs = [(lookup[s], lookup[d]) for s, d in inputs.noc_pairs(
            seed, pattern, n, cell.tiles_x, cell.tiles_y)]
        latency = 0.0
        t0 = time.perf_counter()
        with rec.span(f"noc.send.{pattern}"):
            for i, (src, dst) in enumerate(pairs):
                now = i * 0.25  # four injections per cycle, chip-wide
                latency += net.send(src, dst, 1, now).arrival - now
        wall = time.perf_counter() - t0
        out[f"noc.send_per_s.{pattern}"] = (n / wall, "1/s")
        out[f"noc.mean_latency_cyc.{pattern}"] = (latency / n, "cycles")
    return out


def mem_drive(rec: Any, seed: int, n: int = 60_000) -> Dict[str, Metric]:
    """An address trace over 1 MB through ``PseudoChannel.access``; one
    over 64 KB -- twice a bank's capacity, so hits and misses both
    matter -- through a ``CacheBank.access_timed`` with a fresh channel
    behind it."""
    cfg = repro.HB_16x8
    hbm_t, cache_t = cfg.timings.hbm, cfg.timings.cache
    trace = inputs.parse_mem_trace(inputs.mem_trace(seed, n, rows=64),
                                   hbm_t.row_bytes, hbm_t.banks)
    out: Dict[str, Metric] = {}

    channel = PseudoChannel(hbm_t, name="drive")
    t0 = time.perf_counter()
    with rec.span("mem.hbm_access"):
        for i, (addr, is_write) in enumerate(trace):
            channel.access(addr, is_write, float(4 * i))
    wall = time.perf_counter() - t0
    counts = channel.counters.as_dict()
    out["mem.hbm_access_per_s"] = (n / wall, "1/s")
    out["mem.hbm_row_hit_ratio"] = (counts.get("row_hits", 0) / n, "ratio")

    trace = inputs.parse_mem_trace(inputs.mem_trace(seed, n // 3, rows=4),
                                   hbm_t.row_bytes, hbm_t.banks)
    sim = Simulator()
    bank = CacheBank(sim, cache_t, PseudoChannel(hbm_t, name="behind"),
                     WormholeStrip(num_banks=cfg.chip.cell.tiles_x), 0,
                     write_validate=cfg.features.write_validate,
                     nonblocking=cfg.features.nonblocking_cache,
                     name="drive")
    t0 = time.perf_counter()
    with rec.span("mem.cache_access"):
        for i, (addr, is_write) in enumerate(trace):
            bank.access_timed(addr, is_write, float(4 * i))
            if i % 256 == 255:
                sim.run(until=float(4 * i))  # let the misses refill
        sim.run()
    wall = time.perf_counter() - t0
    counts = bank.counters.as_dict()
    hits = counts.get("load_hits", 0) + counts.get("store_hits", 0)
    out["mem.cache_access_per_s"] = (len(trace) / wall, "1/s")
    out["mem.cache_hit_ratio"] = (hits / counts["accesses"], "ratio")
    return out


def pim_drive(rec: Any, seed: int, n: int = 20_000) -> Dict[str, Metric]:
    """An AiM command trace through ``PimEngine.execute``."""
    cfg = repro.HB_16x8
    pim_cfg = PimConfig()
    engine = PimEngine(pim_cfg, PseudoChannel(cfg.timings.hbm, name="pim"))
    lanes = pim_cfg.simd_width
    for bank in range(engine.nbanks):
        engine.load_bank_rows(bank, {row: [float(row + 1)] * lanes
                                     for row in range(8)})
    engine.execute(WrCrf(0, MicroOp("mac", 0)), 0.0)
    commands = []
    for line in inputs.pim_trace(seed, n):
        _aim, op, a, *rest = line.split()
        if op == "WR_GB":
            commands.append(WrGb([float(int(a) & 7)] * lanes))
        elif op == "MAC_ABK":
            commands.append(MacAbk(int(a), int(rest[0])))
        else:
            commands.append(RdMac(int(a) % engine.nbanks, int(rest[0])))
    now = 1.0
    t0 = time.perf_counter()
    with rec.span("pim.execute"):
        for cmd in commands:
            now, _payload = engine.execute(cmd, now)
    wall = time.perf_counter() - t0
    return {"pim.cmd_per_s": (len(commands) / wall, "1/s")}


def pgas_drive(rec: Any, seed: int, n: int = 50_000) -> Dict[str, Metric]:
    """``Translator.translate`` on never-seen addresses (cold: the hash
    and bit slicing run) and on the same ones again (warm: the memo)."""
    cfg = repro.HB_16x8
    chip = cfg.chip
    translator = Translator(chip, cfg.timings.cache.block_bytes,
                            use_ipoly=cfg.features.ipoly_hashing,
                            grid_cells=cfg.global_grid)
    tiles = [chip.to_global((0, 0), t) for t in chip.cell.tile_coords()]
    work = [(local_dram(off), tiles[i % len(tiles)])
            for i, off in enumerate(inputs.pgas_addrs(seed, n))]
    out: Dict[str, Metric] = {}
    for phase in ("cold", "warm"):
        t0 = time.perf_counter()
        with rec.span(f"pgas.translate.{phase}"):
            for addr, node in work:
                translator.translate(addr, node)
        out[f"pgas.translate_per_s.{phase}"] = (
            n / (time.perf_counter() - t0), "1/s")
    return out


def run_all(rec: Any, seed: int, smoke: bool) -> Dict[str, Metric]:
    scale = 10 if smoke else 1
    out: Dict[str, Metric] = {}
    out.update(engine_drive(rec, 200_000 // scale))
    out.update(noc_drive(rec, seed, 100_000 // scale))
    out.update(mem_drive(rec, seed, 60_000 // scale))
    out.update(pim_drive(rec, seed, 20_000 // scale))
    out.update(pgas_drive(rec, seed, 50_000 // scale))
    return out
