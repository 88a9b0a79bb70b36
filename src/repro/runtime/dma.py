"""Host-side bulk data movement.

The paper's host runtime "is responsible for memory management and data
transfer"; the Global DRAM space lets the host move large blocks onto
the chip at full DRAM bandwidth (Section IV-A(5)), and Cells exchange
phase results either through Group DRAM pointers or the global space.

These helpers price such transfers against the simulated machine's
resources -- the HBM channels and, for Cell-to-Cell copies, the
inter-Cell network links -- without occupying tiles.  Multi-Cell
experiments use them for the paper's "conservatively estimated data
transfer time between program phases" methodology.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..arch.geometry import Coord
from .machine import Machine


@dataclass
class TransferReport:
    """Timing of one bulk transfer."""

    start: float
    done: float
    payload_bytes: int

    @property
    def cycles(self) -> float:
        return self.done - self.start

    def bandwidth(self) -> float:
        """Achieved bytes per cycle."""
        if self.cycles <= 0:
            return 0.0
        return self.payload_bytes / self.cycles


def host_to_cell(machine: Machine, cell_xy: Coord, offset: int,
                 nbytes: int, time: float = None) -> TransferReport:
    """Stream a host block into a Cell's Local DRAM at full bandwidth.

    Occupies the Cell's HBM pseudo-channel (line-granular writes) and the
    wormhole strips, exactly like a write-validate flush would.
    """
    if nbytes <= 0:
        raise ValueError("transfer needs a positive size")
    sim = machine.sim
    t0 = sim.now if time is None else time
    probe = machine.memsys._probe
    if probe is not None:
        # One range-granular host write over the target Cell's DRAM.
        probe.host_range(cell_xy, offset, nbytes, True)
    channel = machine.memsys.hbm[cell_xy]
    block = machine.config.timings.cache.block_bytes
    done = t0
    addr = offset
    remaining = nbytes
    while remaining > 0:
        done = max(done, channel.access(addr, is_write=True, time=t0))
        addr += block
        remaining -= block
    return TransferReport(start=t0, done=done, payload_bytes=nbytes)


def cell_to_cell(machine: Machine, src: Coord, dst: Coord, nbytes: int,
                 sparse: bool = False, time: float = None) -> TransferReport:
    """Move a block between two Cells over the word network.

    Prices the transfer against the actual inter-Cell links: one word per
    packet for ``sparse`` payloads (random destinations), four-word
    compressed packets for dense streams when the machine supports Load
    Packet Compression.
    """
    if nbytes <= 0:
        raise ValueError("transfer needs a positive size")
    if src == dst:
        raise ValueError("source and destination Cells are the same")
    sim = machine.sim
    t0 = sim.now if time is None else time
    probe = machine.memsys._probe
    if probe is not None:
        # The copy reads the whole source range and writes the whole
        # destination range, host-ordered.
        probe.host_range(src, 0, nbytes, False)
        probe.host_range(dst, 0, nbytes, True)
    net = machine.memsys.req_net
    chip = machine.config.chip
    compression = machine.config.features.load_compression and not sparse
    words_per_packet = 4 if compression else 1
    words = -(-nbytes // 4)
    packets = -(-words // words_per_packet)
    # Spread injections across the source Cell's tile rows, like a
    # cooperative DMA by all tiles.
    src_tiles = [chip.to_global(src, local)
                 for local in chip.cell.tile_coords()]
    dst_banks = [chip.to_global(dst, local)
                 for local in chip.cell.bank_coords()]
    done = t0
    for i in range(packets):
        s = src_tiles[i % len(src_tiles)]
        d = dst_banks[(i * 7) % len(dst_banks)]
        report = net.send(s, d, 1, t0)
        done = max(done, report.arrival)
    return TransferReport(start=t0, done=done, payload_bytes=nbytes)
