"""The machine's memory system: PGAS translation + networks + banks + HBM.

One :class:`MemorySystem` wires every tile's remote operations through

    request network -> cache bank / remote SPM -> response network

with the wormhole strips and HBM2 pseudo-channels behind the banks.
It also owns the *atomic memory*: the functional state atomics operate
on, updated at the simulated cycle each AMO packet reaches its bank so
that amoadd-based work distribution is ordered exactly as timed.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Optional, Tuple, Union

from ..arch.config import MachineConfig
from ..arch.geometry import Coord, NodeKind
from ..engine import Future, Simulator
from ..mem.cache import CacheBank
from ..mem.hbm import PseudoChannel
from ..mem.spm import Scratchpad
from ..noc.network import Network
from ..noc.wormhole import WormholeStrip
from ..pgas.spaces import (
    FIELD_A_SHIFT,
    FIELD_B_SHIFT,
    FIELD_MASK,
    TAG_SHIFT,
    Space,
)
from ..pgas.translate import Destination, TargetKind, Translator
from ..pim.engine import PimEngine


class MemorySystem:
    """Shared memory/network fabric for one machine."""

    def __init__(self, sim: Simulator, config: MachineConfig,
                 record_bin_width: Optional[float] = None,
                 owned_cells: Optional[FrozenSet[Coord]] = None) -> None:
        self.sim = sim
        self.config = config
        chip = config.chip
        feats = config.features
        timings = config.timings
        self.translator = Translator(
            chip, timings.cache.block_bytes, use_ipoly=feats.ipoly_hashing,
            grid_cells=config.global_grid,
        )
        self.req_net = Network(chip, timings.noc, ruche=feats.ruche_network,
                               order="xy", name="req",
                               record_bin_width=record_bin_width,
                               owned=owned_cells)
        self.resp_net = Network(chip, timings.noc, ruche=feats.ruche_network,
                                order="yx", name="resp",
                                record_bin_width=record_bin_width,
                                owned=owned_cells)
        self.hbm: Dict[Coord, PseudoChannel] = {}
        #: PIM engines, one per owned Cell's pseudo-channel; empty unless
        #: the config carries a ``pim`` block (zero state when off).
        self.pim_engines: Dict[Coord, PimEngine] = {}
        self.banks: Dict[Tuple[Coord, int], CacheBank] = {}
        self.strips: Dict[Tuple[Coord, str], WormholeStrip] = {}
        self.spms: Dict[Coord, Scratchpad] = {}
        #: node -> the bank or scratchpad behind it: what a translated
        #: request's ``dest.node`` is served by (PIM windows aside).
        self._servers: Dict[Coord, Union[CacheBank, Scratchpad]] = {}
        self.atomic_mem: Dict[Any, int] = {}
        # Hot-path constants (remote_request runs once per remote op).
        self._creq_flits = timings.noc.compressed_request_flits
        self._cresp_flits = timings.noc.compressed_response_flits
        self._translate = self.translator.translate
        #: Race-checker hook (set by :func:`repro.sanitize.attach`):
        #: observes AMO bank serialization and host poke/peek accesses.
        self._san: Optional[Any] = None
        #: PDES sharding: the Cells whose banks/SPMs this memory system
        #: actually serves (``None`` = all of them, the monolithic case).
        self.owned_cells = owned_cells
        #: Cross-Cell channel hook (set by the PDES shard runtime): when
        #: installed, remote operations whose destination Cell is not
        #: owned are handed to the channel instead of the local fabric.
        #: ``None`` costs one attribute check on the remote-op path.
        self.xchannel: Optional[Any] = None
        self._build(chip, feats, timings)

    def _build(self, chip, feats, timings) -> None:
        owned = self.owned_cells
        for cell_xy in chip.cells():
            if owned is not None and cell_xy not in owned:
                continue  # foreign Cells live in another shard's memsys
            channel = PseudoChannel(
                timings.hbm, name=f"hbm{cell_xy}",
                bandwidth_scale=self.config.hbm_scale,
            )
            self.hbm[cell_xy] = channel
            if self.config.pim is not None:
                self.pim_engines[cell_xy] = PimEngine(
                    self.config.pim, channel, name=f"pim{cell_xy}")
            north = WormholeStrip(num_banks=chip.cell.tiles_x)
            south = WormholeStrip(num_banks=chip.cell.tiles_x)
            self.strips[(cell_xy, "north")] = north
            self.strips[(cell_xy, "south")] = south
            for bank_idx in range(chip.cell.num_banks):
                strip = north if bank_idx < chip.cell.tiles_x else south
                bank_x = bank_idx % chip.cell.tiles_x
                bank = CacheBank(
                    self.sim, timings.cache, channel, strip, bank_x,
                    write_validate=feats.write_validate,
                    nonblocking=feats.nonblocking_cache,
                    name=f"bank{cell_xy}:{bank_idx}",
                )
                self.banks[(cell_xy, bank_idx)] = bank
                self._servers[chip.to_global(
                    cell_xy, chip.cell.bank_coord(bank_idx))] = bank
        for node, kind in chip.all_nodes():
            if kind is NodeKind.TILE:
                if owned is not None and chip.to_local(node)[0] not in owned:
                    continue
                self.spms[node] = self._servers[node] = Scratchpad(
                    self.sim, name=f"spm{node}")

    # -- fast-path helpers used by the core ------------------------------------

    def is_own_spm(self, addr: int, node: Coord) -> bool:
        """True when a GROUP_SPM address points at the issuing tile itself."""
        if (addr >> TAG_SHIFT) != Space.GROUP_SPM:
            return False
        x = (addr >> FIELD_A_SHIFT) & FIELD_MASK
        y = (addr >> FIELD_B_SHIFT) & FIELD_MASK
        return (x, y) == node

    def spm_reserve(self, node: Coord, time: float, words: int = 1) -> float:
        """Local-pipeline SPM port claim; returns the granted start cycle."""
        return self.spms[node].reserve(time, words)

    # -- remote operations --------------------------------------------------------

    def remote_request(self, node: Coord, addr: int, is_write: bool,
                       time: float, words: int = 1) -> Future:
        """A remote load/store.  The returned future resolves with the
        response's arrival cycle back at the requesting tile."""
        dest = self._translate(addr, node)
        if words > 1:
            req_flits = self._creq_flits
            resp_flits = 1 if is_write else self._cresp_flits
        else:
            req_flits = 1
            resp_flits = 1
        if (self.xchannel is not None
                and dest.cell_xy not in self.owned_cells):
            return self.xchannel.request(node, dest, is_write, words,
                                         req_flits, resp_flits, time)
        done = Future(self.sim)
        arrival = self.req_net.send_arrival(node, dest.node, req_flits, time)
        # Engine-internal post: one args tuple instead of a closure.
        self.sim._post(arrival, self._serve_request,
                       (dest, node, is_write, words, resp_flits, done))
        return done

    def _serve_request(self, args) -> None:
        dest, node, is_write, words, resp_flits, done = args
        ready = self._servers[dest.node].access_timed(
            dest.mem_addr, is_write, self.sim._now, words)
        if ready.__class__ is Future:
            # Miss path: completion depends on MSHR/HBM state.
            ready.add_callback(
                lambda _v: self._respond(dest.node, node, resp_flits, done)
            )
        else:
            # Synchronous outcome: schedule the response directly, with
            # no intermediate future between bank and response network.
            self.sim._post(ready, self._respond_args,
                           (dest.node, node, resp_flits, done, None))

    def remote_amo(self, node: Coord, addr: int, kind: str, value: int,
                   time: float) -> Future:
        """A remote atomic; resolves with ``(arrival_cycle, old_value)``.

        The functional read-modify-write executes when the packet reaches
        the bank, in event order -- the simulated serialization point.
        """
        dest = self._translate(addr, node)
        if dest.kind is not TargetKind.CACHE:
            raise ValueError("atomics target DRAM spaces (cache banks) only")
        if (self.xchannel is not None
                and dest.cell_xy not in self.owned_cells):
            return self.xchannel.amo(node, dest, kind, value, time)
        done = Future(self.sim)
        arrival = self.req_net.send_arrival(node, dest.node, 1, time)
        self.sim._post(arrival, self._serve_amo,
                       (dest, node, kind, value, done))
        return done

    def _serve_amo(self, args) -> None:
        dest, node, kind, value, done = args
        arrival = self.sim._now
        if self._san is not None:
            # The AMO's functional point: this event order *is* the
            # architectural serialization order the checker models.
            self._san.amo_serialized(node, dest, arrival)
        old = self._amo_execute(self._canonical(dest), kind, value)
        ready = self._servers[dest.node].access_timed(
            dest.mem_addr, False, arrival, 1, True)
        if ready.__class__ is Future:
            ready.add_callback(
                lambda _v: self._respond(dest.node, node, 1, done,
                                         payload=old)
            )
        else:
            self.sim._post(ready, self._respond_args,
                           (dest.node, node, 1, done, old))

    def pim_request(self, node: Coord, addr: int, command: Any,
                    time: float) -> Future:
        """A PIM command delivered through the request network.

        The returned future resolves with the response arrival cycle
        (command acks) or ``(arrival, payload)`` for ``RD_MAC``.  The
        functional command executes when the packet reaches the channel,
        in event order -- the same serialization discipline as AMOs.
        """
        dest = self._translate(addr, node)
        if dest.kind is not TargetKind.PIM:
            raise ValueError("pim_request needs a Space.PIM address")
        if not self.pim_engines:
            raise RuntimeError(
                "the PIM backend is disabled for this machine; enable it "
                "with MachineConfig.with_pim()")
        if dest.bank_index != 0:
            raise ValueError(
                f"PIM window names pseudo-channel {dest.bank_index}, but "
                "the model exposes one channel (index 0) per Cell")
        if (self.xchannel is not None
                and dest.cell_xy not in self.owned_cells):
            # PIM commands are Cell-local by contract: a shard cannot
            # mutate a channel another shard simulates.
            raise RuntimeError(
                f"PIM commands are Cell-local: tile {node} targets the "
                f"PIM window of foreign cell {dest.cell_xy}")
        words = len(getattr(command, "values", ()))
        # One header flit; payload words ride the compressed-load framing
        # (four words per extra request flit).
        req_flits = 1 + (words + 3) // 4
        payload_words = 0
        pw = getattr(command, "payload_words", None)
        if pw is not None:
            payload_words = pw(self.config.pim.simd_width)
        # Responses: a bare ack flit, or RD_MAC data at two flits per
        # four words (the compressed-response framing).
        resp_flits = 1 if payload_words == 0 \
            else 2 * ((payload_words + 3) // 4)
        done = Future(self.sim)
        arrival = self.req_net.send_arrival(node, dest.node, req_flits, time)
        self.sim._post(arrival, self._serve_pim,
                       (dest, node, command, resp_flits, done))
        return done

    def _serve_pim(self, args) -> None:
        dest, node, command, resp_flits, done = args
        engine = self.pim_engines[dest.cell_xy]
        completion, payload = engine.execute(command, self.sim._now)
        self.sim._post(completion, self._respond_args,
                       (dest.node, node, resp_flits, done, payload))

    def serve_remote(self, node: Coord, mem_addr: int, is_write: bool,
                     time: float, words: int = 1) -> Union[float, Future]:
        """Destination-side service of a cross-Cell request (PDES ingress).

        The bank/SPM access timing of :meth:`_serve_request` without the
        response-network hop -- the caller (the shard's cross-Cell
        channel) prices the return trip itself.  ``node`` is the serving
        bank's grid node and ``mem_addr`` the byte address within it.
        Returns the ready cycle as a float, or a :class:`Future` on the
        miss path.
        """
        return self._servers[node].access_timed(mem_addr, is_write, time,
                                                words)

    def serve_remote_amo(self, node: Coord, cell_xy: Coord, mem_addr: int,
                         kind: str, value: int,
                         time: float) -> Tuple[Union[float, Future], int]:
        """Destination-side service of a cross-Cell AMO (PDES ingress).

        Executes the functional read-modify-write *now* -- the ingress
        event order at the owning shard is the architectural
        serialization order -- then times the access at the bank on
        ``node``.  Returns ``(ready, old_value)``.

        The *inline* sanitizer hook is absent on purpose: the issuing
        tile is one another shard simulates, and this shard's checker
        has no vector clock for it.  Cross-Cell happens-before edges are
        instead recovered offline -- the issuing shard snapshots its
        clock (``Sanitizer.xshard_amo_out``), the owning shard's channel
        logs the serve order, and the coordinator's stitching pass
        (:func:`repro.sanitize.xshard.stitch_shards`) joins the two to
        check cross-Cell conflicts after the run.
        """
        old = self._amo_execute((cell_xy, mem_addr), kind, value)
        ready = self._servers[node].access_timed(mem_addr, False, time, 1,
                                                 True)
        return ready, old

    def _respond(self, src: Coord, dst: Coord, flits: int, done: Future,
                 payload: Any = None) -> None:
        arrival = self.resp_net.send_arrival(src, dst, flits, self.sim.now)
        if payload is None:
            done.resolve_at(arrival, arrival)
        else:
            done.resolve_at(arrival, (arrival, payload))

    def _respond_args(self, args) -> None:
        """:meth:`_respond` with an args tuple (the ``_post`` fast form)."""
        src, dst, flits, done, payload = args
        arrival = self.resp_net.send_arrival(src, dst, flits, self.sim._now)
        if payload is None:
            done.resolve_at(arrival, arrival)
        else:
            done.resolve_at(arrival, (arrival, payload))

    # -- functional atomic memory ----------------------------------------------------

    @staticmethod
    def _canonical(dest: Destination) -> Tuple[Coord, int]:
        return (dest.cell_xy, dest.mem_addr)

    def _amo_execute(self, key: Tuple[Coord, int], kind: str,
                     value: int) -> int:
        """Apply one AMO to the atomic-memory word ``key`` (see
        :meth:`_canonical`); returns the old value."""
        old = self.atomic_mem.get(key, 0)
        if kind == "add":
            new = old + value
        elif kind == "or":
            new = old | value
        elif kind == "and":
            new = old & value
        elif kind == "xor":
            new = old ^ value
        elif kind == "swap":
            new = value
        elif kind == "min":
            new = min(old, value)
        elif kind == "max":
            new = max(old, value)
        else:
            raise ValueError(f"unknown AMO kind {kind!r}")
        self.atomic_mem[key] = new
        return old

    def poke(self, addr: int, value: int, node: Coord) -> None:
        """Host-side functional write to atomic memory (no timing)."""
        if self._san is not None:
            self._san.host_write(addr, node)
        dest = self.translator.translate(addr, node)
        self._check_owned(dest)
        self.atomic_mem[self._canonical(dest)] = value

    def peek(self, addr: int, node: Coord) -> int:
        if self._san is not None:
            self._san.host_read(addr, node)
        dest = self.translator.translate(addr, node)
        self._check_owned(dest)
        return self.atomic_mem.get(self._canonical(dest), 0)

    def _check_owned(self, dest: Destination) -> None:
        """Reject host functional access to a Cell another shard owns --
        silently writing the local (never-simulated) copy would fork the
        functional state between shards."""
        if self.owned_cells is not None and dest.cell_xy not in self.owned_cells:
            raise RuntimeError(
                f"cell {dest.cell_xy} is not owned by this shard "
                f"(owned: {sorted(self.owned_cells)}); host poke/peek of "
                "foreign Cells must run in the owning shard")

    # -- reporting ----------------------------------------------------------------------

    def hbm_utilization(self, elapsed: float) -> Dict[Coord, Dict[str, float]]:
        return {xy: ch.utilization(elapsed) for xy, ch in self.hbm.items()}

    def cache_hit_rate(self, cell_xy: Coord) -> Optional[float]:
        hits = misses = 0.0
        for (xy, _idx), bank in self.banks.items():
            if xy != cell_xy:
                continue
            hits += bank.counters.get("load_hits") + bank.counters.get("store_hits")
            misses += bank.counters.get("load_misses") + bank.counters.get("store_misses")
        total = hits + misses
        return hits / total if total else None
