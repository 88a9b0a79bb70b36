"""Slow first-principles reference models for differential validation.

Each class here re-derives one timing-model behaviour the *naive* way --
linear scans, explicit state, no clever data structures -- so the
optimized implementations in :mod:`repro.mem` and :mod:`repro.noc` can
be cross-checked against them, both live (the :class:`~.checker.Auditor`
shadows every audited run with these) and offline (the hypothesis
property tests in ``tests/test_audit_differential.py`` drive randomized
traffic through both sides and compare).

The references deliberately trade speed for obviousness: they are the
spec, the fast paths are the implementation.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple


class RefLruSet:
    """One cache set as an explicit recency list, scanned in O(ways).

    ``lines[0]`` is the LRU line, ``lines[-1]`` the MRU -- exactly the
    ordering the dict-based :class:`~repro.mem.cache.CacheBank` encodes
    through insertion order.  Every operation is a linear scan so the
    reference cannot share a bug with the dict implementation.
    """

    __slots__ = ("ways", "lines")

    def __init__(self, ways: int) -> None:
        self.ways = ways
        self.lines: List[int] = []  # LRU .. MRU

    def probe(self, line: int) -> bool:
        for resident in self.lines:  # deliberate O(ways) scan
            if resident == line:
                return True
        return False

    def promote(self, line: int) -> None:
        self.lines.remove(line)
        self.lines.append(line)

    def victim(self) -> Optional[int]:
        """The line LRU replacement must evict next (None if not full)."""
        if len(self.lines) < self.ways:
            return None
        return self.lines[0]

    def evict(self, line: int) -> None:
        self.lines.remove(line)

    def install(self, line: int) -> None:
        self.lines.append(line)

    def __len__(self) -> int:
        return len(self.lines)


class RefLruCache:
    """A whole bank's tag state with write-validate/write-allocate policy.

    Functional reference for sequential (one-request-at-a-time) traffic:
    misses install their line immediately, so it matches
    :class:`~repro.mem.cache.CacheBank` only when each access completes
    before the next is issued -- which is how the differential tests
    drive it.  Counter names mirror the bank's so dicts compare directly.
    """

    def __init__(self, sets: int, ways: int, block_bytes: int,
                 write_validate: bool = True) -> None:
        self.nsets = sets
        self.block_bytes = block_bytes
        self.write_validate = write_validate
        self.sets = [RefLruSet(ways) for _ in range(sets)]
        self.dirty: Dict[int, bool] = {}
        self.counters: Dict[str, int] = {
            "accesses": 0, "amos": 0, "load_hits": 0, "store_hits": 0,
            "load_misses": 0, "store_misses": 0, "evictions": 0,
            "writebacks": 0, "hbm_reads": 0, "hbm_writes": 0,
        }

    def access(self, addr: int, is_write: bool, is_amo: bool = False) -> str:
        """Classify one access; returns ``"hit"`` or ``"miss"``."""
        cv = self.counters
        cv["accesses"] += 1
        if is_amo:
            cv["amos"] += 1
        line = addr // self.block_bytes
        lru = self.sets[line % self.nsets]
        if lru.probe(line):
            lru.promote(line)
            cv["store_hits" if is_write else "load_hits"] += 1
            if is_write or is_amo:
                self.dirty[line] = True
            return "hit"
        cv["store_misses" if is_write else "load_misses"] += 1
        if is_amo:
            cv["hbm_reads"] += 1  # RMW always needs the old line
            self._install(line, dirty=True)
        elif is_write and self.write_validate:
            self._install(line, dirty=True)  # allocate without fetching
        else:
            cv["hbm_reads"] += 1
            self._install(line, dirty=is_write)
        return "miss"

    def _install(self, line: int, dirty: bool) -> None:
        lru = self.sets[line % self.nsets]
        if lru.probe(line):
            if dirty:
                self.dirty[line] = True
            return
        victim = lru.victim()
        if victim is not None:
            lru.evict(victim)
            self.counters["evictions"] += 1
            if self.dirty.pop(victim, False):
                self.counters["writebacks"] += 1
                self.counters["hbm_writes"] += 1
        lru.install(line)
        self.dirty[line] = dirty


class RefRowState:
    """Reference DRAM row-state classifier with an explicit opened flag.

    The semantics the fast model is supposed to implement: an access
    row-*hits* when the same row was touched within the FR-FCFS reorder
    window; it *opens* (pays tRCD only) when its bank has never been
    activated; anything else is a *conflict* (pays tRP + tRCD) -- a row
    is open, just not a usable one.  Crucially, ``opened`` is a one-way
    flag: forgetting old rows (the fast path prunes its timestamp map)
    never turns an activated bank back into a fresh one.
    """

    def __init__(self, window: float) -> None:
        self.window = window
        self._opened: Dict[int, bool] = {}
        self._rows: Dict[Tuple[int, int], float] = {}  # (bank, row) -> last

    def classify(self, bank: int, row: int, start: float) -> str:
        last = self._rows.get((bank, row))
        if last is not None and start - last <= self.window:
            return "hit"
        if not self._opened.get(bank, False):
            return "open"
        return "conflict"

    def update(self, bank: int, row: int, completion: float) -> None:
        self._opened[bank] = True
        self._rows[(bank, row)] = completion

    def prune(self, horizon: float) -> None:
        """Drop stale timestamps (never affects classification: an entry
        older than the window cannot produce a hit anyway)."""
        self._rows = {k: t for k, t in self._rows.items() if t >= horizon}


def hbm_min_latency(timing, burst_cycles: int) -> float:
    """Analytic floor for one line access: even a row hit on an idle
    channel pays the column latency plus the full burst."""
    return timing.row_hit_latency + burst_cycles


def hbm_serialization_floor(accesses: int, burst_cycles: int) -> float:
    """The shared data bus serializes bursts: ``n`` accesses cannot all
    complete before ``n * tBL`` bus cycles have elapsed."""
    return accesses * burst_cycles


def noc_store_and_forward_floor(hops: int, flits: int, timing) -> float:
    """Hop-count lower bound on packet latency, from first principles.

    A wormhole packet's head flit pays router + link latency per hop and
    the tail trails ``flits - 1`` cycles behind; no flow control scheme
    can beat ``inject + hops * (router + link) + (flits - 1) + eject``
    on an uncontended path, and contention only adds to it.
    """
    hop_cost = timing.router_latency + timing.link_cycles_per_flit
    return (timing.inject_latency + hops * hop_cost + (flits - 1)
            + timing.eject_latency)


def min_hops(src, dst, ruche_factor: int, ruche: bool) -> int:
    """Fewest links any route could possibly use between two nodes.

    Horizontal distance is covered at most ``ruche_factor`` tiles per
    hop (ruche links), vertical distance one tile per hop, so
    ``ceil(dx / factor) + dy`` lower-bounds every route.  The actual
    dimension-ordered router uses ``dx // factor + dx % factor + dy``
    (greedy long hops, mesh remainder) -- never fewer.
    """
    dx = abs(src[0] - dst[0])
    dy = abs(src[1] - dst[1])
    factor = ruche_factor if (ruche and ruche_factor > 1) else 1
    return -(-dx // factor) + dy


def reference_reserve_leg(net, src, dst, flits: int, time: float,
                          inside) -> float:
    """:meth:`repro.noc.network.Network.reserve_leg` the naive way.

    Walks the full dimension-ordered route link by link and asks
    ``inside(node)`` about both endpoints of each: links wholly inside
    are reserved against their ``free_at`` horizon, every other link is
    skipped at zero-load cost.  No memo, no precomputed skip counts --
    the spec the memoized leg tuples are held against.  Returns the
    total stall, and mutates ``net``'s links exactly as the fast path
    must.
    """
    from ..noc.routing import route

    hop_cost = net.timing.router_latency + net.timing.link_cycles_per_flit
    head = time + net.timing.inject_latency
    stall_total = 0.0
    for link in route(net.topology, src, dst, order=net.order):
        if not (inside(link.src) and inside(link.dst)):
            head += hop_cost
            continue
        start = max(link.free_at, head)
        stall = start - head
        stall_total += stall
        link.stall_cycles += stall
        link.free_at = start + flits
        link.busy_cycles += flits
        link.packets += 1
        head = start + hop_cost
    return stall_total


def reference_translate(translator, addr: int, tile_node):
    """:meth:`repro.pgas.translate.Translator.translate` the naive way.

    ``decode()`` the address into its named fields, branch on the space
    and derive every coordinate from the geometry -- no table is read or
    written, so a stale or mis-keyed table row on the fast side cannot
    hide here.  Takes the translator only for its parameters (geometry,
    block size, hash choice, grids) and for the chip-wide line hash,
    which is pure and has a single spelling.  Raises what the fast side
    must raise, with the same message.
    """
    from ..pgas.hashing import bank_of_line
    from ..pgas.spaces import Space, decode
    from ..pgas.translate import GLOBAL_DRAM_BASE, Destination, TargetKind

    chip = translator.chip
    dec = decode(addr)
    if dec.space is Space.LOCAL_SPM:
        return Destination(tile_node, TargetKind.SPM,
                           chip.to_local(tile_node)[0], 0, dec.offset)
    if dec.space is Space.GROUP_SPM:
        node = (dec.field_a, dec.field_b)
        cell_xy, (_lx, ly) = chip.to_local(node)
        if ly == 0 or ly == chip.cell.tiles_y + 1:
            raise ValueError(f"GROUP_SPM address targets a cache node {node}")
        return Destination(node, TargetKind.SPM, cell_xy, 0, dec.offset)
    if dec.space in (Space.LOCAL_DRAM, Space.GROUP_DRAM):
        if dec.space is Space.LOCAL_DRAM:
            cell_xy = chip.to_local(tile_node)[0]
        else:
            cell_xy = (dec.field_a, dec.field_b)
        bank = bank_of_line(dec.offset // translator.block_bytes,
                            chip.cell.num_banks, translator.use_ipoly)
        node = chip.to_global(cell_xy, chip.cell.bank_coord(bank))
        return Destination(node, TargetKind.CACHE, cell_xy, bank, dec.offset)
    if dec.space is Space.GLOBAL_DRAM:
        cell_xy, bank = translator._global_line(
            dec.offset // translator.block_bytes)
        node = chip.to_global(cell_xy, chip.cell.bank_coord(bank))
        return Destination(node, TargetKind.CACHE, cell_xy, bank,
                           GLOBAL_DRAM_BASE + dec.offset)
    if dec.space is Space.PIM:
        cell_xy = (dec.field_a, dec.field_b)
        return Destination(chip.to_global(cell_xy, chip.cell.bank_coord(0)),
                           TargetKind.PIM, cell_xy, dec.offset, 0)
    raise ValueError(f"unhandled space {dec.space}")
