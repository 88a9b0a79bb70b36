"""Last-level cache banks.

Each bank is independent, maps an exclusive slice of DRAM (no coherence
hardware needed), and implements the paper's policies:

* **write-validate** -- a store miss allocates the line and validates the
  written words without fetching from DRAM (vs. the fetch-on-write
  *write-allocate* baseline used in the Fig 10 ablation);
* **non-blocking** -- hits proceed under misses; primary misses claim an
  MSHR entry, secondary misses merge onto it (vs. the blocking baseline
  where a miss stalls the whole bank until refill);
* LRU replacement over 64 sets x 8 ways x 64 B lines (Table II).

Timing-only: the bank tracks tags and dirty bits, not data -- functional
values live with the kernels (and in the machine's atomic memory).

Each set is one insertion-ordered dict (line -> :class:`_Line`): a hit
pops and re-inserts its key (MRU at the back), so the LRU victim is
always the first key -- replacing the seed's O(ways) list scans with
C-level dict operations of identical replacement order.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..arch.params import CacheTiming
from ..engine import Future, Simulator
from ..engine.stats import Counter, Interval
from ..noc.wormhole import WormholeStrip
from .hbm import PseudoChannel
from .mshr import MshrFile


class _Line:
    """One resident cache line's tag state."""

    __slots__ = ("line", "dirty")

    def __init__(self, line: int, dirty: bool = False) -> None:
        self.line = line
        self.dirty = dirty


class CacheBank:
    """One LLC bank embedded in a Cell's north or south strip."""

    def __init__(self, sim: Simulator, timing: CacheTiming,
                 hbm: PseudoChannel, strip: WormholeStrip, bank_x: int,
                 write_validate: bool = True, nonblocking: bool = True,
                 name: str = "bank") -> None:
        self.sim = sim
        self.timing = timing
        self.hbm = hbm
        self.strip = strip
        self.bank_x = bank_x
        self.write_validate = write_validate
        self.nonblocking = nonblocking
        self.name = name
        self._port = Interval()
        self._sets: List[Dict[int, _Line]] = [dict() for _ in range(timing.sets)]
        self.mshr = MshrFile(timing.mshr_entries)
        self.counters = Counter()
        #: Probe bus hook (set by :func:`repro.probe.attach`): port
        #: reservations, hit/miss classification, evictions, MSHR traffic.
        self._probe = None
        # Hot-path constants.
        self._nsets = timing.sets
        self._nways = timing.ways
        self._block_bytes = timing.block_bytes
        self._hit_latency = timing.hit_latency
        self._port_cpa = timing.port_cycles_per_access

    # -- public interface ---------------------------------------------------

    def access(self, mem_addr: int, is_write: bool, time: float,
               words: int = 1, is_amo: bool = False) -> Future:
        """Serve one request; the future resolves when the response data is
        ready to inject into the response network."""
        res = self.access_timed(mem_addr, is_write, time, words, is_amo)
        if res.__class__ is Future:
            return res
        fut = Future(self.sim)
        fut.resolve_at(res, None)
        return fut

    def access_timed(self, mem_addr: int, is_write: bool, time: float,
                     words: int = 1, is_amo: bool = False):
        """Serve one request; returns the data-ready cycle as a plain
        float when it is synchronously known (hits and write-validate
        stores -- the overwhelmingly common cases), or a :class:`Future`
        on the miss paths, whose completion depends on MSHR/HBM state.
        Callers that need a uniform future use :meth:`access`."""
        # The bank data port is double-pumped (two words per port cycle),
        # so an n-word access holds it for ceil(n * cpa / 2) cycles and
        # never less than one: flooring would let single-word requests
        # occupy no port time at all and halve odd-length bursts.
        port_cycles = -(-words * self._port_cpa // 2)
        if port_cycles < 1:
            port_cycles = 1
        start = self._port.reserve(time, port_cycles)
        cv = self.counters.raw
        cv["accesses"] += 1
        if is_amo:
            cv["amos"] += 1
        line = mem_addr // self._block_bytes
        set_idx = line % self._nsets
        ways = self._sets[set_idx]
        entry = ways.pop(line, None)
        if self._probe is not None:
            self._probe.cache_access(self, set_idx, line, entry is not None,
                                     time, start, port_cycles, is_write,
                                     is_amo, False)
        if entry is not None:
            ways[line] = entry  # LRU promote: MRU lives at the back
            cv["store_hits" if is_write else "load_hits"] += 1
            if is_write or is_amo:
                entry.dirty = True
            return start + self._hit_latency
        cv["store_misses" if is_write else "load_misses"] += 1
        if is_write and not is_amo and self.write_validate:
            # Allocate without fetching; only a dirty victim costs DRAM
            # work (and the writeback posts no events, so returning the
            # ready time keeps the caller's schedule order unchanged).
            self._install(line, dirty=True, time=start)
            return start + self._hit_latency
        fut = Future(self.sim)
        if is_amo:
            # Read-modify-write: the old value is needed, so even under
            # write-validate the line must be fetched; it refills dirty.
            self._miss(line, fut, start, mark_dirty=True,
                       port_cycles=port_cycles)
            return fut
        self._miss(line, fut, start, mark_dirty=is_write,
                   port_cycles=port_cycles)
        return fut

    # -- tag management -------------------------------------------------------

    def _set_of(self, line: int) -> int:
        return line % self._nsets

    def _touch(self, line: int) -> bool:
        """Probe and LRU-promote; True on hit."""
        ways = self._sets[line % self._nsets]
        entry = ways.pop(line, None)
        if entry is None:
            return False
        ways[line] = entry
        return True

    def _mark_dirty(self, line: int) -> None:
        self._sets[line % self._nsets][line].dirty = True

    def _install(self, line: int, dirty: bool, time: float) -> None:
        ways = self._sets[line % self._nsets]
        entry = ways.get(line)
        if entry is not None:
            if dirty:
                entry.dirty = True
            return
        if len(ways) >= self._nways:
            victim = next(iter(ways))  # front of the dict == LRU
            if self._probe is not None:
                self._probe.cache_evict(self, line % self._nsets, victim,
                                        time)
            victim_line = ways.pop(victim)
            self.counters.raw["evictions"] += 1
            if victim_line.dirty:
                self._writeback(victim, time)
        ways[line] = _Line(line, dirty)
        if self._probe is not None:
            self._probe.cache_install(self, line % self._nsets, line, time)

    def _writeback(self, line: int, time: float) -> None:
        """Dirty eviction: occupy the strip channel and the HBM bus."""
        self.counters.raw["writebacks"] += 1
        addr = line * self._block_bytes
        _start, done = self.strip.transfer(self.bank_x, self._block_bytes, time)
        self.hbm.access(addr, is_write=True, time=done)

    # -- miss path ---------------------------------------------------------------

    def _miss(self, line: int, fut: Future, time: float, mark_dirty: bool,
              port_cycles: float = 1) -> None:
        existing = self.mshr.lookup(line)
        if existing is not None:
            self.mshr.merge(line, fut)
            if self._probe is not None:
                self._probe.mshr_merge(self, line, time)
            if mark_dirty:
                # The waiter's write lands after refill; remember dirtiness.
                existing.waiters.append(self._dirty_marker(line))
            return
        if self.mshr.full:
            retry_at = self.mshr.earliest_completion(time)
            if retry_at <= time:
                # Never re-enter in the same cycle: a stale completion
                # heap must not let the retry spin without advancing time.
                retry_at = time + 1
            self.counters.raw["mshr_full_stalls"] += 1
            if self._probe is not None:
                self._probe.mshr_retry(self, line, time, retry_at)
            self.sim._post(retry_at, self._retry_miss,
                           (line, fut, mark_dirty, port_cycles))
            return
        addr = line * self._block_bytes
        mem_done = self.hbm.access(addr, is_write=False, time=time + 1)
        _start, refill_done = self.strip.transfer(
            self.bank_x, self._block_bytes, mem_done
        )
        entry = self.mshr.allocate(line, time, refill_done)
        entry.waiters.append(fut)
        if self._probe is not None:
            self._probe.mshr_alloc(self, line, time)
        if self.nonblocking is False:
            # Blocking bank: nothing else is served until the refill lands.
            self._port.free_at = max(self._port.free_at, refill_done)
        if mark_dirty:
            self.sim._post(refill_done, self._refill_dirty, line)
        else:
            self.sim._post(refill_done, self._refill_clean, line)

    def _retry_miss(self, args) -> None:
        """Re-issue a miss that stalled on a full MSHR file.

        The stalled request lost its original port grant, so it must
        re-arbitrate: the retry reserves the bank port again before
        re-entering the miss path (a full MSHR file is not a free pass
        to bypass port contention).
        """
        line, fut, mark_dirty, port_cycles = args
        start = self._port.reserve(self.sim._now, port_cycles)
        if self._probe is not None:
            self._probe.cache_access(self, line % self._nsets, line, False,
                                     self.sim._now, start, port_cycles,
                                     False, False, True)
        self._miss(line, fut, start, mark_dirty, port_cycles)

    def _dirty_marker(self, line: int) -> Future:
        marker = Future(self.sim)
        marker.add_callback(lambda _v: self._mark_dirty(line))
        return marker

    def _refill_clean(self, line: int) -> None:
        self._refill(line, False, self.sim._now)

    def _refill_dirty(self, line: int) -> None:
        self._refill(line, True, self.sim._now)

    def _refill(self, line: int, dirty: bool, time: float) -> None:
        self._install(line, dirty=dirty, time=time)
        if self._probe is not None:
            self._probe.mshr_release(self, line, time)
        waiters = self.mshr.release(line)
        hit_latency = self._hit_latency
        for waiter in waiters:
            waiter.resolve_at(time + hit_latency, None)

    # -- reporting ------------------------------------------------------------------

    def hit_rate(self) -> Optional[float]:
        hits = self.counters.get("load_hits") + self.counters.get("store_hits")
        misses = self.counters.get("load_misses") + self.counters.get("store_misses")
        total = hits + misses
        if total == 0:
            return None
        return hits / total

    def occupancy(self) -> int:
        return sum(len(ways) for ways in self._sets)
