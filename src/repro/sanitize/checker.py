"""The happens-before engine behind ``repro sanitize``.

A :class:`Sanitizer` is a passive subscriber of the probe bus
(:mod:`repro.probe`), wired into a live machine by
:func:`repro.probe.attach` (the ``Session(sanitize=True)`` path).  It
observes the tile cores (every load/store/vload/AMO/fence plus the
kernel-end drain), the memory system (AMO bank serialization, host
poke/peek, DMA ranges), launches and the barrier groups they partition.
It never schedules events or touches component state -- sanitize-on
runs are cycle-identical to sanitize-off runs (pinned by
tests/test_sanitize.py).

The model (documented for users in ``docs/MODEL.md``):

* every tile is a thread with a vector clock; the host runtime is
  thread 0;
* program order within a tile orders that tile's accesses;
* a **fence** releases the tile's outstanding remote accesses: only
  released accesses are ordered by a later barrier or atomic release
  (HB's non-blocking remote stores are *not* ordered by a barrier join
  alone -- the exact discipline the paper's kernels must get right);
* a **barrier** epoch is a release/acquire over the whole group: every
  member leaves with the join of all members' clocks.  Remote loads are
  assumed consumed (and therefore complete) by the join; remote stores
  need the explicit fence;
* a **remote atomic** serializes at its cache bank.  It acquires the
  word's release clock and releases the issuing tile's clock into it,
  so amoadd work distribution and fence-then-amoswap flag publication
  create real edges.  AMO-written words are *atomic words*: plain reads
  of them never race and inherit the word's release clock (word
  accesses are single-copy atomic in this architecture);
* conflicting accesses (same word, at least one write, different tiles)
  with no such path between them are **data races**;
* a remote read of a scratchpad word that no one ever wrote is an
  **uninitialized read** (DRAM words are exempt: input arrays are
  host-initialized by convention);
* barrier misuse: joining a group the tile is not a member of, and
  epochs still incomplete when the run ends (deadlocked / divergent
  join counts).

Suppression, in order of preference: fix the kernel; annotate the
intentionally-racy access (``t.load(addr, racy=True)``); exempt an
address range (:meth:`Sanitizer.allow`); drop a finding kind
(``SanitizeConfig(suppress=("data-race",))``).

The shadow (``docs/MODEL.md``, "Sanitizer shadow layout"): one dict from
an integer-packed word key to the word's state.  A word only one thread
has touched is *exclusive* -- its state is one flat tuple holding that
thread's last write and its last read since, with no per-access object
and no per-tile table; the first access by anyone else (or an AMO, or an
uninitialized-read report) inflates it to a :class:`_Word`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..isa.disasm import format_op
from ..pgas.spaces import (
    FIELD_B_SHIFT,
    FIELD_BITS,
    FIELD_MASK,
    OFFSET_MASK,
    TAG_SHIFT,
    Space,
)
from ..probe import Probe
from .report import format_report, sanitize_report

_LOCAL_SPM = int(Space.LOCAL_SPM)
_GROUP_SPM = int(Space.GROUP_SPM)
_LOCAL_DRAM = int(Space.LOCAL_DRAM)
_GROUP_DRAM = int(Space.GROUP_DRAM)

#: Thread id of the host runtime (pokes, DMA, result collection).
HOST = 0

# -- word keys -----------------------------------------------------------------
#
# The physical identity of a 4-byte word, packed into one integer:
#
#     [ spm : 1 ][ x : 12 ][ y : 12 ][ word : 33 ]
#
# ``x, y`` are the tile's global coordinates for a scratchpad word and
# the owning Cell's for a DRAM word; ``word`` is the byte address within
# that memory >> 2 (33 bits: the chip-wide space sits above 2**34
# bytes).  DRAM keys therefore sort below scratchpad keys, and among
# themselves by ``(x, y, word)`` -- the order the cross-shard export
# walks them in.

_WORD_BITS = 33
_COORDS_MASK = (1 << 2 * FIELD_BITS) - 1  # both coordinate fields at once
_SPM = 1 << (_WORD_BITS + 2 * FIELD_BITS)


def _word_key(spm: bool, x: int, y: int, word: int) -> int:
    return (_SPM if spm else 0) | (x << FIELD_BITS | y) << _WORD_BITS | word


def _dram_key(x: int, y: int, word: int) -> int:
    return _word_key(False, x, y, word)


def _split_key(key: int) -> Tuple[bool, int, int, int]:
    coords = key >> _WORD_BITS & _COORDS_MASK
    return (key >= _SPM, coords >> FIELD_BITS, coords & FIELD_MASK,
            key & ((1 << _WORD_BITS) - 1))


def _format_key(key: int) -> str:
    spm, x, y, word = _split_key(key)
    if spm:
        return f"spm[{x},{y}]+{4 * word:#x}"
    return f"dram({x},{y})+{4 * word:#x}"


# -- access records ------------------------------------------------------------
#
# One observed access is ``(meta, op, time)``; in cross-shard (xshard)
# mode a Cell-DRAM access carries a fourth field, the issuing thread's
# vector clock at that point (the offline stitcher needs it).  ``meta``
# packs ``epoch << 24 | tid << 4 | flags``.  Whether a fence has
# released the access yet is not stored: it follows from the epoch and
# the thread's release marks (:meth:`Sanitizer._released`).

_WRITE, _ATOMIC, _RACY = 1, 2, 4
#: Complete when made: own-scratchpad accesses, AMOs, host accesses.
_SETTLED = 8
_TID_SHIFT = 4
_TID_MASK = (1 << 20) - 1
_EPOCH_SHIFT = 24

_Record = Tuple[Any, ...]


def _tid_of(meta: int) -> int:
    return meta >> _TID_SHIFT & _TID_MASK


def _kind_of(meta: int) -> str:
    return ("atomic" if meta & _ATOMIC else
            "store" if meta & _WRITE else "load")


def _site(op: Any) -> Tuple:
    """Dedup signature of an access: its code location, not its data."""
    if op is None:
        return ("host",)
    return (type(op).__name__, op.pc)


class _Word:
    """Shadow state of a word that left the exclusive layout.

    ``write`` is the last write; ``read`` the last read since, while one
    thread only has read; ``reads`` (thread -> last read) is allocated
    when a second thread reads and dropped again by the next write.
    """

    __slots__ = ("write", "read", "reads", "amo_clock", "uninit_reported")

    def __init__(self) -> None:
        self.write: Optional[_Record] = None
        self.read: Optional[_Record] = None
        self.reads: Optional[Dict[int, _Record]] = None
        self.amo_clock: Optional[List[int]] = None
        self.uninit_reported = False


#: An exclusive word with no write (or no read) yet holds this in the
#: record's place: ``meta == 0`` never names a real access.
_NONE = (0, None, 0.0)


def _records(state: Any) -> Tuple[Optional[_Record], Iterable[_Record]]:
    """``(last write, reads since)`` of a shadow entry, either layout."""
    if state.__class__ is _Word:
        if state.reads is not None:
            return state.write, state.reads.values()
        return state.write, () if state.read is None else (state.read,)
    return (state[:3] if state[0] else None,
            (state[3:],) if state[3] else ())


@dataclass(frozen=True)
class SanitizeConfig:
    """Knobs for one sanitized run.

    ``suppress`` drops whole finding kinds (``"data-race"``,
    ``"uninit-read"``, ``"barrier-deadlock"``, ``"barrier-non-member"``).
    ``max_findings`` caps the *recorded* findings; occurrence counting
    continues past the cap (see :attr:`Sanitizer.counts`).
    """

    races: bool = True
    uninit: bool = True
    barriers: bool = True
    max_findings: int = 64
    suppress: Tuple[str, ...] = ()


@dataclass
class Finding:
    """One reported problem, deduplicated by (kind, code locations)."""

    kind: str  # data-race | uninit-read | barrier-deadlock | barrier-non-member
    detail: str  # e.g. "store-store", "load vs amoadd", free text
    addr: Optional[str] = None  # decoded address of the first occurrence
    access: Optional[Dict[str, Any]] = None  # current access
    other: Optional[Dict[str, Any]] = None  # prior conflicting access
    count: int = 1  # occurrences collapsed into this finding

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"kind": self.kind, "detail": self.detail,
                               "count": self.count}
        if self.addr is not None:
            out["addr"] = self.addr
        if self.access is not None:
            out["access"] = self.access
        if self.other is not None:
            out["other"] = self.other
        return out


class Sanitizer(Probe):
    """Dynamic PGAS race and synchronization checker for one machine."""

    def __init__(self, config: Optional[SanitizeConfig] = None) -> None:
        self.config = config or SanitizeConfig()
        self.findings: List[Finding] = []
        #: Occurrences per kind, counted even past ``max_findings``.
        self.counts: Dict[str, int] = {}
        self._by_sig: Dict[Tuple, Finding] = {}
        self._suppress = frozenset(self.config.suppress)
        self._allowed: set = set()
        #: word key -> exclusive tuple ``(write record, read record)``
        #: flattened to six fields, or a :class:`_Word`.
        self._shadow: Dict[int, Any] = {}
        self._machine: Any = None
        self._translator: Any = None
        self._tids: Dict[Tuple[int, int], int] = {}
        self._nodes: List[Optional[Tuple[int, int]]] = [None]
        #: node -> (own-scratchpad key base, own-Cell DRAM key base).
        self._homes: Dict[Tuple[int, int], Tuple[int, int]] = {}
        #: Per thread: its own scratchpad's key >> _WORD_BITS.
        self._own_spm: List[int] = []
        self._clocks: List[List[int]] = []
        #: Per thread: the epoch up to which its remote stores (a fence)
        #: and remote loads (a fence or a barrier join) are released.
        self._store_rel: List[int] = []
        self._load_rel: List[int] = []
        #: Per thread, xshard mode only: ``(epoch, time, loads_only)``
        #: per release point, so the export can date each release.
        self._release_log: List[List[Tuple[int, float, bool]]] = []
        self._pending_pim: List[List[Any]] = []
        self._amo_ops: List[Optional[Any]] = []
        self._barrier_pending: Dict[int, Dict[int, List[int]]] = {}
        self._barriers: List[Tuple[Any, str]] = []
        #: Host-side bulk ranges: (first key, end key, write, record).
        self._host_ranges: List[Tuple[int, int, bool, _Record]] = []
        self.ops_checked = 0
        #: Cross-shard (xshard) mode: set by :meth:`enable_xshard` on
        #: PDES shards.  Accesses to Cell-DRAM words then snapshot the
        #: issuing thread's vector clock, fences stamp release times,
        #: and AMO serializations are logged -- everything the offline
        #: cross-shard stitcher (:mod:`repro.sanitize.xshard`) needs.
        self._xshard_cell: Optional[Tuple[int, int]] = None
        self._out_amos: List[Dict[str, Any]] = []
        self._sync_log: List[Dict[str, Any]] = []

    # -- wiring (called by repro.probe.attach) ------------------------------

    def bind(self, machine: Any) -> None:
        """Build the thread table for ``machine``'s tiles (host is 0)."""
        self._machine = machine
        self._translator = machine.memsys.translator
        nodes = sorted(machine.cores, key=lambda xy: (xy[1], xy[0]))
        n = len(nodes) + 1
        if n > _TID_MASK:
            raise ValueError(f"{n} threads exceed the record's tid field")
        self._tids = {node: i + 1 for i, node in enumerate(nodes)}
        self._nodes = [None, *nodes]
        self._own_spm = [-1] + [self._home(node)[0] >> _WORD_BITS
                                for node in nodes]
        self._clocks = [[0] * n for _ in range(n)]
        self._store_rel = [0] * n
        self._load_rel = [0] * n
        self._release_log = [[] for _ in range(n)]
        self._pending_pim = [[] for _ in range(n)]
        self._amo_ops = [None] * n

    def barrier_group(self, group: Any, label: str) -> None:
        """Track a barrier group for end-of-run deadlock checks."""
        self._barriers.append((group, label))

    # -- suppression --------------------------------------------------------

    def allow(self, addr: int, nbytes: int = 4,
              node: Optional[Tuple[int, int]] = None) -> None:
        """Exempt an address range from race/uninit checks.

        ``node`` resolves LOCAL_* spaces (any tile of the owning Cell);
        it defaults to the machine's first tile.
        """
        if node is None:
            node = next(iter(self._tids))
        for off in range(0, max(nbytes, 4), 4):
            self._allowed.add(self._canon(addr + off, node))

    # -- address canonicalization -------------------------------------------

    def _home(self, node: Tuple[int, int]) -> Tuple[int, int]:
        home = self._homes.get(node)
        if home is None:
            cell_xy, _local = self._translator.chip.to_local(node)
            home = self._homes[node] = (
                _word_key(True, node[0], node[1], 0),
                _dram_key(cell_xy[0], cell_xy[1], 0))
        return home

    def _canon(self, addr: int, node: Tuple[int, int]) -> int:
        """Physical identity of a word: one key per (memory, word).

        The four tile- and Cell-addressed spaces are bit slices of the
        address; only the chip-wide hash needs the translator's tables.
        """
        tag = addr >> TAG_SHIFT
        if tag == _LOCAL_SPM:
            return self._home(node)[0] | (addr & OFFSET_MASK) >> 2
        if tag == _LOCAL_DRAM:
            return self._home(node)[1] | (addr & OFFSET_MASK) >> 2
        if tag == _GROUP_SPM or tag == _GROUP_DRAM:
            return ((_SPM if tag == _GROUP_SPM else 0)
                    | (addr >> FIELD_B_SHIFT & _COORDS_MASK) << _WORD_BITS
                    | (addr & OFFSET_MASK) >> 2)
        dest = self._translator.translate(addr, node)
        return _dram_key(dest.cell_xy[0], dest.cell_xy[1], dest.mem_addr >> 2)

    # -- findings -----------------------------------------------------------

    def _record(self, kind: str, detail: str, sig: Tuple,
                addr: Optional[str] = None,
                access: Optional[Dict[str, Any]] = None,
                other: Optional[Dict[str, Any]] = None) -> None:
        if kind in self._suppress:
            return
        self.counts[kind] = self.counts.get(kind, 0) + 1
        known = self._by_sig.get(sig)
        if known is not None:
            known.count += 1
            return
        finding = Finding(kind=kind, detail=detail, addr=addr,
                          access=access, other=other)
        self._by_sig[sig] = finding
        if len(self.findings) < self.config.max_findings:
            self.findings.append(finding)

    def _describe(self, rec: _Record) -> Dict[str, Any]:
        """JSON-able description of one access (disassembly included)."""
        meta, op, time = rec[:3]
        tid = _tid_of(meta)
        out: Dict[str, Any] = {
            "tile": "host" if tid == HOST else list(self._nodes[tid]),
            "time": time, "released": self._released(meta)}
        if op is not None:
            out["op"] = format_op(op).strip()
            out["pc"] = op.pc
        else:
            out["op"] = "host access"
            out["pc"] = -1
        return out

    def _race(self, prior: _Record, rec: _Record, key: int) -> None:
        pmeta, meta = prior[0], rec[0]
        if not self.config.races or (pmeta | meta) & _RACY:
            return
        detail = f"{_kind_of(pmeta)}-{_kind_of(meta)}"
        if pmeta & _WRITE and _tid_of(pmeta) != HOST \
                and not self._released(pmeta):
            detail += " (prior store never fenced)"
        self._record(
            "data-race", detail,
            ("data-race", _site(prior[1]), _site(rec[1])),
            addr=_format_key(key),
            access=self._describe(rec), other=self._describe(prior))

    # -- happens-before core ------------------------------------------------

    def _released(self, meta: int) -> bool:
        """Has ``meta``'s access been released to later synchronization?"""
        if meta & _SETTLED:
            return True
        marks = self._store_rel if meta & _WRITE else self._load_rel
        return meta >> _EPOCH_SHIFT <= marks[_tid_of(meta)]

    def _ordered(self, pmeta: int, tid: int, clock: List[int]) -> bool:
        """Does the access ``pmeta`` happen before thread ``tid`` now?"""
        ptid = _tid_of(pmeta)
        return ptid == tid or (self._released(pmeta)
                               and clock[ptid] >= pmeta >> _EPOCH_SHIFT)

    def _next_meta(self, tid: int, flags: int) -> int:
        clock = self._clocks[tid]
        epoch = clock[tid] + 1
        clock[tid] = epoch
        return epoch << _EPOCH_SHIFT | tid << _TID_SHIFT | flags

    @staticmethod
    def _join(into: List[int], other: List[int]) -> None:
        for i, v in enumerate(other):
            if v > into[i]:
                into[i] = v

    # -- tile access points (called from the core hot path) ------------------

    def load(self, node: Tuple[int, int], op: Any, time: float) -> None:
        self._access(node, op, op.addr, 0, getattr(op, "racy", False), time)

    def vload(self, node: Tuple[int, int], op: Any, time: float) -> None:
        racy = getattr(op, "racy", False)
        for i in range(len(op.dsts)):
            self._access(node, op, op.addr + 4 * i, 0, racy, time)

    def store(self, node: Tuple[int, int], op: Any, time: float) -> None:
        self._access(node, op, op.addr, _WRITE, getattr(op, "racy", False),
                     time)

    def _access(self, node: Tuple[int, int], op: Any, addr: int,
                write: int, racy: bool, time: float) -> None:
        self.ops_checked += 1
        tid = self._tids[node]
        key = self._canon(addr, node)
        own = key >> _WORD_BITS == self._own_spm[tid]
        meta = self._next_meta(tid, write | (_RACY if racy else 0)
                               | (_SETTLED if own else 0))
        if key in self._allowed:
            return
        if key < _SPM and self._host_ranges:
            self._check_ranges(key, (meta, op, time))
        self._touch(key, tid, meta, op, time,
                    remote_spm=key >= _SPM and not own)

    def _touch(self, key: int, tid: int, meta: int, op: Any, time: float,
               remote_spm: bool) -> None:
        """Check one plain access against the word's state and record it."""
        shadow = self._shadow
        state = shadow.get(key)
        xshard = self._xshard_cell is not None and key < _SPM
        if state.__class__ is not _Word:
            # Untouched, or one thread's so far.  While that thread is
            # the one accessing there is nothing to check, so the word
            # stays a flat tuple -- unless the record must carry a clock
            # (xshard) or the read is of a never-written remote
            # scratchpad word (a finding, kept on a _Word).
            if not xshard and (state is None or
                               _tid_of(state[0] or state[3]) == tid):
                if meta & _WRITE:
                    shadow[key] = (meta, op, time, *_NONE)
                    return
                if state is not None and state[0]:
                    shadow[key] = (*state[:3], meta, op, time)
                    return
                if not (remote_spm and self.config.uninit):
                    shadow[key] = (*_NONE, meta, op, time)
                    return
            word = self._word(key)
        else:
            word = state
        clock = self._clocks[tid]
        if meta & _WRITE:
            rec = (meta, op, time, list(clock)) if xshard else (meta, op, time)
            self._on_write(word, rec, key, tid, clock)
            word.amo_clock = None  # a plain write demotes an atomic word
            return
        if word.amo_clock is not None:
            # Atomic word: single-copy atomic read acquires its clock.
            self._join(clock, word.amo_clock)
            meta |= _ATOMIC
        # The clock is snapshot *after* that join: the exported clock
        # must include the acquisition.
        rec = (meta, op, time, list(clock)) if xshard else (meta, op, time)
        prior = word.write
        if prior is None:
            if remote_spm and self.config.uninit and not word.uninit_reported:
                word.uninit_reported = True
                self._record(
                    "uninit-read",
                    "remote scratchpad word read before any write",
                    ("uninit-read", _site(op)),
                    addr=_format_key(key), access=self._describe(rec))
        elif not prior[0] & _ATOMIC \
                and not self._ordered(prior[0], tid, clock):
            self._race(prior, rec, key)
        if word.reads is not None:
            word.reads[tid] = rec
        elif word.read is None or _tid_of(word.read[0]) == tid:
            word.read = rec
        else:
            word.reads = {_tid_of(word.read[0]): word.read, tid: rec}
            word.read = None

    def _word(self, key: int) -> _Word:
        """The :class:`_Word` for ``key``, inflating an exclusive entry."""
        state = self._shadow.get(key)
        if state.__class__ is _Word:
            return state
        word = self._shadow[key] = _Word()
        if state is not None:
            word.write, reads = _records(state)
            word.read = next(iter(reads), None)
        return word

    def _on_write(self, word: _Word, rec: _Record, key: int, tid: int,
                  clock: List[int], atomic: bool = False) -> None:
        """Race-check a write (plain or AMO) and make it the last one."""
        prior, reads = _records(word)
        # An AMO never races with another atomic access of the word.
        if prior is not None and not (atomic and prior[0] & _ATOMIC) \
                and not self._ordered(prior[0], tid, clock):
            self._race(prior, rec, key)
        for read in reads:
            if not (atomic and read[0] & _ATOMIC) \
                    and not self._ordered(read[0], tid, clock):
                self._race(read, rec, key)
        word.write = rec
        word.read = word.reads = None

    # -- atomics (serialized at the owning bank, via the memsys point) -------

    def amo_issue(self, node: Tuple[int, int], op: Any) -> None:
        """Core-side handoff: remember the op until the bank serializes it."""
        self._amo_ops[self._tids[node]] = op

    def _take_amo(self, tid: int) -> Tuple[Any, int]:
        """The op :meth:`amo_issue` parked for ``tid``, and its flags."""
        op = self._amo_ops[tid]
        self._amo_ops[tid] = None
        return op, (_WRITE | _ATOMIC | _SETTLED
                    | (_RACY if getattr(op, "racy", False) else 0))

    def amo_serialized(self, node: Tuple[int, int], dest: Any,
                       time: float) -> None:
        """The AMO's functional point: acquire + check + release."""
        self.ops_checked += 1
        tid = self._tids[node]
        op, flags = self._take_amo(tid)
        key = _dram_key(dest.cell_xy[0], dest.cell_xy[1], dest.mem_addr >> 2)
        meta = self._next_meta(tid, flags)
        if key in self._allowed:
            return
        word = self._word(key)
        if self._host_ranges:
            self._check_ranges(key, (meta, op, time))
        clock = self._clocks[tid]
        if word.amo_clock is not None:
            self._join(clock, word.amo_clock)
        xshard = self._xshard_cell is not None
        rec = (meta, op, time, list(clock)) if xshard else (meta, op, time)
        self._on_write(word, rec, key, tid, clock, atomic=True)
        if word.amo_clock is None:
            word.amo_clock = list(clock)
        else:
            self._join(word.amo_clock, clock)
        if xshard:
            self._sync_log.append(
                {"time": time, "key": list(_split_key(key)[1:]),
                 "tid": tid, "epoch": meta >> _EPOCH_SHIFT,
                 "clock": list(clock)})

    def xshard_amo_out(self, node: Tuple[int, int], dest: Any, kind: str,
                       seq: int, time: float) -> None:
        """Issuing-side record of a cross-Cell AMO (PDES shards only).

        The functional serialization happens at the *owning* shard, whose
        checker has no vector clock for this tile -- so neither side can
        check it live.  Instead the issuer snapshots its clock here, the
        owner logs the serialization order (the channel's ``served_amos``),
        and the coordinator's offline stitcher replays both.
        """
        tid = self._tids[node]
        op, flags = self._take_amo(tid)
        if self._xshard_cell is None:
            return
        self.ops_checked += 1
        key = _dram_key(dest.cell_xy[0], dest.cell_xy[1], dest.mem_addr >> 2)
        if key in self._allowed:
            return
        meta = self._next_meta(tid, flags)
        out = self._export(key, (meta, op, time, list(self._clocks[tid])))
        out["seq"] = seq
        out["kind"] = kind
        self._out_amos.append(out)

    # -- ordering edges ------------------------------------------------------

    def _release(self, tid: int, time: float, loads_only: bool) -> None:
        epoch = self._clocks[tid][tid]
        self._load_rel[tid] = epoch
        if not loads_only:
            self._store_rel[tid] = epoch
        if self._xshard_cell is not None:
            self._release_log[tid].append((epoch, time, loads_only))

    def fence(self, node: Tuple[int, int], time: float) -> None:
        """A fence (or the kernel-end drain) releases every remote access."""
        self._release(self._tids[node], time, loads_only=False)

    def pim_issue(self, node: Tuple[int, int], op: Any,
                  time: float) -> None:
        """A fire-and-forget PIM command left in flight by ``node``."""
        self.ops_checked += 1
        self._pending_pim[self._tids[node]].append(op)

    def pim_fence(self, node: Tuple[int, int], time: float) -> None:
        """A ``pim_fence`` completes every PIM command the tile issued.

        This is the *only* completion edge for PIM commands: ordinary
        fences and barriers do not cover the PIM window (the command ack
        returns through the response network like a store ack, but
        nothing in the memory model waits for it implicitly).
        """
        del self._pending_pim[self._tids[node]][:]

    def kernel_end(self, core: Any, time: float) -> None:
        node = core.node
        pending = self._pending_pim[self._tids[node]]
        if pending:
            op = pending[-1]
            self._record(
                "pim-unfenced-commands",
                f"tile {node} finished with {len(pending)} PIM command(s) "
                f"never completed by a pim_fence; their bank writes are "
                f"not ordered before anything that follows the kernel",
                ("pim-unfenced-commands", _site(op)))
            del pending[:]
        self.fence(node, time)

    def barrier_join(self, group: Any, node: Tuple[int, int],
                     time: float) -> None:
        tid = self._tids.get(node)
        members = getattr(group, "members", ())
        if tid is None or node not in members:
            if self.config.barriers:
                self._record(
                    "barrier-non-member",
                    f"tile {node} joined a barrier group it is not a "
                    f"member of (members: {list(members)[:8]})",
                    ("barrier-non-member", node))
            return
        # Loads are consumed (complete) by the join; stores need a fence.
        self._release(tid, time, loads_only=True)
        pend = self._barrier_pending.setdefault(id(group), {})
        pend[tid] = list(self._clocks[tid])

    def barrier_release(self, group: Any, time: float) -> None:
        pend = self._barrier_pending.pop(id(group), None)
        if not pend:
            return
        merged = [0] * len(self._clocks[0])
        for published in pend.values():
            self._join(merged, published)
        for tid in pend:
            self._join(self._clocks[tid], merged)

    def launch(self, handle: Any) -> None:
        """Host -> tiles edge: machine state set up before the launch."""
        host = self._clocks[HOST]
        host[HOST] += 1
        for core in handle.cores:
            tid = self._tids[core.node]
            self._join(self._clocks[tid], host)

    # -- host-side accesses --------------------------------------------------

    def _now(self) -> float:
        return self._machine.sim.now if self._machine else 0.0

    def _host_access(self, addr: int, node: Tuple[int, int],
                     write: int) -> None:
        key = self._canon(addr, node)
        if key in self._allowed:
            return
        self._touch(key, HOST, self._next_meta(HOST, write | _SETTLED),
                    None, self._now(), remote_spm=False)

    def host_write(self, addr: int, node: Tuple[int, int]) -> None:
        self._host_access(addr, node, _WRITE)

    def host_read(self, addr: int, node: Tuple[int, int]) -> None:
        self._host_access(addr, node, 0)

    def host_range(self, cell_xy: Tuple[int, int], offset: int,
                   nbytes: int, write: bool) -> None:
        """A bulk host transfer (DMA) over a Cell-DRAM range.

        Recorded as one range access: later tile accesses in the range
        check against it lazily, and words already in the shadow are
        checked now.
        """
        flags = _SETTLED | (_WRITE if write else 0)
        rec = (self._next_meta(HOST, flags), None, self._now())
        base = _dram_key(cell_xy[0], cell_xy[1], 0)
        lo = base + (offset >> 2)
        hi = base + ((offset + max(nbytes, 4) + 3) >> 2)
        self._host_ranges.append((lo, hi, write, rec))
        host_clock = self._clocks[HOST]
        for key, state in self._shadow.items():
            if not lo <= key < hi or key in self._allowed:
                continue
            prior, reads = _records(state)
            if prior is not None and _tid_of(prior[0]) != HOST \
                    and not self._ordered(prior[0], HOST, host_clock):
                self._race(prior, rec, key)
            if write:
                for read in reads:
                    if _tid_of(read[0]) != HOST and not self._ordered(
                            read[0], HOST, host_clock):
                        self._race(read, rec, key)

    def _check_ranges(self, key: int, rec: _Record) -> None:
        """Race-check one tile access against recorded host DMA ranges."""
        meta = rec[0]
        tid = _tid_of(meta)
        clock = self._clocks[tid]
        for lo, hi, range_write, host_rec in self._host_ranges:
            if not lo <= key < hi:
                continue
            if not (range_write or meta & _WRITE):
                continue
            if not self._ordered(host_rec[0], tid, clock):
                self._race(host_rec, rec, key)

    # -- cross-shard export (PDES, see sanitize/xshard.py) -------------------

    def enable_xshard(self, cell_xy: Tuple[int, int]) -> None:
        """Turn on cross-shard recording for the shard owning ``cell_xy``.

        Costs one clock copy per Cell-DRAM access and a log entry per
        AMO serialization -- only PDES shards pay it.
        """
        self._xshard_cell = tuple(cell_xy)

    def _released_at(self, meta: int, time: float) -> Optional[float]:
        """When ``meta``'s access was released (``None``: never)."""
        if meta & _SETTLED:
            return time
        epoch = meta >> _EPOCH_SHIFT
        for at_epoch, at_time, loads_only in self._release_log[_tid_of(meta)]:
            if at_epoch >= epoch and not (loads_only and meta & _WRITE):
                return at_time
        return None

    def _export(self, key: int, rec: _Record) -> Dict[str, Any]:
        meta, op, time = rec[:3]
        return {
            "key": list(_split_key(key)[1:]),
            "tid": _tid_of(meta),
            "epoch": meta >> _EPOCH_SHIFT,
            "time": time,
            "write": bool(meta & _WRITE),
            "atomic": bool(meta & _ATOMIC),
            "racy": bool(meta & _RACY),
            "released_at": self._released_at(meta, time),
            "clock": rec[3] if len(rec) > 3 else None,
            "site": list(_site(op)),
            "desc": self._describe(rec),
        }

    def export_xshard(self, inbound_words: Any,
                      served_amos: Any) -> Dict[str, Any]:
        """The shard's deterministic contribution to the offline
        cross-shard happens-before pass.

        ``inbound_words`` / ``served_amos`` come from the shard's
        :class:`~repro.pdes.channel.ShardChannel` (the owner side knows
        which of its words foreigners touched, and in what order it
        serialized their AMOs).  Exported are the shadow's surviving
        access records on foreign-Cell words (this shard's outbound
        traffic) and on own-Cell words foreigners touched -- last write
        plus last read per tile, the same granularity the live checker
        keeps, which is a documented limit of the stitched pass too.
        """
        cell = self._xshard_cell
        foreign: List[Dict[str, Any]] = []
        home: List[Dict[str, Any]] = []
        inbound = set(inbound_words)
        for key in sorted(k for k in self._shadow if k < _SPM):
            where = _split_key(key)[1:]
            if where[:2] != cell:
                out = foreign
            elif where in inbound:
                out = home
            else:
                continue
            write, reads = _records(self._shadow[key])
            if write is not None:
                out.append(self._export(key, write))
            out.extend(self._export(key, read) for read in reads)
        return {
            "cell": list(cell) if cell is not None else None,
            "ntids": len(self._clocks),
            "foreign": foreign,
            "home": home,
            "out_amos": list(self._out_amos),
            "sync_log": list(self._sync_log),
            "served_amos": [[t, list(src), seq, kind]
                            for t, src, seq, kind in served_amos],
        }

    # -- end of run ----------------------------------------------------------

    def finalize(self, now: Optional[float] = None) -> None:
        """Join the host with every tile and run the end-of-run checks.

        Safe to call after every ``Session.run`` batch.
        """
        host = self._clocks[HOST]
        for tid in range(1, len(self._clocks)):
            self._join(host, self._clocks[tid])
        if self.config.barriers:
            for group, label in self._barriers:
                pending = getattr(group, "_pending", None)
                if not pending:
                    continue
                arrived = sorted(pending)
                missing = sorted(set(group.members) - set(arrived))
                self._record(
                    "barrier-deadlock",
                    f"barrier {label} epoch {group.epochs} incomplete: "
                    f"{len(arrived)}/{len(group.members)} joined, waiting "
                    f"on {missing[:8]}",
                    ("barrier-deadlock", id(group), group.epochs))

    # -- results -------------------------------------------------------------

    def _reader_state(self) -> Dict[str, Any]:
        """What :func:`repro.runtime.result.detached` keeps: the findings
        as they stand (a later batch bumps the live ones' counts)."""
        return {"findings": [replace(f) for f in self.findings],
                "counts": dict(self.counts),
                "ops_checked": self.ops_checked}

    @property
    def clean(self) -> bool:
        return not self.counts

    def report(self) -> Dict[str, Any]:
        return sanitize_report(self)

    def summary(self) -> str:
        return format_report(sanitize_report(self))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "clean" if self.clean else \
            ", ".join(f"{k}={v}" for k, v in sorted(self.counts.items()))
        return f"Sanitizer({self.ops_checked} ops checked, {state})"
