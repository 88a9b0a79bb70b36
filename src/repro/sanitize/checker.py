"""The happens-before engine behind ``repro sanitize``.

A :class:`Sanitizer` is a passive observer wired into a live machine by
:func:`repro.sanitize.attach` (the ``Session(sanitize=True)`` path).
Components carry a ``_san`` attribute that defaults to ``None``; every
hot path guards its notification behind one ``is not None`` check, so a
sanitize-off run executes the seed's exact instruction stream and cycle
counts (the golden tests pin this).  The sanitizer never schedules
events or touches component state -- sanitize-on runs are also
cycle-identical to sanitize-off runs.

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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..isa.disasm import format_op
from ..pgas.spaces import (
    FIELD_A_SHIFT,
    FIELD_B_SHIFT,
    FIELD_MASK,
    OFFSET_MASK,
    TAG_SHIFT,
    Space,
)
from .report import format_report, sanitize_report

_LOCAL_SPM = int(Space.LOCAL_SPM)
_GROUP_SPM = int(Space.GROUP_SPM)

#: Thread id of the host runtime (pokes, DMA, result collection).
HOST = 0


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


class _Access:
    """One observed memory access (the shadow state's unit).

    ``clock`` and ``released_at`` are only populated in cross-shard
    (xshard) mode: the offline stitcher needs a point-in-time vector
    clock per exported access, and the *time* a fence released it (the
    live checker only needs the boolean).
    """

    __slots__ = ("tid", "epoch", "released", "node", "op", "addr",
                 "write", "atomic", "racy", "time", "clock",
                 "released_at")

    def __init__(self, tid: int, epoch: int, released: bool, node, op,
                 addr: int, write: bool, atomic: bool, racy: bool,
                 time: float) -> None:
        self.tid = tid
        self.epoch = epoch
        self.released = released
        self.node = node
        self.op = op
        self.addr = addr
        self.write = write
        self.atomic = atomic
        self.racy = racy
        self.time = time
        self.clock: Optional[List[int]] = None
        self.released_at: Optional[float] = time if released else None


class _Word:
    """Shadow state of one 4-byte word: last write + last read per tile."""

    __slots__ = ("write", "reads", "amo_clock", "uninit_reported")

    def __init__(self) -> None:
        self.write: Optional[_Access] = None
        self.reads: Dict[int, _Access] = {}
        self.amo_clock: Optional[List[int]] = None
        self.uninit_reported = False


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


def _describe(acc: _Access) -> Dict[str, Any]:
    """JSON-able description of one access (disassembly included)."""
    if acc.tid == HOST:
        where: Any = "host"
    else:
        where = list(acc.node)
    out: Dict[str, Any] = {"tile": where, "time": acc.time,
                           "released": acc.released}
    if acc.op is not None:
        out["op"] = format_op(acc.op).strip()
        out["pc"] = acc.op.pc
    else:
        out["op"] = "host access"
        out["pc"] = -1
    return out


def _format_key(key: Tuple) -> str:
    if key[0] == "S":
        return f"spm[{key[1]},{key[2]}]+{4 * key[3]:#x}"
    return f"dram({key[1]},{key[2]})+{4 * key[3]:#x}"


def _site(acc: _Access) -> Tuple:
    """Dedup signature of an access: its code location, not its data."""
    if acc.op is None:
        return ("host",)
    return (type(acc.op).__name__, acc.op.pc)


def _site_op(op: Any) -> Tuple:
    """Dedup signature of a bare op (no access record)."""
    if op is None:
        return ("host",)
    return (type(op).__name__, op.pc)


class Sanitizer:
    """Dynamic PGAS race and synchronization checker for one machine."""

    def __init__(self, config: Optional[SanitizeConfig] = None) -> None:
        self.config = config or SanitizeConfig()
        self.findings: List[Finding] = []
        #: Occurrences per kind, counted even past ``max_findings``.
        self.counts: Dict[str, int] = {}
        self._by_sig: Dict[Tuple, Finding] = {}
        self._suppress = frozenset(self.config.suppress)
        self._allowed: set = set()
        self._shadow: Dict[Tuple, _Word] = {}
        self._canon_memo: Dict[Tuple, Tuple] = {}
        self._machine: Any = None
        self._translator: Any = None
        self._tids: Dict[Tuple[int, int], int] = {}
        self._clocks: List[List[int]] = []
        self._pending_stores: List[List[_Access]] = []
        self._pending_loads: List[List[_Access]] = []
        self._pending_pim: List[List[Any]] = []
        self._amo_ops: List[Optional[Any]] = []
        self._barrier_pending: Dict[int, Dict[int, List[int]]] = {}
        self._barriers: List[Tuple[Any, str]] = []
        #: Host-side bulk ranges: (cell_xy, lo_word, hi_word, write, _Access).
        self._host_ranges: List[Tuple[Tuple[int, int], int, int, bool, _Access]] = []
        self.ops_checked = 0
        #: Cross-shard (xshard) mode: set by :meth:`enable_xshard` on
        #: PDES shards.  Accesses to Cell-DRAM words then snapshot the
        #: issuing thread's vector clock, fences stamp release times,
        #: and AMO serializations are logged -- everything the offline
        #: cross-shard stitcher (:mod:`repro.sanitize.xshard`) needs.
        self._xshard_cell: Optional[Tuple[int, int]] = None
        self._out_amos: List[Dict[str, Any]] = []
        self._sync_log: List[Dict[str, Any]] = []

    # -- wiring (see sanitize/instrument.py) --------------------------------

    def bind(self, machine: Any) -> None:
        """Build the thread table for ``machine``'s tiles (host is 0)."""
        self._machine = machine
        self._translator = machine.memsys.translator
        nodes = sorted(machine.cores, key=lambda xy: (xy[1], xy[0]))
        self._tids = {node: i + 1 for i, node in enumerate(nodes)}
        n = len(nodes) + 1
        self._clocks = [[0] * n for _ in range(n)]
        self._pending_stores = [[] for _ in range(n)]
        self._pending_loads = [[] for _ in range(n)]
        self._pending_pim = [[] for _ in range(n)]
        self._amo_ops = [None] * n

    def register_barrier(self, group: Any, label: str) -> None:
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

    def _canon(self, addr: int, node: Tuple[int, int]) -> Tuple:
        """Physical identity of a word: one key per (memory, word)."""
        memo = self._canon_memo
        mkey = (addr, node)
        hit = memo.get(mkey)
        if hit is not None:
            return hit
        tag = addr >> TAG_SHIFT
        if tag == _LOCAL_SPM:
            hit = ("S", node[0], node[1], (addr & OFFSET_MASK) >> 2)
        elif tag == _GROUP_SPM:
            hit = ("S", (addr >> FIELD_A_SHIFT) & FIELD_MASK,
                   (addr >> FIELD_B_SHIFT) & FIELD_MASK,
                   (addr & OFFSET_MASK) >> 2)
        else:
            dest = self._translator.translate(addr, node)
            hit = ("D", dest.cell_xy[0], dest.cell_xy[1], dest.mem_addr >> 2)
        if len(memo) >= (1 << 16):
            memo.clear()
        memo[mkey] = hit
        return hit

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

    def _race(self, prior: _Access, acc: _Access, key: Tuple) -> None:
        if not self.config.races or prior.racy or acc.racy:
            return
        kinds = ("atomic" if prior.atomic else
                 ("store" if prior.write else "load"),
                 "atomic" if acc.atomic else
                 ("store" if acc.write else "load"))
        detail = f"{kinds[0]}-{kinds[1]}"
        if prior.write and not prior.released and prior.tid != HOST:
            detail += " (prior store never fenced)"
        self._record(
            "data-race", detail,
            ("data-race", _site(prior), _site(acc)),
            addr=_format_key(key),
            access=_describe(acc), other=_describe(prior))

    # -- happens-before core ------------------------------------------------

    def _hb(self, acc: _Access, tid: int, clock: List[int]) -> bool:
        return acc.tid == tid or (acc.released
                                  and clock[acc.tid] >= acc.epoch)

    def _next_epoch(self, tid: int) -> int:
        clock = self._clocks[tid]
        epoch = clock[tid] + 1
        clock[tid] = epoch
        return epoch

    @staticmethod
    def _join(into: List[int], other: List[int]) -> None:
        for i, v in enumerate(other):
            if v > into[i]:
                into[i] = v

    # -- tile access hooks (called from the core hot path) -------------------

    def load(self, node: Tuple[int, int], op: Any, time: float) -> None:
        self._access(node, op, op.addr, False, getattr(op, "racy", False),
                     time)

    def vload(self, node: Tuple[int, int], op: Any, time: float) -> None:
        racy = getattr(op, "racy", False)
        for i in range(len(op.dsts)):
            self._access(node, op, op.addr + 4 * i, False, racy, time)

    def store(self, node: Tuple[int, int], op: Any, time: float) -> None:
        self._access(node, op, op.addr, True, getattr(op, "racy", False),
                     time)

    def _access(self, node: Tuple[int, int], op: Any, addr: int,
                write: bool, racy: bool, time: float) -> None:
        self.ops_checked += 1
        tid = self._tids[node]
        key = self._canon(addr, node)
        local = key[0] == "S" and key[1] == node[0] and key[2] == node[1]
        acc = _Access(tid, self._next_epoch(tid), local, node, op, addr,
                      write, False, racy, time)
        if not local:
            (self._pending_stores if write
             else self._pending_loads)[tid].append(acc)
        if key in self._allowed:
            return
        word = self._shadow.get(key)
        if word is None:
            word = self._shadow[key] = _Word()
        self._check_ranges(key, acc)
        if write:
            self._on_write(word, acc, key)
        else:
            self._on_read(word, acc, key, remote_spm=(key[0] == "S"
                                                      and not local))
        if self._xshard_cell is not None and key[0] == "D":
            # Snapshot *after* the handlers: an atomic-word read just
            # joined the word's release clock, and the exported clock
            # must include that acquisition.
            acc.clock = list(self._clocks[tid])

    def _on_write(self, word: _Word, acc: _Access, key: Tuple) -> None:
        tid, clock = acc.tid, self._clocks[acc.tid]
        prior = word.write
        if prior is not None and prior.tid != tid \
                and not self._hb(prior, tid, clock):
            self._race(prior, acc, key)
        for rtid, read in word.reads.items():
            if rtid != tid and not self._hb(read, tid, clock):
                self._race(read, acc, key)
        word.write = acc
        word.reads.clear()
        word.amo_clock = None  # a plain write demotes an atomic word

    def _on_read(self, word: _Word, acc: _Access, key: Tuple,
                 remote_spm: bool) -> None:
        tid, clock = acc.tid, self._clocks[acc.tid]
        if word.amo_clock is not None:
            # Atomic word: single-copy atomic read acquires its clock.
            self._join(clock, word.amo_clock)
            acc.atomic = True
        prior = word.write
        if prior is None:
            if remote_spm and self.config.uninit and not word.uninit_reported:
                word.uninit_reported = True
                self._record(
                    "uninit-read",
                    "remote scratchpad word read before any write",
                    ("uninit-read", _site(acc)),
                    addr=_format_key(key), access=_describe(acc))
        elif not prior.atomic and prior.tid != tid \
                and not self._hb(prior, tid, clock):
            self._race(prior, acc, key)
        word.reads[tid] = acc

    # -- atomics (serialized at the owning bank, via the memsys hook) --------

    def amo_issue(self, node: Tuple[int, int], op: Any) -> None:
        """Core-side handoff: remember the op until the bank serializes it."""
        self._amo_ops[self._tids[node]] = op

    def amo_serialized(self, node: Tuple[int, int], dest: Any,
                       time: float) -> None:
        """The AMO's functional point: acquire + check + release."""
        self.ops_checked += 1
        tid = self._tids[node]
        op = self._amo_ops[tid]
        self._amo_ops[tid] = None
        key = ("D", dest.cell_xy[0], dest.cell_xy[1], dest.mem_addr >> 2)
        clock = self._clocks[tid]
        acc = _Access(tid, self._next_epoch(tid), True, node, op,
                      getattr(op, "addr", 0), True, True,
                      getattr(op, "racy", False), time)
        if key in self._allowed:
            return
        word = self._shadow.get(key)
        if word is None:
            word = self._shadow[key] = _Word()
        self._check_ranges(key, acc)
        if word.amo_clock is not None:
            self._join(clock, word.amo_clock)
        prior = word.write
        if prior is not None and not prior.atomic and prior.tid != tid \
                and not self._hb(prior, tid, clock):
            self._race(prior, acc, key)
        for rtid, read in word.reads.items():
            if rtid != tid and not read.atomic \
                    and not self._hb(read, tid, clock):
                self._race(read, acc, key)
        word.write = acc
        word.reads.clear()
        release = list(clock)
        if word.amo_clock is None:
            word.amo_clock = release
        else:
            self._join(word.amo_clock, release)
        if self._xshard_cell is not None:
            acc.clock = list(clock)
            self._sync_log.append(
                {"time": time, "key": [key[1], key[2], key[3]],
                 "tid": tid, "epoch": acc.epoch, "clock": list(clock)})

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
        op = self._amo_ops[tid]
        self._amo_ops[tid] = None
        if self._xshard_cell is None:
            return
        self.ops_checked += 1
        key = ("D", dest.cell_xy[0], dest.cell_xy[1], dest.mem_addr >> 2)
        if key in self._allowed:
            return
        acc = _Access(tid, self._next_epoch(tid), True, node, op,
                      getattr(op, "addr", 0), True, True,
                      getattr(op, "racy", False), time)
        acc.clock = list(self._clocks[tid])
        rec = self._export_acc(key, acc)
        rec["seq"] = seq
        rec["kind"] = kind
        self._out_amos.append(rec)

    # -- ordering edges ------------------------------------------------------

    def fence(self, node: Tuple[int, int], time: float) -> None:
        """A fence (or the kernel-end drain) releases every remote access."""
        tid = self._tids[node]
        for acc in self._pending_stores[tid]:
            acc.released = True
            acc.released_at = time
        for acc in self._pending_loads[tid]:
            acc.released = True
            acc.released_at = time
        del self._pending_stores[tid][:]
        del self._pending_loads[tid][:]

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

    def kernel_end(self, node: Tuple[int, int], time: float) -> None:
        pending = self._pending_pim[self._tids[node]]
        if pending:
            op = pending[-1]
            self._record(
                "pim-unfenced-commands",
                f"tile {node} finished with {len(pending)} PIM command(s) "
                f"never completed by a pim_fence; their bank writes are "
                f"not ordered before anything that follows the kernel",
                ("pim-unfenced-commands", _site_op(op)))
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
        for acc in self._pending_loads[tid]:
            acc.released = True
            acc.released_at = time
        del self._pending_loads[tid][:]
        pend = self._barrier_pending.setdefault(id(group), {})
        pend[tid] = list(self._clocks[tid])

    def barrier_release(self, group: Any) -> None:
        pend = self._barrier_pending.pop(id(group), None)
        if not pend:
            return
        merged = [0] * len(self._clocks[0])
        for published in pend.values():
            self._join(merged, published)
        for tid in pend:
            self._join(self._clocks[tid], merged)

    def launch_started(self, handle: Any) -> None:
        """Host -> tiles edge: machine state set up before the launch."""
        host = self._clocks[HOST]
        host[HOST] += 1
        for core in handle.cores:
            tid = self._tids[core.node]
            self._join(self._clocks[tid], host)

    # -- host-side accesses --------------------------------------------------

    def _host_access(self, addr: int, node: Tuple[int, int],
                     write: bool) -> None:
        key = self._canon(addr, node)
        if key in self._allowed:
            return
        acc = _Access(HOST, self._next_epoch(HOST), True, None, None, addr,
                      write, False, False,
                      self._machine.sim.now if self._machine else 0.0)
        word = self._shadow.get(key)
        if word is None:
            word = self._shadow[key] = _Word()
        if write:
            self._on_write(word, acc, key)
        else:
            self._on_read(word, acc, key, remote_spm=False)
        if self._xshard_cell is not None and key[0] == "D":
            acc.clock = list(self._clocks[HOST])

    def host_write(self, addr: int, node: Tuple[int, int]) -> None:
        self._host_access(addr, node, True)

    def host_read(self, addr: int, node: Tuple[int, int]) -> None:
        self._host_access(addr, node, False)

    def host_range(self, cell_xy: Tuple[int, int], offset: int,
                   nbytes: int, write: bool) -> None:
        """A bulk host transfer (DMA) over a Cell-DRAM range.

        Recorded as one range access: later tile accesses in the range
        check against it lazily, and words already in the shadow are
        checked now.
        """
        acc = _Access(HOST, self._next_epoch(HOST), True, None, None,
                      offset, write, False, False,
                      self._machine.sim.now if self._machine else 0.0)
        lo, hi = offset >> 2, (offset + max(nbytes, 4) + 3) >> 2
        self._host_ranges.append((cell_xy, lo, hi, write, acc))
        host_clock = self._clocks[HOST]
        for key, word in self._shadow.items():
            if key[0] != "D" or (key[1], key[2]) != cell_xy \
                    or not lo <= key[3] < hi or key in self._allowed:
                continue
            prior = word.write
            if prior is not None and prior.tid != HOST \
                    and not self._hb(prior, HOST, host_clock):
                self._race(prior, acc, key)
            if write:
                for rtid, read in word.reads.items():
                    if rtid != HOST and not self._hb(read, HOST, host_clock):
                        self._race(read, acc, key)

    def _check_ranges(self, key: Tuple, acc: _Access) -> None:
        """Race-check one tile access against recorded host DMA ranges."""
        if not self._host_ranges or key[0] != "D":
            return
        clock = self._clocks[acc.tid]
        for cell_xy, lo, hi, range_write, host_acc in self._host_ranges:
            if (key[1], key[2]) != cell_xy or not lo <= key[3] < hi:
                continue
            if not (range_write or acc.write):
                continue
            if not self._hb(host_acc, acc.tid, clock):
                self._race(host_acc, acc, key)

    # -- cross-shard export (PDES, see sanitize/xshard.py) -------------------

    def enable_xshard(self, cell_xy: Tuple[int, int]) -> None:
        """Turn on cross-shard recording for the shard owning ``cell_xy``.

        Costs one clock copy per Cell-DRAM access and a log entry per
        AMO serialization -- only PDES shards pay it.
        """
        self._xshard_cell = tuple(cell_xy)

    def _export_acc(self, key: Tuple, acc: _Access) -> Dict[str, Any]:
        return {
            "key": [key[1], key[2], key[3]],
            "tid": acc.tid,
            "epoch": acc.epoch,
            "time": acc.time,
            "write": acc.write,
            "atomic": acc.atomic,
            "racy": acc.racy,
            "released_at": acc.released_at if acc.released else None,
            "clock": acc.clock,
            "site": list(_site(acc)),
            "desc": _describe(acc),
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
        for key, word in sorted(self._shadow.items()):
            if key[0] != "D":
                continue
            if (key[1], key[2]) != cell:
                out = foreign
            elif (key[1], key[2], key[3]) in inbound:
                out = home
            else:
                continue
            if word.write is not None:
                out.append(self._export_acc(key, word.write))
            for acc in word.reads.values():
                out.append(self._export_acc(key, acc))
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
