"""Cross-shard sanitizer stitching: the offline PDES happens-before pass.

Each PDES shard runs a full per-Cell :class:`~repro.sanitize.checker.Sanitizer`,
but its vector clocks only name the tiles it simulates -- conflicts
*between* shards (a producer Cell storing into a consumer Cell's DRAM)
were invisible.  This module stitches the per-shard happens-before
graphs through the cross-Cell channel's own synchronization points:

* every shard exports its surviving shadow records on foreign-Cell words
  (its outbound traffic) and on own-Cell words foreigners touched, each
  with a point-in-time vector clock and the fence time that released it;
* cross-Cell AMOs -- the only cross-shard release/acquire primitive --
  are exported twice: the issuer snapshots its clock at issue
  (``Sanitizer.xshard_amo_out``), and the owner logs the serialization
  order and time (``ShardChannel.served_amos``);
* this pass replays all AMO serializations (cross-Cell and Cell-local)
  in one global time order, building a *composite clock* per atomic
  word: a ``{cell -> vector clock}`` map that accumulates every clock
  released into the word, transitively through chains of acquisitions.

An access ``Q`` then inherits the composite knowledge of every
acquisition its own clock dominates, and ``P happens-before Q`` iff
``P`` was released by ``Q``'s time and ``Q``'s composite clock covers
``P``'s epoch in ``P``'s shard.  Conflicting cross-shard accesses with
no such path either way are ``xcell-race`` findings.

Granularity caveat (same as the live checker's shadow): only the last
write and the last read per tile of each word survive to the export, so
an overwritten racy access can go unreported.  Everything here is a pure
function of the deterministic shard payloads -- the stitched report is
itself bit-identical across worker counts and window sizes.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from .checker import HOST, _dram_key, _format_key

#: Cap on recorded findings (occurrence counting continues past it).
MAX_FINDINGS = 64


def _merge(into: Dict[int, List[int]], cell: int, vec: List[int]) -> None:
    have = into.get(cell)
    if have is None:
        into[cell] = list(vec)
        return
    if len(vec) > len(have):
        have.extend([0] * (len(vec) - len(have)))
    for i, v in enumerate(vec):
        if v > have[i]:
            have[i] = v


class _Stitcher:
    def __init__(self, exports: List[Dict[str, Any]]) -> None:
        self.exports = exports
        self.cells = [tuple(e["cell"]) for e in exports]
        self.index_of = {xy: i for i, xy in enumerate(self.cells)}
        #: Per-cell acquisition history: (tid, epoch, composite snapshot).
        self.acq: List[List[Tuple[int, int, Dict[int, List[int]]]]] = \
            [[] for _ in exports]
        self.events = 0
        self._replay()

    # -- the global AMO serialization replay --------------------------------

    def _replay(self) -> None:
        events: List[Tuple] = []
        out_by: List[Dict[int, Dict[str, Any]]] = []
        for i, export in enumerate(self.exports):
            out_by.append({rec["seq"]: rec for rec in export["out_amos"]})
        for j, export in enumerate(self.exports):
            for t, src, seq, _kind in export["served_amos"]:
                i = self.index_of.get(tuple(src))
                rec = out_by[i].get(seq) if i is not None else None
                if rec is None:
                    continue  # suppressed (allow-listed) at the issuer
                # Served foreign AMOs sort *before* same-time local ones:
                # a poll that functionally read the new value at the same
                # cycle must see the release.
                events.append((t, 0, j, i, rec["tid"], rec["epoch"],
                               tuple(rec["key"]), rec["clock"]))
            for rec in export["sync_log"]:
                events.append((rec["time"], 1, j, j, rec["tid"],
                               rec["epoch"], tuple(rec["key"]),
                               rec["clock"]))
        events.sort(key=lambda e: e[:6])
        self.events = len(events)
        word_cc: Dict[Tuple, Dict[int, List[int]]] = {}
        acq = self.acq
        for _t, _prio, _owner, i, tid, epoch, key, clock in events:
            wcc = word_cc.setdefault(key, {})
            if wcc:  # acquire: remember what this tile learned, and when
                acq[i].append((tid, epoch,
                               {ci: list(v) for ci, v in wcc.items()}))
            release: Dict[int, List[int]] = {}
            _merge(release, i, clock)
            for t2, e2, snap in acq[i]:
                # Everything this cell's tiles acquired *and* this clock
                # dominates travels with the release (transitivity).
                if t2 < len(clock) and clock[t2] >= e2:
                    for ci, v in snap.items():
                        _merge(release, ci, v)
            for ci, v in release.items():
                _merge(wcc, ci, v)

    # -- happens-before over stitched clocks --------------------------------

    def composite(self, cell: int, clock: List[int]) -> Dict[int, List[int]]:
        """All foreign knowledge an access with ``clock`` in ``cell`` has:
        the merge of every same-cell acquisition it dominates."""
        out: Dict[int, List[int]] = {}
        for tid, epoch, snap in self.acq[cell]:
            if tid < len(clock) and clock[tid] >= epoch:
                for ci, v in snap.items():
                    _merge(out, ci, v)
        return out

    def hb(self, p: Dict[str, Any], pcell: int,
           q: Dict[str, Any], qcell: int) -> bool:
        """True when exported access ``p`` happens-before ``q``."""
        if p["tid"] == HOST and p["time"] <= 0.0:
            # Pre-launch host setup: the coordinator builds and pokes
            # every shard before any of them runs a cycle.
            return True
        if not p["atomic"]:
            released_at = p["released_at"]
            if released_at is None or released_at > q["time"]:
                return False
        qclock = q["clock"]
        if qclock is None:
            return False
        if pcell == qcell:
            return p["tid"] < len(qclock) and \
                qclock[p["tid"]] >= p["epoch"]
        vec = self.composite(qcell, qclock).get(pcell)
        return vec is not None and p["tid"] < len(vec) and \
            vec[p["tid"]] >= p["epoch"]


def _conflict(a: Dict[str, Any], acell: int,
              b: Dict[str, Any], bcell: int) -> bool:
    if not (a["write"] or b["write"]):
        return False
    if a["atomic"] and b["atomic"]:
        return False
    if a["racy"] or b["racy"]:
        return False
    if acell == bcell:
        if a["tid"] == b["tid"]:
            return False
        # Same-shard pairs were fully checked live unless one side is an
        # outbound AMO (absent from the issuer's shadow).
        if "seq" not in a and "seq" not in b:
            return False
    if a["tid"] == HOST and b["tid"] == HOST:
        return False
    return True


def stitch_shards(payloads: List[Dict[str, Any]]) -> Optional[Dict[str, Any]]:
    """Run the cross-shard happens-before pass over collected payloads.

    Returns a JSON-able report (``clean``, ``counts``, ``findings``,
    coverage stats), or ``None`` when the payloads carry no xshard
    exports (sanitize was off).
    """
    exports = [p.get("xshard") for p in payloads]
    if any(e is None for e in exports):
        return None
    stitcher = _Stitcher(exports)
    by_word: Dict[Tuple, List[Tuple[int, Dict[str, Any]]]] = {}
    for i, export in enumerate(exports):
        for rec in export["foreign"]:
            by_word.setdefault(tuple(rec["key"]), []).append((i, rec))
        for rec in export["home"]:
            by_word.setdefault(tuple(rec["key"]), []).append((i, rec))
        for rec in export["out_amos"]:
            by_word.setdefault(tuple(rec["key"]), []).append((i, rec))
    counts: Dict[str, int] = {}
    findings: List[Dict[str, Any]] = []
    by_sig: Dict[Tuple, Dict[str, Any]] = {}
    pairs = 0
    for key in sorted(by_word):
        recs = by_word[key]
        for x in range(len(recs)):
            icell, a = recs[x]
            for y in range(x + 1, len(recs)):
                jcell, b = recs[y]
                if not _conflict(a, icell, b, jcell):
                    continue
                pairs += 1
                if stitcher.hb(a, icell, b, jcell) or \
                        stitcher.hb(b, jcell, a, icell):
                    continue
                # Report with the earlier access as "prior".
                p, pcell, q, qcell = a, icell, b, jcell
                if (q["time"], qcell) < (p["time"], pcell):
                    p, pcell, q, qcell = b, jcell, a, icell
                kinds = ("atomic" if p["atomic"] else
                         ("store" if p["write"] else "load"),
                         "atomic" if q["atomic"] else
                         ("store" if q["write"] else "load"))
                detail = f"{kinds[0]}-{kinds[1]}"
                if p["write"] and p["released_at"] is None \
                        and p["tid"] != HOST and not p["atomic"]:
                    detail += " (prior store never fenced)"
                counts["xcell-race"] = counts.get("xcell-race", 0) + 1
                sig = ("xcell-race", tuple(p["site"]), tuple(q["site"]))
                known = by_sig.get(sig)
                if known is not None:
                    known["count"] += 1
                    continue
                access = dict(q["desc"])
                access["cell"] = list(stitcher.cells[qcell])
                other = dict(p["desc"])
                other["cell"] = list(stitcher.cells[pcell])
                finding = {
                    "kind": "xcell-race", "detail": detail,
                    "addr": _format_key(_dram_key(*key)),
                    "access": access, "other": other, "count": 1,
                }
                by_sig[sig] = finding
                if len(findings) < MAX_FINDINGS:
                    findings.append(finding)
    return {
        "clean": not counts,
        "counts": counts,
        "findings": findings,
        "words": len(by_word),
        "pairs": pairs,
        "sync_events": stitcher.events,
    }
