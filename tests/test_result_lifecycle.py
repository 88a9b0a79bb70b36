"""What a finished run holds: findings, not a machine.

After ``Session.run`` / ``repro.run`` without ``keep_machine=True`` a
:class:`RunResult` references no :class:`Machine` and no checker working
state; the live checkers stay on the session for its next batch.  Also
pinned here: the two two-batch bugs that surfaced with that contract,
and the sanitizer's compact shadow against a naive vector-clock checker.
"""

import gc
import json
import tracemalloc
import weakref

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro
from repro.arch.config import HB_16x8
from repro.isa.ops import AmoOp, LoadOp, StoreOp
from repro.kernels import aes, registry
from repro.pgas import spaces
from repro.runtime.machine import Machine
from repro.sanitize import FIXTURE, SanitizeConfig, Sanitizer, fixture_args
from repro.session import Session

CHECKERS = ("trace", "sanitize", "audit")


def _tiny(name):
    return registry.SUITE[name].kernel, registry.fast_args(name)


# -- the machine dies with the run ------------------------------------------------


@pytest.mark.parametrize("flags", [("trace",), ("sanitize",), ("audit",),
                                   CHECKERS], ids="+".join)
class TestMachineLifetime:
    def _run(self, tiny_config, flags, **kw):
        seen = []
        kernel, args = _tiny("PR")
        result = repro.run(
            tiny_config, kernel, args, **dict.fromkeys(flags, True),
            setup=lambda machine: seen.append(weakref.ref(machine)), **kw)
        gc.collect()
        return result, seen[0]

    def test_result_does_not_pin_the_machine(self, tiny_config, flags):
        result, machine = self._run(tiny_config, flags)
        assert machine() is None
        assert result.machine is None
        for flag in flags:  # ... and what it holds still answers
            assert result.extra[flag] is not None

    def test_keep_machine_keeps_everything(self, tiny_config, flags):
        result, machine = self._run(tiny_config, flags, keep_machine=True)
        assert machine() is result.machine
        sim = result.machine.sim
        live = {"trace": sim.tracer, "sanitize": sim.sanitizer,
                "audit": sim.audit}
        for flag in flags:
            assert result.extra[flag] is live[flag]


def test_checked_run_leaves_little_behind():
    """AES on all 128 tiles with every checker on used to leave 18.8 MB
    live (checker shadows + the machine they pinned); what a reader
    needs -- mostly the trace's events -- is under 5 MB."""
    args = aes.make_args(blocks_per_tile=1, tiles=128, seed=0)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = repro.run(HB_16x8, aes.KERNEL, args, trace=True,
                           sanitize=True, audit=True)
        gc.collect()
        live = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert result.sanitize.clean and result.audit.clean
    assert live < 8e6, f"{live / 1e6:.1f} MB live after a checked run"


# -- the reader's API answers the same, attached or detached ----------------------


def _leak_an_mshr(session):
    """Seed an audit violation: an MSHR entry nothing will release."""
    bank = next(iter(session.machine.memsys.banks.values()))
    bank.mshr.allocate(0xdead00, session.sim.now, session.sim.now + 1)


@pytest.fixture
def dirty_session(tiny_config):
    """One racy, leaky, traced batch: every checker has something to say."""
    session = Session(tiny_config, trace=True, sanitize=True, audit=True)
    session.launch(FIXTURE, fixture_args())
    _leak_an_mshr(session)
    result, = session.run()
    return session, result


class TestReaderApi:
    def test_sanitizer(self, dirty_session):
        session, result = dirty_session
        live, held = session.sanitizer, result.sanitize
        assert not held.clean and held.counts == live.counts
        assert held.ops_checked == live.ops_checked
        assert ([f.to_dict() for f in held.findings]
                == [f.to_dict() for f in live.findings])
        assert held.report() == live.report()
        assert held.summary() == live.summary()

    def test_auditor(self, dirty_session):
        session, result = dirty_session
        live, held = session.auditor, result.audit
        assert not held.clean and held.counts == live.counts
        assert held.counts["mshr-leak"] == 1
        assert held.checks == live.checks
        assert ([v.to_dict() for v in held.violations]
                == [v.to_dict() for v in live.violations])
        assert held.summary() == live.summary()

    def test_trace(self, dirty_session, tmp_path):
        session, result = dirty_session
        live, held = session.trace, result.trace
        assert held.events == live.events and held.events
        assert held.tracks == live.tracks
        assert [(s.key, s.times, s.values) for s in held.metrics.series] \
            == [(s.key, s.times, s.values) for s in live.metrics.series]
        key = live.metrics.series[0].key
        assert held.metrics.get(key).stats() == live.metrics.get(key).stats()
        assert held.to_chrome() == live.to_chrome()
        assert held.report() == live.report()
        assert held.summary() == live.summary()
        held.write_chrome(str(tmp_path / "held.json"))
        live.write_chrome(str(tmp_path / "live.json"))
        assert (tmp_path / "held.json").read_bytes() \
            == (tmp_path / "live.json").read_bytes()

    def test_held_findings_are_a_value(self, dirty_session):
        """The session's next batch moves its live checkers, not what an
        earlier result holds."""
        session, first = dirty_session
        frozen = (json.dumps(first.sanitize.report(), sort_keys=True),
                  first.audit.summary(), len(first.trace.events))
        session.launch(FIXTURE, fixture_args())
        second, = session.run()
        assert (json.dumps(first.sanitize.report(), sort_keys=True),
                first.audit.summary(), len(first.trace.events)) == frozen
        assert second.sanitize.counts["data-race"] \
            > first.sanitize.counts["data-race"]
        assert len(second.trace.events) > len(first.trace.events)
        assert second.sanitize.report() == session.sanitizer.report()


# -- a Session's second batch -------------------------------------------------------


class TestSecondBatch:
    def test_audit_sweeps_every_batch(self, tiny_config):
        """``Auditor.finalize`` used to latch after the first batch, so a
        leak in the second was never reported."""
        session = Session(tiny_config, audit=True)
        session.launch(*_tiny("PR"))
        first, = session.run()
        assert first.audit.clean, first.audit.summary()
        session.launch(*_tiny("PR"))
        _leak_an_mshr(session)
        second, = session.run()
        assert second.audit.counts.get("mshr-leak") == 1
        assert first.audit.clean  # the first batch's verdict stands

    def test_counters_are_per_launch(self, tiny_config):
        """The same kernel twice on the same tiles: the second result
        reports its own instructions and a breakdown that sums to one
        (it used to report both launches' -- 2x and ~4.4 -- which the
        auditor then flagged as a false ``breakdown-sum``)."""
        session = Session(tiny_config, audit=True)
        session.launch(*_tiny("AES"))
        first, = session.run()
        session.launch(*_tiny("AES"))
        second, = session.run()
        assert second.instructions == first.instructions
        assert second.int_instructions == first.int_instructions
        assert sum(second.core_breakdown.values()) == pytest.approx(1.0)
        assert 0.0 < second.core_utilization <= 1.0
        assert session.auditor.clean, session.auditor.summary()


# -- the compact shadow against a naive vector-clock checker -----------------------


class _Naive:
    """The documented happens-before model with nothing clever: a mutable
    record per access, pending lists a fence walks, a per-word dict of
    the last read per tile.  ``tid`` 0 is the host."""

    def __init__(self, nthreads):
        self.clock = [[0] * nthreads for _ in range(nthreads)]
        self.pending = [[] for _ in range(nthreads)]
        self.words, self.found, self.counts = {}, {}, {}

    def _acc(self, tid, site, time, write, atomic, settled):
        self.clock[tid][tid] += 1
        acc = dict(tid=tid, epoch=self.clock[tid][tid], site=site, time=time,
                   write=write, atomic=atomic, released=settled)
        if not settled:
            self.pending[tid].append(acc)
        return acc

    def _report(self, kind, detail, sig, *where):
        self.counts[kind] = self.counts.get(kind, 0) + 1
        if sig in self.found:
            self.found[sig][-1] += 1
        else:
            self.found[sig] = [kind, detail, *where, 1]

    def _check(self, prior, acc, word):
        tid = acc["tid"]
        if prior["tid"] == tid or (prior["released"] and
                                   self.clock[tid][prior["tid"]]
                                   >= prior["epoch"]):
            return
        name = lambda a: ("atomic" if a["atomic"] else  # noqa: E731
                          "store" if a["write"] else "load")
        detail = f"{name(prior)}-{name(acc)}"
        if prior["write"] and not prior["released"]:
            detail += " (prior store never fenced)"
        self._report("data-race", detail, (prior["site"], acc["site"]), word,
                     (acc["tid"], acc["time"]),
                     (prior["tid"], prior["time"], prior["released"]))

    def _join(self, into, other):
        into[:] = [max(a, b) for a, b in zip(into, other)]

    def access(self, tid, word, site, time, write, own, remote_spm):
        acc = self._acc(tid, site, time, write, False, own)
        state = self.words.setdefault(word, dict(w=None, r={}, amo=None,
                                                 uninit=False))
        if write:
            for prior in [state["w"], *state["r"].values()]:
                if prior is not None:
                    self._check(prior, acc, word)
            state.update(w=acc, r={}, amo=None)
            return
        if state["amo"] is not None:
            self._join(self.clock[tid], state["amo"])
            acc["atomic"] = True
        if state["w"] is None:
            if remote_spm and not state["uninit"]:
                state["uninit"] = True
                self._report("uninit-read", "", ("uninit", site), word,
                             (tid, time))
        elif not state["w"]["atomic"]:
            self._check(state["w"], acc, word)
        state["r"][tid] = acc

    def amo(self, tid, word, site, time):
        acc = self._acc(tid, site, time, True, True, True)
        state = self.words.setdefault(word, dict(w=None, r={}, amo=None,
                                                 uninit=False))
        if state["amo"] is not None:
            self._join(self.clock[tid], state["amo"])
        for prior in [state["w"], *state["r"].values()]:
            if prior is not None and not prior["atomic"]:
                self._check(prior, acc, word)
        state.update(w=acc, r={})
        if state["amo"] is None:
            state["amo"] = list(self.clock[tid])
        else:
            self._join(state["amo"], self.clock[tid])

    def release(self, tid, loads_only):
        keep = []
        for acc in self.pending[tid]:
            if loads_only and acc["write"]:
                keep.append(acc)
            else:
                acc["released"] = True
        self.pending[tid] = keep


class _Group:
    """What the sanitizer reads of a barrier group."""

    def __init__(self, members):
        self.members, self._pending, self.epochs = members, {}, 0


_TILES = 3
#: (address as the tile at ``node`` spells it, the word's name, scratchpad?)
#: -- few words, some spelled two ways, so interleavings collide.
_WORDS = (
    (lambda n: spaces.local_dram(0x9000), lambda n: "dram(0,0)+0x9000", False),
    (lambda n: spaces.local_dram(0x9004), lambda n: "dram(0,0)+0x9004", False),
    (lambda n: spaces.group_dram(0, 0, 0x9004),
     lambda n: "dram(0,0)+0x9004", False),
    (lambda n: spaces.group_spm(0, 1, 0x800), lambda n: "spm[0,1]+0x800", True),
    (lambda n: spaces.local_spm(0x800),
     lambda n: f"spm[{n[0]},{n[1]}]+0x800", True),
)
_EVENTS = st.lists(
    st.tuples(st.sampled_from(["load", "load", "store", "store", "fence",
                               "join", "barrier", "amo"]),
              st.integers(0, _TILES - 1), st.integers(0, len(_WORDS) - 1),
              st.integers(0, 2)),
    max_size=40)


@settings(max_examples=400, deadline=None)
@given(events=_EVENTS)
# Leaving the exclusive layout must lose nothing: the owner's write
# survives its own later read, and the first reader survives the second.
@example(events=[("store", 0, 0, 0), ("load", 0, 0, 1), ("store", 1, 0, 2)])
@example(events=[("load", 1, 0, 0), ("load", 2, 0, 1), ("store", 0, 0, 2)])
# The fence-before-barrier discipline, kept and broken.
@example(events=[("store", 0, 0, 0), ("fence", 0, 0, 0), ("barrier", 0, 0, 0),
                 ("load", 1, 0, 0)])
@example(events=[("store", 0, 0, 0), ("barrier", 0, 0, 0), ("load", 1, 0, 0)])
# Flag publication through an AMO pair; a plain store demotes the flag.
@example(events=[("store", 0, 0, 0), ("fence", 0, 0, 0), ("amo", 0, 1, 0),
                 ("amo", 1, 2, 0), ("load", 1, 0, 0), ("store", 2, 1, 0),
                 ("load", 1, 2, 0)])
# A remote scratchpad word nobody wrote, read twice.
@example(events=[("load", 1, 3, 0), ("load", 1, 3, 1), ("load", 2, 3, 0)])
def test_compact_shadow_matches_naive_checker(events):
    machine = Machine(repro.small_config(4, 4))
    san = Sanitizer(SanitizeConfig(max_findings=10_000))
    san.bind(machine)
    nodes = [(x, 1) for x in range(_TILES)]  # the first tile row
    tids = [san._tids[node] for node in nodes]
    naive = _Naive(len(machine.cores) + 1)
    group, joined = _Group(nodes), set()

    def join(tile, time):
        san.barrier_join(group, nodes[tile], time)
        naive.release(tids[tile], loads_only=True)
        joined.add(tile)
        if len(joined) == _TILES:
            san.barrier_release(group)
            merged = [max(col) for col in zip(*(naive.clock[t]
                                                for t in tids))]
            for t in tids:
                naive.clock[t] = list(merged)
            joined.clear()

    for step, (what, tile, widx, pc) in enumerate(events):
        time = float(step)
        if what == "barrier":  # everyone still running joins, in order
            for other in sorted(set(range(_TILES)) - joined):
                join(other, time)
            continue
        if tile in joined:
            continue  # blocked at the barrier
        node, tid = nodes[tile], tids[tile]
        make, name, spm = _WORDS[widx]
        addr, word = make(node), name(node)
        own = word == f"spm[{node[0]},{node[1]}]+0x800"
        if what == "load":
            san.load(node, LoadOp(1, addr, pc=pc), time)
            naive.access(tid, word, ("LoadOp", pc), time, False, own,
                         spm and not own)
        elif what == "store":
            san.store(node, StoreOp(addr, pc=pc), time)
            naive.access(tid, word, ("StoreOp", pc), time, True, own, False)
        elif what == "fence":
            san.fence(node, time)
            naive.release(tid, loads_only=False)
        elif what == "join":
            join(tile, time)
        elif not spm:  # an AMO; scratchpads serve none
            san.amo_issue(node, AmoOp(1, addr, "add", 1, pc=pc))
            san.amo_serialized(
                node, machine.memsys.translator.translate(addr, node), time)
            naive.amo(tid, word, ("AmoOp", pc), time)
    got = []
    for f in san.findings:
        row = [f.kind, f.detail if f.kind == "data-race" else "", f.addr,
               (san._tids[tuple(f.access["tile"])], f.access["time"])]
        if f.other is not None:
            row.append((san._tids[tuple(f.other["tile"])], f.other["time"],
                        f.other["released"]))
        got.append(row + [f.count])
    assert got == list(naive.found.values())
    assert san.counts == naive.counts
