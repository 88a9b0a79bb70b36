"""repro.pdes transport: the caller is worker 0, forks are workers 1..N-1.

Pinned here:

* one fingerprint for every worker count, with exactly ``workers - 1``
  forked children alive during the run and none after it;
* teardown -- a worker that dies, a worker that answers ``error`` and an
  interrupt inside the caller's own shard all raise cleanly and leave no
  child process behind;
* the benchmark's fixtures keep their ``(rounds, messages)``, and a
  Cell working alone runs its windows without a pipe round trip each;
* the memoized ``Network.reserve_leg`` against the naive per-link walk
  (``repro.audit.reference.reference_reserve_leg``) on random streams;
* the wire form: every message is a flat tuple that unpickles without
  running any Python code.
"""

import multiprocessing
import os
import pickle
import pickletools
import signal
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.config import HB_16x8, small_config
from repro.audit.reference import reference_reserve_leg
from repro.isa.program import kernel
from repro.noc.network import Network
from repro.pdes import LaunchSpec, PdesError, run_cells
from repro.pdes import coordinator
from repro.pdes import fixture as xfix
from repro.pdes.channel import (AMO, ARRIVAL, KIND, REQUEST, RESPONSE,
                                 SEQ, SRC_CELL, sort_key)


def grid(cells_x, cells_y, tiles=4):
    return small_config(tiles, tiles).with_geometry(cells_x=cells_x,
                                                    cells_y=cells_y)


@pytest.fixture
def children_seen(monkeypatch):
    """Live child-process counts, sampled at every ``collect`` -- the one
    moment of a run when every worker it forked is certainly still up."""
    seen = []
    collect = coordinator._Transport.collect

    def counting_collect(self):
        seen.append(len(multiprocessing.active_children()))
        return collect(self)

    monkeypatch.setattr(coordinator._Transport, "collect", counting_collect)
    assert not multiprocessing.active_children()
    yield seen
    assert not multiprocessing.active_children()


# ---------------------------------------------------------------------------
# Worker counts: one result, workers - 1 forks.

class TestWorkerCounts:
    @pytest.mark.parametrize("shape,launches", [
        ((2, 2), lambda cfg: xfix.pipeline_launches(cfg, words=32)),
        ((2, 1), lambda cfg: xfix.exchange_launches(cfg, words=32)),
    ], ids=["pipeline-2x2", "exchange-2x1"])
    def test_one_fingerprint_and_workers_minus_one_forks(
            self, shape, launches, children_seen):
        cfg = grid(*shape)
        fingerprints = set()
        for asked in (1, 2, 3, 4):
            res = run_cells(cfg, launches(cfg), workers=asked)
            assert res.workers == min(asked, shape[0] * shape[1])
            assert children_seen.pop() == res.workers - 1
            assert res.sync["forked_workers"] == res.workers - 1
            assert not multiprocessing.active_children()
            fingerprints.add(res.fingerprint())
        assert len(fingerprints) == 1

    def test_sync_profile_reported_but_not_fingerprinted(self):
        cfg = grid(2, 1)
        res = run_cells(cfg, xfix.exchange_launches(cfg, words=32), workers=2)
        sync = res.sync
        assert sync["rounds"] == res.rounds > 0
        per_round = sync["messages_per_round"]
        assert per_round["mean"] * res.rounds == pytest.approx(res.messages)
        assert per_round["mean"] <= per_round["max"] <= res.messages
        assert sync["local_advance_s"] > 0 and sync["remote_wait_s"] > 0
        assert 0 < sync["pricing_s"] < res.wall_seconds
        assert 0 < sync["init_s"] < res.wall_seconds
        # init, collect and at least one window went through the fork
        assert 3 <= sync["round_trips"] <= res.rounds + 2
        assert res.to_dict()["sync"] == sync
        before = res.fingerprint()
        res.sync = None
        assert res.fingerprint() == before

    def test_one_worker_never_waits(self):
        cfg = grid(2, 1)
        res = run_cells(cfg, xfix.exchange_launches(cfg, words=16), workers=1)
        assert res.sync["forked_workers"] == 0
        assert res.sync["remote_wait_s"] == 0.0
        assert res.sync["round_trips"] == 0


# ---------------------------------------------------------------------------
# The benchmark's fixtures: the sync protocol's counts, pinned.

#: ``(rounds, messages)`` of each cross-Cell fixture on HB-16x8 as 2x1
#: Cells -- what the benchmark reports as ``pdes.<entry>.rounds`` and
#: ``.messages``.  A host-side change to the sync protocol moves none.
SPINE_FIXTURES = {
    ("exchange", 256): (80, 1028),
    ("exchange", 2048): (111, 8196),
    ("pipeline", 256): (85, 514),
    ("pipeline", 2048): (154, 4098),
}


@pytest.mark.parametrize("kind,words", sorted(SPINE_FIXTURES),
                         ids=[f"{k}-{w}" for k, w in sorted(SPINE_FIXTURES)])
def test_spine_fixture_counts(kind, words):
    cfg = HB_16x8.with_geometry(cells_x=2)
    launches = getattr(xfix, f"{kind}_launches")
    runs = [run_cells(cfg, launches(cfg, words=words), workers=w)
            for w in (1, 2)]
    for res in runs:
        assert (res.rounds, res.messages) == SPINE_FIXTURES[kind, words]
    assert runs[0].fingerprint() == runs[1].fingerprint()
    if kind == "pipeline":
        # Stretches of windows with only the forked Cell busy are one
        # request each, not one per window.
        assert runs[1].sync["round_trips"] < runs[1].rounds


# ---------------------------------------------------------------------------
# Teardown.  The kernels are module-level: they reach a forked shard by
# import path.

@kernel("xcell-exit-in-fork")
def exit_in_fork_kernel(t, args):
    """Kill the hosting process outright -- unless it is the test's own."""
    yield t.sleep(8)
    if os.getpid() != args["spare_pid"]:
        os._exit(3)


@kernel("xcell-raise")
def raise_kernel(t, args):
    yield t.sleep(8)
    raise args["exc"]("kernel gave up")


@kernel("xcell-idle")
def idle_kernel(t, args):
    yield t.sleep(8)


def launches_with(cfg, bad_cell, bad_kernel, args):
    """``bad_kernel`` on ``bad_cell``, a short sleeper everywhere else;
    all ``remote=True`` so the run is windowed, not free-running."""
    return [LaunchSpec(cell=xy, args=args if xy == bad_cell else None,
                       kernel=f"{__name__}:"
                       + (bad_kernel if xy == bad_cell else "idle_kernel"))
            for xy in cfg.chip.cells()]


class TestTeardown:
    def test_worker_death_names_the_worker(self, children_seen):
        """Cell 1 of 3 lives on forked worker 1, which ``os._exit``s
        mid-round while worker 2 holds a reply nobody will read."""
        cfg = grid(3, 1)
        with pytest.raises(PdesError, match=r"shard worker 1 died .*code 3"):
            run_cells(cfg, launches_with(cfg, (1, 0), "exit_in_fork_kernel",
                                         {"spare_pid": os.getpid()}),
                      workers=3)
        assert not children_seen  # never got as far as collect

    def test_worker_error_reply_is_raised_with_its_traceback(
            self, children_seen):
        cfg = grid(3, 1)
        with pytest.raises(PdesError, match="worker 2 failed") as info:
            run_cells(cfg, launches_with(cfg, (2, 0), "raise_kernel",
                                         {"exc": ValueError}), workers=3)
        assert "kernel gave up" in str(info.value)

    def test_interrupt_in_the_callers_own_shard(self, children_seen):
        """Cell 0 is worker 0 -- this process.  Ctrl-C there must still
        take the forked workers down before it propagates."""
        cfg = grid(3, 1)
        with pytest.raises(KeyboardInterrupt):
            run_cells(cfg, launches_with(cfg, (0, 0), "raise_kernel",
                                         {"exc": KeyboardInterrupt}),
                      workers=3)

    def test_workers_exit_when_the_coordinator_is_killed(self, tmp_path):
        """SIGKILL runs no cleanup, so the forks must notice on their
        own: each reads EOF once the coordinator's pipe ends are gone --
        which needs every fork to have closed its inherited copies."""
        script = tmp_path / "coordinator.py"
        script.write_text(
            "import multiprocessing, time\n"
            "from repro.arch.config import small_config\n"
            "from repro.pdes import coordinator, fixture, run_cells\n"
            "def stall(self, assignments):\n"
            "    pids = [p.pid for p in multiprocessing.active_children()]\n"
            "    print(*pids, flush=True)\n"
            "    time.sleep(60)\n"
            "coordinator._Transport.advance = stall\n"
            "cfg = small_config(4, 4).with_geometry(cells_x=3, cells_y=1)\n"
            "run_cells(cfg, fixture.exchange_launches(cfg, words=16),"
            " workers=3)\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.Popen([sys.executable, str(script)], env=env,
                                stdout=subprocess.PIPE, text=True)
        try:
            pids = [int(p) for p in proc.stdout.readline().split()]
            assert len(pids) == 2
        finally:
            proc.kill()
            proc.wait(timeout=10)

        def running(pid):
            try:
                with open(f"/proc/{pid}/stat") as fh:
                    return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
            except OSError:
                return False

        deadline = time.monotonic() + 10
        while any(map(running, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        orphans = [pid for pid in pids if running(pid)]
        for pid in orphans:
            os.kill(pid, signal.SIGKILL)
        assert not orphans


# ---------------------------------------------------------------------------
# The leg memo vs the naive per-link walk.

LEG_CFG = small_config(4, 4).with_geometry(cells_x=2, cells_y=2)
LEG_NODES = sorted(xy for xy, _kind in LEG_CFG.chip.all_nodes())
LEG_CELLS = sorted(LEG_CFG.chip.cells())

node = st.sampled_from(LEG_NODES)
leg_streams = st.lists(
    st.tuples(node, node, st.integers(1, 5),
              st.floats(0, 64, allow_nan=False).map(lambda t: round(t * 4) / 4)),
    min_size=1, max_size=40)


def link_state(net):
    return {(link.src, link.dst): (link.free_at, link.busy_cycles,
                                   link.stall_cycles, link.packets)
            for link in net.topology.links()}


@given(stream=leg_streams, cell=st.sampled_from(LEG_CELLS),
       ruche=st.booleans(), order=st.sampled_from(["xy", "yx"]))
@settings(max_examples=80, deadline=None)
def test_reserve_leg_memo_matches_naive_walk(stream, cell, ruche, order):
    """The fast leg runs on a plane holding only ``cell``'s links (a
    shard's), the oracle walks the whole chip's plane."""
    chip = LEG_CFG.chip
    nets = [Network(chip, LEG_CFG.timings.noc, ruche=ruche, order=order,
                    owned=owned)
            for owned in (frozenset({cell}), None)]
    x0, y0 = chip.cell_origin(cell)
    box = (x0, y0, chip.cell.cols, chip.cell.rows)

    def inside(xy):
        return x0 <= xy[0] < x0 + box[2] and y0 <= xy[1] < y0 + box[3]

    clock = 0.0
    for src, dst, flits, gap in stream:
        clock += gap  # revisits of one (src, dst) replay the memoized leg
        fast = nets[0].reserve_leg(src, dst, flits, clock, box)
        slow = reference_reserve_leg(nets[1], src, dst, flits, clock, inside)
        assert fast == slow
    own = link_state(nets[0])
    assert all(inside(a) and inside(b) for a, b in own)
    full = link_state(nets[1])
    assert own == {k: v for k, v in full.items() if k in own}
    touched = [k for k, v in full.items() if v[3]]
    assert all(k in own for k in touched)


# ---------------------------------------------------------------------------
# The wire form: flat records that unpickle without running Python.

#: Opcodes that make the unpickler import or call something.
CODE_OPS = {"GLOBAL", "STACK_GLOBAL", "REDUCE", "NEWOBJ", "NEWOBJ_EX",
            "BUILD", "INST", "OBJ", "EXT1", "EXT2", "EXT4"}


def runs_no_code(obj, protocol):
    return not CODE_OPS & {op.name for op, _arg, _pos in
                           pickletools.genops(pickle.dumps(obj, protocol))}


@pytest.mark.parametrize("msg", [
    (42.25, (0, 0), 3, REQUEST, (1, 0), (1, 1), (5, 0), 2, 7, 0x8040,
     True, 4, 1),
    (43.0, (0, 0), 4, AMO, (1, 0), (2, 1), (5, 0), 1, 8, 0x8040, "add",
     -17),
    (44.0, (0, 0), 5, AMO, (1, 0), (2, 1), (5, 0), 1, 9, 0x8040, "swap",
     2**40),
    (50.0, (1, 0), 9, RESPONSE, (0, 0), (5, 0), (2, 1), 1, 8, 2**31 - 1),
    (51.0, (1, 0), 10, RESPONSE, (0, 0), (5, 0), (1, 1), 1, 7, None),
], ids=["request", "amoadd", "amoswap", "amo-response", "plain-response"])
def test_wire_form_roundtrip(msg):
    for protocol in (2, pickle.HIGHEST_PROTOCOL):
        assert runs_no_code([msg, msg], protocol)
        clone = pickle.loads(pickle.dumps([msg, msg], protocol))[1]
        assert type(clone) is tuple and clone == msg
    assert sort_key(msg) == msg[:3] == (msg[ARRIVAL], msg[SRC_CELL],
                                        msg[SEQ])


def test_channel_emits_flat_records(monkeypatch):
    """Every record a real exchange puts on the wire -- requests, AMOs
    and responses, from both shards -- is a flat tuple of the declared
    layout."""
    cfg = grid(2, 1)
    seen = []
    advance = coordinator._Transport.advance

    def spying_advance(self, assignments):
        out = advance(self, assignments)
        seen.extend(m for _i, report in out for m in report.outbox)
        return out

    monkeypatch.setattr(coordinator._Transport, "advance", spying_advance)
    res = run_cells(cfg, xfix.exchange_launches(cfg, words=16))
    assert {m[KIND] for m in seen} == {REQUEST, AMO, RESPONSE}
    assert len(seen) <= res.messages
    assert runs_no_code(seen, pickle.HIGHEST_PROTOCOL)
    width = {REQUEST: 13, AMO: 12, RESPONSE: 10}
    assert all(len(m) == width[m[KIND]] for m in seen)
