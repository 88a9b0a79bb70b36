"""Cross-Cell channels: the only traffic between PDES shards.

Every remote operation a tile issues funnels through
:meth:`~repro.runtime.memsys.MemorySystem.remote_request` /
``remote_amo``; when the translated destination lies in a Cell the shard
does not own, the installed :class:`ShardChannel` turns it into a flat
message record instead of touching the local fabric: a ``REQUEST``
(remote load/store), an ``AMO`` (remote atomic) or, at the owning shard,
the ``RESPONSE`` routed back to the requester.  The record layout is
defined below.

Cross-Cell packets are priced in two deterministic parts.  The channel
charges the zero-load latency of the real request/response networks
(:meth:`Network.conservative_latency` -- pure arithmetic, no link-state
mutation, so shard histories can never diverge through pricing).  The
coordinator then adds inter-Cell boundary contention on top: every
message carries its flit count and endpoint nodes, and
:class:`repro.pdes.contention.EdgeContention` replays the global message
stream against per-boundary-lane occupancy ledgers, so a congested Cell
edge stalls packets exactly as the monolithic link reservations would.
Contention only ever *adds* latency, which keeps the zero-load floor
over all cross-Cell pairs -- the conservative window's lookahead
(:func:`repro.noc.analysis.intercell_lookahead`) -- a valid bound.
Intra-Cell traffic keeps full per-link contention timing as before.

Determinism: every message carries ``(src_cell, seq)``; the coordinator
delivers each window's messages sorted by ``(arrival, src_cell, seq)``
(:func:`sort_key`), and ingress events are scheduled in that order, so
the receiving shard's event sequence -- and hence every cycle count --
is a pure function of the message *set*, not of worker count or pipe
timing.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..arch.geometry import Coord
from ..engine import Future
from ..pgas.translate import Destination, TargetKind


class PdesError(RuntimeError):
    """A PDES-mode constraint was violated."""


# The flat record.  Every cross-Cell message is one plain tuple of
# scalars and coordinate pairs, from the emitting channel through the
# pipe and the coordinator to the receiving channel: it pickles and
# unpickles entirely in C, with no reconstructor to run per message.
# Its leading fields are the deterministic delivery key, ``(arrival,
# src_cell, seq)``, and no two records share ``(src_cell, seq)`` -- so a
# list of records sorts into delivery order with no key function.

#: Fields every record carries.
ARRIVAL, SRC_CELL, SEQ, KIND, DST_CELL, SRC_NODE, DST_NODE, FLITS, \
    REQ_ID = range(9)
#: ``KIND`` values: a remote load/store heading to a foreign bank; a
#: remote atomic (executed functionally at the *owning* shard, in its
#: ingress event order -- the serialization point, exactly as in the
#: monolithic machine); the answer routed back to the requester.
REQUEST, AMO, RESPONSE = range(3)
#: The tail of a ``REQUEST``: the byte address within the owning
#: memory, the direction, the word count and the reply's flit count.
MEM_ADDR, IS_WRITE, WORDS, RESP_FLITS = range(9, 13)
#: The tail of an ``AMO``: ``MEM_ADDR`` as above, the operation and its
#: operand.  AMO packets are a single flit on the request plane.
AMO_OP, AMO_VALUE = 10, 11
#: The tail of a ``RESPONSE``: ``None`` for plain loads/stores (the
#: requester's future resolves with the arrival cycle, matching the
#: monolithic contract), the AMO's old value otherwise (resolving with
#: ``(arrival, old)``).  Responses ride the response plane, the rest the
#: request plane -- the chip has separate networks for the two.
PAYLOAD = 9


def sort_key(msg: Tuple) -> Tuple[float, Coord, int]:
    """The deterministic delivery order: arrival time, then source Cell,
    then per-source sequence number -- a record's first three fields."""
    return msg[:3]


class ShardChannel:
    """One shard's endpoint of the cross-Cell fabric.

    Installed on the shard machine's memory system as ``xchannel``;
    collects outbound messages per window (the coordinator drains them
    at the barrier) and turns inbound messages into simulator events.
    """

    def __init__(self, machine: Any, cell_xy: Coord) -> None:
        if machine.owned_cells is None:
            raise PdesError("ShardChannel needs a sharded machine "
                            "(Machine(owned_cells=...))")
        self.machine = machine
        self.cell_xy = cell_xy
        self.sim = machine.sim
        self.memsys = machine.memsys
        self._req_net = machine.memsys.req_net
        self._resp_net = machine.memsys.resp_net
        self.outbox: List[Any] = []
        self.pending: Dict[int, Future] = {}
        #: Set by the shard when every launch declared ``remote=False``:
        #: initiating a cross-Cell request then raises, which is what
        #: lets the coordinator trust the declaration and free-run.
        self.local_only = False
        #: Contention pricing for the *intra-Cell legs* of cross-Cell
        #: paths (set from ``ShardSpec.contention``): the stretch of a
        #: packet's route inside this Cell is walked on this shard's own
        #: network planes with real link reservation, so cross-Cell and
        #: Cell-local traffic stall each other exactly as the monolithic
        #: machine's shared links do.  Only the queueing component is
        #: added on top of the zero-load cross-Cell price, so the priced
        #: arrival never drops below the lookahead floor.
        self.contention = True
        chip = machine.config.chip
        ox, oy = chip.cell_origin(cell_xy)
        self._box = (ox, oy, chip.cell.cols, chip.cell.rows)
        self._next_req = 0
        self._next_seq = 0
        #: Totals for the sync report.
        self.sent = 0
        self.received = 0
        #: Cross-shard sanitizer ingress state (only populated when a
        #: probe observes the memory system's host/AMO points, i.e. a
        #: sanitizer is attached): the Cell-DRAM word keys foreign
        #: shards touched here, and the serialization log of served
        #: foreign AMOs -- the offline stitcher's ground truth for the
        #: owner-side AMO order.
        self.inbound_words: set = set()
        self.served_amos: List[Tuple[float, Coord, int, str]] = []
        #: ``KIND`` -> ingress handler.
        self._on_kind = (self._on_request, self._on_amo, self._on_response)
        machine.memsys.xchannel = self

    # -- source side (called from memsys on the remote-op path) ------------

    def request(self, node: Coord, dest: Destination, is_write: bool,
                words: int, req_flits: int, resp_flits: int,
                time: float) -> Future:
        if self.local_only:
            raise PdesError(
                f"tile {node} in cell {self.cell_xy} issued a cross-Cell "
                f"access to cell {dest.cell_xy}, but every launch on this "
                "shard was declared remote=False (Cell-local)")
        if dest.kind is TargetKind.SPM:
            raise PdesError(
                f"cross-Cell Group-SPM access (tile {node} -> {dest.node} "
                f"in cell {dest.cell_xy}) is not supported in PDES mode; "
                "stage through Group-DRAM instead")
        done = Future(self.sim)
        req_id = self._next_req
        self._next_req = req_id + 1
        self.pending[req_id] = done
        arrival = (time
                   + self._leg(self._req_net, node, dest.node, req_flits,
                               time)
                   + self._req_net.conservative_latency(
                       node, dest.node, req_flits))
        self.outbox.append((
            arrival, self.cell_xy, self._bump(), REQUEST, dest.cell_xy,
            node, dest.node, req_flits, req_id, dest.mem_addr, is_write,
            words, resp_flits))
        return done

    def amo(self, node: Coord, dest: Destination, kind: str, value: int,
            time: float) -> Future:
        if self.local_only:
            raise PdesError(
                f"tile {node} in cell {self.cell_xy} issued a cross-Cell "
                f"atomic to cell {dest.cell_xy}, but every launch on this "
                "shard was declared remote=False (Cell-local)")
        done = Future(self.sim)
        req_id = self._next_req
        self._next_req = req_id + 1
        self.pending[req_id] = done
        arrival = (time
                   + self._leg(self._req_net, node, dest.node, 1, time)
                   + self._req_net.conservative_latency(node, dest.node, 1))
        seq = self._bump()
        probe = self.memsys._probe
        if probe is not None:
            # Issuing-side record for the cross-shard stitcher: the
            # owner-side serialization point cannot fire here (it has no
            # vector clock for this tile), so the issuer snapshots its
            # clock and the coordinator's offline pass does the rest.
            probe.xshard_amo_out(node, dest, kind, seq, time)
        self.outbox.append((
            arrival, self.cell_xy, seq, AMO, dest.cell_xy, node, dest.node,
            1, req_id, dest.mem_addr, kind, value))
        return done

    def _bump(self) -> int:
        seq = self._next_seq
        self._next_seq = seq + 1
        self.sent += 1
        return seq

    # -- intra-Cell legs of cross-Cell paths ---------------------------------

    def _leg(self, net: Any, src: Coord, dst: Coord, flits: int,
             inject: float) -> float:
        """Queueing delay of this Cell's leg of a cross-Cell path.

        Reserves exactly the links of the dimension-ordered ``src ->
        dst`` route whose endpoints both lie inside this Cell, on this
        shard's own plane (``Network.reserve_leg``) -- the leg really
        occupies the local fabric, so cross-Cell and Cell-local traffic
        stall each other as the monolithic machine's shared links do.
        ``inject`` is the cycle the packet (conceptually) entered the
        network at ``src``; for inbound legs the caller rewinds the
        arrival by the zero-load floor so reserved-link start times line
        up with a full monolithic walk.  The returned stall is ``>= 0``,
        so adding it on top of the zero-load price keeps every
        cross-Cell arrival at or above the lookahead bound.
        """
        if not self.contention:
            return 0.0
        return net.reserve_leg(src, dst, flits, inject, self._box)

    # -- destination side (window ingress) ----------------------------------

    def ingest(self, messages: List[Tuple]) -> None:
        """Schedule every inbound record's effect at its arrival cycle.

        Called at the window barrier, before :meth:`Simulator.run`; the
        conservative window guarantees ``arrival >= now`` for every
        message.  ``messages`` must already be in deterministic delivery
        order (the coordinator sorts globally) -- the schedule order
        fixes the tie-break among same-cycle ingresses.
        """
        post = self.sim._post  # nothing cancels an ingress
        on = self._on_kind
        self.received += len(messages)
        for msg in messages:
            post(msg[ARRIVAL], on[msg[KIND]], msg)

    def _on_request(self, msg: Tuple) -> None:
        src_node, node, flits = msg[SRC_NODE], msg[DST_NODE], msg[FLITS]
        if self.memsys._probe is not None:
            cx, cy = msg[DST_CELL]
            base = msg[MEM_ADDR] >> 2
            for w in range(msg[WORDS]):
                self.inbound_words.add((cx, cy, base + w))
        now = self.sim._now
        # Rewind by the zero-load floor: the leg walk then replays the
        # packet from its (conceptual) inject cycle at the source.
        now += self._leg(
            self._req_net, src_node, node, flits,
            now - self._req_net.conservative_latency(src_node, node, flits))
        ready = self.memsys.serve_remote(node, msg[MEM_ADDR], msg[IS_WRITE],
                                         now, msg[WORDS])
        if ready.__class__ is Future:
            ready.add_callback(lambda _v, m=msg: self._reply(m, None))
        else:
            self.sim._post(ready, self._reply_args, (msg, None))

    def _on_amo(self, msg: Tuple) -> None:
        src_node, node, flits = msg[SRC_NODE], msg[DST_NODE], msg[FLITS]
        if self.memsys._probe is not None:
            cx, cy = msg[DST_CELL]
            self.inbound_words.add((cx, cy, msg[MEM_ADDR] >> 2))
            self.served_amos.append(
                (self.sim._now, msg[SRC_CELL], msg[SEQ], msg[AMO_OP]))
        now = self.sim._now
        now += self._leg(
            self._req_net, src_node, node, flits,
            now - self._req_net.conservative_latency(src_node, node, flits))
        ready, old = self.memsys.serve_remote_amo(
            node, msg[DST_CELL], msg[MEM_ADDR], msg[AMO_OP], msg[AMO_VALUE],
            now)
        if ready.__class__ is Future:
            ready.add_callback(lambda _v, m=msg, o=old: self._reply(m, o))
        else:
            self.sim._post(ready, self._reply_args, (msg, old))

    def _reply(self, msg: Tuple, payload: Optional[int]) -> None:
        """Emit the response at the bank's ready cycle (== now)."""
        resp_flits = msg[RESP_FLITS] if msg[KIND] == REQUEST else 1
        src_node, node = msg[SRC_NODE], msg[DST_NODE]
        now = self.sim._now
        arrival = (now
                   + self._leg(self._resp_net, node, src_node, resp_flits,
                               now)
                   + self._resp_net.conservative_latency(
                       node, src_node, resp_flits))
        self.outbox.append((
            arrival, self.cell_xy, self._bump(), RESPONSE, msg[SRC_CELL],
            node, src_node, resp_flits, msg[REQ_ID], payload))

    def _reply_args(self, args: Tuple[Tuple, Optional[int]]) -> None:
        self._reply(*args)

    def _on_response(self, msg: Tuple) -> None:
        done = self.pending.pop(msg[REQ_ID])
        payload = msg[PAYLOAD]
        if payload is None:
            done.resolve(msg[ARRIVAL])
        else:
            done.resolve((msg[ARRIVAL], payload))

    # -- barrier drain -------------------------------------------------------

    def drain(self) -> List[Tuple]:
        out = self.outbox
        self.outbox = []
        return out
