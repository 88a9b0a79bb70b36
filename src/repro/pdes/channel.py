"""Typed cross-Cell channels: the only traffic between PDES shards.

Every remote operation a tile issues funnels through
:meth:`~repro.runtime.memsys.MemorySystem.remote_request` /
``remote_amo``; when the translated destination lies in a Cell the shard
does not own, the installed :class:`ShardChannel` turns it into one of
three picklable message types instead of touching the local fabric:

* :class:`CellRequest` -- a remote load/store heading to a foreign bank;
* :class:`CellAmo` -- a remote atomic (functional execution happens at
  the *owning* shard, in its ingress event order -- the serialization
  point, exactly as in the monolithic machine);
* :class:`CellResponse` -- the answer routed back to the requester.

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


class CellRequest:
    """A remote load/store crossing a Cell boundary."""

    __slots__ = ("seq", "req_id", "src_cell", "dst_cell", "src_node",
                 "dest", "is_write", "words", "flits", "resp_flits",
                 "arrival")

    #: Physical plane this packet rides (the chip has separate request
    #: and response networks, so contention lanes never mix them).
    plane = "req"

    def __init__(self, seq: int, req_id: int, src_cell: Coord,
                 dst_cell: Coord, src_node: Coord, dest: Destination,
                 is_write: bool, words: int, flits: int, resp_flits: int,
                 arrival: float) -> None:
        self.seq = seq
        self.req_id = req_id
        self.src_cell = src_cell
        self.dst_cell = dst_cell
        self.src_node = src_node
        self.dest = dest
        self.is_write = is_write
        self.words = words
        self.flits = flits
        self.resp_flits = resp_flits
        self.arrival = arrival

    @property
    def dst_node(self) -> Coord:
        return self.dest.node

    def __reduce__(self):
        return (_request_from_wire,
                (self.seq, self.req_id, self.src_cell, self.dst_cell,
                 self.src_node, _flat_dest(self.dest), self.is_write,
                 self.words, self.flits, self.resp_flits, self.arrival))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        op = "store" if self.is_write else "load"
        return (f"CellRequest({op} {self.src_cell}->{self.dst_cell} "
                f"t={self.arrival} seq={self.seq})")


class CellAmo:
    """A remote atomic crossing a Cell boundary."""

    __slots__ = ("seq", "req_id", "src_cell", "dst_cell", "src_node",
                 "dest", "kind", "value", "arrival")

    #: AMO packets are a single flit on the request plane.
    flits = 1
    plane = "req"

    def __init__(self, seq: int, req_id: int, src_cell: Coord,
                 dst_cell: Coord, src_node: Coord, dest: Destination,
                 kind: str, value: int, arrival: float) -> None:
        self.seq = seq
        self.req_id = req_id
        self.src_cell = src_cell
        self.dst_cell = dst_cell
        self.src_node = src_node
        self.dest = dest
        self.kind = kind
        self.value = value
        self.arrival = arrival

    @property
    def dst_node(self) -> Coord:
        return self.dest.node

    def __reduce__(self):
        return (_amo_from_wire,
                (self.seq, self.req_id, self.src_cell, self.dst_cell,
                 self.src_node, _flat_dest(self.dest), self.kind,
                 self.value, self.arrival))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"CellAmo({self.kind} {self.src_cell}->{self.dst_cell} "
                f"t={self.arrival} seq={self.seq})")


class CellResponse:
    """The reply to a :class:`CellRequest`/:class:`CellAmo`.

    ``payload`` is ``None`` for plain loads/stores (the requester's
    future resolves with the arrival cycle, matching the monolithic
    contract) and the AMO's old value otherwise (resolving with
    ``(arrival, old)``).
    """

    __slots__ = ("seq", "req_id", "src_cell", "dst_cell", "src_node",
                 "dst_node", "flits", "arrival", "payload")

    plane = "resp"

    def __init__(self, seq: int, req_id: int, src_cell: Coord,
                 dst_cell: Coord, src_node: Coord, dst_node: Coord,
                 flits: int, arrival: float,
                 payload: Optional[int]) -> None:
        self.seq = seq
        self.req_id = req_id
        self.src_cell = src_cell
        self.dst_cell = dst_cell
        self.src_node = src_node
        self.dst_node = dst_node
        self.flits = flits
        self.arrival = arrival
        self.payload = payload

    def __reduce__(self):
        return (CellResponse,
                (self.seq, self.req_id, self.src_cell, self.dst_cell,
                 self.src_node, self.dst_node, self.flits, self.arrival,
                 self.payload))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"CellResponse({self.src_cell}->{self.dst_cell} "
                f"t={self.arrival} seq={self.seq})")


# The wire form: a message pickles as one flat tuple of scalars and
# coordinate pairs (``__reduce__`` above), its ``Destination``
# flattened to five fields with the ``Enum`` by value.  Messages cross a
# pipe thousands of times per run, and the default protocol (state built
# by ``getattr`` per slot, a nested dataclass holding an ``Enum``) cost
# several times as much per hop.

_KIND_OF = {kind.value: kind for kind in TargetKind}


def _flat_dest(dest: Optional[Destination]) -> Optional[Tuple]:
    return dest and (dest.node, dest.kind.value, dest.cell_xy,
                     dest.bank_index, dest.mem_addr)


def _dest_from_wire(flat: Optional[Tuple]) -> Optional[Destination]:
    return flat and Destination(flat[0], _KIND_OF[flat[1]], *flat[2:])


def _request_from_wire(seq, req_id, src_cell, dst_cell, src_node, dest,
                       is_write, words, flits, resp_flits,
                       arrival) -> CellRequest:
    return CellRequest(seq, req_id, src_cell, dst_cell, src_node,
                       _dest_from_wire(dest), is_write, words,
                       flits, resp_flits, arrival)


def _amo_from_wire(seq, req_id, src_cell, dst_cell, src_node, dest, kind,
                   value, arrival) -> CellAmo:
    return CellAmo(seq, req_id, src_cell, dst_cell, src_node,
                   _dest_from_wire(dest), kind, value, arrival)


def sort_key(msg: Any) -> Tuple[float, Coord, int]:
    """The deterministic delivery order: arrival time, then source Cell,
    then per-source sequence number."""
    return (msg.arrival, msg.src_cell, msg.seq)


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
        #: sanitizer is attached): the Cell-DRAM word keys foreign
        #: shards touched here, and the serialization log of served
        #: foreign AMOs -- the offline stitcher's ground truth for the
        #: owner-side AMO order.
        self.inbound_words: set = set()
        self.served_amos: List[Tuple[float, Coord, int, str]] = []
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
        self.outbox.append(CellRequest(
            self._bump(), req_id, self.cell_xy, dest.cell_xy, node, dest,
            is_write, words, req_flits, resp_flits, arrival))
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
        san = self.memsys._san
        if san is not None:
            # Issuing-side record for the cross-shard stitcher: the
            # owner-side serialization hook cannot run here (it has no
            # vector clock for this tile), so the issuer snapshots its
            # clock and the coordinator's offline pass does the rest.
            san.xshard_amo_out(node, dest, kind, seq, time)
        self.outbox.append(CellAmo(
            seq, req_id, self.cell_xy, dest.cell_xy, node, dest,
            kind, value, arrival))
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

        Walks the *true* dimension-ordered ``src -> dst`` route on this
        shard's own plane, reserving exactly the links whose endpoints
        both lie inside this Cell (``Network.reserve_leg``) -- the leg
        really occupies the local fabric, so cross-Cell and Cell-local
        traffic stall each other as the monolithic machine's shared
        links do.  ``inject`` is the cycle the packet (conceptually)
        entered the network at ``src``; for inbound legs the caller
        rewinds the arrival by the zero-load floor so reserved-link
        start times line up with a full monolithic walk.  The returned
        stall is ``>= 0``, so adding it on top of the zero-load price
        keeps every cross-Cell arrival at or above the lookahead bound.
        """
        if not self.contention:
            return 0.0
        return net.reserve_leg(src, dst, flits, inject, self._box)

    # -- destination side (window ingress) ----------------------------------

    def ingest(self, messages: List[Any]) -> None:
        """Schedule every inbound message's effect at its arrival cycle.

        Called at the window barrier, before :meth:`Simulator.run`; the
        conservative window guarantees ``arrival >= now`` for every
        message.  ``messages`` must already be in deterministic delivery
        order (the coordinator sorts globally) -- the schedule order
        fixes the tie-break among same-cycle ingresses.
        """
        post = self.sim._post  # nothing cancels an ingress
        for msg in messages:
            self.received += 1
            cls = msg.__class__
            if cls is CellResponse:
                post(msg.arrival, self._on_response, msg)
            elif cls is CellRequest:
                post(msg.arrival, self._on_request, msg)
            elif cls is CellAmo:
                post(msg.arrival, self._on_amo, msg)
            else:
                raise PdesError(f"unknown cross-Cell message {msg!r}")

    def _on_request(self, msg: CellRequest) -> None:
        if self.memsys._san is not None:
            cx, cy = msg.dest.cell_xy
            base = msg.dest.mem_addr >> 2
            for w in range(msg.words):
                self.inbound_words.add((cx, cy, base + w))
        now = self.sim._now
        # Rewind by the zero-load floor: the leg walk then replays the
        # packet from its (conceptual) inject cycle at the source.
        now += self._leg(
            self._req_net, msg.src_node, msg.dest.node, msg.flits,
            now - self._req_net.conservative_latency(
                msg.src_node, msg.dest.node, msg.flits))
        ready = self.memsys.serve_remote(msg.dest, msg.is_write,
                                         now, msg.words)
        if ready.__class__ is Future:
            ready.add_callback(lambda _v, m=msg: self._reply(m, None))
        else:
            self.sim._post(ready, self._reply_args, (msg, None))

    def _on_amo(self, msg: CellAmo) -> None:
        if self.memsys._san is not None:
            cx, cy = msg.dest.cell_xy
            self.inbound_words.add((cx, cy, msg.dest.mem_addr >> 2))
            self.served_amos.append(
                (self.sim._now, msg.src_cell, msg.seq, msg.kind))
        now = self.sim._now
        now += self._leg(
            self._req_net, msg.src_node, msg.dest.node, msg.flits,
            now - self._req_net.conservative_latency(
                msg.src_node, msg.dest.node, msg.flits))
        ready, old = self.memsys.serve_remote_amo(
            msg.dest, msg.src_node, msg.kind, msg.value, now)
        if ready.__class__ is Future:
            ready.add_callback(lambda _v, m=msg, o=old: self._reply(m, o))
        else:
            self.sim._post(ready, self._reply_args, (msg, old))

    def _reply(self, msg: Any, payload: Optional[int]) -> None:
        """Emit the response at the bank's ready cycle (== now)."""
        resp_flits = msg.resp_flits if msg.__class__ is CellRequest else 1
        now = self.sim._now
        arrival = (now
                   + self._leg(self._resp_net, msg.dest.node, msg.src_node,
                               resp_flits, now)
                   + self._resp_net.conservative_latency(
                       msg.dest.node, msg.src_node, resp_flits))
        self.outbox.append(CellResponse(
            self._bump(), msg.req_id, self.cell_xy, msg.src_cell,
            msg.dest.node, msg.src_node, resp_flits, arrival, payload))

    def _reply_args(self, args: Tuple[Any, Optional[int]]) -> None:
        self._reply(*args)

    def _on_response(self, msg: CellResponse) -> None:
        done = self.pending.pop(msg.req_id)
        if msg.payload is None:
            done.resolve(msg.arrival)
        else:
            done.resolve((msg.arrival, msg.payload))

    # -- barrier drain -------------------------------------------------------

    def drain(self) -> List[Any]:
        out = self.outbox
        self.outbox = []
        return out
