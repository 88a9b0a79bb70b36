"""The forked shard worker: a pipe loop around :class:`CellShard`.

Workers ``1..N-1`` of a run are processes running this loop (worker 0 is
the coordinator's own process, which steps its shards directly).  A
worker hosts one or more shards (``workers < cells`` packs several Cells
per process).  Four requests over a duplex pipe are each answered with
``("ok", payload)`` or ``("error", text)``:

* ``("init", [ShardSpec, ...])`` -> initial :class:`StepReport` list;
* ``("advance", [(shard_index, t_end, messages), ...])`` -> reports;
* ``("alone", (shard_index, window))`` -> ``(windows, report)``;
* ``("collect", None)`` -> result payload dicts;

``("shutdown", None)`` is not answered: the worker hangs up and exits,
as it does whenever the pipe breaks.  Workers come from the
fork-preferring context the orch pool uses and ignore SIGINT (the
coordinator owns Ctrl-C and kills its workers when interrupted).
"""

from __future__ import annotations

import signal
import traceback
from typing import Any, List, Sequence

from .shard import CellShard, ShardSpec


def shard_worker_main(conn: Any, worker_id: int,
                      coordinator_ends: Sequence[Any] = ()) -> None:
    """Child entry point (module-level so it survives pickling by the
    spawn start method on fork-less platforms).  ``coordinator_ends``
    are the coordinator's pipe ends a forked child inherited copies of:
    unless it closes them, no worker ever reads EOF from a coordinator
    that was killed outright, and all of them block in ``recv`` for good.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # coordinator owns Ctrl-C
    for end in coordinator_ends:
        end.close()
    shards: List[CellShard] = []
    try:
        while True:
            cmd, body = conn.recv()
            if cmd == "shutdown":
                break
            try:
                if cmd == "init":
                    shards = [CellShard(spec) for spec in body]
                    reply = [s.report() for s in shards]
                elif cmd == "advance":
                    reply = [shards[idx].advance(t_end, msgs)
                             for idx, t_end, msgs in body]
                elif cmd == "alone":
                    idx, window = body
                    reply = shards[idx].advance_alone(window)
                elif cmd == "collect":
                    reply = [s.collect() for s in shards]
                else:
                    raise ValueError(f"unknown command {cmd!r}")
            except Exception:  # noqa: BLE001 -- serialized to coordinator
                conn.send(("error",
                           f"worker {worker_id}: {traceback.format_exc()}"))
            else:
                conn.send(("ok", reply))
    except (EOFError, OSError):
        pass  # the coordinator hung up; nobody is left to answer
    finally:
        conn.close()
