"""The network front end: NDJSON over ``asyncio.start_server``.

One :class:`Daemon` owns one :class:`~.scheduler.Scheduler` and a TCP
listener.  Each connection is a request loop (one JSON object per
line, see :mod:`.protocol`); all writes -- responses and pushed events
alike -- go through a per-connection outbox task, so a slow client
never interleaves bytes or blocks the scheduler.

:class:`BackgroundDaemon` runs the whole thing on a thread with its
own event loop; it is what the tests and the in-process ``--server
auto`` escape hatch use, and doubles as the reference for embedding
the daemon in a larger program.
"""

from __future__ import annotations

import asyncio
import os
import sys
import threading
from typing import Any, Dict, List, Optional, Set, Tuple

from .protocol import MAX_LINE_BYTES, OPS, PROTOCOL_VERSION, decode, encode
from .quotas import QuotaError
from .scheduler import Scheduler, ServeConfig


#: Daemon id -> its listening sockets' descriptors, for every daemon of
#: this process that is bound and not yet stopped.
_LISTENING: Dict[int, List[int]] = {}


def _release_listeners() -> None:
    """Let go of every daemon's listening socket in a freshly forked
    child (a runner worker).  A child that kept one would hold the port
    after the daemon is killed, and a restart on it would fail with
    "address already in use" until the child's job ended.  Each
    descriptor is pointed at ``/dev/null`` rather than closed, so the
    child's copy of the socket object can never close a file that
    reused the number."""
    if not _LISTENING:
        return
    null = os.open(os.devnull, os.O_RDONLY)
    try:
        for fds in _LISTENING.values():
            for fd in fds:
                os.dup2(null, fd)
    finally:
        os.close(null)
    _LISTENING.clear()


os.register_at_fork(after_in_child=_release_listeners)


class Daemon:
    """Scheduler + listener; drive with ``start``/``wait_stopped``/``stop``."""

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.config = config or ServeConfig()
        self.scheduler = Scheduler(self.config)
        self.address: Optional[Tuple[str, int]] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._conns: Set["_Connection"] = set()
        self._stop_event = asyncio.Event()
        self._stopped = False

    async def start(self) -> Tuple[str, int]:
        # Bind first: a busy address fails before the scheduler starts
        # and the journal records a run that never served.
        self._server = await asyncio.start_server(
            self._handle, self.config.host, self.config.port,
            limit=MAX_LINE_BYTES, start_serving=False)
        _LISTENING[id(self)] = [sock.fileno()
                                for sock in self._server.sockets]
        try:
            await self.scheduler.start()
        except BaseException:
            await self._close_server()
            raise
        await self._server.start_serving()
        sock = self._server.sockets[0]
        self.address = sock.getsockname()[:2]
        return self.address

    async def _close_server(self) -> None:
        _LISTENING.pop(id(self), None)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    async def wait_stopped(self) -> None:
        await self._stop_event.wait()

    def request_stop(self) -> None:
        """Thread-safe-from-the-loop stop signal (``shutdown`` op,
        signal handlers, :class:`BackgroundDaemon`)."""
        self._stop_event.set()

    async def stop(self) -> None:
        if self._stopped:
            return
        self._stopped = True
        self._stop_event.set()
        await self._close_server()
        for conn in list(self._conns):
            await conn.close()
        await self.scheduler.shutdown()

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        conn = _Connection(self, reader, writer)
        self._conns.add(conn)
        try:
            await conn.run()
        finally:
            self._conns.discard(conn)
            await conn.close()


class _Connection:
    """One client connection: request loop + outbox writer task."""

    def __init__(self, daemon: Daemon, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter) -> None:
        self.daemon = daemon
        self.reader = reader
        self.writer = writer
        self.client_id: Optional[str] = None
        self._watch_token: Optional[int] = None
        self._outbox: "asyncio.Queue[Optional[bytes]]" = asyncio.Queue()
        self._sender = asyncio.get_running_loop().create_task(
            self._drain_outbox())
        self._closed = False

    async def run(self) -> None:
        while True:
            try:
                line = await self.reader.readline()
            except (ConnectionError, asyncio.LimitOverrunError):
                break
            if not line:
                break
            try:
                record = decode(line)
            except ValueError as exc:
                self.send({"ok": False, "error": f"bad request: {exc}"})
                continue
            await self._dispatch(record)

    async def _dispatch(self, record: Dict[str, Any]) -> None:
        rid = record.get("id")
        op = record.get("op")
        scheduler = self.daemon.scheduler
        try:
            if op not in OPS:
                raise ValueError(f"unknown op {op!r} (protocol "
                                 f"{PROTOCOL_VERSION} speaks: "
                                 f"{', '.join(OPS)})")
            if op != "hello" and op not in ("ping",) \
                    and self.client_id is None:
                raise QuotaError("send hello before any other op")
            payload = await self._handle_op(op, record, scheduler)
        except (QuotaError, KeyError, ValueError) as exc:
            message = str(exc)
            if isinstance(exc, KeyError):
                message = exc.args[0] if exc.args else message
            self.send({"id": rid, "ok": False, "error": message})
        except asyncio.TimeoutError:
            self.send({"id": rid, "ok": False,
                       "error": "timed out waiting"})
        else:
            response = {"id": rid, "ok": True}
            response.update(payload)
            self.send(response)

    async def _handle_op(self, op: str, record: Dict[str, Any],
                         scheduler) -> Dict[str, Any]:
        if op == "hello":
            state = scheduler.register_client(
                name=record.get("name"),
                priority=int(record.get("priority", 0)))
            self.client_id = state.client_id
            return {"client": state.client_id, "name": state.name,
                    "priority": state.priority,
                    "run_id": scheduler.run_id,
                    "fingerprint": scheduler.fingerprint,
                    "cache_dir": scheduler.cache_dir,
                    "protocol": PROTOCOL_VERSION,
                    "version": _package_version()}
        if op == "ping":
            return {"pong": True}
        if op == "submit":
            jobs = record.get("jobs")
            if not isinstance(jobs, list) or not jobs:
                raise ValueError("submit needs a non-empty 'jobs' list")
            return scheduler.submit(
                self.client_id, jobs,
                use_cache=bool(record.get("use_cache", True)))
        if op == "status":
            return scheduler.status(_required(record, "sub"))
        if op == "result":
            return scheduler.result_of(_required(record, "cache_key"))
        if op == "results":
            sub = _required(record, "sub")
            if record.get("wait", True):
                await scheduler.wait_submission(
                    sub, timeout=record.get("timeout"))
            return {"sub": sub, "results": scheduler.results(sub)}
        if op == "watch":
            if self._watch_token is None:
                self._watch_token = scheduler.add_listener(
                    lambda event: self.send(event))
            return {"watching": True}
        if op == "unwatch":
            if self._watch_token is not None:
                scheduler.remove_listener(self._watch_token)
                self._watch_token = None
            return {"watching": False}
        if op == "cancel":
            return dict(scheduler.cancel(self.client_id,
                                         _required(record, "sub")))
        if op == "stats":
            return scheduler.stats()
        if op == "shutdown":
            asyncio.get_running_loop().call_soon(self.daemon.request_stop)
            return {"stopping": True}
        raise ValueError(f"unhandled op {op!r}")  # unreachable

    # -- outbox -------------------------------------------------------------

    def send(self, record: Dict[str, Any]) -> None:
        if not self._closed:
            self._outbox.put_nowait(encode(record))

    async def _drain_outbox(self) -> None:
        try:
            while True:
                item = await self._outbox.get()
                if item is None:
                    break
                self.writer.write(item)
                await self.writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass

    async def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._watch_token is not None:
            self.daemon.scheduler.remove_listener(self._watch_token)
            self._watch_token = None
        self._outbox.put_nowait(None)
        try:
            await asyncio.wait_for(self._sender, timeout=5.0)
        except (asyncio.TimeoutError, asyncio.CancelledError):
            self._sender.cancel()
        try:
            self.writer.close()
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


def _required(record: Dict[str, Any], name: str) -> Any:
    value = record.get(name)
    if value is None:
        raise ValueError(f"op {record.get('op')!r} needs {name!r}")
    return value


async def _amain(config: ServeConfig, echo=print) -> int:
    daemon = Daemon(config)
    try:
        host, port = await daemon.start()
    except OSError as exc:
        if daemon._server is not None:
            raise  # bound, so the failure is not the address's
        reason = (os.strerror(exc.errno).lower() if exc.errno and exc.errno > 0
                  else str(exc))
        print(f"serve: cannot listen on {config.host}:{config.port}: "
              f"{reason}", file=sys.stderr)
        return 2
    echo(f"repro serve: listening on {host}:{port} "
         f"(run {daemon.scheduler.run_id}, workers={config.workers}, "
         f"cache={daemon.scheduler.cache_dir})")
    try:
        await daemon.wait_stopped()
    finally:
        await daemon.stop()
        echo(f"repro serve: stopped (run {daemon.scheduler.run_id})")
    return 0


def run_daemon(config: Optional[ServeConfig] = None, echo=print) -> int:
    """Blocking entry point of the ``repro serve`` CLI command: 0 after a
    shutdown, 2 when the address cannot be bound, 130 on Ctrl-C."""
    try:
        return asyncio.run(_amain(config or ServeConfig(), echo))
    except KeyboardInterrupt:
        echo("repro serve: interrupted")
        return 130


class BackgroundDaemon:
    """A daemon on its own thread + event loop (tests, embedding).

    >>> with BackgroundDaemon(ServeConfig()) as bg:
    ...     client = Client(address=bg.address)

    ``start`` returns once the listener is bound; ``stop`` requests a
    graceful shutdown and joins the thread.
    """

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.config = config or ServeConfig()
        self.daemon: Optional[Daemon] = None
        self.address: Optional[Tuple[str, int]] = None
        self._ready = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._error: Optional[BaseException] = None

    def start(self) -> "BackgroundDaemon":
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-daemon", daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=30.0):
            raise RuntimeError("serve daemon did not come up in 30s")
        if self._error is not None:
            raise RuntimeError(
                f"serve daemon failed to start: {self._error}")
        return self

    def stop(self) -> None:
        if self._loop is not None and self.daemon is not None:
            try:
                self._loop.call_soon_threadsafe(self.daemon.request_stop)
            except RuntimeError:
                pass  # loop already closed
        if self._thread is not None:
            self._thread.join(timeout=30.0)

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # noqa: BLE001 -- reported to start()
            self._error = exc
        finally:
            self._ready.set()

    async def _main(self) -> None:
        self.daemon = Daemon(self.config)
        self._loop = asyncio.get_running_loop()
        try:
            self.address = await self.daemon.start()
        finally:
            self._ready.set()
        try:
            await self.daemon.wait_stopped()
        finally:
            await self.daemon.stop()

    def __enter__(self) -> "BackgroundDaemon":
        return self.start()

    def __exit__(self, *_exc: Any) -> None:
        self.stop()


def _package_version() -> str:
    from .. import __version__

    return __version__
