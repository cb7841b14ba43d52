"""The socket front end of the shard server and the fleet router.

:class:`~repro.service.server.TimingServer` and
:class:`~repro.service.router.FleetRouter` speak the same
newline-delimited JSON protocol (:mod:`repro.service.protocol`).  This
module is the part of both that only moves lines: each owner hands
:class:`LineServer` a coroutine that turns one request line into one
response line -- decode, dispatch, encode, access record -- and keeps
its own request ids, admission and methods.

Every request line becomes its own task, so one connection can pipeline
requests and receive the answers out of order (matched by ``id``); a
per-connection lock keeps two answers from interleaving.  A line longer
than :data:`LINE_LIMIT` is answered with a 400 and ends the connection.
At end of input -- a client that sends its requests and half-closes --
the connection answers every request it read before it closes.

:meth:`LineServer.close` stops in this order: stop listening and stop
reading new lines, let the in-flight requests answer within the drain
timeout, then close the connections.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import threading
from typing import Awaitable, Callable, Iterable

from repro.service.protocol import ERR_BAD_REQUEST, ServiceError, encode_error

# Longest request line a connection reads, in bytes.
LINE_LIMIT = 2**20


class JsonlLog:
    """Append-only JSON-lines file, one record per line, safe to append
    from any thread.  With no path, records are dropped."""

    def __init__(self, path: str | None):
        self.path = path
        self._lock = threading.Lock()

    def append(self, record: dict) -> None:
        if self.path is None:
            return
        text = json.dumps(record, sort_keys=True) + "\n"
        with self._lock:
            with open(self.path, "a") as handle:
                handle.write(text)


async def _settle(tasks: Iterable[asyncio.Task], timeout: float) -> None:
    """Wait up to ``timeout`` seconds for ``tasks``; cancel the rest."""
    tasks = list(tasks)
    if tasks:
        with contextlib.suppress(asyncio.TimeoutError):
            await asyncio.wait_for(
                asyncio.gather(*tasks, return_exceptions=True), timeout
            )


class LineServer:
    """Newline-delimited request lines over TCP or a Unix socket, each
    answered by ``handle_line`` (see the module docstring)."""

    def __init__(self, handle_line: Callable[[bytes], Awaitable[bytes]]):
        self._handle_line = handle_line
        self._server: asyncio.AbstractServer | None = None
        self._stopping = False
        self._requests: set[asyncio.Task] = set()
        self._connections: dict[asyncio.Task, asyncio.StreamWriter] = {}

    @property
    def connections(self) -> int:
        """Connections open right now."""
        return len(self._connections)

    async def listen(
        self, host: str, port: int, socket_path: str | None = None
    ) -> int | None:
        """Accept connections on ``socket_path`` when given, else on
        ``host:port``; returns the bound TCP port (None on a Unix socket)."""
        if socket_path is not None:
            self._server = await asyncio.start_unix_server(
                self._serve, path=socket_path, limit=LINE_LIMIT
            )
            return None
        self._server = await asyncio.start_server(
            self._serve, host=host, port=port, limit=LINE_LIMIT
        )
        return self._server.sockets[0].getsockname()[1]

    async def close(self, drain_timeout: float) -> None:
        """Stop listening and reading, let in-flight requests answer
        within ``drain_timeout`` seconds, then close every connection."""
        self._stopping = True
        if self._server is not None:
            self._server.close()
            self._server = None
        await _settle(self._requests, drain_timeout)
        # Closing the writers ends each read loop with EOF, so every
        # connection task finishes on its own.
        for writer in self._connections.values():
            writer.close()
        await _settle(self._connections, drain_timeout)

    async def _serve(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        connection = asyncio.current_task()
        self._connections[connection] = writer
        lock = asyncio.Lock()
        requests: set[asyncio.Task] = set()
        try:
            with contextlib.suppress(ConnectionResetError, BrokenPipeError):
                while not self._stopping:
                    try:
                        line = await reader.readline()
                    except (asyncio.LimitOverrunError, ValueError):
                        await self._write(
                            writer,
                            lock,
                            encode_error(
                                None,
                                ServiceError(ERR_BAD_REQUEST, "request line too long"),
                            ),
                        )
                        break
                    if not line or self._stopping:
                        break
                    if not line.strip():
                        continue
                    task = asyncio.create_task(self._answer(line, writer, lock))
                    for tracked in (requests, self._requests):
                        tracked.add(task)
                        task.add_done_callback(tracked.discard)
            # End of input: answer every request read before closing.
            if requests:
                await asyncio.gather(*requests, return_exceptions=True)
        finally:
            del self._connections[connection]
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _answer(
        self, line: bytes, writer: asyncio.StreamWriter, lock: asyncio.Lock
    ) -> None:
        payload = await self._handle_line(line)
        with contextlib.suppress(ConnectionResetError, BrokenPipeError):
            await self._write(writer, lock, payload)

    @staticmethod
    async def _write(
        writer: asyncio.StreamWriter, lock: asyncio.Lock, payload: bytes
    ) -> None:
        async with lock:
            writer.write(payload)
            await writer.drain()
