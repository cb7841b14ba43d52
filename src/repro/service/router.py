"""Fleet router: the consistent-hash front door with warm failover.

The router speaks the same newline-delimited JSON protocol as a single
:class:`~repro.service.server.TimingServer` -- clients cannot tell a
fleet from one server -- and forwards session-bound methods to the
shard that owns the session's placement key.

**Replication.** The router keeps, per session, the same descriptor a
:func:`~repro.service.handoff.encode_handoff` payload carries: spec,
bit-exact scale, config overrides, and the ordered log of *committed*
what-if edits (appended from each successful ``whatif`` response).  It
never holds solver state -- the engine is deterministic, so replaying
the descriptor on any shard rebuilds the session bit-identically.

**Failover.** When the link to a shard drops (process death, reset, an
injected drop), the router marks the shard down, re-homes each of its
sessions on first touch -- ring walk over the *alive* shards, then an
``import_session`` replay of the handoff payload -- and retries the
caller's request there.  A shard that restarted and answers 404 for a
session the router knows gets the same replay.  If no shard is alive
the request is answered ``busy`` (429) with ``retry_after``, so a
retrying client (``call_with_retry``) rides out recovery with zero
failed requests.  A handoff the receiving shard rejects as corrupt
(``CheckpointError``) is re-encoded once from the router's record --
detection is the shard's job, recovery is the router's.

**Admission.** Before forwarding, the router checks its own in-flight
count against the shard's capacity (``workers + queue_limit``) and
rejects over-capacity requests with the same 429/``retry_after``
taxonomy the shard executor uses, so backpressure is enforced one hop
earlier and a saturated shard's queue never hides inside socket
buffers.

Every request lands in the JSONL access log with its shard; failover,
shard-down/up and handoff-retry events are logged in the same stream
(``"event"`` records), which is what the CI fleet-smoke job asserts on.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import json
import math
import time
from typing import Any, Callable

from repro import __version__
from repro.errors import InputError
from repro.obs import Observability
from repro.service.fleet import Fleet, HashRing, placement_key
from repro.service.frontend import JsonlLog, LineServer
from repro.service.handoff import decode_handoff, encode_handoff
from repro.service.protocol import (
    ERR_BUSY,
    ERR_UNKNOWN_METHOD,
    ERR_UNKNOWN_SESSION,
    FLEET_PROTOCOL_VERSION,
    PROTOCOL_VERSION,
    ServiceCallError,
    ServiceError,
    ServiceTransportError,
    decode_request,
    encode_error,
    encode_request,
    encode_response,
    error_payload,
)
from repro.service.server import metrics_result


class ShardLinkDown(ServiceTransportError):
    """The router's connection to a shard failed mid-call."""


class ShardLink:
    """One pipelined async connection from the router to a shard.

    Requests are matched to responses by id, so many forwarded calls
    share the connection concurrently.  When the connection dies, every
    pending call fails with :class:`ShardLinkDown` -- the router's
    failover trigger.
    """

    def __init__(self, index: int, address: str):
        self.index = index
        self.address = address
        self.in_flight = 0
        self.closed = False
        self.dropped = False  # fault injection: simulated link drop
        self._ids = itertools.count(1)
        self._pending: dict[int, asyncio.Future] = {}
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._reader_task: asyncio.Task | None = None

    async def connect(self) -> None:
        host, _, port = self.address.rpartition(":")
        self._reader, self._writer = await asyncio.open_connection(
            host, int(port), limit=2**20
        )
        self._reader_task = asyncio.create_task(self._read_loop())

    async def _read_loop(self) -> None:
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                try:
                    payload = json.loads(line)
                except ValueError:
                    continue
                future = self._pending.pop(payload.get("id"), None)
                if future is None or future.done():
                    continue
                error = payload.get("error")
                if error is not None:
                    future.set_exception(ServiceCallError.from_wire(error))
                else:
                    future.set_result(payload.get("result", {}))
        except (OSError, asyncio.IncompleteReadError, ValueError):
            pass
        finally:
            self.closed = True
            self._fail_pending(
                ShardLinkDown(f"link to shard {self.index} ({self.address}) is down")
            )

    def _fail_pending(self, exc: Exception) -> None:
        for future in self._pending.values():
            if not future.done():
                future.set_exception(exc)
        self._pending.clear()

    async def call(self, method: str, params: dict | None = None) -> dict:
        if self.dropped:
            raise ShardLinkDown(f"link to shard {self.index} dropped (injected)")
        if self.closed or self._writer is None:
            raise ShardLinkDown(f"link to shard {self.index} is closed")
        request_id = next(self._ids)
        future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        self.in_flight += 1
        try:
            try:
                self._writer.write(encode_request(request_id, method, params))
                await self._writer.drain()
            except (OSError, RuntimeError) as exc:
                self.closed = True
                self._pending.pop(request_id, None)
                raise ShardLinkDown(
                    f"write to shard {self.index} failed: {exc}"
                ) from exc
            return await future
        finally:
            self.in_flight -= 1

    async def close(self) -> None:
        self.closed = True
        if self._reader_task is not None:
            self._reader_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._reader_task
        if self._writer is not None:
            with contextlib.suppress(Exception):
                self._writer.close()
                await self._writer.wait_closed()
        self._fail_pending(ShardLinkDown(f"link to shard {self.index} closed"))


class _SessionRecord:
    """Router-side state of one fleet session: owner + replication log."""

    __slots__ = ("session_id", "shard", "spec", "scale", "config", "edits",
                 "lock", "failovers")

    def __init__(self, session_id: str, shard: int, spec: str, scale: float,
                 config: dict | None):
        self.session_id = session_id
        self.shard = shard
        self.spec = spec
        self.scale = float(scale)
        self.config = dict(config) if config else None
        self.edits: list[dict] = []
        self.lock = asyncio.Lock()
        self.failovers = 0


# Methods forwarded to the session's owning shard (all carry "session").
_SESSION_METHODS = frozenset({
    "session_info", "analyze", "query_net", "query_path", "net_report",
    "explain", "whatif", "repair", "export_session",
})


class FleetRouter:
    """Protocol-compatible front end over a :class:`Fleet` (see module
    docstring for routing, replication, failover and admission)."""

    def __init__(
        self,
        fleet: Fleet,
        access_log: str | None = None,
        obs: Observability | None = None,
        ring_replicas: int = 64,
    ):
        self.fleet = fleet
        self.options = fleet.options
        self.obs = obs if obs is not None else Observability.disabled()
        self._access = JsonlLog(access_log)
        self.ring = HashRing(ring_replicas)
        for index in fleet.shards:
            self.ring.add(index)
        self.alive: set[int] = set(fleet.shards)
        self.links: dict[int, ShardLink] = {}
        self._link_locks: dict[int, asyncio.Lock] = {}
        self.sessions: dict[str, _SessionRecord] = {}
        self.started_at = time.monotonic()
        self.stopping = False
        self.on_stop: Callable[[], None] | None = None
        # Fault injection: arm via repro.testing.faults.corrupt_handoff.
        self.handoff_fault: dict | None = None
        self.failovers = 0
        self.shard_deaths = 0
        self.handoff_retries = 0
        self._request_ids = itertools.count(1)
        self.frontend = LineServer(self._handle_line)
        self.host = ""
        self.port = 0
        metrics = self.obs.metrics
        self._c_requests = metrics.counter("fleet.requests")
        self._c_rejected = metrics.counter("fleet.requests_rejected")
        self._c_failovers = metrics.counter("fleet.failovers")
        self._c_deaths = metrics.counter("fleet.shard_deaths")
        self._c_replays = metrics.counter("fleet.session_replays")

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    # -- shard liveness (supervisor callbacks + internal detection) ----------

    async def mark_down(self, index: int, reason: str = "link down") -> None:
        if index in self.alive:
            self.alive.discard(index)
            self.shard_deaths += 1
            self._c_deaths.inc()
            self._log_event({"event": "shard_down", "shard": index,
                             "reason": reason})
        link = self.links.pop(index, None)
        if link is not None:
            await link.close()

    async def mark_up(self, index: int) -> None:
        if index not in self.alive:
            self.alive.add(index)
            self._log_event({"event": "shard_up", "shard": index})
        if index not in self.ring.shards():
            self.ring.add(index)

    async def _link(self, index: int) -> ShardLink:
        link = self.links.get(index)
        if link is not None and not link.closed:
            return link
        # Serialize per-shard reconnects: after a failover a burst of
        # session calls all want the survivor's link, and racing creates
        # would leak every overwritten link's reader task.
        async with self._link_locks.setdefault(index, asyncio.Lock()):
            link = self.links.get(index)
            if link is not None and not link.closed:
                return link
            if link is not None:
                await link.close()  # reap the stale link's reader task
            link = ShardLink(index, self.fleet.address(index))
            try:
                await link.connect()
            except OSError as exc:
                raise ShardLinkDown(
                    f"cannot connect to shard {index} at {link.address}: {exc}"
                ) from exc
            self.links[index] = link
            return link

    # -- placement, admission, failover --------------------------------------

    def _placement(self, spec: str, scale: float) -> int:
        owner = self.ring.owner(placement_key(spec, scale), self.alive)
        if owner is None:
            raise ServiceError(
                ERR_BUSY,
                "no live shard available (fleet is recovering)",
                retry_after=1.0,
            )
        return owner

    def _admit(self, index: int) -> None:
        link = self.links.get(index)
        in_flight = link.in_flight if link is not None and not link.closed else 0
        capacity = self.options.shard_capacity
        if in_flight >= capacity:
            self._c_rejected.inc()
            waves = math.ceil(
                max(in_flight - self.options.workers + 1, 1) / self.options.workers
            )
            raise ServiceError(
                ERR_BUSY,
                f"shard {index} at capacity ({in_flight} in flight, "
                f"capacity {capacity})",
                retry_after=max(0.1, 0.5 * waves),
                shard=index,
            )

    def _encode_payload(self, record: _SessionRecord) -> dict:
        payload = encode_handoff(
            record.session_id, record.spec, record.scale, record.config,
            record.edits,
        )
        fault = self.handoff_fault
        if fault and fault.get("times", 0) > 0:
            fault["times"] -= 1
            payload = json.loads(json.dumps(payload))  # corrupt a copy
            if fault.get("mode", "bitflip") == "truncate":
                payload["body"].pop("edits", None)  # torn mid-handoff
            else:
                head = payload["checksum"][0]
                payload["checksum"] = (
                    ("0" if head != "0" else "1") + payload["checksum"][1:]
                )
        return payload

    async def _replay(self, record: _SessionRecord, index: int) -> None:
        """Rebuild ``record``'s session on shard ``index`` from the
        router's replication log.  A corrupt-in-flight payload the shard
        rejects (CheckpointError) is re-encoded fresh and retried once."""
        link = await self._link(index)
        self._c_replays.inc()
        try:
            await link.call(
                "import_session", {"payload": self._encode_payload(record)}
            )
        except ServiceCallError as exc:
            if exc.data.get("exception") != "CheckpointError":
                raise
            self.handoff_retries += 1
            self._log_event({
                "event": "handoff_retry", "session": record.session_id,
                "shard": index, "error": str(exc),
            })
            await link.call(
                "import_session",
                {"payload": encode_handoff(
                    record.session_id, record.spec, record.scale,
                    record.config, record.edits,
                )},
            )

    async def _failover(self, record: _SessionRecord) -> None:
        """Re-home ``record`` onto a live shard and replay its state."""
        target = self._placement(record.spec, record.scale)
        await self._replay(record, target)
        self.failovers += 1
        record.failovers += 1
        self._c_failovers.inc()
        self._log_event({
            "event": "failover", "session": record.session_id,
            "from_shard": record.shard, "to_shard": target,
            "edits_replayed": len(record.edits),
        })
        record.shard = target

    async def _call_session(
        self, method: str, params: dict, record: _SessionRecord
    ) -> dict:
        async with record.lock:
            for _attempt in range(2):
                if record.shard not in self.alive:
                    await self._failover(record)
                index = record.shard
                self._admit(index)
                try:
                    link = await self._link(index)
                    result = await link.call(method, params)
                except ShardLinkDown as exc:
                    await self.mark_down(index, reason=str(exc))
                    continue
                except ServiceCallError as exc:
                    if exc.code != ERR_UNKNOWN_SESSION:
                        raise
                    # The shard restarted (or evicted) and lost the warm
                    # session the router still owns: replay it in place.
                    await self._replay(record, index)
                    result = await link.call(method, params)
                if method == "whatif" and result.get("committed"):
                    record.edits.append(dict(result["edit"]))
                if method == "repair":
                    # A repair run commits a whole batch of edits shard-side;
                    # append them to the replication log in order so a
                    # failover replays the repaired design bit-identically.
                    for edit in result.get("committed_edits", []):
                        record.edits.append(dict(edit))
                return result
            raise ServiceError(
                ERR_BUSY,
                f"session {record.session_id!r} is failing over; retry",
                retry_after=0.5,
            )

    # -- method handlers -----------------------------------------------------

    async def handle(self, method: str, params: dict) -> dict:
        self._c_requests.inc()
        if method in _SESSION_METHODS:
            session_id = params.get("session")
            record = (
                self.sessions.get(session_id)
                if isinstance(session_id, str) else None
            )
            if record is None:
                raise ServiceError(
                    ERR_UNKNOWN_SESSION, f"unknown session {session_id!r}"
                )
            return await self._call_session(method, params, record)
        handler = {
            "ping": self._m_ping,
            "open_session": self._m_open_session,
            "import_session": self._m_import_session,
            "close_session": self._m_close_session,
            "list_sessions": self._m_list_sessions,
            "stats": self._m_stats,
            "metrics": self._m_metrics,
            "shutdown": self._m_shutdown,
        }.get(method)
        if handler is None:
            raise ServiceError(
                ERR_UNKNOWN_METHOD,
                f"unknown method {method!r}; have "
                f"{sorted(_SESSION_METHODS | {'ping', 'open_session', 'import_session', 'close_session', 'list_sessions', 'stats', 'metrics', 'shutdown'})}",
            )
        return await handler(params)

    async def _m_ping(self, params: dict) -> dict:
        return {
            "protocol": FLEET_PROTOCOL_VERSION,
            "service_protocol": PROTOCOL_VERSION,
            "version": __version__,
            "uptime_seconds": time.monotonic() - self.started_at,
            "shards": len(self.fleet.shards),
            "alive": sorted(self.alive),
            "sessions": len(self.sessions),
            "failovers": self.failovers,
        }

    async def _m_open_session(self, params: dict) -> dict:
        spec = params.get("netlist")
        if not isinstance(spec, str) or not spec:
            raise InputError("missing required parameter 'netlist'")
        scale = params.get("scale", 0.05)
        if not isinstance(scale, (int, float)) or isinstance(scale, bool):
            raise InputError("parameter 'scale' must be a float")
        config = params.get("config")
        for _attempt in range(2):
            index = self._placement(spec, scale)
            self._admit(index)
            try:
                link = await self._link(index)
                result = await link.call("open_session", params)
            except ShardLinkDown as exc:
                await self.mark_down(index, reason=str(exc))
                continue
            record = _SessionRecord(
                result["session"], index, spec, float(scale), config
            )
            self.sessions[record.session_id] = record
            result["shard"] = index
            result["fleet_protocol"] = FLEET_PROTOCOL_VERSION
            return result
        raise ServiceError(
            ERR_BUSY,
            "no shard accepted open_session (fleet is recovering)",
            retry_after=0.5,
        )

    async def _m_import_session(self, params: dict) -> dict:
        """Adopt an externally exported session into the fleet: validate
        the payload here (reject before any placement), then replay it
        onto its placement owner."""
        payload = params.get("payload")
        body = decode_handoff(payload)
        record = _SessionRecord(
            body["session"], -1, body["spec"], body["scale"], body["config"]
        )
        record.edits = list(body["edits"])
        async with record.lock:
            index = self._placement(record.spec, record.scale)
            link = await self._link(index)
            result = await link.call("import_session", {"payload": payload})
            record.shard = index
        self.sessions[record.session_id] = record
        result["shard"] = index
        result["fleet_protocol"] = FLEET_PROTOCOL_VERSION
        return result

    async def _m_close_session(self, params: dict) -> dict:
        session_id = params.get("session")
        record = (
            self.sessions.get(session_id) if isinstance(session_id, str) else None
        )
        if record is None:
            raise ServiceError(
                ERR_UNKNOWN_SESSION, f"unknown session {session_id!r}"
            )
        async with record.lock:
            self.sessions.pop(session_id, None)
            try:
                link = await self._link(record.shard)
                return await link.call("close_session", params)
            except (ShardLinkDown, ServiceCallError):
                # The owner is gone; the fleet-level close still succeeds
                # (the session will not be failed over -- it is forgotten).
                return {"session": session_id, "shard_unreachable": True}

    async def _m_list_sessions(self, params: dict) -> dict:
        return {"sessions": sorted(self.sessions)}

    async def _m_stats(self, params: dict) -> dict:
        """Fleet-wide introspection: one row per shard plus aggregates."""
        rows = []
        totals = {"sessions": 0, "in_flight": 0, "queue_depth": 0}
        for index in sorted(self.fleet.shards):
            handle = self.fleet.shards[index]
            link = self.links.get(index)
            row: dict[str, Any] = {
                "shard": index,
                "address": self.fleet.address(index),
                "alive": index in self.alive,
                "restarts": handle.restarts,
                "router_in_flight": (
                    link.in_flight if link is not None and not link.closed else 0
                ),
            }
            if index in self.alive:
                try:
                    pong = await (await self._link(index)).call("ping")
                except (ShardLinkDown, ServiceCallError):
                    row["alive"] = False
                else:
                    row.update({
                        "sessions": pong.get("sessions"),
                        "in_flight": pong.get("in_flight"),
                        "queue_depth": pong.get("queue_depth"),
                        "capacity": pong.get("capacity"),
                        "uptime_seconds": pong.get("uptime_seconds"),
                    })
                    for key in totals:
                        value = pong.get(key)
                        if isinstance(value, (int, float)):
                            totals[key] += value
            rows.append(row)
        return {
            "fleet": {
                "protocol": FLEET_PROTOCOL_VERSION,
                "shards": len(self.fleet.shards),
                "alive": sum(1 for row in rows if row["alive"]),
                "sessions": len(self.sessions),
                "failovers": self.failovers,
                "shard_deaths": self.shard_deaths,
                "handoff_retries": self.handoff_retries,
                **totals,
            },
            "shards": rows,
            "router": {
                "uptime_seconds": time.monotonic() - self.started_at,
                "address": self.address,
            },
        }

    async def _m_metrics(self, params: dict) -> dict:
        return metrics_result(self.obs, params)

    async def _m_shutdown(self, params: dict) -> dict:
        self.stopping = True
        if self.on_stop is not None:
            self.on_stop()
        return {"stopping": True, "sessions": len(self.sessions)}

    # -- socket front end ----------------------------------------------------

    async def start_server(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self.port = await self.frontend.listen(host, port)
        self.host = host

    async def stop_server(self) -> None:
        await self.frontend.close(drain_timeout=10.0)
        for link in list(self.links.values()):
            await link.close()
        self.links.clear()

    async def _handle_line(self, line: bytes) -> bytes:
        request_id: Any = None
        rid = f"fleet-req-{next(self._request_ids)}"
        method: str | None = None
        session_param: str | None = None
        outcome, code = "ok", None
        t0 = time.perf_counter()
        try:
            request_id, method, params = decode_request(line)
            raw_session = params.get("session")
            if isinstance(raw_session, str):
                session_param = raw_session
            result = await self.handle(method, params)
            payload = encode_response(request_id, result)
        except Exception as exc:  # answered, never disconnects
            payload = encode_error(request_id, exc)
            outcome = "error"
            code = error_payload(exc)["code"]
        record = (
            self.sessions.get(session_param) if session_param is not None else None
        )
        self._access.append({
            "ts": time.time(),
            "request_id": rid,
            "method": method,
            "session": session_param,
            "shard": record.shard if record is not None else None,
            "elapsed_s": time.perf_counter() - t0,
            "outcome": outcome,
            "code": code,
        })
        return payload

    def _log_event(self, record: dict) -> None:
        self._access.append({"ts": time.time(), **record})
