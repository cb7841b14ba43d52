"""The timing-query service: dispatcher and asyncio socket server.

:class:`TimingService` is the transport-independent half -- a method
registry over a :class:`~repro.service.session.SessionManager` and a
:class:`~repro.service.executor.RequestExecutor`.  It is what the
in-process client calls directly and what the socket server feeds.

:class:`TimingServer` speaks the newline-delimited JSON protocol of
:mod:`repro.service.protocol` over TCP or a Unix socket, through the
front end it shares with the fleet router
(:mod:`repro.service.frontend`: pipelining, half-close, drain then
close).  Every failure -- malformed line, unknown method, engine error,
deadline, backpressure -- is answered with a structured error object;
the server never answers a request by disconnecting.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import json
import os
import signal
import time
from typing import Any, Callable

from repro import __version__
from repro.core.modes import StaConfig
from repro.core.netreport import net_report_payload
from repro.errors import InputError
from repro.obs import Observability, render_prometheus
from repro.service.executor import RequestExecutor
from repro.service.frontend import JsonlLog, LineServer
from repro.service.handoff import decode_handoff
from repro.service.protocol import (
    ERR_BAD_REQUEST,
    ERR_UNKNOWN_METHOD,
    PROTOCOL_VERSION,
    ServiceError,
    decode_request,
    encode_error,
    encode_response,
    error_payload,
)
from repro.service.session import SessionManager, result_summary

_MISSING = object()


def _param(params: dict, key: str, types, default=_MISSING):
    value = params.get(key, _MISSING)
    if value is _MISSING or value is None:
        if default is _MISSING:
            raise InputError(f"missing required parameter {key!r}")
        return default
    if types is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, types) or (
        types in (int, float) and isinstance(value, bool)
    ):
        want = types.__name__ if isinstance(types, type) else "value"
        raise InputError(f"parameter {key!r} must be a {want}")
    return value


def metrics_result(obs: Observability, params: dict) -> dict:
    """The ``metrics`` method of the server and the fleet router: the
    metrics snapshot as JSON, or rendered as Prometheus text."""
    fmt = _param(params, "format", str, "json")
    snapshot = obs.metrics.snapshot()
    if fmt == "prometheus":
        return {"exposition": render_prometheus(snapshot)}
    if fmt != "json":
        raise InputError(
            f"unknown metrics format {fmt!r}; have ['json', 'prometheus']"
        )
    return {"snapshot": snapshot}


class TimingService:
    """Transport-independent dispatcher over persistent design sessions."""

    def __init__(
        self,
        config: StaConfig | None = None,
        max_sessions: int = 8,
        checkpoint_dir: str | None = None,
        workers: int = 4,
        queue_limit: int = 8,
        default_deadline: float | None = None,
        obs: Observability | None = None,
    ):
        self.obs = obs if obs is not None else Observability.disabled()
        self.sessions = SessionManager(
            config=config,
            max_sessions=max_sessions,
            checkpoint_dir=checkpoint_dir,
            obs=self.obs,
        )
        self.executor = RequestExecutor(
            workers=workers,
            queue_limit=queue_limit,
            default_deadline=default_deadline,
            obs=self.obs,
        )
        self.started_at = time.monotonic()
        self.shutdown_requested = False
        # The socket server installs a callback here to wake its loop.
        self.on_shutdown: Callable[[], None] | None = None
        self._request_ids = itertools.count(1)
        self._methods: dict[str, Callable[[dict], dict]] = {
            "ping": self._m_ping,
            "open_session": self._m_open_session,
            "list_sessions": self._m_list_sessions,
            "session_info": self._m_session_info,
            "analyze": self._m_analyze,
            "query_net": self._m_query_net,
            "query_path": self._m_query_path,
            "net_report": self._m_net_report,
            "explain": self._m_explain,
            "whatif": self._m_whatif,
            "repair": self._m_repair,
            "export_session": self._m_export_session,
            "import_session": self._m_import_session,
            "close_session": self._m_close_session,
            "metrics": lambda params: metrics_result(self.obs, params),
            "stats": self._m_stats,
            "shutdown": self._m_shutdown,
        }

    def methods(self) -> list[str]:
        return sorted(self._methods)

    def next_request_id(self) -> str:
        """A service-wide unique request id (``req-N``)."""
        return f"req-{next(self._request_ids)}"

    def dispatch(self, method: str, params: dict) -> dict:
        """Execute one request (synchronously; called on a worker)."""
        handler = self._methods.get(method)
        if handler is None:
            raise ServiceError(
                ERR_UNKNOWN_METHOD,
                f"unknown method {method!r}; have {self.methods()}",
            )
        return handler(params)

    def traced_dispatch(self, method: str, params: dict, request_id: str) -> dict:
        """Dispatch wrapped in a ``service.request`` span carrying the
        request id.  Runs on the worker thread, so every span the
        analysis opens becomes a child of this one -- that is what lets
        the server extract one request's complete span subtree."""
        with self.obs.tracer.span(
            "service.request", request_id=request_id, method=method
        ):
            return self.dispatch(method, params)

    def close(self) -> None:
        self.sessions.close_all()
        self.executor.shutdown(wait=True)

    # -- method handlers (each runs under the executor) ----------------------

    def _session(self, params: dict):
        return self.sessions.get(_param(params, "session", str))

    def _m_ping(self, params: dict) -> dict:
        return {
            "protocol": PROTOCOL_VERSION,
            "version": __version__,
            "uptime_seconds": time.monotonic() - self.started_at,
            "sessions": len(self.sessions),
            "in_flight": self.executor.pending,
            "capacity": self.executor.capacity,
            "queue_depth": self.executor.queue_depth,
        }

    def _m_open_session(self, params: dict) -> dict:
        netlist = _param(params, "netlist", str)
        scale = _param(params, "scale", float, 0.05)
        overrides = _param(params, "config", dict, None)
        session = self.sessions.open(netlist, scale=scale, config=overrides)
        info = session.info()
        info["protocol"] = PROTOCOL_VERSION
        return info

    def _m_list_sessions(self, params: dict) -> dict:
        return {"sessions": self.sessions.ids()}

    def _m_session_info(self, params: dict) -> dict:
        session = self._session(params)
        with session.lock:
            return session.info()

    def _m_analyze(self, params: dict) -> dict:
        session = self._session(params)
        mode = _param(params, "mode", str, None)
        force = _param(params, "force", bool, False)
        with session.lock:
            return result_summary(session.analyze(mode, force=force))

    def _m_query_net(self, params: dict) -> dict:
        session = self._session(params)
        net = _param(params, "net", str)
        mode = _param(params, "mode", str, None)
        with session.lock:
            return session.query_net(net, mode)

    def _m_query_path(self, params: dict) -> dict:
        session = self._session(params)
        mode = _param(params, "mode", str, None)
        with session.lock:
            return session.query_path(mode)

    def _m_net_report(self, params: dict) -> dict:
        session = self._session(params)
        mode = _param(params, "mode", str, None)
        top = _param(params, "top", int, 20)
        with session.lock:
            result = session.analyze(mode)
            exposures = session.exposures(mode)[:top]
            payload = net_report_payload(
                session.design, result.final_pass, exposures=exposures
            )
        payload["session"] = session.session_id
        payload["mode"] = result.mode.value
        return payload

    def _m_whatif(self, params: dict) -> dict:
        session = self._session(params)
        edit = _param(params, "edit", dict)
        mode = _param(params, "mode", str, None)
        commit = _param(params, "commit", bool, False)
        with session.lock:
            return session.whatif(edit, mode=mode, commit=commit)

    def _m_repair(self, params: dict) -> dict:
        """Autonomous crosstalk repair over the session's warm state.

        Candidates are evaluated through the transactional what-if path
        (commit only on strict worst-slack improvement); the response is
        the ``repro.repair/1`` transcript, whose ``committed_edits``
        list the fleet router appends to the session's replication log.
        """
        session = self._session(params)
        mode = _param(params, "mode", str, None)
        target_slack = _param(params, "target_slack", float, 0.0)
        max_edits = _param(params, "max_edits", int, 8)
        beam = _param(params, "beam", int, 3)
        guard_tracks = _param(params, "guard_tracks", int, 1)
        dont_touch = _param(params, "dont_touch", list, None)
        cold_verify = _param(params, "cold_verify", bool, False)
        if dont_touch is not None and not all(
            isinstance(n, str) for n in dont_touch
        ):
            raise InputError("parameter 'dont_touch' must be a list of net names")
        with session.lock:
            return session.repair(
                mode=mode,
                target_slack=target_slack,
                max_edits=max_edits,
                beam=beam,
                guard_tracks=guard_tracks,
                dont_touch=dont_touch,
                cold_verify=cold_verify,
            )

    def _m_explain(self, params: dict) -> dict:
        session = self._session(params)
        mode = _param(params, "mode", str, None)
        paths = _param(params, "paths", int, 1)
        top = _param(params, "top", int, 10)
        with session.lock:
            return session.explain(mode, paths=paths, top=top)

    def _m_export_session(self, params: dict) -> dict:
        """The session's checksummed replication payload (fleet handoff)."""
        session = self._session(params)
        with session.lock:
            return {"payload": session.handoff()}

    def _m_import_session(self, params: dict) -> dict:
        """Rebuild a session from a handoff payload (failover replay).

        The payload is validated (checksum, format, shape) *before* any
        state is touched -- a truncated or corrupt handoff raises
        ``CheckpointError`` (wire code 500) and leaves this shard's
        sessions, including any live one under the same id, untouched.
        """
        payload = _param(params, "payload", dict)
        body = decode_handoff(payload)
        session = self.sessions.restore(body)
        info = session.info()
        info["protocol"] = PROTOCOL_VERSION
        info["restored_edits"] = len(body["edits"])
        return info

    def _m_close_session(self, params: dict) -> dict:
        return self.sessions.close(_param(params, "session", str))

    def _m_stats(self, params: dict) -> dict:
        """Service introspection: sessions with their warm-state sizes,
        executor depth, and registry size."""
        sessions = []
        for session in self.sessions.values():
            with session.lock:
                stats = session.stats()
                cache = session.sta.calculator.cache_stats()
                stats["arc_cache"] = {
                    key: value
                    for key, value in cache.items()
                    if isinstance(value, (int, float, str, bool))
                }
                memo: dict[str, int] = {}
                ledger_rows: dict[str, int] = {}
                for cfg, propagator in session.sta._propagators.items():
                    mode = cfg.mode.value
                    memo[mode] = memo.get(mode, 0) + propagator.memo_arcs
                    ledger_rows[mode] = ledger_rows.get(mode, 0) + len(
                        propagator.ledger
                    )
                stats["memo_arcs"] = memo
                stats["ledger_rows"] = ledger_rows
            sessions.append(stats)
        snapshot = self.obs.metrics.snapshot()
        return {
            "uptime_seconds": time.monotonic() - self.started_at,
            "sessions": sessions,
            "executor": {
                "workers": self.executor.workers,
                "capacity": self.executor.capacity,
                "pending": self.executor.pending,
            },
            "metrics_series": {
                kind: len(series) for kind, series in snapshot.items()
            },
        }

    def _m_shutdown(self, params: dict) -> dict:
        self.shutdown_requested = True
        if self.on_shutdown is not None:
            self.on_shutdown()
        return {"stopping": True, "sessions_closed": len(self.sessions)}


class TimingServer:
    """Asyncio front-end: newline-delimited JSON over TCP or Unix socket
    (the socket handling is :class:`~repro.service.frontend.LineServer`)."""

    def __init__(
        self,
        service: TimingService,
        host: str = "127.0.0.1",
        port: int = 0,
        socket_path: str | None = None,
        access_log: str | None = None,
        trace_dir: str | None = None,
    ):
        self.service = service
        self.host = host
        self.port = port
        self.socket_path = socket_path
        # Structured JSONL access log: one record per request with the
        # request id, method, session, queue wait, solve time, outcome.
        self._access = JsonlLog(access_log)
        # Per-request span-subtree export: <trace_dir>/<request_id>.jsonl
        # (request ids are unique, so concurrent sessions never clobber
        # or interleave each other's streams).
        self.trace_dir = trace_dir
        if trace_dir is not None:
            os.makedirs(trace_dir, exist_ok=True)
        self.frontend = LineServer(self._handle_line)
        self._stop = asyncio.Event()
        service.on_shutdown = self._request_stop_threadsafe
        self._loop: asyncio.AbstractEventLoop | None = None

    @property
    def address(self) -> str:
        if self.socket_path is not None:
            return f"unix:{self.socket_path}"
        return f"{self.host}:{self.port}"

    def _request_stop_threadsafe(self) -> None:
        loop = self._loop
        if loop is not None:
            loop.call_soon_threadsafe(self._stop.set)

    def request_stop(self) -> None:
        """Begin the drain-then-close shutdown (loop-thread callers:
        signal handlers, supervisors).  Idempotent."""
        self._stop.set()

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        port = await self.frontend.listen(self.host, self.port, self.socket_path)
        if port is not None:
            self.port = port

    async def serve_until_shutdown(self) -> None:
        """Serve until a ``shutdown`` request (or :meth:`stop`) arrives,
        then drain in-flight requests and close."""
        if self._loop is None:
            await self.start()
        await self._stop.wait()
        await self.stop()

    async def stop(self, drain_timeout: float = 30.0) -> None:
        self._stop.set()
        await self.frontend.close(drain_timeout)
        self.service.close()

    async def _handle_line(self, line: bytes) -> bytes:
        request_id: Any = None
        rid = self.service.next_request_id()
        method: str | None = None
        session_param: str | None = None
        info: dict = {}
        outcome, code = "ok", None
        try:
            request_id, method, params = decode_request(line)
            raw_session = params.get("session")
            if isinstance(raw_session, str):
                session_param = raw_session
            deadline = params.pop("deadline", None)
            if deadline is not None and (
                not isinstance(deadline, (int, float))
                or isinstance(deadline, bool)
                or deadline <= 0
            ):
                raise ServiceError(
                    ERR_BAD_REQUEST, "'deadline' must be a positive number of seconds"
                )
            if method == "ping" and deadline is None:
                # Liveness fast path: answered on the event loop itself,
                # bypassing executor admission -- a shard saturated with
                # long solves still proves its loop is alive, so fleet
                # health checks never kill a merely-busy shard.
                result = self.service.dispatch(method, params)
            else:
                result = await self.service.executor.submit(
                    lambda: self.service.traced_dispatch(method, params, rid),
                    method=method,
                    deadline=deadline,
                    info=info,
                )
            payload = encode_response(request_id, result)
        except Exception as exc:  # answered, never disconnects
            payload = encode_error(request_id, exc)
            outcome = "error"
            code = error_payload(exc)["code"]
        self._access.append({
            "ts": time.time(),
            "request_id": rid,
            "method": method,
            "session": session_param,
            "queue_wait_s": info.get("queue_wait_s"),
            "solve_s": info.get("solve_s"),
            "outcome": outcome,
            "code": code,
        })
        self._export_request_trace(rid)
        return payload

    def _export_request_trace(self, rid: str) -> None:
        """Write this request's span subtree to its own JSONL file.

        Children record themselves before their parent closes and carry
        ``parent_id`` links, so walking parent links from the
        ``service.request`` root selects exactly the spans of this
        request even when the shared tracer interleaves many requests.
        """
        tracer = self.service.obs.tracer
        if self.trace_dir is None or not tracer.enabled:
            return
        events = tracer.events
        selected = [
            e for e in events if e.get("args", {}).get("request_id") == rid
        ]
        if not selected:
            return
        ids = {e["span_id"] for e in selected}
        remaining = [e for e in events if e["span_id"] not in ids]
        grew = True
        while grew:
            grew = False
            still: list[dict] = []
            for event in remaining:
                if event.get("parent_id") in ids:
                    ids.add(event["span_id"])
                    selected.append(event)
                    grew = True
                else:
                    still.append(event)
            remaining = still
        selected.sort(key=lambda e: e["ts"])
        path = os.path.join(self.trace_dir, f"{rid}.jsonl")
        with open(path, "w") as handle:
            for event in selected:
                handle.write(json.dumps(event, sort_keys=True) + "\n")


def install_signal_handlers(server: TimingServer) -> None:
    """Route SIGTERM/SIGINT into the drain-then-close shutdown path.

    A signalled server finishes its in-flight requests and exits 0 --
    the same path a clean ``shutdown`` RPC takes -- instead of dying
    mid-solve with a traceback.  Must be called from the event loop's
    (main) thread; on platforms without loop signal handlers this is a
    silent no-op and the default KeyboardInterrupt path applies.
    """
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        with contextlib.suppress(NotImplementedError, RuntimeError, ValueError):
            loop.add_signal_handler(signum, server.request_stop)


async def serve(
    service: TimingService,
    host: str = "127.0.0.1",
    port: int = 0,
    socket_path: str | None = None,
    ready: Callable[[TimingServer], None] | None = None,
    access_log: str | None = None,
    trace_dir: str | None = None,
    handle_signals: bool = True,
) -> None:
    """Start a server, report readiness, run until shutdown."""
    server = TimingServer(
        service,
        host=host,
        port=port,
        socket_path=socket_path,
        access_log=access_log,
        trace_dir=trace_dir,
    )
    await server.start()
    if handle_signals:
        install_signal_handlers(server)
    if ready is not None:
        ready(server)
    await server.serve_until_shutdown()
