"""Clients for the timing-query service.

:class:`ServiceClient` speaks the wire protocol over TCP or a Unix
socket -- one blocking request/response at a time (use one client per
thread; connections are cheap).  :class:`InProcessClient` wraps a
:class:`~repro.service.server.TimingService` directly with the *same*
call surface and error semantics (failures raise
:class:`~repro.service.protocol.ServiceCallError` in both), so tests and
embedding tools can switch transports without changing code.

Both clients honour backpressure: ``call_with_retry`` retries ``busy``
(429) rejections with capped exponential backoff plus full jitter,
never sleeping less than the server-advised ``retry_after``.  The
socket client additionally retries *transport* failures (connection
reset, server closed mid-call) by reconnecting -- against a fleet
router this is what makes shard failover invisible to callers.
"""

from __future__ import annotations

import random
import socket
import time
from typing import Any

from repro.errors import ReproError
from repro.service.protocol import (
    ERR_BUSY,
    ServiceCallError,
    ServiceTransportError,
    decode_response,
    encode_request,
    error_payload,
)
from repro.service.server import TimingService


def backoff_delay(
    attempt: int,
    floor: float = 0.0,
    base: float = 0.1,
    cap: float = 5.0,
    rng: random.Random | None = None,
) -> float:
    """Capped exponential backoff with full jitter.

    The jittered draw is uniform on ``[0, min(cap, base * 2**attempt)]``
    (full jitter decorrelates retry herds after a fleet-wide event), and
    a server-supplied ``retry_after`` acts as a *floor* -- the server
    knows its queue better than the client's clock does.
    """
    draw = (rng or random).uniform(0.0, min(cap, base * (2.0 ** attempt)))
    return max(floor, draw)


class _CallSurface:
    """Shared convenience methods over ``call``."""

    def call(self, method: str, params: dict | None = None) -> dict:
        raise NotImplementedError

    def _reconnect(self) -> bool:
        """Try to re-establish the transport; False when not applicable."""
        return False

    def call_with_retry(
        self,
        method: str,
        params: dict | None = None,
        max_retries: int = 8,
        max_wait: float = 60.0,
        base_delay: float = 0.1,
        max_delay: float = 5.0,
        rng: random.Random | None = None,
    ) -> dict:
        """Like :meth:`call`, but waits out ``busy`` (429) rejections and
        transport drops with jittered exponential backoff (total sleep
        bounded by ``max_wait``).  Transport failures are retried only
        if :meth:`_reconnect` succeeds -- against a fleet router the new
        connection transparently re-routes to the failed-over shard."""
        waited = 0.0
        for attempt in range(max_retries + 1):
            retry_floor = 0.0
            try:
                return self.call(method, params)
            except ServiceCallError as exc:
                if exc.code != ERR_BUSY or attempt == max_retries:
                    raise
                if exc.retry_after is not None:
                    retry_floor = exc.retry_after
                failure: ReproError = exc
            except ServiceTransportError as exc:
                if attempt == max_retries or not self._reconnect():
                    raise
                failure = exc
            delay = backoff_delay(
                attempt, floor=retry_floor, base=base_delay, cap=max_delay, rng=rng
            )
            if waited + delay > max_wait:
                raise failure
            time.sleep(delay)
            waited += delay
        raise AssertionError("unreachable")

    # -- method wrappers -----------------------------------------------------

    def ping(self) -> dict:
        return self.call("ping")

    def open_session(
        self,
        netlist: str,
        scale: float = 0.05,
        config: dict | None = None,
    ) -> dict:
        params: dict[str, Any] = {"netlist": netlist, "scale": scale}
        if config is not None:
            params["config"] = config
        return self.call("open_session", params)

    def list_sessions(self) -> list[str]:
        return self.call("list_sessions")["sessions"]

    def session_info(self, session: str) -> dict:
        return self.call("session_info", {"session": session})

    def analyze(
        self,
        session: str,
        mode: str | None = None,
        force: bool = False,
        deadline: float | None = None,
    ) -> dict:
        params: dict[str, Any] = {"session": session, "force": force}
        if mode is not None:
            params["mode"] = mode
        if deadline is not None:
            params["deadline"] = deadline
        return self.call("analyze", params)

    def query_net(self, session: str, net: str, mode: str | None = None) -> dict:
        params: dict[str, Any] = {"session": session, "net": net}
        if mode is not None:
            params["mode"] = mode
        return self.call("query_net", params)

    def query_path(self, session: str, mode: str | None = None) -> dict:
        params: dict[str, Any] = {"session": session}
        if mode is not None:
            params["mode"] = mode
        return self.call("query_path", params)

    def net_report(
        self, session: str, mode: str | None = None, top: int = 20
    ) -> dict:
        params: dict[str, Any] = {"session": session, "top": top}
        if mode is not None:
            params["mode"] = mode
        return self.call("net_report", params)

    def whatif(
        self,
        session: str,
        edit: dict,
        mode: str | None = None,
        commit: bool = False,
        deadline: float | None = None,
    ) -> dict:
        params: dict[str, Any] = {"session": session, "edit": edit, "commit": commit}
        if mode is not None:
            params["mode"] = mode
        if deadline is not None:
            params["deadline"] = deadline
        return self.call("whatif", params)

    def repair(
        self,
        session: str,
        mode: str | None = None,
        target_slack: float = 0.0,
        max_edits: int = 8,
        beam: int = 3,
        guard_tracks: int = 1,
        dont_touch: list[str] | None = None,
        cold_verify: bool = False,
        deadline: float | None = None,
    ) -> dict:
        """Run the autonomous crosstalk-repair loop on a warm session;
        returns the ``repro.repair/1`` transcript."""
        params: dict[str, Any] = {
            "session": session,
            "target_slack": target_slack,
            "max_edits": max_edits,
            "beam": beam,
            "guard_tracks": guard_tracks,
            "cold_verify": cold_verify,
        }
        if mode is not None:
            params["mode"] = mode
        if dont_touch is not None:
            params["dont_touch"] = list(dont_touch)
        if deadline is not None:
            params["deadline"] = deadline
        return self.call("repair", params)

    def explain(
        self,
        session: str,
        mode: str | None = None,
        paths: int = 1,
        top: int = 10,
    ) -> dict:
        params: dict[str, Any] = {"session": session, "paths": paths, "top": top}
        if mode is not None:
            params["mode"] = mode
        return self.call("explain", params)

    def close_session(self, session: str) -> dict:
        return self.call("close_session", {"session": session})

    def export_session(self, session: str) -> dict:
        """The session's handoff payload (see :mod:`repro.service.handoff`)."""
        return self.call("export_session", {"session": session})["payload"]

    def import_session(self, payload: dict) -> dict:
        """Rebuild a session from a handoff payload on this server."""
        return self.call("import_session", {"payload": payload})

    def metrics(self) -> dict:
        return self.call("metrics")["snapshot"]

    def metrics_text(self) -> str:
        """The Prometheus text exposition of the server's registry."""
        return self.call("metrics", {"format": "prometheus"})["exposition"]

    def stats(self) -> dict:
        return self.call("stats")

    def shutdown(self) -> dict:
        return self.call("shutdown")


class ServiceClient(_CallSurface):
    """Blocking socket client.  ``address`` is ``host:port`` or
    ``unix:/path/to.sock``."""

    def __init__(self, address: str, timeout: float | None = 120.0):
        self.address = address
        self.timeout = timeout
        self._next_id = 0
        self._connect()

    def _connect(self) -> None:
        if self.address.startswith("unix:"):
            self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self._sock.settimeout(self.timeout)
            self._sock.connect(self.address[len("unix:") :])
        else:
            host, _, port = self.address.rpartition(":")
            if not host or not port.isdigit():
                raise ReproError(
                    f"bad service address {self.address!r}; want host:port or unix:/path"
                )
            self._sock = socket.create_connection(
                (host, int(port)), timeout=self.timeout
            )
        self._file = self._sock.makefile("rwb")

    def _reconnect(self) -> bool:
        try:
            self.close()
        except OSError:
            pass
        try:
            self._connect()
        except OSError:
            return False
        return True

    def call(self, method: str, params: dict | None = None) -> dict:
        self._next_id += 1
        request_id = self._next_id
        try:
            self._file.write(encode_request(request_id, method, params))
            self._file.flush()
            line = self._file.readline()
        except OSError as exc:
            raise ServiceTransportError(
                f"service at {self.address}: transport failure: {exc}"
            ) from exc
        if not line:
            raise ServiceTransportError(
                f"service at {self.address} closed the connection"
            )
        response_id, result = decode_response(line)
        if response_id != request_id:
            raise ReproError(
                f"response id {response_id!r} does not match request {request_id!r}"
            )
        return result

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class InProcessClient(_CallSurface):
    """Same-process client: dispatches straight into the service (no
    sockets, no event loop) while keeping wire error semantics --
    every failure surfaces as :class:`ServiceCallError` built from the
    exact error payload a socket client would have received.  Requests
    still pass the executor's admission control; deadlines do not apply
    (the caller blocks on its own call)."""

    def __init__(self, service: TimingService):
        self.service = service

    def call(self, method: str, params: dict | None = None) -> dict:
        params = dict(params or {})
        params.pop("deadline", None)
        request_id = self.service.next_request_id()
        try:
            return self.service.executor.run_sync(
                lambda: self.service.traced_dispatch(method, params, request_id),
                method=method,
            )
        except Exception as exc:
            raise ServiceCallError.from_wire(error_payload(exc)) from exc

    def close(self) -> None:  # symmetry with ServiceClient
        pass

    def __enter__(self) -> "InProcessClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
