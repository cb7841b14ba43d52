"""Tests for the timing-query service (protocol, sessions, execution,
clients, socket server)."""

from __future__ import annotations

import asyncio
import json
import os
import socket
import threading
import time

import pytest

from repro.core.modes import AnalysisMode, StaConfig
from repro.core.netreport import validate_net_report
from repro.errors import DegradationBudgetError, InputError
from repro.flow import apply_edit
from repro.service import (
    ERR_BAD_REQUEST,
    ERR_BUSY,
    ERR_DEADLINE,
    ERR_DEGRADED,
    ERR_INPUT,
    ERR_INTERNAL,
    ERR_UNKNOWN_METHOD,
    ERR_UNKNOWN_SESSION,
    PROTOCOL_VERSION,
    InProcessClient,
    RequestExecutor,
    ServiceCallError,
    ServiceClient,
    ServiceError,
    SessionManager,
    TimingServer,
    TimingService,
    error_payload,
)
from repro.service.protocol import (
    decode_request,
    decode_response,
    encode_error,
    encode_request,
    encode_response,
)
from repro.service.session import design_digest, session_config

ONE_STEP = StaConfig(mode=AnalysisMode.ONE_STEP)


class TestProtocol:
    def test_request_roundtrip(self):
        line = encode_request(7, "analyze", {"session": "abc", "mode": "one_step"})
        assert line.endswith(b"\n") and b"\n" not in line[:-1]
        request_id, method, params = decode_request(line)
        assert request_id == 7
        assert method == "analyze"
        assert params == {"session": "abc", "mode": "one_step"}

    def test_response_roundtrip(self):
        line = encode_response("id-1", {"ok": True})
        response_id, result = decode_response(line)
        assert response_id == "id-1"
        assert result == {"ok": True}

    def test_decode_request_rejects_garbage(self):
        for bad in (b"not json\n", b"[1,2]\n", b'{"params": {}}\n', b'{"method": 5}\n'):
            with pytest.raises(ServiceError) as exc:
                decode_request(bad)
            assert exc.value.code == ERR_BAD_REQUEST

    def test_error_taxonomy_mapping(self):
        payload = error_payload(InputError("bad net"))
        assert payload["code"] == ERR_INPUT
        assert payload["kind"] == "input_error"
        assert payload["data"]["exit_code"] == 2

        payload = error_payload(DegradationBudgetError(degraded=5, budget=2))
        assert payload["code"] == ERR_DEGRADED
        assert payload["data"]["exit_code"] == 3
        assert payload["data"]["degraded"] == 5

        payload = error_payload(ValueError("boom"))
        assert payload["code"] == ERR_INTERNAL
        assert payload["data"]["exception"] == "ValueError"
        assert payload["data"]["exit_code"] == 4

    def test_error_response_raises_call_error(self):
        line = encode_error(3, ServiceError(ERR_BUSY, "busy", retry_after=1.5))
        with pytest.raises(ServiceCallError) as exc:
            decode_response(line)
        assert exc.value.code == ERR_BUSY
        assert exc.value.kind == "busy"
        assert exc.value.retry_after == 1.5


class TestWhatifEdits:
    def test_unknown_action(self, s27_design):
        with pytest.raises(InputError):
            apply_edit(s27_design, {"action": "teleport", "nets": ["G15"]})

    def test_unknown_net(self, s27_design):
        with pytest.raises(InputError):
            apply_edit(s27_design, {"action": "respace", "nets": ["NOPE"]})

    def test_bad_cap(self, s27_design):
        with pytest.raises(InputError):
            apply_edit(
                s27_design,
                {"action": "set_coupling", "net": "G15", "neighbour": "G11", "cap": -1},
            )

    def test_drop_coupling_is_symmetric(self, s27_design):
        victim = next(
            net for net, load in s27_design.loads.items() if load.couplings
        )
        neighbour = next(iter(s27_design.loads[victim].couplings))
        edited, normalized = apply_edit(
            s27_design,
            {"action": "drop_coupling", "net": victim, "neighbour": neighbour},
        )
        assert normalized["action"] == "drop_coupling"
        assert neighbour not in edited.loads[victim].couplings
        assert victim not in edited.loads[neighbour].couplings
        # Source design untouched (rollback is "drop the copy").
        assert neighbour in s27_design.loads[victim].couplings

    def test_set_coupling_updates_both_sides(self, s27_design):
        victim = next(
            net for net, load in s27_design.loads.items() if load.couplings
        )
        neighbour = next(iter(s27_design.loads[victim].couplings))
        edited, _ = apply_edit(
            s27_design,
            {
                "action": "set_coupling",
                "net": victim,
                "neighbour": neighbour,
                "cap": 1e-16,
            },
        )
        assert edited.loads[victim].couplings[neighbour] == 1e-16
        assert edited.loads[neighbour].couplings[victim] == 1e-16

    def test_digest_tracks_edits(self, s27_design):
        victim = next(
            net for net, load in s27_design.loads.items() if load.couplings
        )
        neighbour = next(iter(s27_design.loads[victim].couplings))
        edited, _ = apply_edit(
            s27_design,
            {"action": "drop_coupling", "net": victim, "neighbour": neighbour},
        )
        assert design_digest(edited) != design_digest(s27_design)
        assert design_digest(s27_design) == design_digest(s27_design)


class TestSessionConfig:
    def test_overrides(self):
        config = session_config(
            ONE_STEP, {"mode": "iterative", "max_iterations": 4, "strict": True}
        )
        assert config.mode is AnalysisMode.ITERATIVE
        assert config.max_iterations == 4
        assert config.strict

    def test_core_override(self):
        """The propagation core, the waveform engine, the process pool,
        the screened solver tier and the memo and ledger switches are no
        longer choices, and the convergence tolerance, Esperance slack,
        input transition and guard are not a client's to set: overriding
        any is an unknown key."""
        for key, value in (
            ("core", "columnar"),
            ("engine", "batch"),
            ("workers", 2),
            ("solver_tier", "screened"),
            ("screen_tolerance", 1e-10),
            ("screen_slack_margin", 0.1),
            ("incremental", False),
            ("provenance", False),
            ("convergence_tolerance", 1e-12),
            ("esperance_slack", 0.15),
            ("input_transition", 100e-12),
            ("guard", 5e-12),
        ):
            with pytest.raises(InputError, match="unknown config override"):
                session_config(ONE_STEP, {key: value})
        for field, value in (
            ("solver_tier", "exact"),
            ("incremental", False),
            ("provenance", False),
            ("clock_model", "always"),
            ("slew_degradation_factor", 2.2),
            ("convergence_tolerance", 1e-12),
            ("esperance_slack", 0.15),
        ):
            with pytest.raises(TypeError):
                StaConfig(**{field: value})

    def test_unknown_key(self):
        with pytest.raises(InputError):
            session_config(ONE_STEP, {"turbo": True})

    def test_bad_value(self):
        with pytest.raises(InputError):
            session_config(ONE_STEP, {"mode": "warp_speed"})


class TestSessionManager:
    def test_open_get_close(self):
        manager = SessionManager(config=ONE_STEP)
        session = manager.open("s27")
        assert manager.get(session.session_id) is session
        stats = manager.close(session.session_id)
        assert stats["design"] == "s27"
        assert len(manager) == 0

    def test_unknown_session(self):
        manager = SessionManager(config=ONE_STEP)
        with pytest.raises(ServiceError) as exc:
            manager.get("nope")
        assert exc.value.code == ERR_UNKNOWN_SESSION

    def test_lru_eviction(self):
        manager = SessionManager(config=ONE_STEP, max_sessions=2)
        first = manager.open("s27")
        second = manager.open("s27")
        # Touch the oldest so the *other* one becomes LRU.
        manager.get(first.session_id)
        third = manager.open("s27")
        assert len(manager) == 2
        ids = manager.ids()
        assert first.session_id in ids
        assert third.session_id in ids
        assert second.session_id not in ids

    def test_unknown_netlist(self):
        manager = SessionManager(config=ONE_STEP)
        with pytest.raises(InputError):
            manager.open("gen:s99999")

    def test_each_public_query_counts_once(self):
        session = SessionManager(config=ONE_STEP).open("s27")
        exposed = session.exposures()[0].net
        neighbour = next(iter(session.design.loads[exposed].couplings))
        calls = [
            session.analyze,
            session.exposures,
            lambda: session.query_net(exposed),
            session.query_path,
            session.explain,
            lambda: session.whatif(
                {"action": "drop_coupling", "net": exposed, "neighbour": neighbour}
            ),
        ]
        for call in calls:
            before = session.queries
            call()
            assert session.queries == before + 1, call
        assert session.info()["queries"] == session.stats()["queries"]


@pytest.fixture(scope="module")
def service():
    service = TimingService(config=ONE_STEP, workers=2, queue_limit=4)
    yield service
    service.close()


@pytest.fixture(scope="module")
def client(service):
    return InProcessClient(service)


@pytest.fixture(scope="module")
def sid(client):
    return client.open_session("s27")["session"]


class TestInProcessService:
    def test_ping(self, client):
        payload = client.ping()
        assert payload["protocol"] == PROTOCOL_VERSION
        assert payload["version"]

    def test_open_session_info(self, client, sid):
        info = client.session_info(sid)
        assert info["design"] == "s27"
        assert info["cells"] == 16
        assert info["coupling_pairs"] > 0
        assert "engine" not in info

    def test_analyze_is_cached(self, client, sid):
        first = client.analyze(sid, mode="one_step")
        second = client.analyze(sid, mode="one_step")
        assert first == second
        assert first["longest_delay_hex"] == float(first["longest_delay"]).hex()

    def test_query_net(self, client, sid):
        report = client.net_report(sid, mode="one_step", top=3)
        net = report["nets"][0]["net"]
        payload = client.query_net(sid, net, mode="one_step")
        assert payload["net"] == net
        assert payload["rank"] == 1
        assert payload["couplings"]
        assert payload["exposure"]["score"] > 0
        json.dumps(payload)  # strictly JSON-safe (no infinities)

    def test_query_net_unknown(self, client, sid):
        with pytest.raises(ServiceCallError) as exc:
            client.query_net(sid, "NOT_A_NET")
        assert exc.value.code == ERR_INPUT
        assert exc.value.data["exit_code"] == 2

    def test_net_report_schema(self, client, sid):
        payload = client.net_report(sid, mode="one_step", top=5)
        assert validate_net_report(payload) == []
        assert payload["session"] == sid
        assert len(payload["nets"]) <= 5

    def test_query_path(self, client, sid):
        analysis = client.analyze(sid, mode="one_step")
        path = client.query_path(sid, mode="one_step")
        assert path["endpoint"] == analysis["critical_endpoint"]
        assert path["steps"]
        assert path["delay_hex"] == float(path["delay"]).hex()

    def test_whatif_uncommitted_rolls_back(self, client, sid):
        before = client.analyze(sid, mode="one_step")
        report = client.net_report(sid, mode="one_step", top=1)
        victim = report["nets"][0]["net"]
        payload = client.whatif(
            sid,
            {"action": "respace", "nets": [victim], "guard_tracks": 1},
            mode="one_step",
        )
        assert not payload["committed"]
        assert payload["before"]["longest_delay_hex"] == before["longest_delay_hex"]
        # Session state untouched: the baseline answer is unchanged.
        assert client.analyze(sid, mode="one_step") == before

    def test_whatif_bad_edit_cheap_reject(self, client, sid):
        for edit in (
            {"action": "respace", "nets": []},
            # JSON true decodes to a bool, which Python counts as an int.
            {"action": "respace", "nets": ["G15"], "guard_tracks": True},
            {"action": "upsize", "nets": ["G15"], "steps": True},
        ):
            with pytest.raises(ServiceCallError) as exc:
                client.whatif(sid, edit)
            assert exc.value.code == ERR_INPUT, edit

    def test_whatif_commit_swaps_design(self, client):
        sid = client.open_session("s27")["session"]
        report = client.net_report(sid, mode="one_step", top=1)
        victim = report["nets"][0]["net"]
        neighbour = next(
            iter(client.query_net(sid, victim, mode="one_step")["couplings"])
        )
        payload = client.whatif(
            sid,
            {"action": "drop_coupling", "net": victim, "neighbour": neighbour},
            mode="one_step",
            commit=True,
        )
        assert payload["committed"]
        # The committed result *is* the session's answer now.
        after = client.analyze(sid, mode="one_step")
        assert after["longest_delay_hex"] == payload["after"]["longest_delay_hex"]
        assert neighbour not in client.query_net(sid, victim, mode="one_step")["couplings"]
        client.close_session(sid)

    def test_unknown_method(self, client):
        with pytest.raises(ServiceCallError) as exc:
            client.call("bogus")
        assert exc.value.code == ERR_UNKNOWN_METHOD

    def test_metrics_exposes_service_series(self, client, sid):
        snapshot = client.metrics()
        assert any(
            key.startswith("service.requests") for key in snapshot["counters"]
        )
        assert "service.sessions" in snapshot["gauges"]

    def test_close_session(self, client):
        sid = client.open_session("s27")["session"]
        stats = client.close_session(sid)
        assert stats["session"] == sid
        with pytest.raises(ServiceCallError) as exc:
            client.analyze(sid)
        assert exc.value.code == ERR_UNKNOWN_SESSION


class TestSessionCheckpoints:
    def test_checkpoint_written_and_dropped_on_commit(self, tmp_path):
        manager = SessionManager(
            config=StaConfig(mode=AnalysisMode.ITERATIVE),
            checkpoint_dir=str(tmp_path),
        )
        session = manager.open("s27")
        assert session.checkpoint_path is not None
        session.analyze()
        assert os.path.exists(session.checkpoint_path)
        victim = next(
            net for net, load in session.design.loads.items() if load.couplings
        )
        neighbour = next(iter(session.design.loads[victim].couplings))
        stale = session.checkpoint_path
        session.whatif(
            {"action": "drop_coupling", "net": victim, "neighbour": neighbour},
            commit=True,
        )
        assert session.checkpoint_path is None
        assert not os.path.exists(stale)

    def test_checkpointed_session_whatif_runs_warm(self, tmp_path):
        """A checkpoint path names a file, not an analysis: the what-if
        of a session that writes checkpoints reuses its warm memo like
        any other session's."""
        edit = None
        dirty = []
        for checkpoint_dir in (None, str(tmp_path)):
            manager = SessionManager(
                config=StaConfig(mode=AnalysisMode.ITERATIVE),
                checkpoint_dir=checkpoint_dir,
            )
            session = manager.open("gen:s35932", scale=0.01)
            assert (session.checkpoint_path is None) == (checkpoint_dir is None)
            session.analyze()
            if edit is None:
                net = session.exposures()[0].net
                neighbour = next(iter(session.design.loads[net].couplings))
                edit = {"action": "drop_coupling", "net": net, "neighbour": neighbour}
            dirty.append(session.whatif(edit)["after"]["dirty_arcs"])
        assert dirty[1] == dirty[0]

    def test_checkpoint_keyed_by_design(self, tmp_path):
        manager = SessionManager(
            config=StaConfig(mode=AnalysisMode.ITERATIVE),
            checkpoint_dir=str(tmp_path),
        )
        a = manager.open("s27")
        b = manager.open("gen:s35932", scale=0.01)
        assert a.checkpoint_path != b.checkpoint_path


class TestExecutor:
    def test_backpressure_rejects_with_retry_after(self):
        executor = RequestExecutor(workers=1, queue_limit=0)
        release = threading.Event()

        async def scenario():
            first = asyncio.ensure_future(
                executor.submit(lambda: release.wait(5), method="slow")
            )
            await asyncio.sleep(0.05)  # let the worker occupy its slot
            with pytest.raises(ServiceError) as exc:
                await executor.submit(lambda: None, method="fast")
            assert exc.value.code == ERR_BUSY
            assert exc.value.data["retry_after"] > 0
            release.set()
            await first

        asyncio.run(scenario())
        assert executor.pending == 0
        executor.shutdown()

    def test_deadline_answers_without_cancelling(self):
        executor = RequestExecutor(workers=1, queue_limit=0)
        finished = threading.Event()

        def slow():
            time.sleep(0.3)
            finished.set()

        async def scenario():
            with pytest.raises(ServiceError) as exc:
                await executor.submit(slow, method="slow", deadline=0.05)
            assert exc.value.code == ERR_DEADLINE
            # The thread was not killed; while the loop is still alive it
            # finishes and frees its slot.
            deadline = time.monotonic() + 2.0
            while executor.pending and time.monotonic() < deadline:
                await asyncio.sleep(0.01)

        asyncio.run(scenario())
        assert finished.wait(2.0)
        assert executor.pending == 0
        executor.shutdown()

    def test_run_sync_admission(self):
        executor = RequestExecutor(workers=1, queue_limit=0)
        assert executor.run_sync(lambda: 41 + 1) == 42
        assert executor.pending == 0
        executor.shutdown()


def pipeline_half_closed(address: str, methods: list[str]) -> list[dict]:
    """Send one request per method (ids 1, 2, ...) on one raw TCP
    connection, half-close it, and read answers until the server closes."""
    host, _, port = address.rpartition(":")
    with socket.create_connection((host, int(port)), timeout=30) as sock:
        sock.sendall(
            b"".join(encode_request(i, m) for i, m in enumerate(methods, 1))
        )
        sock.shutdown(socket.SHUT_WR)
        data = b""
        while chunk := sock.recv(65536):
            data += chunk
    return [json.loads(line) for line in data.splitlines()]


def _start_server(service):
    server = TimingServer(service, host="127.0.0.1", port=0)
    ready = threading.Event()

    def run():
        async def main():
            await server.start()
            ready.set()
            await server.serve_until_shutdown()

        asyncio.run(main())

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert ready.wait(10)
    return server, thread


class TestSocketServer:
    def test_full_session_over_tcp(self):
        service = TimingService(config=ONE_STEP, workers=2, queue_limit=4)
        server, thread = _start_server(service)
        with ServiceClient(server.address) as client:
            assert client.ping()["protocol"] == PROTOCOL_VERSION
            sid = client.open_session("s27")["session"]
            analysis = client.analyze(sid, mode="one_step")
            assert analysis["longest_delay"] > 0
            report = client.net_report(sid, mode="one_step", top=3)
            assert validate_net_report(report) == []
            victim = report["nets"][0]["net"]
            payload = client.whatif(
                sid,
                {"action": "respace", "nets": [victim], "guard_tracks": 1},
                mode="one_step",
            )
            assert payload["after"]["longest_delay_hex"]
            with pytest.raises(ServiceCallError) as exc:
                client.analyze("nope")
            assert exc.value.code == ERR_UNKNOWN_SESSION
            assert client.shutdown()["stopping"]
        thread.join(20)
        assert not thread.is_alive()
        with pytest.raises(OSError):
            ServiceClient(server.address, timeout=2.0)

    def test_unix_socket(self, tmp_path):
        service = TimingService(config=ONE_STEP, workers=1, queue_limit=2)
        path = str(tmp_path / "svc.sock")
        server = TimingServer(service, socket_path=path)
        ready = threading.Event()

        def run():
            async def main():
                await server.start()
                ready.set()
                await server.serve_until_shutdown()

            asyncio.run(main())

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        assert ready.wait(10)
        with ServiceClient(f"unix:{path}") as client:
            assert client.ping()["protocol"] == PROTOCOL_VERSION
            client.shutdown()
        thread.join(20)
        assert not thread.is_alive()

    def test_malformed_line_answered_not_disconnected(self):
        service = TimingService(config=ONE_STEP, workers=1, queue_limit=2)
        server, thread = _start_server(service)
        client = ServiceClient(server.address)
        try:
            client._file.write(b"this is not json\n")
            client._file.flush()
            line = client._file.readline()
            with pytest.raises(ServiceCallError) as exc:
                decode_response(line)
            assert exc.value.code == ERR_BAD_REQUEST
            # The connection survived the bad line.
            assert client.ping()["protocol"] == PROTOCOL_VERSION
            client.shutdown()
        finally:
            client.close()
        thread.join(20)

    def test_concurrent_overload_never_drops_silently(self):
        # 1 worker, no queue: most of a concurrent burst must be rejected
        # -- and every rejection must carry retry_after.
        service = TimingService(config=ONE_STEP, workers=1, queue_limit=0)
        server, thread = _start_server(service)
        results, errors = [], []

        def hammer():
            try:
                with ServiceClient(server.address) as c:
                    sid = c.open_session("s27")["session"]
                    results.append(c.analyze(sid, mode="iterative", force=True))
            except ServiceCallError as exc:
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
        assert results  # some made it through
        for exc in errors:
            assert exc.code == ERR_BUSY
            assert exc.retry_after is not None and exc.retry_after > 0
        with ServiceClient(server.address) as c:
            c.call_with_retry("shutdown")
        thread.join(20)

    def test_half_closed_client_gets_every_answer(self):
        """A client may pipeline its requests and half-close: every
        request read before end of input is answered before the server
        closes the connection."""
        service = TimingService(config=ONE_STEP, workers=1, queue_limit=8)
        server, thread = _start_server(service)
        try:
            answers = pipeline_half_closed(
                server.address, ["ping", "list_sessions", "ping", "stats"]
            )
            assert sorted(answer["id"] for answer in answers) == [1, 2, 3, 4]
            assert all("result" in answer for answer in answers)
        finally:
            with ServiceClient(server.address) as client:
                client.shutdown()
            thread.join(20)
        assert not thread.is_alive()

    def test_stop_answers_requests_in_flight(self):
        """Stopping the front end stops listening, lets the requests in
        flight answer, and only then closes their connections."""
        from repro.service.frontend import LineServer

        async def scenario():
            started, release = asyncio.Event(), asyncio.Event()

            async def echo_when_released(line: bytes) -> bytes:
                started.set()
                await release.wait()
                return line

            front = LineServer(echo_when_released)
            port = await front.listen("127.0.0.1", 0)
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(b'{"id": 1}\n')
            await writer.drain()
            await asyncio.wait_for(started.wait(), 10.0)
            closing = asyncio.create_task(front.close(drain_timeout=10.0))
            await asyncio.sleep(0.05)
            draining = not closing.done()
            with pytest.raises(OSError):
                await asyncio.open_connection("127.0.0.1", port)
            release.set()
            await asyncio.wait_for(closing, 10.0)
            answer = await asyncio.wait_for(reader.read(), 10.0)
            writer.close()
            return draining, answer

        draining, answer = asyncio.run(scenario())
        assert draining
        assert answer == b'{"id": 1}\n'

    def test_closed_connections_are_released(self):
        service = TimingService(config=ONE_STEP, workers=1, queue_limit=2)
        server, thread = _start_server(service)
        try:
            for _ in range(20):
                with ServiceClient(server.address) as client:
                    client.ping()
            deadline = time.monotonic() + 10.0
            while server.frontend.connections and time.monotonic() < deadline:
                time.sleep(0.01)
            assert server.frontend.connections == 0
        finally:
            with ServiceClient(server.address) as client:
                client.shutdown()
            thread.join(20)
        assert not thread.is_alive()
