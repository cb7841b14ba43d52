"""Tests for the sharded service fleet: placement ring, handoff
payloads, session restore, client backoff, signal shutdown, and
chaos/failover equivalence."""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.errors import CheckpointError, InputError
from repro.service import (
    ERR_BUSY,
    ERR_INTERNAL,
    FLEET_PROTOCOL_VERSION,
    FleetOptions,
    FleetRuntime,
    InProcessClient,
    ServiceCallError,
    ServiceClient,
    ServiceTransportError,
    SessionManager,
    TimingService,
    backoff_delay,
    decode_handoff,
    encode_handoff,
    loads_handoff,
)
from repro.service.client import _CallSurface
from repro.service.fleet import HashRing, placement_key
from repro.testing.faults import corrupt_handoff, drop_links, hang_shard
from tests.test_service import pipeline_half_closed

ONE_STEP = {"mode": "one_step"}
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _victim_net(client, sid: str) -> str:
    return client.net_report(sid, top=1)["nets"][0]["net"]


def _respace(net: str) -> dict:
    return {"action": "respace", "nets": [net], "guard_tracks": 1}


class TestHashRing:
    def test_placement_is_deterministic(self):
        a, b = HashRing(), HashRing()
        for index in range(4):
            a.add(index)
            b.add(index)
        keys = [placement_key("s27", 0.05 + i * 0.01) for i in range(20)]
        assert [a.owner(k) for k in keys] == [b.owner(k) for k in keys]

    def test_dead_shard_moves_only_its_keys(self):
        ring = HashRing()
        for index in range(4):
            ring.add(index)
        keys = [placement_key("s27", 0.05 + i * 0.003) for i in range(50)]
        before = {k: ring.owner(k) for k in keys}
        dead = before[keys[0]]
        after = {k: ring.owner(k, alive={0, 1, 2, 3} - {dead}) for k in keys}
        for key in keys:
            if before[key] != dead:
                assert after[key] == before[key]  # unaffected keys stay put
            else:
                assert after[key] != dead

    def test_no_alive_shard_returns_none(self):
        ring = HashRing()
        ring.add(0)
        assert ring.owner("k", alive=set()) is None
        assert HashRing().owner("k") is None

    def test_scales_spread_across_shards(self):
        ring = HashRing()
        for index in range(4):
            ring.add(index)
        owners = {
            ring.owner(placement_key("s27", 0.05 + i * 0.01)) for i in range(16)
        }
        assert len(owners) >= 2


class TestHandoffPayloads:
    def test_roundtrip(self):
        payload = encode_handoff(
            "abc123", "s27", 0.05, {"mode": "one_step"},
            [{"action": "respace", "nets": ["G15"], "guard_tracks": 1}],
        )
        body = decode_handoff(payload)
        assert body["session"] == "abc123"
        assert body["spec"] == "s27"
        assert body["scale"] == 0.05  # bit-exact through float.hex
        assert body["edits"][0]["nets"] == ["G15"]

    def test_truncated_payload_raises_taxonomy_error(self):
        payload = encode_handoff("abc", "s27", 0.05, None, [])
        for damage in (
            {},  # everything gone
            {"body": payload["body"]},  # checksum torn off
            {"checksum": payload["checksum"]},  # body torn off
        ):
            with pytest.raises(CheckpointError):
                decode_handoff(damage)

    def test_truncated_body_raises(self):
        payload = encode_handoff("abc", "s27", 0.05, None, [])
        body = dict(payload["body"])
        del body["edits"]
        # Even with a recomputed-looking checksum, missing keys reject.
        with pytest.raises(CheckpointError):
            decode_handoff({"body": body, "checksum": payload["checksum"]})

    def test_checksum_corruption_raises(self):
        payload = encode_handoff("abc", "s27", 0.05, None, [])
        bad = dict(payload)
        head = bad["checksum"][0]
        bad["checksum"] = ("0" if head != "0" else "1") + bad["checksum"][1:]
        with pytest.raises(CheckpointError):
            decode_handoff(bad)

    def test_body_tamper_raises(self):
        payload = encode_handoff("abc", "s27", 0.05, None, [])
        bad = json.loads(json.dumps(payload))
        bad["body"]["spec"] = "s1196"  # checksum no longer matches
        with pytest.raises(CheckpointError):
            decode_handoff(bad)

    def test_torn_json_text_raises(self):
        payload = encode_handoff("abc", "s27", 0.05, None, [])
        text = json.dumps(payload)
        with pytest.raises(CheckpointError):
            loads_handoff(text[: len(text) // 2])

    def test_unknown_format_raises(self):
        payload = encode_handoff("abc", "s27", 0.05, None, [])
        body = dict(payload["body"], format=99)
        from repro.service.handoff import _body_checksum

        with pytest.raises(CheckpointError):
            decode_handoff({"body": body, "checksum": _body_checksum(body)})


class TestSessionRestore:
    def test_restore_replays_edits_bit_identical(self):
        donor = SessionManager(max_sessions=4)
        session = donor.open("s27", scale=0.05, config=ONE_STEP)
        result = session.analyze()
        victim = next(
            net for net, load in session.design.loads.items() if load.couplings
        )
        session.whatif(_respace(victim), commit=True)
        committed = session.analyze()
        payload = session.handoff()

        recipient = SessionManager(max_sessions=4)
        restored = recipient.restore(decode_handoff(payload))
        assert restored.session_id == session.session_id
        assert restored.committed_edits == session.committed_edits
        assert (
            float(restored.analyze().longest_delay).hex()
            == float(committed.longest_delay).hex()
        )
        assert float(committed.longest_delay).hex() != float(
            result.longest_delay
        ).hex()

    def test_commit_with_explicit_mode_keeps_session_mode(self):
        """A what-if committed under another mode changes the design, not
        the session's default mode, so the live session and its restored
        replacement answer a mode-less analyze alike."""
        donor = SessionManager(max_sessions=4)
        session = donor.open("s27", scale=0.05, config=ONE_STEP)
        net, neighbour, _ = max(
            (
                (name, other, cap)
                for name, load in session.design.loads.items()
                for other, cap in load.couplings.items()
            ),
            key=lambda pair: pair[2],
        )
        edit = {"action": "drop_coupling", "net": net, "neighbour": neighbour}
        session.whatif(edit, mode="worst_case", commit=True)
        assert session.info()["mode"] == "one_step"

        restored = SessionManager(max_sessions=4).restore(
            decode_handoff(session.handoff())
        )
        live = session.analyze()
        assert live.mode.value == "one_step"
        assert (
            float(live.longest_delay).hex()
            == float(restored.analyze().longest_delay).hex()
        )

    def test_corrupt_import_leaves_live_session_usable(self):
        service = TimingService(workers=2, queue_limit=4)
        try:
            with InProcessClient(service) as client:
                sid = client.open_session("s27", config=ONE_STEP)["session"]
                baseline = client.analyze(sid)["longest_delay_hex"]
                payload = client.export_session(sid)
                for damage in ("truncate", "checksum", "torn"):
                    bad = json.loads(json.dumps(payload))
                    if damage == "truncate":
                        del bad["body"]["edits"]
                    elif damage == "checksum":
                        head = bad["checksum"][0]
                        bad["checksum"] = (
                            ("0" if head != "0" else "1") + bad["checksum"][1:]
                        )
                    else:
                        bad = {"body": bad["body"]}
                    with pytest.raises(ServiceCallError) as exc:
                        client.import_session(bad)
                    assert exc.value.code == ERR_INTERNAL
                    assert exc.value.data["exception"] == "CheckpointError"
                    # Never half-restored: the live session still answers,
                    # and the registry did not change shape.
                    assert client.list_sessions() == [sid]
                    assert client.analyze(sid)["longest_delay_hex"] == baseline
        finally:
            service.close()

    def test_failed_restore_never_replaces_live_session(self):
        manager = SessionManager(max_sessions=4)
        session = manager.open("s27", scale=0.05, config=ONE_STEP)
        baseline = session.analyze().longest_delay
        payload = encode_handoff(
            session.session_id, "s27", 0.05, ONE_STEP,
            [{"action": "respace", "nets": ["NO_SUCH_NET"]}],
        )
        with pytest.raises(InputError):
            manager.restore(decode_handoff(payload))
        assert manager.get(session.session_id) is session
        assert session.analyze().longest_delay == baseline

    def test_valid_import_roundtrip_over_service(self):
        service = TimingService(workers=2, queue_limit=4)
        try:
            with InProcessClient(service) as client:
                sid = client.open_session("s27", config=ONE_STEP)["session"]
                baseline = client.analyze(sid)["longest_delay_hex"]
                payload = client.export_session(sid)
                client.close_session(sid)
                info = client.import_session(payload)
                assert info["session"] == sid
                assert info["restored_edits"] == 0
                assert client.analyze(sid)["longest_delay_hex"] == baseline
        finally:
            service.close()


class _ScriptedClient(_CallSurface):
    """Raises a scripted sequence of exceptions, then succeeds."""

    def __init__(self, failures, reconnectable=True):
        self.failures = list(failures)
        self.reconnectable = reconnectable
        self.calls = 0
        self.reconnects = 0

    def call(self, method, params=None):
        self.calls += 1
        if self.failures:
            raise self.failures.pop(0)
        return {"ok": True}

    def _reconnect(self):
        self.reconnects += 1
        return self.reconnectable


def _busy(retry_after: float) -> ServiceCallError:
    return ServiceCallError(ERR_BUSY, "busy", "full", {"retry_after": retry_after})


class TestClientBackoff:
    def test_backoff_delay_honours_floor_and_cap(self):
        rng = random.Random(7)
        for attempt in range(12):
            delay = backoff_delay(attempt, floor=0.4, base=0.1, cap=2.0, rng=rng)
            assert 0.4 <= delay <= 2.0

    def test_backoff_delay_ceiling_grows_exponentially(self):
        # With a maximal draw the ceiling doubles per attempt until cap.
        class MaxRng:
            def uniform(self, lo, hi):
                return hi

        rng = MaxRng()
        delays = [
            backoff_delay(a, base=0.1, cap=100.0, rng=rng) for a in range(5)
        ]
        assert delays == [0.1, 0.2, 0.4, 0.8, 1.6]
        assert backoff_delay(30, base=0.1, cap=5.0, rng=rng) == 5.0

    def test_retry_sleeps_at_least_retry_after(self, monkeypatch):
        sleeps: list[float] = []
        monkeypatch.setattr(time, "sleep", sleeps.append)
        client = _ScriptedClient([_busy(0.7), _busy(0.7), _busy(0.7)])
        result = client.call_with_retry("analyze", rng=random.Random(3))
        assert result == {"ok": True}
        assert len(sleeps) == 3
        assert all(delay >= 0.7 for delay in sleeps)

    def test_retry_gives_up_after_max_retries(self, monkeypatch):
        monkeypatch.setattr(time, "sleep", lambda _s: None)
        client = _ScriptedClient([_busy(0.1)] * 10)
        with pytest.raises(ServiceCallError) as exc:
            client.call_with_retry("analyze", max_retries=2, rng=random.Random(0))
        assert exc.value.code == ERR_BUSY
        assert client.calls == 3

    def test_retry_respects_max_wait(self, monkeypatch):
        monkeypatch.setattr(time, "sleep", lambda _s: None)
        client = _ScriptedClient([_busy(10.0)] * 10)
        with pytest.raises(ServiceCallError):
            client.call_with_retry("analyze", max_wait=15.0, rng=random.Random(0))
        assert client.calls <= 3  # 10s floor per retry burns 15s fast

    def test_transport_failure_reconnects_and_retries(self, monkeypatch):
        monkeypatch.setattr(time, "sleep", lambda _s: None)
        client = _ScriptedClient([ServiceTransportError("reset")])
        assert client.call_with_retry("ping", rng=random.Random(0)) == {"ok": True}
        assert client.reconnects == 1

    def test_transport_failure_without_reconnect_raises(self, monkeypatch):
        monkeypatch.setattr(time, "sleep", lambda _s: None)
        client = _ScriptedClient(
            [ServiceTransportError("reset")], reconnectable=False
        )
        with pytest.raises(ServiceTransportError):
            client.call_with_retry("ping", rng=random.Random(0))

    def test_non_busy_errors_are_not_retried(self, monkeypatch):
        monkeypatch.setattr(time, "sleep", lambda _s: None)
        client = _ScriptedClient(
            [ServiceCallError(ERR_INTERNAL, "internal_fault", "boom")]
        )
        with pytest.raises(ServiceCallError):
            client.call_with_retry("analyze")
        assert client.calls == 1


def _spawn_server(*extra_args: str) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0", *extra_args],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        env=env,
        cwd=REPO_ROOT,
    )


class TestSignalShutdown:
    @pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT])
    def test_signal_takes_drain_path_and_exits_zero(self, signum):
        process = _spawn_server()
        try:
            ready = process.stdout.readline()
            assert "listening on" in ready
            process.send_signal(signum)
            process.wait(30)
            rest = process.stdout.read()
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(10)
        # Exit code 0: the signal took the same drain-then-close path a
        # clean shutdown RPC takes, not a traceback death.
        assert process.returncode == 0
        assert "server stopped" in rest


def _fleet(tmp_path, shards=2, supervise=False, **kwargs):
    options = FleetOptions(
        shards=shards,
        workers=2,
        queue_limit=8,
        checkpoint_dir=str(tmp_path / "ckpt"),
    )
    return FleetRuntime(
        options,
        access_log=str(tmp_path / "router_access.log"),
        supervise=supervise,
        **kwargs,
    )


def _events(runtime) -> list[dict]:
    with open(runtime.access_log) as handle:
        return [
            json.loads(line) for line in handle if '"event"' in line
        ]


class TestFleetBasics:
    def test_ping_stats_and_unknown_session(self, tmp_path):
        with _fleet(tmp_path, shards=2).start() as runtime:
            with ServiceClient(runtime.address) as client:
                pong = client.ping()
                assert pong["protocol"] == FLEET_PROTOCOL_VERSION
                assert pong["alive"] == [0, 1]
                stats = client.stats()
                assert stats["fleet"]["shards"] == 2
                assert len(stats["shards"]) == 2
                assert all(row["alive"] for row in stats["shards"])
                assert {"queue_depth", "capacity", "in_flight"} <= set(
                    stats["shards"][0]
                )
                with pytest.raises(ServiceCallError) as exc:
                    client.analyze("nope")
                assert exc.value.kind == "unknown_session"

    def test_sessions_route_and_answer(self, tmp_path):
        with _fleet(tmp_path, shards=2).start() as runtime:
            with ServiceClient(runtime.address) as client:
                opened = client.open_session("s27", config=ONE_STEP)
                assert opened["fleet_protocol"] == FLEET_PROTOCOL_VERSION
                assert opened["shard"] in (0, 1)
                sid = opened["session"]
                assert client.analyze(sid)["longest_delay"] > 0
                assert sid in client.list_sessions()
                assert client.close_session(sid)["session"] == sid
                assert client.list_sessions() == []

    def test_half_closed_client_gets_every_answer(self, tmp_path):
        """The router shares the shard server's front end: pipelined
        requests from a half-closed client are all answered, and the
        closed connection is released."""
        with _fleet(tmp_path, shards=1).start() as runtime:
            answers = pipeline_half_closed(
                runtime.address, ["ping", "list_sessions", "stats", "ping"]
            )
            assert sorted(answer["id"] for answer in answers) == [1, 2, 3, 4]
            assert all("result" in answer for answer in answers)
            deadline = time.monotonic() + 10.0
            while runtime.router.frontend.connections and time.monotonic() < deadline:
                time.sleep(0.01)
            assert runtime.router.frontend.connections == 0


class TestFleetFailover:
    def test_killed_shard_fails_over_bit_identical(self, tmp_path):
        # Reference: the identical query stream on one undisturbed server.
        service = TimingService(workers=2, queue_limit=8)
        with InProcessClient(service) as reference:
            ref_sid = reference.open_session("s27", config=ONE_STEP)["session"]
            victim = _victim_net(reference, ref_sid)
            reference.whatif(ref_sid, _respace(victim), commit=True)
            ref_whatif = reference.whatif(
                ref_sid, {"action": "upsize", "nets": [victim], "steps": 1}
            )
        service.close()

        with _fleet(tmp_path, shards=2, supervise=False).start() as runtime:
            with ServiceClient(runtime.address) as client:
                opened = client.open_session("s27", config=ONE_STEP)
                sid, shard = opened["session"], opened["shard"]
                client.whatif(sid, _respace(victim), commit=True)
                runtime.fleet.kill(shard)
                survivor = client.call_with_retry(
                    "whatif",
                    {
                        "session": sid,
                        "edit": {"action": "upsize", "nets": [victim], "steps": 1},
                    },
                    max_retries=12,
                )
                # Chaos equivalence: bit-identical to the undisturbed run.
                assert (
                    survivor["after"]["longest_delay_hex"]
                    == ref_whatif["after"]["longest_delay_hex"]
                )
                assert (
                    survivor["before"]["longest_delay_hex"]
                    == ref_whatif["before"]["longest_delay_hex"]
                )
                router = runtime.router
                assert router.failovers == 1
                events = _events(runtime)
                failovers = [e for e in events if e["event"] == "failover"]
                assert len(failovers) == 1
                assert failovers[0]["session"] == sid
                assert failovers[0]["from_shard"] == shard
                assert failovers[0]["edits_replayed"] == 1

    def test_repair_survives_shard_kill_bit_identical(self, tmp_path):
        """The repair RPC rides failover like any session method, and its
        committed edits land in the router's replication log: a *second*
        kill after the repair replays the repaired design bit-identically."""
        config = {"mode": "one_step", "clock_period": 0.78e-9}
        repair_params = {"target_slack": 0.0, "max_edits": 2, "beam": 2}
        # Reference: the identical repair on one undisturbed server.
        service = TimingService(workers=2, queue_limit=8)
        with InProcessClient(service) as reference:
            ref_sid = reference.open_session("s27", config=config)["session"]
            ref_transcript = reference.repair(ref_sid, **repair_params)
            ref_final = reference.analyze(ref_sid)
        service.close()

        with _fleet(tmp_path, shards=3, supervise=False).start() as runtime:
            with ServiceClient(runtime.address) as client:
                opened = client.open_session("s27", config=config)
                sid, shard = opened["session"], opened["shard"]
                client.analyze(sid)
                runtime.fleet.kill(shard)
                transcript = client.call_with_retry(
                    "repair", {"session": sid, **repair_params}, max_retries=12
                )
                assert runtime.router.failovers == 1
                assert (
                    transcript["final"]["worst_slack_hex"]
                    == ref_transcript["final"]["worst_slack_hex"]
                )
                assert transcript["committed_edits"] == (
                    ref_transcript["committed_edits"]
                )
                # The router's replication log now carries the repair's
                # committed edits: kill the new owner and the replayed
                # session must still be the repaired design.
                record = runtime.router.sessions[sid]
                assert record.edits == transcript["committed_edits"]
                runtime.fleet.kill(record.shard)
                after = client.call_with_retry(
                    "analyze", {"session": sid}, max_retries=12
                )
                assert runtime.router.failovers == 2
                assert (
                    after["worst_slack_hex"] == ref_final["worst_slack_hex"]
                )
                assert (
                    after["longest_delay_hex"] == ref_final["longest_delay_hex"]
                )

    def test_corrupt_handoff_mid_failover_recovers(self, tmp_path):
        with _fleet(tmp_path, shards=2, supervise=False).start() as runtime:
            with ServiceClient(runtime.address) as client:
                opened = client.open_session("s27", config=ONE_STEP)
                sid, shard = opened["session"], opened["shard"]
                baseline = client.analyze(sid)["longest_delay_hex"]
                with corrupt_handoff(runtime.router, mode="bitflip", times=1):
                    runtime.fleet.kill(shard)
                    result = client.call_with_retry(
                        "analyze", {"session": sid}, max_retries=12
                    )
                assert result["longest_delay_hex"] == baseline
                assert runtime.router.handoff_retries == 1
                kinds = {e["event"] for e in _events(runtime)}
                assert {"handoff_retry", "failover"} <= kinds

    def test_link_drop_reroutes_session(self, tmp_path):
        with _fleet(tmp_path, shards=2, supervise=False).start() as runtime:
            with ServiceClient(runtime.address) as client:
                opened = client.open_session("s27", config=ONE_STEP)
                sid, shard = opened["session"], opened["shard"]
                baseline = client.analyze(sid)["longest_delay_hex"]
                with drop_links(runtime.router, [shard]):
                    result = client.call_with_retry(
                        "analyze", {"session": sid}, max_retries=12
                    )
                assert result["longest_delay_hex"] == baseline
                assert runtime.router.failovers == 1
                # The dropped shard's process survived the partition; only
                # the router's view of it changed.
                assert runtime.fleet.shards[shard].alive

    def test_hung_shard_detected_and_failed_over(self, tmp_path):
        runtime = _fleet(
            tmp_path, shards=2, supervise=True,
            probe_interval=0.2, probe_timeout=0.5,
        )
        with runtime.start():
            with ServiceClient(runtime.address) as client:
                opened = client.open_session("s27", config=ONE_STEP)
                sid, shard = opened["session"], opened["shard"]
                baseline = client.analyze(sid)["longest_delay_hex"]
                with hang_shard(runtime.fleet, shard):
                    result = client.call_with_retry(
                        "analyze", {"session": sid},
                        max_retries=12, max_wait=120.0,
                    )
                    assert result["longest_delay_hex"] == baseline
                events = _events(runtime)
                down = [e for e in events if e["event"] == "shard_down"]
                assert any(e["shard"] == shard for e in down)

    def test_dead_shard_restarted_with_backoff_and_reused(self, tmp_path):
        runtime = _fleet(
            tmp_path, shards=2, supervise=True,
            probe_interval=0.2, probe_timeout=0.5,
        )
        with runtime.start():
            with ServiceClient(runtime.address) as client:
                opened = client.open_session("s27", config=ONE_STEP)
                sid, shard = opened["session"], opened["shard"]
                baseline = client.analyze(sid)["longest_delay_hex"]
                runtime.fleet.kill(shard)
                # Wait for the supervisor to notice the death AND bring a
                # replacement up (capped-backoff restart, then mark_up).
                deadline = time.monotonic() + 30.0
                while time.monotonic() < deadline:
                    if (
                        runtime.fleet.shards[shard].restarts >= 1
                        and client.ping()["alive"] == [0, 1]
                    ):
                        break
                    time.sleep(0.2)
                assert client.ping()["alive"] == [0, 1]
                assert runtime.fleet.shards[shard].restarts == 1
                # The restarted shard lost its warm state; the session
                # still answers (replayed on first touch wherever it
                # lands) with the bit-identical result.
                result = client.call_with_retry(
                    "analyze", {"session": sid}, max_retries=12
                )
                assert result["longest_delay_hex"] == baseline

    def test_swarm_with_shard_death_zero_failures(self, tmp_path):
        clients = 6
        queries = 4
        runtime = _fleet(
            tmp_path, shards=2, supervise=True,
            probe_interval=0.2, probe_timeout=0.5,
        )
        with runtime.start():
            errors: list[BaseException] = []
            mismatches: list[str] = []
            started = threading.Barrier(clients + 1, timeout=60)

            def worker(rank: int) -> None:
                try:
                    with ServiceClient(runtime.address) as client:
                        scale = 0.05 + rank * 0.01
                        sid = client.call_with_retry(
                            "open_session",
                            {"netlist": "s27", "scale": scale,
                             "config": ONE_STEP},
                        )["session"]
                        baseline = client.call_with_retry(
                            "analyze", {"session": sid}
                        )["longest_delay_hex"]
                        started.wait()
                        for _ in range(queries):
                            result = client.call_with_retry(
                                "analyze", {"session": sid},
                                max_retries=12, max_wait=120.0,
                            )
                            if result["longest_delay_hex"] != baseline:
                                mismatches.append(sid)
                except BaseException as exc:  # noqa: BLE001 - recorded
                    errors.append(exc)

            threads = [
                threading.Thread(target=worker, args=(rank,))
                for rank in range(clients)
            ]
            for thread in threads:
                thread.start()
            started.wait()
            runtime.fleet.kill(0)
            for thread in threads:
                thread.join(180)
            assert not errors
            assert not mismatches
            assert not any(thread.is_alive() for thread in threads)
