"""Service observability plane: request ids and spans, JSONL access
log, queue-wait histograms, stats RPC, Prometheus exposition, explain
RPC, and per-request trace-export uniqueness under concurrency."""

from __future__ import annotations

import asyncio
import json
import threading

import pytest

from repro.core.explain import validate_explain
from repro.core.modes import AnalysisMode, StaConfig
from repro.obs import Observability, parse_prometheus, render_prometheus
from repro.obs.tracer import read_jsonl
from repro.service import (
    InProcessClient,
    ServiceClient,
    TimingServer,
    TimingService,
)

ONE_STEP = StaConfig(mode=AnalysisMode.ONE_STEP)


def _service(obs: Observability | None = None) -> TimingService:
    return TimingService(config=ONE_STEP, workers=2, queue_limit=4, obs=obs)


def _start_server(service, **server_kwargs):
    server = TimingServer(service, host="127.0.0.1", port=0, **server_kwargs)
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


class TestExplainRpc:
    def test_explain_in_process(self):
        service = _service()
        client = InProcessClient(service)
        try:
            sid = client.open_session("s27")["session"]
            payload = client.explain(sid, paths=2, top=5)
            validate_explain(payload)
            assert payload["session"] == sid
            assert payload["mode"] == "one_step"
            summary = client.analyze(sid)
            assert payload["longest_delay_hex"] == summary["longest_delay_hex"]
        finally:
            service.close()

    def test_explain_respects_mode_param(self):
        service = _service()
        client = InProcessClient(service)
        try:
            sid = client.open_session("s27")["session"]
            payload = client.explain(sid, mode="worst_case")
            validate_explain(payload)
            assert payload["mode"] == "worst_case"
        finally:
            service.close()

    def test_ledger_and_memo_overrides_rejected(self):
        """Every session records the ledger and runs the memo: turning
        either off is an unknown override (422), so explain always has a
        ledger to read."""
        from repro.service import ServiceCallError
        from repro.service.protocol import ERR_INPUT

        service = _service()
        client = InProcessClient(service)
        try:
            for key in ("provenance", "incremental"):
                with pytest.raises(ServiceCallError) as exc:
                    client.open_session("s27", config={key: False})
                assert exc.value.code == ERR_INPUT
                assert f"unknown config override {key!r}" in str(exc.value)
        finally:
            service.close()


class TestStatsRpc:
    def test_stats_reports_sessions_and_executor(self):
        service = _service()
        client = InProcessClient(service)
        try:
            sid = client.open_session("s27")["session"]
            client.analyze(sid)
            stats = client.stats()
            assert stats["executor"]["workers"] == 2
            assert stats["executor"]["capacity"] == 6
            assert len(stats["sessions"]) == 1
            entry = stats["sessions"][0]
            assert entry["session"] == sid
            assert entry["memo_arcs"].get("one_step", 0) > 0
            assert entry["ledger_rows"].get("one_step", 0) > 0
            assert "arc_cache" in entry
            assert stats["uptime_seconds"] >= 0
        finally:
            service.close()

    def test_stats_does_not_disturb_lru_order(self):
        service = TimingService(config=ONE_STEP, max_sessions=2, workers=2)
        client = InProcessClient(service)
        try:
            first = client.open_session("s27")["session"]
            second = client.open_session("s27")["session"]
            client.stats()
            third = client.open_session("s27")["session"]
            ids = client.list_sessions()
            assert first not in ids  # LRU evicted the oldest, not a stats victim
            assert {second, third} <= set(ids)
        finally:
            service.close()


class TestMetricsRpc:
    def test_prometheus_exposition_parses(self):
        service = _service()
        client = InProcessClient(service)
        try:
            sid = client.open_session("s27")["session"]
            client.analyze(sid)
            text = client.metrics_text()
            parsed = parse_prometheus(text)
            names = {s["name"] for s in parsed["samples"]}
            assert "service_requests" in names
            assert "service_latency_seconds_bucket" in names
            assert "service_queue_wait_seconds_bucket" in names
            assert parsed["types"]["service_latency_seconds"] == "histogram"
        finally:
            service.close()

    def test_json_format_still_default(self):
        service = _service()
        client = InProcessClient(service)
        try:
            snapshot = client.metrics()
            assert set(snapshot) == {"counters", "gauges", "histograms"}
        finally:
            service.close()

    def test_unknown_format_rejected(self):
        service = _service()
        client = InProcessClient(service)
        try:
            from repro.service import ServiceCallError

            with pytest.raises(ServiceCallError):
                client.call("metrics", {"format": "xml"})
        finally:
            service.close()

    def test_queue_wait_histogram_recorded_per_method(self):
        service = _service()
        client = InProcessClient(service)
        try:
            client.ping()
            snapshot = service.obs.metrics.snapshot()
            key = "service.queue_wait_seconds{method=ping}"
            assert snapshot["histograms"][key]["count"] >= 1
        finally:
            service.close()


class TestRenderParseRoundtrip:
    def test_counter_gauge_histogram(self):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        registry.counter("a.count", method="x").inc(3)
        registry.gauge("b.depth").set(7)
        hist = registry.histogram("c.seconds", boundaries=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(5.0)
        text = render_prometheus(registry.snapshot())
        parsed = parse_prometheus(text)
        samples = {
            (s["name"], tuple(sorted(s["labels"].items()))): s["value"]
            for s in parsed["samples"]
        }
        assert samples[("a_count", (("method", "x"),))] == 3
        assert samples[("b_depth", ())] == 7
        assert samples[("c_seconds_count", ())] == 2
        assert samples[("c_seconds_bucket", (("le", "+Inf"),))] == 2
        assert samples[("c_seconds_bucket", (("le", "0.1"),))] == 1

    def test_parser_rejects_noncumulative_histogram(self):
        text = (
            "# TYPE h histogram\n"
            'h_bucket{le="1"} 5\n'
            'h_bucket{le="+Inf"} 3\n'
            "h_count 3\n"
        )
        with pytest.raises(ValueError):
            parse_prometheus(text)

    def test_parser_rejects_missing_inf(self):
        text = "# TYPE h histogram\n" 'h_bucket{le="1"} 5\n' "h_count 5\n"
        with pytest.raises(ValueError):
            parse_prometheus(text)

    def test_parser_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_prometheus("!!! not a metric line\n")

    def test_name_sanitization(self):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        registry.counter("sta.run/total", design="s27.bench").inc()
        parsed = parse_prometheus(render_prometheus(registry.snapshot()))
        assert parsed["samples"][0]["name"] == "sta_run_total"
        assert parsed["samples"][0]["labels"] == {"design": "s27.bench"}


class TestAccessLog:
    def test_jsonl_records_over_tcp(self, tmp_path):
        log_path = str(tmp_path / "access.jsonl")
        service = _service()
        server, thread = _start_server(service, access_log=log_path)
        try:
            with ServiceClient(server.address, timeout=60) as client:
                sid = client.open_session("s27")["session"]
                client.analyze(sid)
                client.call("nonsense_method_name", {})
        except Exception:
            pass
        finally:
            with ServiceClient(server.address, timeout=30) as admin:
                admin.shutdown()
            thread.join(timeout=30)
        records = [
            json.loads(line)
            for line in open(log_path)
            if line.strip()
        ]
        by_method = {r["method"]: r for r in records}
        assert by_method["open_session"]["outcome"] == "ok"
        analyze = by_method["analyze"]
        assert analyze["outcome"] == "ok"
        assert analyze["session"] == sid
        assert analyze["queue_wait_s"] >= 0
        assert analyze["solve_s"] > 0
        assert analyze["request_id"].startswith("req-")
        bad = by_method["nonsense_method_name"]
        assert bad["outcome"] == "error"
        assert bad["code"] == 405
        assert len({r["request_id"] for r in records}) == len(records)


class TestPerRequestTraces:
    def test_two_pipelined_clients_get_disjoint_trace_files(self, tmp_path):
        """Two concurrent clients; every request gets its own span file,
        no interleaving or clobbering between them."""
        trace_dir = tmp_path / "traces"
        service = _service(obs=Observability.tracing())
        server, thread = _start_server(service, trace_dir=str(trace_dir))
        sids: dict[str, str] = {}
        errors: list[Exception] = []

        def drive(tag: str, mode: str):
            try:
                with ServiceClient(server.address, timeout=120) as client:
                    sid = client.open_session("s27")["session"]
                    sids[tag] = sid
                    client.analyze(sid, mode=mode)
                    client.query_path(sid, mode=mode)
            except Exception as exc:  # surfaces in the main thread
                errors.append(exc)

        try:
            threads = [
                threading.Thread(target=drive, args=("a", "one_step")),
                threading.Thread(target=drive, args=("b", "best_case")),
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            with ServiceClient(server.address, timeout=30) as admin:
                admin.shutdown()
            thread.join(timeout=30)
        assert not errors
        files = sorted(trace_dir.glob("req-*.jsonl"))
        assert len(files) >= 6  # 2 clients x (open/analyze/query_path)
        seen_span_ids: set[int] = set()
        for path in files:
            events = read_jsonl(str(path))
            assert events, f"{path.name} is empty"
            rid = path.stem
            roots = [
                e
                for e in events
                if e.get("args", {}).get("request_id") == rid
            ]
            assert len(roots) == 1, f"{path.name}: exactly one request root"
            assert roots[0]["name"] == "service.request"
            ids = {e["span_id"] for e in events}
            # Every non-root span's parent is inside the same file: the
            # subtree is complete and self-contained.
            for event in events:
                if event is not roots[0] and event.get("parent_id") is not None:
                    assert event["parent_id"] in ids
            # Disjointness: a span never leaks into another request's file.
            assert not (ids & seen_span_ids), f"{path.name} shares spans"
            seen_span_ids |= ids

    def test_analysis_spans_nest_under_request(self, tmp_path):
        trace_dir = tmp_path / "traces"
        service = _service(obs=Observability.tracing())
        server, thread = _start_server(service, trace_dir=str(trace_dir))
        try:
            with ServiceClient(server.address, timeout=120) as client:
                sid = client.open_session("s27")["session"]
                client.analyze(sid)
        finally:
            with ServiceClient(server.address, timeout=30) as admin:
                admin.shutdown()
            thread.join(timeout=30)
        analyzed = None
        for path in trace_dir.glob("req-*.jsonl"):
            events = read_jsonl(str(path))
            names = {e["name"] for e in events}
            if "sta.run" in names:
                analyzed = events
        assert analyzed is not None, "analyze request should carry sta.run spans"
