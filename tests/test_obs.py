"""Tests for the observability subsystem (repro.obs)."""

from __future__ import annotations

import json

import pytest

from repro.core.analyzer import CrosstalkSTA
from repro.core.modes import AnalysisMode, StaConfig
from repro.obs import (
    NULL_SPAN,
    NULL_TRACER,
    MetricsRegistry,
    Observability,
    Tracer,
    diff_snapshots,
    metrics_payload,
    read_jsonl,
    series_key,
    validate_chrome_trace,
    validate_metrics_payload,
    validate_snapshot,
)


class TestNullTracer:
    def test_disabled_flag(self):
        assert not NULL_TRACER.enabled
        assert Tracer().enabled

    def test_span_is_the_shared_noop_singleton(self):
        span = NULL_TRACER.span("anything", key="value")
        assert span is NULL_SPAN
        with span as inner:
            assert inner is NULL_SPAN
            assert inner.set(more=1) is NULL_SPAN

    def test_records_nothing(self):
        with NULL_TRACER.span("a"):
            with NULL_TRACER.span("b"):
                NULL_TRACER.instant("c")
        assert NULL_TRACER.events == []

    def test_exceptions_propagate(self):
        with pytest.raises(RuntimeError):
            with NULL_TRACER.span("a"):
                raise RuntimeError("boom")


class TestTracer:
    def test_span_nesting_assigns_parents(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
            with tracer.span("sibling"):
                pass
        events = {e["name"]: e for e in tracer.events}
        assert events["inner"]["parent_id"] == events["outer"]["span_id"]
        assert events["sibling"]["parent_id"] == events["outer"]["span_id"]
        assert events["outer"]["parent_id"] is None
        # Children close before the parent, so they are recorded first.
        names = [e["name"] for e in tracer.events]
        assert names.index("inner") < names.index("outer")

    def test_attributes_at_open_and_via_set(self):
        tracer = Tracer()
        with tracer.span("work", mode="one_step") as span:
            span.set(arcs=48, waves=3)
        (event,) = tracer.events
        assert event["args"] == {"mode": "one_step", "arcs": 48, "waves": 3}
        assert event["dur"] >= 0.0

    def test_monotonic_timestamps(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        a, b = tracer.events
        assert b["ts"] >= a["ts"] + a["dur"]

    def test_jsonl_round_trip(self, tmp_path):
        tracer = Tracer()
        with tracer.span("outer", design="s27"):
            tracer.instant("marker", level=2)
        path = tmp_path / "events.jsonl"
        written = tracer.write_jsonl(str(path))
        events = read_jsonl(str(path))
        assert written == len(events) == 2
        assert events == tracer.events

    def test_chrome_payload_is_valid(self, tmp_path):
        tracer = Tracer(process_name="unit")
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        assert validate_chrome_trace(tracer.chrome_payload()) == []
        path = tmp_path / "trace.json"
        tracer.write_chrome(str(path))
        assert validate_chrome_trace(json.loads(path.read_text())) == []

    def test_absorb_folds_foreign_events(self):
        a, b = Tracer(), Tracer()
        with b.span("remote"):
            pass
        a.absorb(b.events)
        assert [e["name"] for e in a.events] == ["remote"]


class TestMetrics:
    def test_counter(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits")
        counter.inc()
        counter.inc(3)
        assert counter.value == 4
        assert registry.counter("hits") is counter

    def test_gauge(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("fraction")
        assert gauge.value is None
        gauge.set(0.25)
        assert gauge.value == 0.25

    def test_histogram_bucketing(self):
        registry = MetricsRegistry()
        hist = registry.histogram("iters", boundaries=(10, 20))
        hist.observe_many([5, 10, 15, 25])
        # (-inf,10], (10,20], (20,inf)
        assert hist.bucket_counts == [2, 1, 1]
        assert hist.count == 4
        assert hist.mean == pytest.approx(13.75)
        assert (hist.vmin, hist.vmax) == (5, 25)

    def test_series_key_labels(self):
        assert series_key("x", {}) == "x"
        assert series_key("x", {"b": 1, "a": 2}) == "x{a=2,b=1}"
        registry = MetricsRegistry()
        assert (
            registry.counter("phase_seconds", phase="merge")
            is not registry.counter("phase_seconds", phase="gather")
        )

    def test_kind_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("x")

    def test_snapshot_is_json_safe(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.gauge("g").set(1.5)
        registry.histogram("h", boundaries=(1, 2)).observe(1)
        snapshot = registry.snapshot()
        assert json.loads(json.dumps(snapshot)) == snapshot
        assert validate_snapshot(snapshot) == []

    def test_labeled_worker_merges_roundtrip_through_diff(self):
        # Labeled series recorded on a registry that already has history:
        # the diff across the new work equals exactly its contribution,
        # and is itself a valid snapshot.
        parent = MetricsRegistry()
        parent.counter("rpc", method="analyze").inc(3)
        parent.histogram(
            "lat", boundaries=(0.1, 1.0), method="analyze"
        ).observe(0.05)
        before = parent.snapshot()
        for method, calls, samples in (
            ("analyze", 2, [0.05]),
            ("whatif", 4, [1.5, 0.2]),
        ):
            parent.counter("rpc", method=method).inc(calls)
            parent.histogram(
                "lat", boundaries=(0.1, 1.0), method=method
            ).observe_many(samples)
            parent.gauge("depth", method=method).set(calls)
        delta = diff_snapshots(before, parent.snapshot())
        assert delta["counters"] == {
            "rpc{method=analyze}": 2,
            "rpc{method=whatif}": 4,
        }
        assert delta["gauges"] == {
            "depth{method=analyze}": 2,
            "depth{method=whatif}": 4,
        }
        assert delta["histograms"]["lat{method=analyze}"]["count"] == 1
        # (-inf,0.1], (0.1,1.0], (1.0,inf): 0.2 mid, 1.5 overflow.
        assert delta["histograms"]["lat{method=whatif}"]["counts"] == [0, 1, 1]
        assert validate_snapshot(delta) == []

    def test_diff_snapshots(self):
        registry = MetricsRegistry()
        registry.counter("a").inc(5)
        registry.histogram("h", boundaries=(10,)).observe(3)
        before = registry.snapshot()
        registry.counter("a").inc(2)
        registry.counter("b").inc(1)
        registry.histogram("h", boundaries=(10,)).observe(20)
        registry.gauge("g").set(0.5)
        delta = diff_snapshots(before, registry.snapshot())
        assert delta["counters"] == {"a": 2, "b": 1}
        assert delta["gauges"] == {"g": 0.5}
        assert delta["histograms"]["h"]["count"] == 1
        assert delta["histograms"]["h"]["counts"] == [0, 1]

    def test_diff_drops_untouched_series(self):
        registry = MetricsRegistry()
        registry.counter("quiet").inc(5)
        registry.histogram("h", boundaries=(10,)).observe(3)
        snapshot = registry.snapshot()
        delta = diff_snapshots(snapshot, snapshot)
        assert delta["counters"] == {}
        assert delta["histograms"] == {}


class TestInstrumentedAnalysis:
    @pytest.fixture(scope="class")
    def traced_run(self, s27_design):
        obs = Observability.tracing()
        sta = CrosstalkSTA(s27_design, StaConfig(), obs=obs)
        result = sta.run(AnalysisMode.ONE_STEP)
        return obs, result

    def test_results_identical_with_and_without_tracing(self, s27_design, traced_run):
        _, traced = traced_run
        plain = CrosstalkSTA(s27_design, StaConfig()).run(AnalysisMode.ONE_STEP)
        assert plain.longest_delay == traced.longest_delay
        assert plain.arrival_map() == traced.arrival_map()

    def test_span_hierarchy(self, traced_run):
        obs, _ = traced_run
        names = [e["name"] for e in obs.tracer.events]
        assert "sta.run" in names
        assert "sta.pass" in names
        assert "sta.level" in names
        assert "phase.base_waveforms" in names
        assert validate_chrome_trace(obs.tracer.chrome_payload()) == []

    def test_pass_span_marks_esperance_passes(self, s27_design):
        """``sta.pass`` carries ``esperance=True`` exactly on the passes
        Esperance restricts: every pass after the first."""
        obs = Observability.tracing()
        CrosstalkSTA(s27_design, StaConfig(esperance=True), obs=obs).run()
        flags = [
            e["args"]["esperance"] for e in obs.tracer.events if e["name"] == "sta.pass"
        ]
        assert len(flags) >= 2
        assert flags == [False] + [True] * (len(flags) - 1)

    def test_run_telemetry_attached(self, traced_run):
        obs, result = traced_run
        telemetry = result.telemetry
        assert telemetry is not None
        assert telemetry.mode == "one_step"
        assert telemetry.counter("propagation.passes") == 1
        assert telemetry.counter("arc_cache.evaluations") > 0
        newton = telemetry.histogram("newton.iterations_per_arc")
        assert newton is not None
        assert newton["count"] == telemetry.counter("arc_cache.evaluations")
        assert len(telemetry.passes) == result.passes

    def test_metrics_payload_validates(self, traced_run):
        obs, result = traced_run
        payload = metrics_payload(
            result.design_name, {result.mode.value: result.telemetry}, registry=obs.metrics
        )
        assert validate_metrics_payload(payload) == []

    def test_telemetry_without_tracing(self, s27_design):
        # Metrics are always on; only spans are gated behind the tracer.
        result = CrosstalkSTA(s27_design, StaConfig()).run(AnalysisMode.ONE_STEP)
        assert result.telemetry is not None
        assert result.telemetry.counter("propagation.arcs_processed") > 0

    def test_per_mode_deltas_with_shared_cache(self, s27_design):
        # The calculator is shared across modes; each mode's telemetry must
        # report only its own pass counts, not the cumulative ones.
        sta = CrosstalkSTA(s27_design, StaConfig())
        first = sta.run(AnalysisMode.ONE_STEP)
        second = sta.run(AnalysisMode.ONE_STEP)
        assert first.telemetry.counter("propagation.passes") == 1
        assert second.telemetry.counter("propagation.passes") == 1
        # Second run is served from the warm arc cache.
        assert second.telemetry.counter("arc_cache.evaluations") == 0
        assert second.telemetry.counter("arc_cache.hits") > 0
