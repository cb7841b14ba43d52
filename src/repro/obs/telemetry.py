"""Run-level telemetry: the tracer/metrics bundle and its artifacts.

:class:`Observability` is what instrumented code receives: a tracer
(possibly the null one) plus a metrics registry.  :class:`RunTelemetry`
is what one finished analysis run attaches to its result -- the per-run
metrics delta, per-pass records and phase wall-clock -- and what the CLI
serializes behind ``--metrics``.  The module also carries the schema
validators shared by the test suite and the CI smoke job.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER, NullTracer, Tracer

METRICS_SCHEMA = "repro.obs.metrics/1"


@dataclass
class Observability:
    """The tracer + metrics pair threaded through an analysis."""

    tracer: Tracer | NullTracer
    metrics: MetricsRegistry

    @classmethod
    def disabled(cls) -> "Observability":
        """Metrics only (always cheap); tracing compiled out via the
        shared null tracer."""
        return cls(tracer=NULL_TRACER, metrics=MetricsRegistry())

    @classmethod
    def tracing(cls, process_name: str = "repro") -> "Observability":
        """Metrics plus an active span tracer."""
        return cls(tracer=Tracer(process_name), metrics=MetricsRegistry())


@dataclass
class RunTelemetry:
    """Structured self-description of one finished analysis run."""

    mode: str
    design: str
    runtime_seconds: float
    passes: list[dict] = field(default_factory=list)
    phase_seconds: dict[str, float] = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)

    def counter(self, name: str, default: float = 0) -> float:
        """A counter's per-run delta by series key."""
        return self.metrics.get("counters", {}).get(name, default)

    def histogram(self, name: str) -> dict | None:
        return self.metrics.get("histograms", {}).get(name)

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "design": self.design,
            "runtime_seconds": self.runtime_seconds,
            "passes": self.passes,
            "phase_seconds": self.phase_seconds,
            "metrics": self.metrics,
        }


def metrics_payload(
    design: str,
    telemetries: dict[str, RunTelemetry],
    registry: MetricsRegistry | None = None,
) -> dict:
    """The ``--metrics`` artifact: per-mode telemetry plus, optionally,
    the cumulative registry snapshot of the whole invocation."""
    payload = {
        "schema": METRICS_SCHEMA,
        "design": design,
        "modes": {mode: tel.to_dict() for mode, tel in telemetries.items()},
    }
    if registry is not None:
        payload["cumulative"] = registry.snapshot()
    return payload


def write_metrics(payload: dict, path: str) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


# -- schema validation (shared by tests and the CI smoke job) ---------------


def validate_snapshot(snapshot: dict, where: str = "snapshot") -> list[str]:
    """Structural checks on a metrics snapshot; returns error strings."""
    errors: list[str] = []
    if not isinstance(snapshot, dict):
        return [f"{where}: not an object"]
    for section in ("counters", "gauges", "histograms"):
        if not isinstance(snapshot.get(section, {}), dict):
            errors.append(f"{where}.{section}: not an object")
    for key, data in snapshot.get("histograms", {}).items():
        if not isinstance(data, dict):
            errors.append(f"{where}.histograms[{key}]: not an object")
            continue
        boundaries = data.get("boundaries")
        counts = data.get("counts")
        if not isinstance(boundaries, list) or not boundaries:
            errors.append(f"{where}.histograms[{key}]: missing boundaries")
        if not isinstance(counts, list) or (
            isinstance(boundaries, list) and len(counts) != len(boundaries) + 1
        ):
            errors.append(
                f"{where}.histograms[{key}]: counts must have len(boundaries)+1 entries"
            )
        if isinstance(counts, list) and data.get("count") != sum(
            c for c in counts if isinstance(c, (int, float))
        ):
            errors.append(f"{where}.histograms[{key}]: count != sum(counts)")
    return errors


def validate_metrics_payload(payload: dict) -> list[str]:
    """Validate a ``--metrics`` file; returns error strings (empty = ok)."""
    errors: list[str] = []
    if not isinstance(payload, dict):
        return ["metrics payload: not an object"]
    if payload.get("schema") != METRICS_SCHEMA:
        errors.append(
            f"metrics payload: schema {payload.get('schema')!r} != {METRICS_SCHEMA!r}"
        )
    modes = payload.get("modes")
    if not isinstance(modes, dict) or not modes:
        errors.append("metrics payload: no modes recorded")
        return errors
    for mode, tel in modes.items():
        if not isinstance(tel, dict):
            errors.append(f"modes[{mode}]: not an object")
            continue
        for required in ("mode", "design", "runtime_seconds", "passes", "metrics"):
            if required not in tel:
                errors.append(f"modes[{mode}]: missing {required!r}")
        if not isinstance(tel.get("passes", []), list):
            errors.append(f"modes[{mode}].passes: not a list")
        errors.extend(validate_snapshot(tel.get("metrics", {}), f"modes[{mode}].metrics"))
    if "cumulative" in payload:
        errors.extend(validate_snapshot(payload["cumulative"], "cumulative"))
    return errors


def validate_chrome_trace(payload: dict) -> list[str]:
    """Validate a ``--trace`` file against the Chrome trace-event format;
    returns error strings (empty = ok)."""
    errors: list[str] = []
    if not isinstance(payload, dict):
        return ["trace: not an object (array-form traces are not emitted here)"]
    events = payload.get("traceEvents")
    if not isinstance(events, list) or not events:
        return ["trace: traceEvents missing or empty"]
    spans = 0
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            errors.append(f"traceEvents[{i}]: not an object")
            continue
        ph = event.get("ph")
        if not isinstance(event.get("name"), str):
            errors.append(f"traceEvents[{i}]: missing name")
        if ph not in ("X", "i", "M", "B", "E"):
            errors.append(f"traceEvents[{i}]: unexpected phase {ph!r}")
        if ph in ("X", "i"):
            if not isinstance(event.get("ts"), (int, float)):
                errors.append(f"traceEvents[{i}]: missing ts")
            if not isinstance(event.get("pid"), int) or not isinstance(
                event.get("tid"), int
            ):
                errors.append(f"traceEvents[{i}]: missing pid/tid")
        if ph == "X":
            spans += 1
            if not isinstance(event.get("dur"), (int, float)):
                errors.append(f"traceEvents[{i}]: complete event missing dur")
    if spans == 0:
        errors.append("trace: no complete ('X') span events")
    return errors
