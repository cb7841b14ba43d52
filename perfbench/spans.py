"""Span recording for the traced benchmark run.

Spans come from the benchmark's own code: around the calls it makes into
each layer, and around the public layer functions the program calls
internally (routing inside an ``upsize`` what-if, the slack pass inside an
analysis).  For the latter, :func:`instrument` swaps module attributes for
timed wrappers for the duration of the traced pass and puts them back
afterwards; nothing in the program itself changes.

A span is ``(id, name, parent, start, end)``.  Spans are kept in memory
and read out once at the end.  A layer's self time is its span's duration
minus the time its child spans cover.  The arc solver is called per arc,
so it is timed by accumulating counters at the calculator boundary rather
than by one span per call.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import threading
import time
from collections import defaultdict


class SpanRecorder:
    """In-memory spans plus counters recorded at the same boundaries."""

    def __init__(self):
        self.spans: list[tuple[int, str, int | None, float, float]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.calculators: list = []
        # Parent for spans opened on a thread that has no open span of its
        # own: the in-process server's worker thread runs the layer calls
        # of the request whose client-side span is open on the main thread.
        self.ambient: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, ambient: bool = False):
        """Record one span; with ``ambient`` it also parents the spans
        other threads open while it is open."""
        stack = self._stack()
        parent = stack[-1] if stack else self.ambient
        span_id = next(self._ids)
        previous = self.ambient
        if ambient:
            self.ambient = span_id
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            if ambient:
                self.ambient = previous
            with self._lock:
                self.spans.append((span_id, name, parent, start, end))

    def add(self, key: str, value: float = 1.0) -> None:
        with self._lock:
            self.counters[key] += value

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        child_time: dict[int, float] = defaultdict(float)
        for _sid, _name, parent, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for sid, name, _parent, start, end in self.spans:
            totals[name] += max(0.0, (end - start) - child_time[sid])
        return dict(totals)


def maybe_span(recorder: SpanRecorder | None, name: str, ambient: bool = False):
    """``recorder.span(name)``, or a no-op when tracing is off."""
    if recorder is None:
        return contextlib.nullcontext()
    return recorder.span(name, ambient=ambient)


def _timed(recorder: SpanRecorder, name, fn, after=None):
    """Wrap ``fn`` in a span; ``name`` may be a callable of the call's
    arguments, and ``after`` sees the return value outside the span."""

    def wrapper(*args, **kwargs):
        span_name = name(*args, **kwargs) if callable(name) else name
        with recorder.span(span_name):
            result = fn(*args, **kwargs)
        if after is not None:
            after(result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _edit_span(*args, **kwargs) -> str:
    edit = args[1] if len(args) > 1 else kwargs.get("edit")
    action = edit.get("action") if isinstance(edit, dict) else None
    return f"edits.apply.{action}"


def _tracing_calculator_class(recorder: SpanRecorder, base: type) -> type:
    """A subclass of the program's calculator that times its public
    ``prime_keys`` / ``resolve_key`` and counts batch sizes."""

    class TracingCalculator(base):
        # New Newton integrations are read off the calculator's own
        # ``evaluations`` counter around each call (the registry may be
        # shared by several calculators of one server).

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            recorder.calculators.append(self)

        def prime_keys(self, entries):
            solves = self.evaluations
            start = time.perf_counter()
            try:
                return super().prime_keys(entries)
            finally:
                recorder.add("waveform.solve_s", time.perf_counter() - start)
                recorder.add("waveform.solves", self.evaluations - solves)
                recorder.add("waveform.batch_calls")
                recorder.add("waveform.batch_entries", len(entries))

        def resolve_key(self, key, force_exact=False):
            solves = self.evaluations
            start = time.perf_counter()
            try:
                return super().resolve_key(key, force_exact)
            finally:
                recorder.add("waveform.solve_s", time.perf_counter() - start)
                recorder.add("waveform.solves", self.evaluations - solves)
                recorder.add("waveform.evaluations")

    return TracingCalculator


def _count_routing(recorder: SpanRecorder):
    def after(routing) -> None:
        recorder.add("layout.route_overflows", getattr(routing, "overflow_count", 0))
        routes = getattr(routing, "routes", {})
        recorder.add(
            "layout.segments", sum(len(r.segments()) for r in routes.values())
        )

    return after


@contextlib.contextmanager
def instrument(recorder: SpanRecorder):
    """Swap the layers' public functions for timed wrappers while the
    block runs.  Attributes that no longer exist are skipped, so the
    benchmark keeps running when a layer is renamed or removed."""
    count_routing = _count_routing(recorder)
    targets = [
        ("repro.flow.design", "place", "layout.place", None),
        ("repro.flow.design", "route", "layout.route", count_routing),
        ("repro.flow.design", "extract", "layout.extract", None),
        ("repro.flow.design", "prepare_design", "flow.design", None),
        ("repro.flow.repair", "reroute_nets", "layout.route", count_routing),
        ("repro.flow.repair", "route", "layout.route", count_routing),
        ("repro.flow.repair", "extract", "layout.extract", None),
        ("repro.service.session", "prepare_design", "flow.design", None),
        ("repro.service.session", "apply_edit", _edit_span, None),
        ("repro.service.session", "explain_result", "explain", None),
        ("repro.service.session", "rank_crosstalk_nets", "netreport.rank", None),
        ("repro.core.columnar", "compile_design", "columnar.compile", None),
        ("repro.core.analyzer", "compute_slack", "slack.compute", None),
    ]
    saved: list[tuple[object, str, object]] = []
    try:
        for module_name, attr, name, after in targets:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            original = getattr(module, attr, None)
            if original is None:
                continue
            saved.append((module, attr, original))
            setattr(module, attr, _timed(recorder, name, original, after))
        analyzer = importlib.import_module("repro.core.analyzer")
        base = getattr(analyzer, "GateDelayCalculator", None)
        if base is not None:
            saved.append((analyzer, "GateDelayCalculator", base))
            analyzer.GateDelayCalculator = _tracing_calculator_class(recorder, base)
        yield recorder
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
