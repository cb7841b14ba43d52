"""Hierarchical span tracer.

A :class:`Tracer` records *spans* -- named, attributed intervals on a
monotonic clock (:func:`time.perf_counter_ns`) -- through a
context-manager API::

    tracer = Tracer()
    with tracer.span("sta.run", mode="one_step"):
        with tracer.span("sta.pass") as span:
            ...
            span.set(arcs=1234)

Spans nest per thread (a thread-local stack assigns parent ids), and the
finished-event list is guarded by a lock, so one tracer may be shared
across threads.  Another tracer's event list can be folded in with
:meth:`Tracer.absorb`.

Two serializations are offered:

* :meth:`Tracer.chrome_payload` / :meth:`write_chrome` -- the Chrome
  trace-event format (``{"traceEvents": [...]}``), loadable directly in
  ``chrome://tracing`` or https://ui.perfetto.dev;
* :meth:`Tracer.write_jsonl` / :func:`read_jsonl` -- one JSON event per
  line, for streaming consumers and machine diffing.

The :data:`NULL_TRACER` singleton implements the same surface as pure
no-ops; instrumented code holds a tracer unconditionally and pays only a
method call returning a shared null span when tracing is disabled.
"""

from __future__ import annotations

import json
import os
import threading
import time

TRACE_SCHEMA = "repro.obs.trace/1"


class _NullSpan:
    """Shared do-nothing span (returned by :class:`NullTracer`)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attrs) -> "_NullSpan":
        return self


NULL_SPAN = _NullSpan()


class NullTracer:
    """Tracer stand-in whose every operation is a no-op."""

    __slots__ = ()
    enabled = False

    def span(self, name: str, **attrs) -> _NullSpan:
        return NULL_SPAN

    def instant(self, name: str, **attrs) -> None:
        return None

    @property
    def events(self) -> list[dict]:
        return []


NULL_TRACER = NullTracer()


class _Span:
    """One open span; records itself on the tracer when it exits."""

    __slots__ = ("_tracer", "name", "attrs", "span_id", "parent_id", "_start_us")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict):
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.span_id = 0
        self.parent_id = None
        self._start_us = 0.0

    def set(self, **attrs) -> "_Span":
        """Attach (or overwrite) attributes on the open span."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "_Span":
        tracer = self._tracer
        stack = tracer._stack()
        self.parent_id = stack[-1].span_id if stack else None
        self.span_id = tracer._new_id()
        stack.append(self)
        self._start_us = tracer._now_us()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        tracer = self._tracer
        end_us = tracer._now_us()
        stack = tracer._stack()
        if stack and stack[-1] is self:
            stack.pop()
        tracer._record(
            {
                "name": self.name,
                "ph": "X",
                "ts": self._start_us,
                "dur": max(end_us - self._start_us, 0.0),
                "pid": os.getpid(),
                "tid": threading.get_ident(),
                "span_id": self.span_id,
                "parent_id": self.parent_id,
                "args": self.attrs,
            }
        )
        return False


class Tracer:
    """Collects spans and instant events on one monotonic time origin."""

    enabled = True

    def __init__(self, process_name: str = "repro"):
        self.process_name = process_name
        self._events: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._origin_ns = time.perf_counter_ns()
        self._next_id = 0

    # -- span machinery -----------------------------------------------------

    def span(self, name: str, **attrs) -> _Span:
        """A new span; use as a context manager."""
        return _Span(self, name, attrs)

    def instant(self, name: str, **attrs) -> None:
        """Record a zero-duration marker event."""
        self._record(
            {
                "name": name,
                "ph": "i",
                "ts": self._now_us(),
                "pid": os.getpid(),
                "tid": threading.get_ident(),
                "span_id": self._new_id(),
                "parent_id": None,
                "args": attrs,
                "s": "t",
            }
        )

    def _now_us(self) -> float:
        return (time.perf_counter_ns() - self._origin_ns) / 1000.0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _new_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    def _record(self, event: dict) -> None:
        with self._lock:
            self._events.append(event)

    # -- aggregation --------------------------------------------------------

    @property
    def events(self) -> list[dict]:
        """Snapshot of the finished events (chronological record order)."""
        with self._lock:
            return list(self._events)

    def absorb(self, events: list[dict]) -> None:
        """Fold finished events from another tracer (e.g. deserialized
        from a worker process) into this one."""
        with self._lock:
            self._events.extend(events)

    # -- serialization ------------------------------------------------------

    def chrome_payload(self) -> dict:
        """The Chrome trace-event JSON object for this tracer's spans."""
        meta = {
            "name": "process_name",
            "ph": "M",
            "pid": os.getpid(),
            "tid": 0,
            "args": {"name": self.process_name},
        }
        return {
            "traceEvents": [meta] + self.events,
            "displayTimeUnit": "ms",
            "otherData": {"schema": TRACE_SCHEMA},
        }

    def write_chrome(self, path: str) -> int:
        """Write the Chrome trace file; returns the number of span events."""
        events = self.events
        with open(path, "w") as handle:
            json.dump(self.chrome_payload(), handle)
        return len(events)

    def write_jsonl(self, path: str) -> int:
        """Write one JSON event per line; returns the number of events."""
        events = self.events
        with open(path, "w") as handle:
            for event in events:
                handle.write(json.dumps(event, sort_keys=True) + "\n")
        return len(events)


def read_jsonl(path: str) -> list[dict]:
    """Load a JSONL event stream written by :meth:`Tracer.write_jsonl`."""
    events = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events
