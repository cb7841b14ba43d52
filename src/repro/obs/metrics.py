"""Metrics registry: counters, gauges and fixed-bucket histograms.

One :class:`MetricsRegistry` per analysis run (shared by the analyzer,
the propagator and the gate-delay calculator) replaces the ad-hoc
statistics dicts that used to live in each of those modules.  Series are
keyed by name plus optional labels; instruments are plain mutable
objects, so hot paths resolve them once and call ``inc``/``observe``
without any dict lookup.

Snapshots (:meth:`MetricsRegistry.snapshot`) are plain JSON-safe dicts.
:func:`diff_snapshots` takes per-run deltas between two of them, so each
analysis mode of a shared-cache analyzer reports only its own work.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Iterable

# Bucket boundaries for total Newton iterations per solved arc (a stage
# integrates ~120-480 backward-Euler steps at ~1-3 iterations each).
NEWTON_ITER_BUCKETS = (60, 120, 180, 240, 360, 480, 720, 960, 1440, 1920)

# Generic small-count boundaries (waves per level, passes, ...).
SMALL_COUNT_BUCKETS = (1, 2, 3, 4, 6, 8, 12, 16, 24, 32)


class Counter:
    """Monotonically increasing value (ints or float seconds)."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self):
        self.value = 0

    def inc(self, amount: int | float = 1) -> None:
        self.value += amount

    def reset(self) -> None:
        self.value = 0


class Gauge:
    """Last-written value (``None`` until first set)."""

    __slots__ = ("value",)
    kind = "gauge"

    def __init__(self):
        self.value = None

    def set(self, value: float) -> None:
        self.value = value

    def reset(self) -> None:
        self.value = None


class Histogram:
    """Fixed-boundary histogram (``len(boundaries) + 1`` buckets).

    Bucket ``i`` counts observations ``v`` with
    ``boundaries[i-1] < v <= boundaries[i]``; the last bucket is the
    overflow (``v > boundaries[-1]``).
    """

    __slots__ = ("boundaries", "bucket_counts", "count", "total", "vmin", "vmax")
    kind = "histogram"

    def __init__(self, boundaries: Iterable[float]):
        self.boundaries = tuple(sorted(boundaries))
        if not self.boundaries:
            raise ValueError("histogram needs at least one bucket boundary")
        self.bucket_counts = [0] * (len(self.boundaries) + 1)
        self.count = 0
        self.total = 0.0
        self.vmin = None
        self.vmax = None

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect_left(self.boundaries, value)] += 1
        self.count += 1
        self.total += value
        if self.vmin is None or value < self.vmin:
            self.vmin = value
        if self.vmax is None or value > self.vmax:
            self.vmax = value

    def observe_many(self, values: Iterable[float]) -> None:
        for value in values:
            self.observe(value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def reset(self) -> None:
        self.bucket_counts = [0] * (len(self.boundaries) + 1)
        self.count = 0
        self.total = 0.0
        self.vmin = None
        self.vmax = None


def series_key(name: str, labels: dict) -> str:
    """Canonical series key: ``name`` or ``name{k=v,...}`` (sorted keys)."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class MetricsRegistry:
    """Named, labelled instruments with JSON-safe snapshots."""

    def __init__(self):
        self._series: dict[str, Counter | Gauge | Histogram] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, key: str, factory, kind: str):
        with self._lock:
            instrument = self._series.get(key)
            if instrument is None:
                instrument = factory()
                self._series[key] = instrument
            elif instrument.kind != kind:
                raise ValueError(
                    f"metric {key!r} already registered as {instrument.kind}"
                )
            return instrument

    def counter(self, name: str, **labels) -> Counter:
        return self._get_or_create(series_key(name, labels), Counter, "counter")

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get_or_create(series_key(name, labels), Gauge, "gauge")

    def histogram(
        self, name: str, boundaries: Iterable[float] = SMALL_COUNT_BUCKETS, **labels
    ) -> Histogram:
        return self._get_or_create(
            series_key(name, labels), lambda: Histogram(boundaries), "histogram"
        )

    # -- snapshots -----------------------------------------------------------

    def snapshot(self) -> dict:
        """Plain-dict copy of every series (JSON-serializable)."""
        counters: dict[str, float] = {}
        gauges: dict[str, float] = {}
        histograms: dict[str, dict] = {}
        with self._lock:
            for key, instrument in self._series.items():
                if instrument.kind == "counter":
                    counters[key] = instrument.value
                elif instrument.kind == "gauge":
                    gauges[key] = instrument.value
                else:
                    histograms[key] = {
                        "boundaries": list(instrument.boundaries),
                        "counts": list(instrument.bucket_counts),
                        "count": instrument.count,
                        "sum": instrument.total,
                        "min": instrument.vmin,
                        "max": instrument.vmax,
                    }
        return {"counters": counters, "gauges": gauges, "histograms": histograms}

    def reset(self) -> None:
        with self._lock:
            for instrument in self._series.values():
                instrument.reset()


def diff_snapshots(before: dict, after: dict) -> dict:
    """Per-run delta between two snapshots of the same registry.

    Counters and histogram counts subtract; gauges and histogram
    min/max report the ``after`` value (they are not additive).  Series
    absent from ``before`` pass through unchanged.
    """
    counters = {}
    for key, value in after.get("counters", {}).items():
        delta = value - before.get("counters", {}).get(key, 0)
        if delta:
            counters[key] = delta
    gauges = {
        key: value
        for key, value in after.get("gauges", {}).items()
        if value is not None
    }
    histograms = {}
    for key, data in after.get("histograms", {}).items():
        prior = before.get("histograms", {}).get(key)
        if prior is None:
            if data["count"]:
                histograms[key] = dict(data)
            continue
        count = data["count"] - prior["count"]
        if count <= 0:
            continue
        histograms[key] = {
            "boundaries": list(data["boundaries"]),
            "counts": [a - b for a, b in zip(data["counts"], prior["counts"])],
            "count": count,
            "sum": data["sum"] - prior["sum"],
            "min": data["min"],
            "max": data["max"],
        }
    return {"counters": counters, "gauges": gauges, "histograms": histograms}
