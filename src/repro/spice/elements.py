"""Circuit elements of the transient simulator.

The validation simulator needs exactly four element kinds: resistors,
(possibly floating) capacitors, piecewise-linear voltage sources and
MOSFETs.  Elements know how to stamp themselves into the MNA matrices;
node indices are assigned by :class:`repro.spice.netlist.SimCircuit`.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

from repro.devices.mosfet import Mosfet


@dataclass(frozen=True)
class Resistor:
    """Linear resistor between nodes ``a`` and ``b`` (ohms)."""

    a: str
    b: str
    resistance: float

    def __post_init__(self) -> None:
        if self.resistance <= 0:
            raise ValueError(f"resistance must be positive, got {self.resistance}")

    @property
    def conductance(self) -> float:
        return 1.0 / self.resistance


@dataclass(frozen=True)
class Capacitor:
    """Capacitor between nodes ``a`` and ``b`` (farads).

    Ground one terminal (``b="0"``) for a load capacitance; leave both
    floating for a coupling capacitance.
    """

    a: str
    b: str
    capacitance: float

    def __post_init__(self) -> None:
        if self.capacitance < 0:
            raise ValueError(f"capacitance must be non-negative, got {self.capacitance}")


class PwlSource:
    """Piecewise-linear voltage source from node ``b`` (-) to ``a`` (+).

    ``points`` is a list of (time, voltage) pairs with non-decreasing
    times; the voltage holds constant before the first and after the last
    point.  This is the element the paper's validation methodology adjusts
    iteratively ("piecewise linear sources had to be iteratively adjusted
    to obtain worst-case path delays at every coupling capacitance").
    """

    def __init__(self, a: str, b: str, points: list[tuple[float, float]]):
        if not points:
            raise ValueError("PWL source needs at least one point")
        times = [t for t, _ in points]
        if any(t1 < t0 for t0, t1 in zip(times, times[1:])):
            raise ValueError("PWL times must be non-decreasing")
        self.a = a
        self.b = b
        self.points = list(points)
        self._times = times
        self._volts = [v for _, v in points]

    def voltage_at(self, t: float) -> float:
        times, volts = self._times, self._volts
        if t <= times[0]:
            return volts[0]
        if t >= times[-1]:
            return volts[-1]
        i = bisect_right(times, t)
        t0, t1 = times[i - 1], times[i]
        v0, v1 = volts[i - 1], volts[i]
        if t1 == t0:
            return v1
        return v0 + (v1 - v0) * (t - t0) / (t1 - t0)

    @staticmethod
    def step(a: str, v0: float, v1: float, t_step: float, ramp: float) -> "PwlSource":
        """Convenience: a single ramp from ``v0`` to ``v1`` starting at
        ``t_step`` with the given ramp time, referenced to ground."""
        if ramp <= 0:
            ramp = 1e-15
        return PwlSource(a, "0", [(t_step, v0), (t_step + ramp, v1)])

    @staticmethod
    def dc(a: str, voltage: float) -> "PwlSource":
        return PwlSource(a, "0", [(0.0, voltage)])


@dataclass(frozen=True)
class MosfetElement:
    """A MOSFET with named drain/gate/source terminals.

    Bulk is implicitly tied to the rail (the device model has no body
    effect).  The ``device`` provides the analytic DC current and its
    derivatives for Newton stamping.
    """

    name: str
    drain: str
    gate: str
    source: str
    device: Mosfet
