"""Transistor-level stage solver.

Integrates the output node of a collapsed CMOS stage,

    C_total * dV_out/dt = I_stage(V_in(t), V_out),

with backward Euler and classical Newton iteration per time step on the
tabulated stage current (paper, Section 3).  Supports the coupling model's
mid-transition drop event (Section 2): when the output reaches the trigger
voltage, it is reset to the restart value and the pre-drop waveform is
discarded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.devices.newton import solve_newton
from repro.devices.params import ProcessParams, default_process
from repro.devices.tables import StageTable
from repro.errors import SolverError
from repro.waveform.coupling import CouplingLoad
from repro.waveform.pwl import FALLING, RISING, Waveform, opposite


class StageSolverError(SolverError):
    """Raised when the integration cannot complete."""


# Integration defaults, shared by the scalar and batch solvers and part of
# the persistent arc-cache fingerprint (changing them invalidates cached
# arc results).
STEPS_PER_PHASE = 60
SETTLE_FRACTION = 0.02
MAX_EXTENSIONS = 24


@dataclass(frozen=True)
class InputRamp:
    """The switching input: a rail-to-rail saturated ramp.

    ``t_start`` is when the input departs its initial rail; ``transition``
    is the full-swing ramp time; ``direction`` is the *input* transition.
    """

    direction: str
    t_start: float
    transition: float

    def voltage_at(self, t: float, vdd: float) -> float:
        if self.transition <= 0:
            frac = 1.0 if t >= self.t_start else 0.0
        else:
            frac = min(1.0, max(0.0, (t - self.t_start) / self.transition))
        if self.direction == RISING:
            return vdd * frac
        return vdd * (1.0 - frac)


@dataclass
class StageResult:
    """Solved output transition of one stage.

    The waveform is the *reported* one: if the coupling drop fired, it
    starts at the restart voltage at the drop time and the glitch before
    it is discarded.  ``t_early``/``t_late`` follow the convention of
    :class:`repro.waveform.ramp.RampEvent`.
    """

    waveform: Waveform
    direction: str
    t_cross: float
    transition: float
    t_early: float
    t_late: float
    coupled: bool
    t_drop: float | None
    newton_iterations: int
    newton_bisections: int = 0


class StageSolver:
    """Integrates one stage's output for a given input ramp and load."""

    def __init__(
        self,
        table: StageTable,
        process: ProcessParams | None = None,
        steps_per_phase: int = STEPS_PER_PHASE,
        settle_fraction: float = SETTLE_FRACTION,
        max_extensions: int = MAX_EXTENSIONS,
    ):
        self.table = table
        self.process = process if process is not None else default_process()
        self.steps_per_phase = steps_per_phase
        self.settle_fraction = settle_fraction
        self.max_extensions = max_extensions

    # -- drive-strength estimate for the time step -------------------------

    def _drive_current(self, out_direction: str) -> float:
        vdd = self.process.vdd
        if out_direction == RISING:
            current = self.table.current(0.0, 0.5 * vdd)
        else:
            current = -self.table.current(vdd, 0.5 * vdd)
        return max(abs(current), 1e-9)

    def solve(
        self,
        input_ramp: InputRamp,
        load: CouplingLoad,
        out_direction: str | None = None,
        aiding: bool = False,
    ) -> StageResult:
        """Compute the output transition.

        ``out_direction`` defaults to the opposite of the input direction
        (negative-unate static CMOS).

        ``aiding=True`` mirrors the coupling model for *same-direction*
        aggressor switching (min-delay/hold analysis): instead of the
        opposing drop, the victim receives a helping divider jump of the
        same amplitude when it crosses the model threshold, moving it
        *forward* along its transition.  The waveform stays monotone; no
        part is discarded.
        """
        process = self.process
        vdd = process.vdd
        if out_direction is None:
            out_direction = opposite(input_ramp.direction)
        rising = out_direction == RISING

        c_total = load.c_total
        if c_total <= 0:
            raise StageSolverError("stage load must have positive capacitance")

        v_from = 0.0 if rising else vdd
        v_to = vdd if rising else 0.0
        settle_band = self.settle_fraction * vdd
        tau = c_total * vdd / self._drive_current(out_direction)
        dt = (input_ramp.transition + 4.0 * tau) / (2.0 * self.steps_per_phase)
        dt = max(dt, 1e-15)

        trigger = None
        if load.has_active_coupling:
            if aiding:
                # Helping jump fires right at the model threshold.
                trigger = load.restart_voltage(out_direction, process)
            else:
                trigger = load.trigger_voltage(out_direction, process)
            # With overwhelming coupling the trigger may sit inside the
            # settle band; clamp so the event still fires.
            if rising:
                trigger = min(trigger, vdd - 2.0 * settle_band)
            else:
                trigger = max(trigger, 2.0 * settle_band)
        if aiding and load.has_active_coupling:
            drop = load.divider_drop(process)
            if rising:
                restart = min(trigger + drop, vdd)
            else:
                restart = max(trigger - drop, 0.0)
        else:
            restart = load.restart_voltage(out_direction, process)

        t = input_ramp.t_start
        v = v_from
        times = [t]
        values = [v]
        fired = False
        t_drop: float | None = None
        newton_total = 0
        newton_bisections = 0

        max_steps = 2 * self.steps_per_phase
        extensions = 0
        step = 0
        lo, hi = -0.4, vdd + 0.4
        while True:
            step += 1
            if step > max_steps:
                if extensions >= self.max_extensions:
                    raise StageSolverError(
                        f"output failed to settle after {extensions} extensions "
                        f"(t={t:.3e}, v={v:.3f}, target={v_to:.3f})"
                    )
                extensions += 1
                dt *= 2.0
                step = 0
                continue

            t_next = t + dt
            vin_next = input_ramp.voltage_at(t_next, vdd)
            coeff = dt / c_total
            v_prev = v

            def residual(x: float) -> tuple[float, float]:
                current, dcurrent = self.table.current_with_dvout(vin_next, x)
                return x - v_prev - coeff * current, 1.0 - coeff * dcurrent

            result = solve_newton(residual, x0=v_prev, tol=1e-7, lo=lo, hi=hi)
            newton_total += result.iterations
            if result.used_bisection:
                newton_bisections += 1
            v_next = result.root

            crossed = False
            if trigger is not None and not fired:
                if rising and v_prev < trigger <= v_next:
                    crossed = True
                elif not rising and v_prev > trigger >= v_next:
                    crossed = True
            if crossed:
                # Locate the crossing inside the step, fire the drop and
                # restart the reported waveform from the restart voltage.
                if v_next != v_prev:
                    frac = (trigger - v_prev) / (v_next - v_prev)
                else:
                    frac = 1.0
                t_drop = t + frac * dt
                fired = True
                t = t_drop
                v = restart
                times = [t]
                values = [v]
                continue

            t = t_next
            v = v_next
            times.append(t)
            values.append(v)

            done_voltage = abs(v - v_to) <= settle_band
            input_done = t >= input_ramp.t_start + input_ramp.transition
            if done_voltage and input_done:
                break

        waveform = _monotone_clean(
            Waveform(np.array(times), np.array(values), out_direction)
        )
        return self._measure(
            waveform, out_direction, fired, t_drop, newton_total, newton_bisections
        )

    def _measure(
        self,
        waveform: Waveform,
        out_direction: str,
        fired: bool,
        t_drop: float | None,
        newton_total: int,
        newton_bisections: int = 0,
    ) -> StageResult:
        return measure_stage_waveform(
            self.process,
            waveform,
            out_direction,
            fired,
            t_drop,
            newton_total,
            newton_bisections,
        )


def measure_stage_waveform(
    process: ProcessParams,
    waveform: Waveform,
    out_direction: str,
    fired: bool,
    t_drop: float | None,
    newton_total: int,
    newton_bisections: int = 0,
) -> StageResult:
    """Extract the ramp-event markers from a solved stage waveform.

    Shared by the scalar and batch solvers so both report identical
    measurements for identical waveforms.
    """
    vdd = process.vdd
    v_th = process.v_th_model
    lo_thr, hi_thr = 0.1 * vdd, 0.9 * vdd
    half = 0.5 * vdd

    t_half = waveform.crossing_time(half)
    if out_direction == RISING:
        t_lo = waveform.crossing_time(lo_thr)
        t_hi = waveform.crossing_time(hi_thr)
        t_early = waveform.crossing_time(v_th)
        t_late = waveform.crossing_time(vdd - v_th)
        transition = (t_hi - t_lo) / 0.8
    else:
        t_hi = waveform.crossing_time(hi_thr)
        t_lo = waveform.crossing_time(lo_thr)
        t_early = waveform.crossing_time(vdd - v_th)
        t_late = waveform.crossing_time(v_th)
        transition = (t_lo - t_hi) / 0.8
    return StageResult(
        waveform=waveform,
        direction=out_direction,
        t_cross=t_half,
        transition=max(transition, 0.0),
        t_early=t_early,
        t_late=t_late,
        coupled=fired,
        t_drop=t_drop,
        newton_iterations=newton_total,
        newton_bisections=newton_bisections,
    )


def _monotone_clean(waveform: Waveform) -> Waveform:
    """Clamp sub-tolerance numerical wiggles so downstream monotonicity
    checks hold exactly."""
    values = waveform.values.copy()
    if waveform.direction == RISING:
        np.maximum.accumulate(values, out=values)
    else:
        np.minimum.accumulate(values, out=values)
    return Waveform(waveform.times, values, waveform.direction)
