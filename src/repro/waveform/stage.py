"""Transistor-level stage solver.

Integrates the output node of a collapsed CMOS stage,

    C_total * dV_out/dt = I_stage(V_in(t), V_out),

with backward Euler and classical Newton iteration per time step on the
tabulated stage current (paper, Section 3).  Supports the coupling model's
mid-transition drop event (Section 2): when the output reaches the trigger
voltage, it is reset to the restart value and the pre-drop waveform is
discarded.

Only the markers of :func:`measure_stage_waveform` are wanted, so the
integration stops once no drop is pending and the newest sample is at or
past the furthest marker threshold (:func:`_marker_thresholds`); the
measurement reads, per threshold, only the first sample at or past it and
that sample's predecessor, so later samples could not move a marker.  The
batch solver (:mod:`repro.waveform.batchstage`) stops under the same rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.devices.newton import NewtonResult, solve_newton
from repro.devices.params import ProcessParams, default_process
from repro.devices.tables import StageTable, _cell_locate
from repro.errors import SolverError
from repro.waveform.coupling import CouplingLoad
from repro.waveform.pwl import FALLING, RISING, Waveform, opposite


class StageSolverError(SolverError):
    """Raised when the integration cannot complete."""


# Integration defaults, shared by the scalar and batch solvers and part of
# the persistent arc-cache fingerprint (changing them invalidates cached
# arc results).  SETTLE_FRACTION no longer ends an integration; it sets the
# band (2% of V_DD) that keeps a clamped coupling trigger off the rail.
STEPS_PER_PHASE = 60
SETTLE_FRACTION = 0.02
MAX_EXTENSIONS = 24
# Newton settings of every time step (the batch solver uses the same).
NEWTON_TOL = 1e-7
NEWTON_MAX_ITER = 50


def _marker_thresholds(process: ProcessParams) -> tuple[float, ...]:
    """The voltages the measurement reads crossings of: 50%, 10% and 90%
    of V_DD, then V_th and V_DD - V_th.  The one definition behind
    :func:`measure_stage_waveform` and both solvers' stop rule."""
    vdd = process.vdd
    v_th = process.v_th_model
    return 0.5 * vdd, 0.1 * vdd, 0.9 * vdd, v_th, vdd - v_th


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
    it is discarded.  It ends at the first sample at or past the last
    marker threshold.  ``t_early``/``t_late`` follow the convention of
    :class:`repro.waveform.ramp.RampEvent`.  ``newton_iterations`` counts
    the iterations up to that last sample.
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
        # The stage table's values as a flat float64 memoryview: indexing
        # it yields Python floats, with no copy of the table.
        self._flat = memoryview(np.ascontiguousarray(table.grid.values).reshape(-1))

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

        # The stop rule: the furthest marker threshold along this output's
        # transition.  A pending drop could still restart the waveform, so
        # the integration may only stop once it has fired.
        thresholds = _marker_thresholds(process)
        last = max(thresholds) if rising else min(thresholds)
        pending = trigger is not None

        # The table as Python floats: one memoryview read per corner costs
        # a fraction of a numpy scalar index, and the float arithmetic is
        # the same IEEE double arithmetic.
        grid = self.table.grid
        flat = self._flat
        x0, dx, nx = grid._x0, grid._dx, grid._nx
        y0, dy, ny = grid._y0, grid._dy, grid._ny
        ny1 = ny + 1
        locate = _cell_locate
        tol, max_iter = NEWTON_TOL, NEWTON_MAX_ITER

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
        max_step = 0.5 * (hi - lo)
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

            # solve_newton's damped update on the backward-Euler residual
            # x - v_prev - coeff * I(vin_next, x).  vin is fixed within the
            # step, so its x-cell is located once; each iteration reads
            # the y-cell's corners in lookup_with_dy's order.
            ix, tx = locate((vin_next - x0) / dx, nx)
            one_m_tx = 1.0 - tx
            row = ix * ny
            x = v_prev
            iterations = 0
            while True:
                iy, ty = locate((x - y0) / dy, ny)
                base = row + iy
                i_lo = flat[base] * one_m_tx + flat[base + ny] * tx
                i_hi = flat[base + 1] * one_m_tx + flat[base + ny1] * tx
                current = i_lo * (1.0 - ty) + i_hi * ty
                df = 1.0 - coeff * ((i_hi - i_lo) / dy)
                iterations += 1
                if df == 0.0 or iterations > max_iter:
                    # Bisection territory: solve_newton redoes the step
                    # from its start, so the fallback and its count stay
                    # solve_newton's.
                    result = self._solve_step(vin_next, v_prev, coeff, lo, hi)
                    x_new = float(result.root)
                    iterations = result.iterations
                    if result.used_bisection:
                        newton_bisections += 1
                    break
                delta = (x - v_prev - coeff * current) / df
                if delta > max_step:
                    delta = max_step
                elif delta < -max_step:
                    delta = -max_step
                x_new = x - delta
                if x_new < lo:
                    x_new = lo
                if x_new > hi:
                    x_new = hi
                if abs(x_new - x) <= tol:
                    break
                x = x_new
            newton_total += iterations
            v_next = x_new

            if pending and (
                v_prev < trigger <= v_next if rising else v_prev > trigger >= v_next
            ):
                # Locate the crossing inside the step, fire the drop and
                # restart the reported waveform from the restart voltage.
                if v_next != v_prev:
                    frac = (trigger - v_prev) / (v_next - v_prev)
                else:
                    frac = 1.0
                t_drop = t + frac * dt
                fired = True
                pending = False
                t = t_drop
                v = restart
                times = [t]
                values = [v]
                continue

            t = t_next
            v = v_next
            times.append(t)
            values.append(v)
            if not pending and (v >= last if rising else v <= last):
                break

        waveform = _monotone_clean(
            Waveform(np.array(times), np.array(values), out_direction)
        )
        return self._measure(
            waveform, out_direction, fired, t_drop, newton_total, newton_bisections
        )

    def _solve_step(
        self, vin: float, v_prev: float, coeff: float, lo: float, hi: float
    ) -> NewtonResult:
        """One time step through :func:`solve_newton` on
        :meth:`StageTable.current_with_dvout`: the reference the inline
        update reproduces, run for the steps that need its bisection."""
        table = self.table

        def residual(x: float) -> tuple[float, float]:
            current, dcurrent = table.current_with_dvout(vin, x)
            return x - v_prev - coeff * current, 1.0 - coeff * dcurrent

        return solve_newton(
            residual, x0=v_prev, tol=NEWTON_TOL, max_iter=NEWTON_MAX_ITER, lo=lo, hi=hi
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
    half, lo_thr, hi_thr, near, far = _marker_thresholds(process)

    t_half = waveform.crossing_time(half)
    t_lo = waveform.crossing_time(lo_thr)
    t_hi = waveform.crossing_time(hi_thr)
    if out_direction == RISING:
        t_early = waveform.crossing_time(near)
        t_late = waveform.crossing_time(far)
        transition = (t_hi - t_lo) / 0.8
    else:
        t_early = waveform.crossing_time(far)
        t_late = waveform.crossing_time(near)
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
