"""Transistor-level stage solver.

Integrates the output node of a collapsed CMOS stage,

    C_total * dV_out/dt = I_stage(V_in(t), V_out),

with backward Euler and classical Newton iteration per time step on the
tabulated stage current (paper, Section 3).  Supports the coupling model's
mid-transition drop event (Section 2): when the output reaches the trigger
voltage, it is reset to the restart value and the pre-drop waveform is
discarded.

Only the markers of :func:`measure_samples` are wanted, so the
integration stops once no drop is pending and the newest sample is at or
past the furthest marker threshold (:func:`_marker_thresholds`); the
measurement reads, per threshold, only the first sample at or past it and
that sample's predecessor, so later samples could not move a marker.  The
batch solver (:mod:`repro.waveform.batchstage`) stops under the same rule.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from operator import neg

import numpy as np

from repro.devices.newton import NewtonResult, solve_newton
from repro.devices.params import ProcessParams, default_process
from repro.devices.tables import StageTable, _cell_locate
from repro.errors import SolverError
from repro.waveform.coupling import CouplingLoad
from repro.waveform.pwl import RISING, Waveform, opposite


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
    :func:`measure_samples` and both solvers' stop rule."""
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
        self._drive: dict[str, float] = {}
        self._rails: dict[bool, tuple[array, array, float]] = {}

    # -- drive-strength estimate for the time step -------------------------

    def _drive_current(self, out_direction: str) -> float:
        # Pure in the direction, so memoized; a Python float, so the step
        # loop's arithmetic runs on Python floats (the same IEEE doubles
        # as the numpy scalars the table lookup returns).
        drive = self._drive.get(out_direction)
        if drive is None:
            vdd = self.process.vdd
            if out_direction == RISING:
                current = self.table.current(0.0, 0.5 * vdd)
            else:
                current = -self.table.current(vdd, 0.5 * vdd)
            drive = float(max(abs(current), 1e-9))
            self._drive[out_direction] = drive
        return drive

    def _rail_columns(self, in_rising: bool) -> tuple[array, array, float]:
        """The table's column at the input's final rail: ``(cur, slope,
        vin)``.

        ``vin`` is ``V_DD`` for a rising input and 0 for a falling one
        (:meth:`InputRamp.voltage_at` at ``frac == 1.0``).  ``cur[j]`` is
        the current at output grid point ``j``, interpolated along the
        input axis at ``vin``, and ``slope[j]`` its slope over output cell
        ``j``: what a Newton iteration of :meth:`solve` combines from four
        table corners, by the same expressions, so a step on the rail
        reads two currents and a slope instead.  Built once per solver and
        rail, as float64 arrays.
        """
        columns = self._rails.get(in_rising)
        if columns is None:
            grid = self.table.grid
            flat = self._flat
            ny, dy = grid._ny, grid._dy
            vin = self.process.vdd if in_rising else 0.0
            ix, tx = _cell_locate((vin - grid._x0) / grid._dx, grid._nx)
            one_m_tx = 1.0 - tx
            row = ix * ny
            cur = array(
                "d",
                [flat[row + j] * one_m_tx + flat[row + ny + j] * tx for j in range(ny)],
            )
            slope = array("d", [(cur[j + 1] - cur[j]) / dy for j in range(ny - 1)])
            columns = (cur, slope, vin)
            self._rails[in_rising] = columns
        return columns

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
        # the same IEEE double arithmetic.  Every cell locate below is
        # _cell_locate's clamp, inline.
        grid = self.table.grid
        flat = self._flat
        x0, dx, nx2 = grid._x0, grid._dx, grid._nx - 2
        y0, dy, ny = grid._y0, grid._dy, grid._ny
        ny1, ny2 = ny + 1, ny - 2
        tol, max_iter = NEWTON_TOL, NEWTON_MAX_ITER
        # InputRamp.voltage_at, inline.  t never moves back, so once the
        # ramp saturates the input stays on its rail and every later step
        # reads the rail's column (_rail_columns).
        in_rising = input_ramp.direction == RISING
        ramp_start = input_ramp.t_start
        ramp_time = input_ramp.transition
        rail = None

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
        coeff = dt / c_total
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
                coeff = dt / c_total
                step = 0
                continue

            t_next = t + dt
            if rail is None:
                if ramp_time <= 0:
                    frac = 1.0 if t_next >= ramp_start else 0.0
                else:
                    frac = (t_next - ramp_start) / ramp_time
                    if frac >= 1.0:
                        frac = 1.0
                    elif frac <= 0.0:
                        frac = 0.0
                if frac == 1.0:
                    rail = self._rail_columns(in_rising)
                    cur, slope, vin_rail = rail
            v_prev = v

            # solve_newton's damped update on the backward-Euler residual
            # x - v_prev - coeff * I(vin_next, x).  Each iteration reads
            # the output voltage's y-cell in lookup_with_dy's order; x_new
            # stays None when the step needs the reference's bisection.
            x = v_prev
            iterations = 0
            if rail is None:
                vin_next = vdd * frac if in_rising else vdd * (1.0 - frac)
                # vin is fixed within the step: its x-cell is located once.
                f = (vin_next - x0) / dx
                ix = int(f)
                if ix < 0:
                    ix = 0
                elif ix > nx2:
                    ix = nx2
                tx = f - ix
                if tx < 0.0:
                    tx = 0.0
                elif tx > 1.0:
                    tx = 1.0
                one_m_tx = 1.0 - tx
                row = ix * ny
                while True:
                    f = (x - y0) / dy
                    iy = int(f)
                    if iy < 0:
                        iy = 0
                    elif iy > ny2:
                        iy = ny2
                    ty = f - iy
                    if ty < 0.0:
                        ty = 0.0
                    elif ty > 1.0:
                        ty = 1.0
                    base = row + iy
                    i_lo = flat[base] * one_m_tx + flat[base + ny] * tx
                    i_hi = flat[base + 1] * one_m_tx + flat[base + ny1] * tx
                    current = i_lo * (1.0 - ty) + i_hi * ty
                    df = 1.0 - coeff * ((i_hi - i_lo) / dy)
                    iterations += 1
                    if df == 0.0 or iterations > max_iter:
                        x_new = None
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
                    if -tol <= x_new - x <= tol:
                        break
                    x = x_new
            else:
                # On the rail: the same iteration on the rail's column.
                vin_next = vin_rail
                while True:
                    f = (x - y0) / dy
                    iy = int(f)
                    if iy < 0:
                        iy = 0
                    elif iy > ny2:
                        iy = ny2
                    ty = f - iy
                    if ty < 0.0:
                        ty = 0.0
                    elif ty > 1.0:
                        ty = 1.0
                    current = cur[iy] * (1.0 - ty) + cur[iy + 1] * ty
                    df = 1.0 - coeff * slope[iy]
                    iterations += 1
                    if df == 0.0 or iterations > max_iter:
                        x_new = None
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
                    if -tol <= x_new - x <= tol:
                        break
                    x = x_new
            if x_new is None:
                # Bisection territory: solve_newton redoes the step from
                # its start, so the fallback and its count stay
                # solve_newton's.
                result = self._solve_step(vin_next, v_prev, coeff, lo, hi)
                x_new = float(result.root)
                iterations = result.iterations
                if result.used_bisection:
                    newton_bisections += 1
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

        return measure_samples(
            process,
            times,
            values,
            out_direction,
            fired,
            t_drop,
            newton_total,
            newton_bisections,
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


def measure_samples(
    process: ProcessParams,
    times: list[float],
    values: list[float],
    out_direction: str,
    fired: bool,
    t_drop: float | None,
    newton_total: int,
    newton_bisections: int = 0,
) -> StageResult:
    """Measure a stage's recorded samples: the reported waveform and its
    ramp-event markers.

    Shared by the scalar solver and the batch solver's per-element path,
    so both report identical measurements for identical samples.  The
    values are first cleaned to their running maximum (rising) or minimum
    (falling): that clamps sub-tolerance numerical wiggles so downstream
    monotonicity checks hold exactly, and it picks an operand, so no
    value is rounded.  Each marker is :meth:`Waveform.crossing_time` on
    the cleaned samples, by its expression: the first sample at or past
    the threshold, interpolated with its predecessor; a threshold never
    reached raises its ``ValueError``.
    """
    rising = out_direction == RISING
    clean = list(accumulate(values, max if rising else min))
    waveform = Waveform(times, clean, out_direction)

    def crossing(threshold: float) -> float:
        # clean is monotone: bisection finds the first sample at or past
        # the threshold (falling samples are searched negated).
        if rising:
            i = bisect_left(clean, threshold)
        else:
            i = bisect_left(clean, -threshold, key=neg)
        if i == len(clean):
            raise ValueError(
                f"waveform ({out_direction}, {clean[0]:.3f}->{clean[-1]:.3f} V) "
                f"never crosses {threshold:.3f} V"
            )
        if i == 0:
            return times[0]
        t0, t1 = times[i - 1], times[i]
        v0, v1 = clean[i - 1], clean[i]
        if v1 == v0:
            return t1
        return t0 + (threshold - v0) * (t1 - t0) / (v1 - v0)

    half, lo_thr, hi_thr, near, far = _marker_thresholds(process)
    t_half = crossing(half)
    t_lo = crossing(lo_thr)
    t_hi = crossing(hi_thr)
    if rising:
        t_early = crossing(near)
        t_late = crossing(far)
        transition = (t_hi - t_lo) / 0.8
    else:
        t_early = crossing(far)
        t_late = crossing(near)
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
