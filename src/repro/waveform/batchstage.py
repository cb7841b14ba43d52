"""Batched stage solver: N independent stage outputs in one integration.

The scalar :class:`repro.waveform.stage.StageSolver` integrates one arc at
a time; the dominant cost of the whole analysis is its per-time-step
Newton iteration over tabulated stage currents, paid arc by arc in pure
python.  This module generalizes the same algorithm over a *batch axis*:
one backward-Euler loop advances all arcs of a topological level at once,
with per-element time steps, per-element Newton convergence masks
(:func:`repro.devices.newton.solve_newton_many`), and per-element handling
of the coupling drop event and the extension phases via masking.  Tables
of different cells are served by a :class:`repro.devices.tables.GridBank`
so a single fancy-indexed lookup covers the whole batch.

The numerics mirror the scalar solver step for step -- same time-step
formula, same damped Newton update, same drop/restart logic -- and the
vectorized measurement reproduces
:func:`repro.waveform.stage.measure_samples`, so every element's markers
equal the scalar solver's bit for bit; the property tests pin the
agreement.  Only the markers are produced, and an element stops
where the scalar solver stops: at its last marker threshold, once no
drop is pending (see :meth:`BatchStageSolver._integrate`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.devices.newton import solve_newton_many
from repro.devices.params import ProcessParams, default_process
from repro.devices.tables import GridBank, StageTable
from repro.obs.metrics import NEWTON_ITER_BUCKETS, MetricsRegistry
from repro.waveform.coupling import CouplingLoad
from repro.waveform.pwl import RISING, opposite
from repro.waveform import stage as stage_defaults
from repro.waveform.stage import (
    NEWTON_MAX_ITER,
    NEWTON_TOL,
    StageResult,
    StageSolverError,
    _marker_thresholds,
    measure_samples,
)


@dataclass
class CompactStageResults:
    """Marker-only results of a batched solve (no waveform objects).

    Column ``i`` holds the same measurements the scalar solver's
    :class:`StageResult` for spec ``i`` carries; the waveform itself is
    never materialised, which is what makes the columnar analysis core's
    solve path cheap.  ``newton_iterations`` counts the iterations up to
    the element's last marker threshold.  ``directions`` uses the shared
    RISING/FALLING strings.
    """

    directions: list[str]
    t_cross: np.ndarray
    transition: np.ndarray
    t_early: np.ndarray
    t_late: np.ndarray
    coupled: np.ndarray
    t_drop: np.ndarray
    newton_iterations: np.ndarray
    newton_bisections: np.ndarray

    def __len__(self) -> int:
        return self.t_cross.size


@dataclass
class _BatchSetup:
    """Per-element integration inputs (the columns the lockstep loop reads)."""

    k: np.ndarray
    in_rising: np.ndarray
    out_rising: np.ndarray
    t_start: np.ndarray
    tt: np.ndarray
    c_total: np.ndarray
    v_from: np.ndarray
    v_to: np.ndarray
    dt: np.ndarray
    trigger: np.ndarray
    restart: np.ndarray
    has_trigger: np.ndarray
    out_directions: list[str]


@dataclass
class _BatchTrace:
    """Everything the lockstep integration recorded, pre-measurement."""

    times_mat: np.ndarray
    values_mat: np.ndarray
    mask_mat: np.ndarray
    reset_snap: np.ndarray
    start_t: np.ndarray
    start_v: np.ndarray
    fired: np.ndarray
    t_drop: np.ndarray
    newton_total: np.ndarray
    bisect_total: np.ndarray


@dataclass(frozen=True)
class BatchArcSpec:
    """One element of a batched stage solve.

    ``table_index`` selects the stage table inside the solver's bank;
    the remaining fields mirror the scalar solver's arguments.
    """

    table_index: int
    input_direction: str
    transition: float
    load: CouplingLoad
    t_start: float = 0.0
    out_direction: str | None = None
    aiding: bool = False


class BatchStageSolver:
    """Integrates many stage outputs simultaneously.

    Construct with the list of distinct :class:`StageTable` objects the
    batch may reference (all built from the same process and point count,
    hence congruent grids), then call :meth:`solve_many_compact` with
    specs whose ``table_index`` points into that list.
    """

    def __init__(
        self,
        tables: list[StageTable],
        process: ProcessParams | None = None,
        steps_per_phase: int = stage_defaults.STEPS_PER_PHASE,
        settle_fraction: float = stage_defaults.SETTLE_FRACTION,
        max_extensions: int = stage_defaults.MAX_EXTENSIONS,
        metrics: MetricsRegistry | None = None,
    ):
        self.tables = tables
        self.bank = GridBank([table.grid for table in tables])
        self.process = process if process is not None else default_process()
        self.steps_per_phase = steps_per_phase
        self.settle_fraction = settle_fraction
        self.max_extensions = max_extensions
        self.metrics = metrics
        if metrics is not None:
            self._h_newton = metrics.histogram(
                "newton.iterations_per_arc", boundaries=NEWTON_ITER_BUCKETS
            )
            self._c_bisect = metrics.counter("newton.bisection_fallbacks")
            self._c_lockstep = metrics.counter("solver.lockstep_iterations")
        else:
            self._h_newton = None
            self._c_bisect = None
            self._c_lockstep = None
        self._drive_cache: dict[tuple[int, str], float] = {}
        self._drive_keepalive: list[StageTable] = []

    # -- drive-strength estimate (same formula as the scalar solver) -------

    def _drive_current(self, table: StageTable, out_direction: str) -> float:
        # Pure in (table, direction): memoized, the scalar table lookups
        # otherwise dominate batch setup.
        key = (id(table), out_direction)
        cached = self._drive_cache.get(key)
        if cached is None:
            vdd = self.process.vdd
            if out_direction == RISING:
                current = table.current(0.0, 0.5 * vdd)
            else:
                current = -table.current(vdd, 0.5 * vdd)
            cached = max(abs(current), 1e-9)
            self._drive_cache[key] = cached
            # Keep the table alive so its id() cannot be recycled.
            self._drive_keepalive.append(table)
        return cached

    def solve_many_compact(self, specs: list[BatchArcSpec]) -> CompactStageResults:
        """Solve all specs and return marker columns only.

        The measurement runs vectorized over the recorded sample matrices
        and is bit-identical to :func:`measure_samples` applied to the
        scalar solver's samples (the equivalence tests pin this).
        Elements whose waveform never reaches a threshold fall back to
        the per-element path so they raise the identical error.
        """
        if not specs:
            empty_f = np.empty(0)
            empty_i = np.empty(0, dtype=int)
            return CompactStageResults(
                [], empty_f, empty_f.copy(), empty_f.copy(), empty_f.copy(),
                np.empty(0, dtype=bool), empty_f.copy(), empty_i, empty_i.copy(),
            )
        setup = self._setup(specs)
        trace = self._integrate(setup)
        results = self._measure_compact(setup, trace)
        self._observe(trace)
        return results

    def _observe(self, trace: _BatchTrace) -> None:
        if self._h_newton is not None:
            self._h_newton.observe_many(trace.newton_total.tolist())
            fallbacks = int(trace.bisect_total.sum())
            if fallbacks:
                self._c_bisect.inc(fallbacks)
            self._c_lockstep.inc(trace.times_mat.shape[0])

    def _setup(self, specs: list[BatchArcSpec]) -> _BatchSetup:
        process = self.process
        vdd = process.vdd
        settle_band = self.settle_fraction * vdd
        n = len(specs)

        # -- per-element setup (cheap python loop) -------------------------
        k = np.empty(n, dtype=int)
        in_rising = np.empty(n, dtype=bool)
        out_rising = np.empty(n, dtype=bool)
        t_start = np.empty(n)
        tt = np.empty(n)
        c_total = np.empty(n)
        v_from = np.empty(n)
        v_to = np.empty(n)
        dt = np.empty(n)
        trigger = np.full(n, np.nan)
        restart = np.empty(n)
        has_trigger = np.zeros(n, dtype=bool)
        out_directions: list[str] = []

        for i, spec in enumerate(specs):
            load = spec.load
            if load.c_total <= 0:
                raise StageSolverError("stage load must have positive capacitance")
            out_direction = (
                spec.out_direction
                if spec.out_direction is not None
                else opposite(spec.input_direction)
            )
            out_directions.append(out_direction)
            rising = out_direction == RISING
            table = self.tables[spec.table_index]
            k[i] = spec.table_index
            in_rising[i] = spec.input_direction == RISING
            out_rising[i] = rising
            t_start[i] = spec.t_start
            tt[i] = spec.transition
            c_total[i] = load.c_total
            v_from[i] = 0.0 if rising else vdd
            v_to[i] = vdd if rising else 0.0
            tau = load.c_total * vdd / self._drive_current(table, out_direction)
            dt[i] = max((spec.transition + 4.0 * tau) / (2.0 * self.steps_per_phase), 1e-15)

            if load.has_active_coupling:
                if spec.aiding:
                    trig = load.restart_voltage(out_direction, process)
                else:
                    trig = load.trigger_voltage(out_direction, process)
                if rising:
                    trig = min(trig, vdd - 2.0 * settle_band)
                else:
                    trig = max(trig, 2.0 * settle_band)
                trigger[i] = trig
                has_trigger[i] = True
            if spec.aiding and load.has_active_coupling:
                drop = load.divider_drop(process)
                if rising:
                    restart[i] = min(trigger[i] + drop, vdd)
                else:
                    restart[i] = max(trigger[i] - drop, 0.0)
            else:
                restart[i] = load.restart_voltage(out_direction, process)

        return _BatchSetup(
            k=k,
            in_rising=in_rising,
            out_rising=out_rising,
            t_start=t_start,
            tt=tt,
            c_total=c_total,
            v_from=v_from,
            v_to=v_to,
            dt=dt,
            trigger=trigger,
            restart=restart,
            has_trigger=has_trigger,
            out_directions=out_directions,
        )

    def _integrate(self, setup: _BatchSetup) -> _BatchTrace:
        """Advance every element in lockstep until it is done.

        An element is done once (a) no coupling drop is pending -- it has
        no trigger, or the trigger has fired -- and (b) its newest
        advanced sample is at or past its last marker threshold.  The
        compact measurement reads, per threshold, only the first sample
        at or past it and that sample's predecessor, so later samples
        cannot move a marker; a pending drop could still restart the
        waveform, hence (a).

        The integrating elements are held as compressed columns that
        shrink as elements finish (an element never rejoins), so a
        lockstep iteration costs a fixed number of array operations
        whatever the batch mix.  Every element-wise operation is the
        scalar solver's, in the scalar solver's order.
        """
        vdd = self.process.vdd
        max_steps = 2 * self.steps_per_phase
        n = setup.k.size
        out_rising = setup.out_rising
        restart = setup.restart
        # Sign-folded voltages measure progress along the transition: a
        # rising value v is v, a falling one -v (negation is exact), so a
        # single ``>=`` serves both directions.
        sign = np.where(out_rising, 1.0, -1.0)
        thresholds = _marker_thresholds(self.process)
        last = np.where(out_rising, max(thresholds), -min(thresholds))

        fired = np.zeros(n, dtype=bool)
        t_drop = np.full(n, np.nan)
        newton_total = np.zeros(n, dtype=int)
        bisect_total = np.zeros(n, dtype=int)
        # Recorded waveforms: a per-element start point that the drop
        # event can reset, plus per lockstep iteration the elements that
        # advanced and their new samples (an extension step advances
        # none).
        start_t = setup.t_start.copy()
        start_v = setup.v_from.copy()
        reset_snap = np.zeros(n, dtype=int)
        rec: list[tuple[np.ndarray, np.ndarray, np.ndarray] | None] = []

        # -- columns of the integrating elements ---------------------------
        idx = np.arange(n)
        t = setup.t_start.copy()
        v = setup.v_from.copy()
        sv = v * sign
        dt = setup.dt.copy()
        coeff = dt / setup.c_total
        # Sign-folded trigger (+inf once fired or without one, so it can
        # never be crossed) and stop threshold (+inf while a drop is
        # pending, so the element cannot finish).
        strig = np.where(setup.has_trigger, setup.trigger * sign, np.inf)
        stop = np.where(setup.has_trigger, np.inf, last)
        armed = bool(setup.has_trigger.any())
        newton = np.zeros(n, dtype=int)
        bisect = np.zeros(n, dtype=int)
        # Input-ramp columns, dropped once every ramp is over.
        ramp: tuple | None = (
            setup.k, setup.t_start, setup.tt > 0.0,
            np.where(setup.tt > 0.0, setup.tt, 1.0), setup.in_rising,
        )
        prepared: tuple = ()

        step = 0
        extensions = 0
        lo, hi = -0.4, vdd + 0.4
        gradient = self.bank.gradient_many_prepared
        while idx.size:
            # Every element started together and advances once per
            # iteration, so all of them exhaust the step budget at once:
            # they double dt and skip this iteration (scalar `continue`).
            step += 1
            if step > max_steps:
                if extensions >= self.max_extensions:
                    i = int(idx[0])
                    raise StageSolverError(
                        f"output failed to settle after {extensions} extensions "
                        f"(element {i}, t={t[0]:.3e}, v={v[0]:.3f}, "
                        f"target={setup.v_to[i]:.3f})"
                    )
                extensions += 1
                dt *= 2.0
                coeff = dt / setup.c_total[idx]
                step = 0
                rec.append(None)
                continue

            t_next = t + dt
            if ramp is not None:
                k_r, t_start_r, tt_pos, tt_safe, in_rising_r = ramp
                # Input ramp voltage at t_next (saturated rail-to-rail).
                frac = np.where(
                    tt_pos,
                    np.minimum(np.maximum((t_next - t_start_r) / tt_safe, 0.0), 1.0),
                    (t_next >= t_start_r).astype(float),
                )
                vin_next = np.where(in_rising_r, vdd * frac, vdd * (1.0 - frac))
                # vin is fixed across the Newton iterations of this step,
                # so the x-side table locate happens once per step.
                prepared = self.bank.prepare_x(k_r, vin_next)
                # t never moves backwards, so once every ramp is over
                # frac stays exactly 1.0 and the x-side stays valid.
                if frac.min() == 1.0:
                    ramp = None
            row_g, tx_g, one_m_tx_g = prepared
            v_prev = v

            def residual(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
                current, dcurrent = gradient(row_g, tx_g, one_m_tx_g, x)
                np.multiply(current, coeff, out=current)
                f = x - v_prev
                f -= current
                np.multiply(dcurrent, coeff, out=dcurrent)
                np.subtract(1.0, dcurrent, out=dcurrent)
                return f, dcurrent

            solved = solve_newton_many(
                residual, x0=v_prev, tol=NEWTON_TOL, max_iter=NEWTON_MAX_ITER, lo=lo, hi=hi
            )
            newton += solved.iterations
            bisect += solved.used_bisection
            v_next = solved.roots
            sv_next = v_next * sign
            done = sv_next >= stop

            advanced = (idx, t_next, v_next)
            # Coupling drop event: detect the trigger crossing inside
            # this step, fire, and restart the reported waveform.
            if armed:
                crossed = (sv < strig) & (strig <= sv_next)
                if np.count_nonzero(crossed):
                    moved = ~crossed
                    advanced = (idx[moved], t_next[moved], v_next[moved])
                    c = np.flatnonzero(crossed)
                    cidx = idx[c]
                    v_prev_c = v_prev[c]
                    dv = v_next[c] - v_prev_c
                    frac_c = np.where(
                        dv != 0.0,
                        (setup.trigger[cidx] - v_prev_c) / np.where(dv != 0.0, dv, 1.0),
                        1.0,
                    )
                    t_fire = t[c] + frac_c * dt[c]
                    t_drop[cidx] = t_fire
                    fired[cidx] = True
                    start_t[cidx] = t_fire
                    start_v[cidx] = restart[cidx]
                    reset_snap[cidx] = len(rec)
                    t_next[c] = t_fire
                    v_next[c] = restart[cidx]
                    sv_next[c] = restart[cidx] * sign[c]
                    strig[c] = np.inf
                    stop[c] = last[cidx]
                    armed = bool((strig < np.inf).any())

            rec.append(advanced)
            t, v, sv = t_next, v_next, sv_next
            if np.count_nonzero(done):
                fin = idx[done]
                newton_total[fin] = newton[done]
                bisect_total[fin] = bisect[done]
                keep = ~done
                idx, sign, t, v, sv, dt, coeff, strig, stop, newton, bisect = (
                    col[keep]
                    for col in (idx, sign, t, v, sv, dt, coeff, strig, stop, newton, bisect)
                )
                if ramp is None:
                    prepared = tuple(col[keep] for col in prepared)
                else:
                    ramp = tuple(col[keep] for col in ramp)
                if armed:
                    armed = bool((strig < np.inf).any())

        # -- sample matrices: one row per lockstep iteration ---------------
        times_mat = np.zeros((len(rec), n))
        values_mat = np.zeros((len(rec), n))
        mask_mat = np.zeros((len(rec), n), dtype=bool)
        for row, sample in enumerate(rec):
            if sample is not None:
                lanes, times, values = sample
                times_mat[row, lanes] = times
                values_mat[row, lanes] = values
                mask_mat[row, lanes] = True

        return _BatchTrace(
            times_mat=times_mat,
            values_mat=values_mat,
            mask_mat=mask_mat,
            reset_snap=reset_snap,
            start_t=start_t,
            start_v=start_v,
            fired=fired,
            t_drop=t_drop,
            newton_total=newton_total,
            bisect_total=bisect_total,
        )

    # -- measurement: per-element reference path ---------------------------

    def _element_samples(
        self, trace: _BatchTrace, i: int
    ) -> tuple[list[float], list[float]]:
        """Element ``i``'s reported samples: its start point and every
        sample it advanced since its drop-reset snapshot."""
        snap = trace.reset_snap[i]
        sel = trace.mask_mat[snap:, i]
        times = [float(trace.start_t[i])] + trace.times_mat[snap:, i][sel].tolist()
        values = [float(trace.start_v[i])] + trace.values_mat[snap:, i][sel].tolist()
        return times, values

    def _measure_element(self, setup: _BatchSetup, trace: _BatchTrace, i: int) -> StageResult:
        return measure_samples(
            self.process,
            *self._element_samples(trace, i),
            setup.out_directions[i],
            bool(trace.fired[i]),
            float(trace.t_drop[i]) if trace.fired[i] else None,
            int(trace.newton_total[i]),
            int(trace.bisect_total[i]),
        )

    # -- measurement: vectorized compact path ------------------------------

    def _measure_compact(self, setup: _BatchSetup, trace: _BatchTrace) -> CompactStageResults:
        """Vectorized marker extraction over the recorded sample matrices.

        Reproduces, element for element, exactly what
        :func:`measure_samples` computes on the element's samples:

        * the reported waveform of element ``i`` is its start point
          followed by the *advanced* samples at or after its drop-reset
          snapshot -- modelled here by an ``included`` mask over the
          (start row + iteration rows) matrix;
        * the monotone clean is a running max (rising) / min (falling)
          over included samples, computed by forward-filling excluded
          rows with the previous included value and accumulating (the
          running extremum picks one operand exactly, so no rounding);
        * a threshold crossing interpolates between the first included
          sample at or past the threshold and its included predecessor
          with the identical expression the scalar path uses.

        Elements that never reach a threshold (the scalar path raises)
        fall back to :func:`measure_samples` per element.
        """
        n = setup.k.size
        cols = np.arange(n)
        out_rising = setup.out_rising
        sign = np.where(out_rising, 1.0, -1.0)

        steps = trace.times_mat.shape[0]
        rows = np.arange(steps)[:, None]
        included = np.empty((steps + 1, n), dtype=bool)
        included[0] = True
        included[1:] = trace.mask_mat & (rows >= trace.reset_snap[None, :])

        times = np.empty((steps + 1, n))
        times[0] = trace.start_t
        times[1:] = trace.times_mat
        values = np.empty((steps + 1, n))
        values[0] = trace.start_v
        values[1:] = trace.values_mat

        # Forward-fill indices of the most recent included row.
        ff = np.where(included, np.arange(steps + 1)[:, None], 0)
        np.maximum.accumulate(ff, axis=0, out=ff)
        values_filled = np.take_along_axis(values, ff, axis=0)
        times_filled = np.take_along_axis(times, ff, axis=0)
        del ff
        # Signed running extremum: rising columns accumulate their max,
        # falling columns their min (negation is exact for floats).
        signed_clean = np.maximum.accumulate(values_filled * sign[None, :], axis=0)
        del values_filled

        def crossing(threshold: float) -> tuple[np.ndarray, np.ndarray]:
            """Per-element first-crossing time of a shared threshold,
            plus the mask of elements that do cross."""
            match = (signed_clean >= (sign * threshold)[None, :]) & included
            has = match.any(axis=0)
            first = np.argmax(match, axis=0)
            v1 = sign * signed_clean[first, cols]
            t1 = times[first, cols]
            prev = first - 1  # row -1 only read where first == 0, then discarded
            v0 = sign * signed_clean[prev, cols]
            t0 = times_filled[prev, cols]
            with np.errstate(divide="ignore", invalid="ignore"):
                interp = t0 + (threshold - v0) * (t1 - t0) / (v1 - v0)
            out = np.where(
                first == 0, times[0], np.where(v1 == v0, t1, interp)
            )
            return out, has

        half, lo_thr, hi_thr, near, far = _marker_thresholds(self.process)
        t_half, ok_half = crossing(half)
        t_lo, ok_lo = crossing(lo_thr)
        t_hi, ok_hi = crossing(hi_thr)
        t_near, ok_near = crossing(near)
        t_far, ok_far = crossing(far)
        ok = ok_half & ok_lo & ok_hi & ok_near & ok_far

        transition = np.where(
            out_rising, (t_hi - t_lo) / 0.8, (t_lo - t_hi) / 0.8
        )
        np.maximum(transition, 0.0, out=transition)
        t_early = np.where(out_rising, t_near, t_far)
        t_late = np.where(out_rising, t_far, t_near)

        result = CompactStageResults(
            directions=setup.out_directions,
            t_cross=t_half,
            transition=transition,
            t_early=t_early,
            t_late=t_late,
            coupled=trace.fired.copy(),
            t_drop=trace.t_drop.copy(),
            newton_iterations=trace.newton_total.copy(),
            newton_bisections=trace.bisect_total.copy(),
        )
        if not ok.all():
            # Rare: delegate to the scalar measurement, which either
            # produces the value (shouldn't happen if ``ok`` is honest)
            # or raises the identical diagnostic.
            for i in np.nonzero(~ok)[0]:
                measured = self._measure_element(setup, trace, int(i))
                result.t_cross[i] = measured.t_cross
                result.transition[i] = measured.transition
                result.t_early[i] = measured.t_early
                result.t_late[i] = measured.t_late
        return result
