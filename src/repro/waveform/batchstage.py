"""Batched stage solver: N independent stage outputs in one integration.

The scalar :class:`repro.waveform.stage.StageSolver` integrates one arc at
a time; the dominant cost of the whole analysis is its per-time-step
Newton iteration over tabulated stage currents, paid arc by arc in pure
python.  This module generalizes the same algorithm over a *batch axis*:
one backward-Euler loop advances all arcs of a topological level at once,
with per-element time steps, per-element Newton convergence, and
per-element handling of the coupling drop event and the extension phases
via masking.  Tables of different cells are served by a
:class:`repro.devices.tables.GridBank` so a single fancy-indexed lookup
covers the whole batch.  A batch arrives as columns
(:class:`BatchArcColumns`), one entry per element, and its setup is one
vectorized pass over them.

Each lockstep row runs :func:`repro.devices.newton.solve_newton_many`'s
damped Newton update inline, with the table lookup of
:meth:`GridBank.gradient_many_prepared` in its body; that function stays
the row's reference and its fallback, redoing a row that meets a zero
derivative or exhausts the iteration budget.

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
from typing import Sequence

import numpy as np

from repro.devices.newton import solve_newton_many
from repro.devices.params import ProcessParams, default_process
from repro.devices.tables import GridBank, StageTable
from repro.obs.metrics import NEWTON_ITER_BUCKETS, MetricsRegistry
from repro.waveform.coupling import CouplingLoad
from repro.waveform.pwl import FALLING, RISING, opposite
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
    the remaining fields mirror the scalar solver's arguments.  A batch
    of specs becomes :class:`BatchArcColumns` (:meth:`~BatchArcColumns.from_specs`).
    """

    table_index: int
    input_direction: str
    transition: float
    load: CouplingLoad
    t_start: float = 0.0
    out_direction: str | None = None
    aiding: bool = False


@dataclass
class BatchArcColumns:
    """A batch of stage solves as columns, one entry per element.

    What :meth:`BatchStageSolver.solve_many_compact` integrates: the
    stage table's index in the solver's bank, the input direction, the
    input slew, the load's total capacitance (:attr:`CouplingLoad.c_total`,
    summed in its order) and active coupling capacitance, and the aiding
    flag.  ``t_start`` (default 0) and ``out_rising`` (default: the
    opposite of the input) serve the specs.
    """

    table_index: np.ndarray
    input_rising: np.ndarray
    transition: np.ndarray
    c_total: np.ndarray
    c_active: np.ndarray
    aiding: np.ndarray
    t_start: np.ndarray | None = None
    out_rising: np.ndarray | None = None

    def __len__(self) -> int:
        return self.table_index.size

    @classmethod
    def from_specs(cls, specs: Sequence[BatchArcSpec]) -> "BatchArcColumns":
        """The columns of a list of specs."""
        return cls(
            table_index=np.array([s.table_index for s in specs], dtype=int),
            input_rising=np.array([s.input_direction == RISING for s in specs], dtype=bool),
            transition=np.array([s.transition for s in specs], dtype=float),
            c_total=np.array([s.load.c_total for s in specs], dtype=float),
            c_active=np.array([s.load.c_couple_active for s in specs], dtype=float),
            aiding=np.array([s.aiding for s in specs], dtype=bool),
            t_start=np.array([s.t_start for s in specs], dtype=float),
            out_rising=np.array(
                [
                    (s.out_direction if s.out_direction is not None
                     else opposite(s.input_direction)) == RISING
                    for s in specs
                ],
                dtype=bool,
            ),
        )


class BatchStageSolver:
    """Integrates many stage outputs simultaneously.

    Construct with the list of distinct :class:`StageTable` objects the
    batch may reference (all built from the same process and point count,
    hence congruent grids), then call :meth:`solve_many_compact` with
    columns (or specs) whose table index points into that list.
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
        # The scalar solver's drive-strength estimate per table (rows) and
        # output direction (column 0 falling, 1 rising).
        vdd = self.process.vdd
        self._drive = np.array(
            [
                [
                    max(abs(-table.current(vdd, 0.5 * vdd)), 1e-9),
                    max(abs(table.current(0.0, 0.5 * vdd)), 1e-9),
                ]
                for table in tables
            ]
        )

    def solve_many_compact(
        self, batch: BatchArcColumns | Sequence[BatchArcSpec]
    ) -> CompactStageResults:
        """Solve every element of ``batch`` and return marker columns only.

        The measurement runs vectorized over the recorded sample matrices
        and is bit-identical to :func:`measure_samples` applied to the
        scalar solver's samples (the equivalence tests pin this).
        Elements whose waveform never reaches a threshold fall back to
        the per-element path so they raise the identical error.
        """
        if not len(batch):
            empty_f = np.empty(0)
            empty_i = np.empty(0, dtype=int)
            return CompactStageResults(
                [], empty_f, empty_f.copy(), empty_f.copy(), empty_f.copy(),
                np.empty(0, dtype=bool), empty_f.copy(), empty_i, empty_i.copy(),
            )
        setup = self._setup(batch)
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

    def _setup(self, batch: BatchArcColumns | Sequence[BatchArcSpec]) -> _BatchSetup:
        """The integration inputs of every element, in one vectorized pass.

        Each column is the scalar solver's expression, in its order:
        ``c_total`` is :attr:`CouplingLoad.c_total`, the drop, trigger
        and restart are :meth:`CouplingLoad.divider_drop`,
        :meth:`~CouplingLoad.trigger_voltage` and
        :meth:`~CouplingLoad.restart_voltage`, and the time step and the
        trigger's settle-band clamp are :meth:`StageSolver.solve`'s.
        """
        if not isinstance(batch, BatchArcColumns):
            batch = BatchArcColumns.from_specs(batch)
        process = self.process
        vdd = process.vdd
        v_th = process.v_th_model
        settle_band = self.settle_fraction * vdd
        n = len(batch)

        k = batch.table_index
        in_rising = batch.input_rising
        out_rising = ~in_rising if batch.out_rising is None else batch.out_rising
        c_active = batch.c_active
        c_total = batch.c_total
        if np.count_nonzero(c_total <= 0):
            raise StageSolverError("stage load must have positive capacitance")
        drive = self._drive[k, out_rising.astype(int)]
        tau = c_total * vdd / drive
        dt = np.maximum(
            (batch.transition + 4.0 * tau) / (2.0 * self.steps_per_phase), 1e-15
        )

        has_trigger = c_active > 0.0
        drop = np.minimum(vdd * c_active / c_total, vdd)
        restart = np.where(out_rising, v_th, vdd - v_th)
        trigger = np.where(
            batch.aiding, restart, np.where(out_rising, v_th + drop, vdd - v_th - drop)
        )
        # With overwhelming coupling the trigger may sit inside the settle
        # band; clamped so the event still fires.
        trigger = np.where(
            out_rising,
            np.minimum(trigger, vdd - 2.0 * settle_band),
            np.maximum(trigger, 2.0 * settle_band),
        )
        trigger[~has_trigger] = np.nan
        # An aiding drop jumps forward from the trigger.
        jump = np.where(
            out_rising, np.minimum(trigger + drop, vdd), np.maximum(trigger - drop, 0.0)
        )
        restart = np.where(batch.aiding & has_trigger, jump, restart)

        return _BatchSetup(
            k=k,
            in_rising=in_rising,
            out_rising=out_rising,
            t_start=np.zeros(n) if batch.t_start is None else batch.t_start,
            tt=batch.transition,
            c_total=c_total,
            v_from=np.where(out_rising, 0.0, vdd),
            v_to=np.where(out_rising, vdd, 0.0),
            dt=dt,
            trigger=trigger,
            restart=restart,
            has_trigger=has_trigger,
            out_directions=[(FALLING, RISING)[r] for r in out_rising.tolist()],
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

        Each lockstep row runs :func:`solve_newton_many`'s damped Newton
        update inline, on the residual
        :meth:`GridBank.gradient_many_prepared` and the backward-Euler
        step define: a converged lane keeps its root while the others
        iterate.  A row that meets a zero derivative, or runs past
        ``NEWTON_MAX_ITER``, is redone from its start by
        :func:`solve_newton_many` itself, which owns the bisection.
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
        # Input-ramp columns (InputRamp.voltage_at; a zero slew is a
        # step input) and each element's table offset in the flat bank.
        layout = self.bank.layout
        tt_pos = setup.tt > 0.0
        ramp = (
            setup.t_start, np.where(tt_pos, setup.tt, 1.0), tt_pos, setup.in_rising,
            setup.k * (layout.nx * layout.ny),
        )

        # Table geometry and loop constants; 0-d arrays are the cheapest
        # scalar operands numpy takes, and the arithmetic is the same.
        flat, flat_x1 = layout.flat, layout.flat_x1
        flat_y1, flat_x1y1 = layout.flat_y1, layout.flat_x1y1
        ny = layout.ny
        x0, dx, nx2 = np.array(layout.x0), np.array(layout.dx), np.array(layout.nx - 2)
        y0, dy, ny2 = np.array(layout.y0), np.array(layout.dy), np.array(ny - 2)
        zero, one, izero = np.array(0.0), np.array(1.0), np.array(0)
        vdd_a = np.array(vdd)
        lo, hi = -0.4, vdd + 0.4
        lo_a, hi_a = np.array(lo), np.array(hi)
        max_step = np.array(0.5 * (hi - lo))
        neg_max_step = -max_step
        tol = np.array(NEWTON_TOL)
        max_iter = NEWTON_MAX_ITER
        subtract, multiply, divide = np.subtract, np.multiply, np.divide
        maximum, minimum, count_nonzero = np.maximum, np.minimum, np.count_nonzero

        step = 0
        extensions = 0
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
            # Input ramp voltage at t_next (saturated rail-to-rail).
            t_start_r, tt_safe, tt_pos_r, in_rising_r, k_offset_r = ramp
            frac = np.where(
                tt_pos_r,
                np.minimum(np.maximum((t_next - t_start_r) / tt_safe, 0.0), 1.0),
                (t_next >= t_start_r).astype(float),
            )
            vin = multiply(vdd_a, np.where(in_rising_r, frac, subtract(one, frac)))
            # vin is fixed across the Newton iterations of this step, so
            # its x-cell is located once: _cell_locate's clamp, inline.
            fx = subtract(vin, x0)
            divide(fx, dx, out=fx)
            row = fx.astype(int)
            maximum(row, izero, out=row)
            minimum(row, nx2, out=row)
            tx = subtract(fx, row)
            maximum(tx, zero, out=tx)
            minimum(tx, one, out=tx)
            one_m_tx = subtract(one, tx)
            multiply(row, ny, out=row)
            row += k_offset_r  # (k * nx + ix) * ny
            v_prev = v
            m = idx.size

            # solve_newton_many, inline: x holds each converged lane's
            # root, and only the active lanes move.
            x = v_prev.copy()
            active = np.ones(m, dtype=bool)
            remaining = m
            iterations = np.zeros(m, dtype=int)
            it = 0
            redo = False
            while True:
                it += 1
                if it > max_iter:
                    redo = True
                    break
                # The residual x - v_prev - coeff * I(vin, x) and its
                # derivative, in gradient_many_prepared's order.
                fy = subtract(x, y0)
                divide(fy, dy, out=fy)
                iy = fy.astype(int)
                maximum(iy, izero, out=iy)
                minimum(iy, ny2, out=iy)
                ty = subtract(fy, iy)
                maximum(ty, zero, out=ty)
                minimum(ty, one, out=ty)
                iy += row
                v00 = flat[iy]
                v10 = flat_x1[iy]
                v01 = flat_y1[iy]
                v11 = flat_x1y1[iy]
                multiply(v00, one_m_tx, out=v00)
                v00 += multiply(v10, tx, out=v10)  # lo = v00*(1-tx) + v10*tx
                multiply(v01, one_m_tx, out=v01)
                v01 += multiply(v11, tx, out=v11)  # hi = v01*(1-tx) + v11*tx
                df = subtract(v01, v00)
                divide(df, dy, out=df)  # dI/dy = (hi - lo) / dy
                multiply(v00, subtract(one, ty), out=v00)
                v00 += multiply(v01, ty, out=v01)  # I = lo*(1-ty) + hi*ty
                multiply(v00, coeff, out=v00)
                f = subtract(x, v_prev)
                f -= v00
                multiply(df, coeff, out=df)
                subtract(one, df, out=df)
                if count_nonzero(df) != m:
                    redo = True
                    break
                # The damped, clamped update and the convergence test.
                divide(f, df, out=f)
                maximum(f, neg_max_step, out=f)
                minimum(f, max_step, out=f)
                x_new = subtract(x, f)
                maximum(x_new, lo_a, out=x_new)
                minimum(x_new, hi_a, out=x_new)
                gap = subtract(x_new, x)
                np.abs(gap, out=gap)
                conv = np.less_equal(gap, tol)
                conv &= active
                np.copyto(x, x_new, where=active)
                converged = count_nonzero(conv)
                if converged:
                    iterations += conv * it
                    remaining -= converged
                    if not remaining:
                        newton += iterations
                        break
                    active ^= conv
            if redo:
                # Zero derivative or budget exhausted: the reference
                # redoes the whole row from v_prev and owns the bisection.
                def residual(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
                    current, dcurrent = self.bank.gradient_many_prepared(
                        row, tx, one_m_tx, y
                    )
                    np.multiply(current, coeff, out=current)
                    f = y - v_prev
                    f -= current
                    np.multiply(dcurrent, coeff, out=dcurrent)
                    np.subtract(1.0, dcurrent, out=dcurrent)
                    return f, dcurrent

                solved = solve_newton_many(
                    residual, x0=v_prev, tol=NEWTON_TOL, max_iter=max_iter, lo=lo, hi=hi
                )
                x = solved.roots
                newton += solved.iterations
                bisect_total[idx] += solved.used_bisection
            v_next = x
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
            if count_nonzero(done):
                fin = idx[done]
                newton_total[fin] = newton[done]
                keep = ~done
                idx, sign, t, v, sv, dt, coeff, strig, stop, newton = (
                    col.compress(keep)
                    for col in (idx, sign, t, v, sv, dt, coeff, strig, stop, newton)
                )
                ramp = tuple(col.compress(keep) for col in ramp)
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
