"""Batch stage solver vs the scalar reference.

The batch solver re-implements the scalar backward-Euler/Newton loop over
a batch axis with identical arithmetic and, like it, stops each element at
its last marker threshold; these tests pin the agreement of the markers on
randomized electrical situations (both directions, uncoupled, opposing
and aiding coupling), on situations that put the coupling trigger past
the last threshold, and check the batching machinery itself.  A
test-local copy of the solver before its Newton update moved into the
lockstep loop holds the fused loop's whole trace, byte for byte, and the
calculator's batch path is held to its scalar solve.
"""

import dataclasses
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices.newton import solve_newton_many
from repro.errors import InputError
from repro.obs.metrics import MetricsRegistry
from repro.waveform.batchstage import (
    BatchArcSpec,
    BatchStageSolver,
    _BatchSetup,
    _BatchTrace,
)
from repro.waveform.coupling import CouplingLoad
from repro.waveform.gatedelay import (
    CAP_GRID,
    MIN_BATCH,
    TRANSITION_GRID,
    ArcRequest,
    GateDelayCalculator,
)
from repro.waveform.pwl import FALLING, RISING, opposite
from repro.waveform.stage import (
    NEWTON_MAX_ITER,
    NEWTON_TOL,
    STEPS_PER_PHASE,
    InputRamp,
    StageSolverError,
    _marker_thresholds,
)
from tests.test_waveform_stage import (
    FLAT_LOAD,
    _flat_derivative_table,
    _rail_flat_derivative_table,
    _tabulate,
    _weak_tail_table,
)

MARKERS = ("t_cross", "transition", "t_early", "t_late")


@pytest.fixture(scope="module")
def harness(library, process):
    """Shared stage tables (via a throwaway calculator) plus both solvers."""
    calc = GateDelayCalculator(process=process)
    arcs = [
        ("INV_X1", "A"),
        ("NAND2_X1", "A"),
        ("NOR3_X2", "B"),
        ("AOI21_X4", "C"),
    ]
    solvers = [calc.solver_for(library[name], pin) for name, pin in arcs]
    batch = BatchStageSolver([s.table for s in solvers], process)
    return solvers, batch


def _scalar(solvers, spec):
    """The scalar reference solve of one spec."""
    return solvers[spec.table_index].solve(
        InputRamp(
            direction=spec.input_direction,
            t_start=spec.t_start,
            transition=spec.transition,
        ),
        spec.load,
        out_direction=spec.out_direction,
        aiding=spec.aiding,
    )


def _assert_matches_scalar(solvers, specs, got):
    """Every marker and ``coupled`` of compact column ``i`` equal the
    scalar solve of ``specs[i]`` bit for bit."""
    assert len(got) == len(specs)
    for i, spec in enumerate(specs):
        ref = _scalar(solvers, spec)
        assert got.directions[i] == ref.direction, spec
        assert bool(got.coupled[i]) == ref.coupled, spec
        for marker in MARKERS:
            assert getattr(got, marker)[i] == getattr(ref, marker), (spec, marker)


def _random_specs(n, seed):
    rng = random.Random(seed)
    specs = []
    for _ in range(n):
        kind = rng.random()
        if kind < 0.4:
            load = CouplingLoad(c_ground=rng.uniform(1e-15, 30e-15))
            aiding = False
        elif kind < 0.8:
            load = CouplingLoad(
                c_ground=rng.uniform(1e-15, 10e-15),
                c_couple_active=rng.uniform(0.5e-15, 6e-15),
            )
            aiding = False
        else:
            load = CouplingLoad(
                c_ground=rng.uniform(1e-15, 10e-15),
                c_couple_active=rng.uniform(0.5e-15, 6e-15),
            )
            aiding = True
        specs.append(
            BatchArcSpec(
                table_index=rng.randrange(4),
                input_direction=rng.choice([RISING, FALLING]),
                transition=rng.uniform(10e-12, 250e-12),
                load=load,
                aiding=aiding,
            )
        )
    return specs


class TestBatchVsScalar:
    def test_random_mixed_batch_matches_scalar_bitwise(self, harness):
        solvers, batch = harness
        specs = _random_specs(40, seed=11)
        _assert_matches_scalar(solvers, specs, batch.solve_many_compact(specs))

    def test_compact_results_ignore_batch_mates(self, harness):
        """A spec's compact result is bitwise the same whatever else
        shares its batch, and equals the scalar solve: what lets the
        columnar core solve predicted keys ahead of their wave."""
        solvers, batch = harness
        specs = _random_specs(40, seed=11)
        full = batch.solve_many_compact(specs)
        subset = list(range(1, len(specs), 2))[::-1]
        part = batch.solve_many_compact([specs[i] for i in subset])
        for j, i in enumerate(subset):
            spec = specs[i]
            ref = _scalar(solvers, spec)
            assert full.directions[i] == part.directions[j] == ref.direction
            for marker in MARKERS:
                value = getattr(ref, marker)
                assert getattr(full, marker)[i] == value, (spec, marker)
                assert getattr(part, marker)[j] == value, (spec, marker)

    def test_per_element_measurement_matches_scalar(self, harness):
        """The per-element path (what an element that never reaches a
        threshold falls back to) measures each element's recorded samples
        as the scalar solver measures its own: same waveform bytes, same
        markers and counts."""
        solvers, batch = harness
        specs = _random_specs(40, seed=11)
        setup = batch._setup(specs)
        trace = batch._integrate(setup)
        for i, spec in enumerate(specs):
            got = batch._measure_element(setup, trace, i)
            ref = _scalar(solvers, spec)
            assert got.waveform.times.tobytes() == ref.waveform.times.tobytes(), spec
            assert got.waveform.values.tobytes() == ref.waveform.values.tobytes(), spec
            for name in MARKERS + (
                "direction", "coupled", "t_drop", "newton_iterations", "newton_bisections"
            ):
                assert getattr(got, name) == getattr(ref, name), (spec, name)

    def test_batch_of_one(self, harness):
        solvers, batch = harness
        spec = BatchArcSpec(
            table_index=1,
            input_direction=RISING,
            transition=80e-12,
            load=CouplingLoad(c_ground=5e-15, c_couple_active=2e-15),
        )
        got = batch.solve_many_compact([spec])
        _assert_matches_scalar(solvers, [spec], got)
        assert got.coupled[0]

    def test_empty_batch(self, harness):
        _, batch = harness
        assert len(batch.solve_many_compact([])) == 0

    def test_nonpositive_load_rejected(self, harness):
        _, batch = harness
        spec = BatchArcSpec(
            table_index=0,
            input_direction=RISING,
            transition=50e-12,
            load=CouplingLoad(c_ground=0.0),
        )
        with pytest.raises(StageSolverError):
            batch.solve_many_compact([spec])

    def test_nonzero_start_time_shifts_markers(self, harness):
        solvers, batch = harness
        base = BatchArcSpec(
            table_index=0,
            input_direction=FALLING,
            transition=60e-12,
            load=CouplingLoad(c_ground=8e-15),
        )
        shifted = BatchArcSpec(
            table_index=0,
            input_direction=FALLING,
            transition=60e-12,
            load=CouplingLoad(c_ground=8e-15),
            t_start=1e-9,
        )
        got = batch.solve_many_compact([base, shifted])
        _assert_matches_scalar(solvers, [base, shifted], got)
        assert got.t_cross[1] == pytest.approx(got.t_cross[0] + 1e-9, abs=1e-15)
        assert got.transition[1] == pytest.approx(got.transition[0], abs=1e-15)


# Situations the random specs never draw: the clamped opposing trigger
# (3.168 V rising, 0.132 V falling) and the aiding restart lie past the
# last marker threshold (3.1 V rising, 0.2 V falling), the input switches
# instantly, or a heavy load meets a slow input.
STOP_RULE_CASES = {
    "opposing-10f-1f": (CouplingLoad(c_ground=1e-15, c_couple_active=10e-15), 80e-12, False),
    "opposing-20f-0.5f": (CouplingLoad(c_ground=0.5e-15, c_couple_active=20e-15), 80e-12, False),
    "aiding-12f-1f": (CouplingLoad(c_ground=1e-15, c_couple_active=12e-15), 80e-12, True),
    "zero-transition": (CouplingLoad(c_ground=6e-15, c_couple_active=2e-15), 0.0, False),
    "heavy-load-slow-input": (CouplingLoad(c_ground=120e-15), 600e-12, False),
}
STOP_RULE_CELLS = (0, 2)  # INV_X1/A and NOR3_X2/B


class TestStopRule:
    @pytest.mark.parametrize("case", sorted(STOP_RULE_CASES))
    def test_markers_match_scalar_past_last_threshold(self, harness, case):
        """Both output directions on two cells, solved in one batch:
        every marker and ``coupled`` equal the scalar solver's."""
        solvers, batch = harness
        load, transition, aiding = STOP_RULE_CASES[case]
        specs = [
            BatchArcSpec(
                table_index=cell,
                input_direction=direction,
                transition=transition,
                load=load,
                aiding=aiding,
            )
            for cell in STOP_RULE_CELLS
            for direction in (RISING, FALLING)
        ]
        got = batch.solve_many_compact(specs)
        _assert_matches_scalar(solvers, specs, got)
        assert bool(got.coupled.all()) == load.has_active_coupling

    def test_stops_where_the_scalar_solver_stops(self, harness):
        """Both solvers stop under one rule, so an arc takes as many
        Newton iterations (and bisections) on the batch path as on the
        scalar one: uncoupled, opposing and aiding, with the trigger
        before or past the last threshold."""
        solvers, batch = harness
        specs = _random_specs(16, seed=5) + [
            BatchArcSpec(
                table_index=cell,
                input_direction=direction,
                transition=transition,
                load=load,
                aiding=aiding,
            )
            for load, transition, aiding in STOP_RULE_CASES.values()
            for cell in STOP_RULE_CELLS
            for direction in (RISING, FALLING)
        ]
        got = batch.solve_many_compact(specs)
        for i, spec in enumerate(specs):
            ref = _scalar(solvers, spec)
            assert got.newton_iterations[i] == ref.newton_iterations, spec
            assert got.newton_bisections[i] == ref.newton_bisections, spec


class TestLockstepCounter:
    def test_batch_takes_its_slowest_element_s_iterations(self, harness):
        """``solver.lockstep_iterations`` grows by the recorded rows of a
        batch solve: as many as its slowest element takes alone, since an
        element's steps (extensions included) do not depend on its batch
        mates."""
        _, batch = harness
        specs = _random_specs(12, seed=3)

        def lockstep(specs):
            metrics = MetricsRegistry()
            solver = BatchStageSolver(batch.tables, batch.process, metrics=metrics)
            solver.solve_many_compact(specs)
            return metrics.counter("solver.lockstep_iterations").value

        alone = [lockstep([spec]) for spec in specs]
        assert min(alone) > 0
        assert lockstep(specs) == max(alone)


class TestBatchedNewtonUsage:
    def test_mixed_convergence_lengths(self, harness):
        """Elements with very different time scales (fast inverter vs a
        heavily loaded stage) finish at different lockstep iterations; the
        masking must keep finished elements frozen."""
        solvers, batch = harness
        specs = [
            BatchArcSpec(
                table_index=0,
                input_direction=RISING,
                transition=10e-12,
                load=CouplingLoad(c_ground=1e-15),
            ),
            BatchArcSpec(
                table_index=0,
                input_direction=RISING,
                transition=300e-12,
                load=CouplingLoad(c_ground=60e-15),
            ),
        ]
        got = batch.solve_many_compact(specs)
        _assert_matches_scalar(solvers, specs, got)
        assert got.t_cross[0] < got.t_cross[1]


# -- the reference: the batch solver before the fused Newton loop ------------
#
# Test-local copies of ``BatchStageSolver._setup`` (a per-spec loop over
# ``CouplingLoad`` methods) and ``_integrate`` (one ``solve_newton_many``
# call per lockstep row, on a residual closure), as they stood before the
# setup became columns and the Newton update moved into the lockstep
# loop.  The fused loop must record the same trace, byte for byte.


def _reference_drive(solver, table, out_direction):
    vdd = solver.process.vdd
    if out_direction == RISING:
        current = table.current(0.0, 0.5 * vdd)
    else:
        current = -table.current(vdd, 0.5 * vdd)
    return max(abs(current), 1e-9)


def reference_setup(solver, specs):
    """``BatchStageSolver._setup`` with one ``CouplingLoad`` per spec."""
    process = solver.process
    vdd = process.vdd
    settle_band = solver.settle_fraction * vdd
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
        table = solver.tables[spec.table_index]
        k[i] = spec.table_index
        in_rising[i] = spec.input_direction == RISING
        out_rising[i] = rising
        t_start[i] = spec.t_start
        tt[i] = spec.transition
        c_total[i] = load.c_total
        v_from[i] = 0.0 if rising else vdd
        v_to[i] = vdd if rising else 0.0
        tau = load.c_total * vdd / _reference_drive(solver, table, out_direction)
        dt[i] = max((spec.transition + 4.0 * tau) / (2.0 * solver.steps_per_phase), 1e-15)

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


def reference_integrate(solver, setup):
    """``BatchStageSolver._integrate`` with one ``solve_newton_many`` per
    lockstep row, through a residual closure."""
    vdd = solver.process.vdd
    max_steps = 2 * solver.steps_per_phase
    n = setup.k.size
    out_rising = setup.out_rising
    restart = setup.restart
    # Sign-folded voltages measure progress along the transition: a
    # rising value v is v, a falling one -v (negation is exact), so a
    # single ``>=`` serves both directions.
    sign = np.where(out_rising, 1.0, -1.0)
    thresholds = _marker_thresholds(solver.process)
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
    gradient = solver.bank.gradient_many_prepared
    while idx.size:
        # Every element started together and advances once per
        # iteration, so all of them exhaust the step budget at once:
        # they double dt and skip this iteration (scalar `continue`).
        step += 1
        if step > max_steps:
            if extensions >= solver.max_extensions:
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
            prepared = solver.bank.prepare_x(k_r, vin_next)
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


SETUP_FIELDS = (
    "k", "in_rising", "out_rising", "t_start", "tt", "c_total", "v_from", "v_to",
    "dt", "trigger", "restart", "has_trigger",
)
TRACE_FIELDS = (
    "times_mat", "values_mat", "mask_mat", "reset_snap", "start_t", "start_v",
    "fired", "t_drop", "newton_total", "bisect_total",
)


def assert_matches_reference(solver, specs):
    """The columnar setup and the fused lockstep loop equal the reference
    byte for byte: every setup column, and every sample matrix, snapshot,
    drop and Newton and bisection total of the trace (so the lockstep row
    count too).  Returns the trace."""
    ref_setup = reference_setup(solver, specs)
    setup = solver._setup(specs)
    assert setup.out_directions == ref_setup.out_directions
    for name in SETUP_FIELDS:
        got, ref = getattr(setup, name), getattr(ref_setup, name)
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes(), name
    ref = reference_integrate(solver, ref_setup)
    got = solver._integrate(setup)
    assert got.times_mat.shape == ref.times_mat.shape
    for name in TRACE_FIELDS:
        assert getattr(got, name).tobytes() == getattr(ref, name).tobytes(), name
    return got


@pytest.fixture(scope="module")
def signature_bank(library, process):
    """A batch solver over every distinct stage signature of the library."""
    calc = GateDelayCalculator(process=process)
    tokens = []
    for ctype in library:
        for pin in ctype.inputs:
            try:
                token = calc.signature(ctype, pin)
            except InputError:
                continue  # a pin that gates no transistor (flip-flops)
            if token not in tokens:
                tokens.append(token)
    tables = [calc._solver_for_token(token).table for token in tokens]
    return BatchStageSolver(tables, process)


@st.composite
def quantized_specs(draw, tables):
    """One arc-cache-like situation: a signature, a direction, a slew and
    loads on the calculator's grids, uncoupled, opposing or aiding, with
    or without passive coupling (``aggregate_load`` fills both kinds)."""
    active = draw(st.one_of(st.just(0), st.integers(1, 200)))
    return BatchArcSpec(
        table_index=draw(st.integers(0, tables - 1)),
        input_direction=draw(st.sampled_from([RISING, FALLING])),
        transition=draw(st.integers(1, 400)) * TRANSITION_GRID,
        load=CouplingLoad(
            c_ground=draw(st.integers(1, 750)) * CAP_GRID,
            c_couple_active=active * CAP_GRID,
            c_couple_passive=draw(st.one_of(st.just(0), st.integers(1, 200))) * CAP_GRID,
        ),
        aiding=active > 0 and draw(st.booleans()),
    )


# A load of 1/16 fF: every synthetic table below drives it hard enough
# that the time step sits at its 1e-15 s floor, where dt / C is exactly 16
# and a step's residual is x - v_prev - h(x) for h = 16 I.
SYNTHETIC_LOAD = CouplingLoad(c_ground=1e-15 / 16)


def _cycling_table():
    """A rising output whose first step's Newton iterates cycle between
    0.5 V and 1.5 V, so they exhaust NEWTON_MAX_ITER and the step bisects.

    From V_out = 0 the residual ``x - h(x)`` is odd about its 1 V root:
    slope 0.5 and offset 0.5 V on either side of a steep middle, so each
    Newton step lands on the other side at the same distance.  Two more
    steps take the output past its last marker.
    """

    def h(vout):
        return np.where(
            vout <= 0.9,
            0.5 * vout + 0.75,
            np.where(vout < 1.1, 3.0 - 2.0 * vout, 0.5 * vout + 0.25),
        )

    return _tabulate(lambda vin, vout: h(vout) / 16.0)


def _instant_table():
    """A rising output charged so hard that its first step lands on the
    Newton bound, past every marker: it finishes on lockstep row 1."""
    return _tabulate(lambda vin, vout: np.full_like(vout, 5.0 / 16.0))


class TestFusedLoopOracle:
    """The fused lockstep loop (Newton inline, setup from columns) records
    the reference's trace byte for byte."""

    @given(data=st.data(), t_start_lane=st.booleans(), zero_slew_lane=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_mixed_signature_batches_match_reference(
        self, signature_bank, data, t_start_lane, zero_slew_lane
    ):
        tables = len(signature_bank.tables)
        specs = data.draw(st.lists(quantized_specs(tables), min_size=2, max_size=24))
        if t_start_lane:
            spec = data.draw(quantized_specs(tables))
            specs.append(dataclasses.replace(spec, t_start=1e-9))
        if zero_slew_lane:
            spec = data.draw(quantized_specs(tables))
            specs.append(dataclasses.replace(spec, transition=0.0))
        assert_matches_reference(signature_bank, specs)

    def test_load_sums_in_coupling_load_order(self, signature_bank):
        """c_total is CouplingLoad.c_total, ground + active + passive in
        that order: for these loads ground + passive + active differs in
        the last bit."""
        load = CouplingLoad(
            c_ground=CAP_GRID, c_couple_active=CAP_GRID, c_couple_passive=4 * CAP_GRID
        )
        assert load.c_total != (load.c_ground + load.c_couple_passive) + load.c_couple_active
        specs = [
            BatchArcSpec(0, direction, 40 * TRANSITION_GRID, load, aiding=aiding)
            for direction in (RISING, FALLING)
            for aiding in (False, True)
        ]
        assert_matches_reference(signature_bank, specs)

    def test_zero_derivative_redoes_the_row(self):
        """A lane whose first iterate meets a zero derivative sends its
        row (and its batch mate) to solve_newton_many, which bisects it;
        on a step input, and on the rail after one ramp step."""
        for table, transition in (
            (_flat_derivative_table(), 0.0),
            (_rail_flat_derivative_table(), 2e-15),
        ):
            solver = BatchStageSolver([table])
            specs = [
                BatchArcSpec(0, RISING, transition, FLAT_LOAD),
                BatchArcSpec(0, RISING, transition, CouplingLoad(c_ground=1e-15 / 8)),
            ]
            trace = assert_matches_reference(solver, specs)
            assert trace.bisect_total[0] >= 1

    def test_exhausted_iterations_redo_the_row(self, signature_bank):
        """The cycling lane runs past NEWTON_MAX_ITER on row 1; the redo
        starts every lane of that row over from v_prev, and the real
        lanes beside it converged before the budget ran out."""
        solver = BatchStageSolver(
            [signature_bank.tables[0], signature_bank.tables[1], _cycling_table()]
        )
        specs = [
            dataclasses.replace(spec, table_index=spec.table_index % 2)
            for spec in _random_specs(6, seed=2)
        ]
        specs.append(BatchArcSpec(2, FALLING, 2e-15, SYNTHETIC_LOAD))
        trace = assert_matches_reference(solver, specs)
        assert trace.bisect_total[-1] == 1
        assert trace.newton_total[-1] > NEWTON_MAX_ITER
        assert not trace.bisect_total[:-1].any()

    def test_extension_batch(self, signature_bank):
        """A weak tail exhausts the 120-step budget: the batch records
        more than 120 rows, with an extension row that advances nobody."""
        solver = BatchStageSolver([signature_bank.tables[0], _weak_tail_table()])
        specs = [
            BatchArcSpec(1, RISING, 50e-12, CouplingLoad(c_ground=10e-15)),
            BatchArcSpec(0, FALLING, 80e-12, CouplingLoad(c_ground=5e-15)),
            BatchArcSpec(0, RISING, 30e-12, CouplingLoad(c_ground=3e-15, c_couple_active=2e-15)),
        ]
        trace = assert_matches_reference(solver, specs)
        assert trace.times_mat.shape[0] > 2 * STEPS_PER_PHASE
        assert not trace.mask_mat[2 * STEPS_PER_PHASE].any()

    def test_element_finishing_on_row_one(self, signature_bank):
        solver = BatchStageSolver([signature_bank.tables[0], _instant_table()])
        specs = [
            BatchArcSpec(1, FALLING, 2e-15, SYNTHETIC_LOAD),
            BatchArcSpec(0, RISING, 60e-12, CouplingLoad(c_ground=4e-15)),
            BatchArcSpec(0, FALLING, 60e-12, CouplingLoad(c_ground=4e-15, c_couple_active=1e-15)),
        ]
        trace = assert_matches_reference(solver, specs)
        assert trace.mask_mat[0, 0] and not trace.mask_mat[1:, 0].any()
        assert trace.times_mat.shape[0] > 1


def _calculator_keys(calc, library):
    """Canonical keys over several signatures, both directions, uncoupled,
    opposing and aiding loads, with distinct slews and loads."""
    arcs = [("INV_X1", "A"), ("NAND2_X1", "B"), ("NOR3_X2", "B"), ("AOI21_X4", "C"),
            ("INV_X4", "A")]
    rng = random.Random(7)
    keys = []
    for i in range(48):
        name, pin = arcs[i % len(arcs)]
        active = rng.choice([0.0, rng.uniform(0.5e-15, 8e-15)])
        request = ArcRequest(
            library[name],
            pin,
            rng.choice([RISING, FALLING]),
            rng.uniform(10e-12, 400e-12),
            CouplingLoad(c_ground=rng.uniform(1e-15, 60e-15), c_couple_active=active),
            aiding=active > 0.0 and rng.random() < 0.4,
        )
        keys.append(calc._quantized_key(request))
    return list(dict.fromkeys(keys))


class TestCalculatorBatchPath:
    def test_batch_solve_caches_the_scalar_results(self, library, process):
        """``_batch_solve`` hands its keys over as columns; each cached
        ``ArcResult`` equals ``_solve_key`` of its key by ``float.hex()``,
        and the per-signature Newton cost totals are equal."""
        batched = GateDelayCalculator(process=process)
        scalar = GateDelayCalculator(process=process)
        keys = _calculator_keys(batched, library)
        assert _calculator_keys(scalar, library) == keys
        assert len(keys) >= MIN_BATCH
        assert any(key[4] > 0.0 and key[5] for key in keys)  # aiding
        assert any(key[4] > 0.0 and not key[5] for key in keys)  # opposing
        assert {key[1] for key in keys} == {RISING, FALLING}
        batched._batch_solve(keys)
        for key in keys:
            got, ref = batched._arc_cache[key], scalar._solve_key(key)
            assert got.direction == ref.direction and got.coupled == ref.coupled, key
            for name in MARKERS:
                assert getattr(got, name).hex() == getattr(ref, name).hex(), (key, name)
        assert batched._sig_cost == scalar._sig_cost
        assert batched.batched_solves == len(keys)
