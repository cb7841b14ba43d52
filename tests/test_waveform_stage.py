"""Tests for the transistor-level stage solver."""

from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices.mosfet import nmos, pmos
from repro.devices.newton import solve_newton
from repro.devices.params import default_process
from repro.devices.tables import StageTable, _BilinearGrid
from repro.errors import InputError
from repro.waveform.coupling import CouplingLoad
from repro.waveform.gatedelay import CAP_GRID, TRANSITION_GRID, GateDelayCalculator
from repro.waveform.pwl import FALLING, RISING, Waveform, opposite
from repro.waveform.stage import (
    InputRamp,
    StageResult,
    StageSolver,
    StageSolverError,
    _marker_thresholds,
)

PROCESS = default_process()
VDD = PROCESS.vdd


@pytest.fixture(scope="module")
def solver():
    return StageSolver(StageTable(pmos(4e-6), nmos(2e-6)))


def rising_input(transition=100e-12):
    return InputRamp(direction=RISING, t_start=0.0, transition=transition)


def falling_input(transition=100e-12):
    return InputRamp(direction=FALLING, t_start=0.0, transition=transition)


class TestInputRamp:
    def test_voltage_profile(self):
        ramp = rising_input(100e-12)
        assert ramp.voltage_at(-1e-12, VDD) == 0.0
        assert ramp.voltage_at(50e-12, VDD) == pytest.approx(VDD / 2)
        assert ramp.voltage_at(200e-12, VDD) == VDD

    def test_falling_profile(self):
        ramp = falling_input(100e-12)
        assert ramp.voltage_at(0.0, VDD) == VDD
        assert ramp.voltage_at(100e-12, VDD) == 0.0

    def test_zero_transition_is_step(self):
        ramp = InputRamp(RISING, 1e-9, 0.0)
        assert ramp.voltage_at(1e-9 - 1e-15, VDD) == 0.0
        assert ramp.voltage_at(1e-9, VDD) == VDD


class TestUncoupled:
    def test_inverter_output_falls_for_rising_input(self, solver):
        result = solver.solve(rising_input(), CouplingLoad(c_ground=30e-15))
        assert result.direction == FALLING
        assert not result.coupled
        assert result.waveform.is_monotone()

    def test_markers_ordered(self, solver):
        result = solver.solve(rising_input(), CouplingLoad(c_ground=30e-15))
        assert result.t_early < result.t_cross < result.t_late

    def test_more_load_more_delay(self, solver):
        light = solver.solve(rising_input(), CouplingLoad(c_ground=20e-15))
        heavy = solver.solve(rising_input(), CouplingLoad(c_ground=80e-15))
        assert heavy.t_cross > light.t_cross
        assert heavy.transition > light.transition

    def test_slower_input_slower_output(self, solver):
        fast = solver.solve(rising_input(50e-12), CouplingLoad(c_ground=30e-15))
        slow = solver.solve(rising_input(400e-12), CouplingLoad(c_ground=30e-15))
        assert slow.t_cross > fast.t_cross

    def test_positive_load_required(self, solver):
        with pytest.raises(StageSolverError, match="positive"):
            solver.solve(rising_input(), CouplingLoad(c_ground=0.0))

    def test_rise_and_fall_both_work(self, solver):
        fall_out = solver.solve(rising_input(), CouplingLoad(c_ground=30e-15))
        rise_out = solver.solve(falling_input(), CouplingLoad(c_ground=30e-15))
        assert fall_out.direction == FALLING
        assert rise_out.direction == RISING
        # PMOS is sized 2x for symmetric-ish drive; delays comparable.
        assert rise_out.t_cross == pytest.approx(fall_out.t_cross, rel=0.5)


class TestCoupled:
    def test_coupling_fires_and_delays(self, solver):
        base = solver.solve(rising_input(), CouplingLoad(c_ground=40e-15))
        coupled = solver.solve(
            rising_input(),
            CouplingLoad(c_ground=40e-15, c_couple_active=20e-15),
        )
        assert coupled.coupled
        assert coupled.t_drop is not None
        assert coupled.t_cross > base.t_cross

    def test_reported_waveform_starts_at_restart_voltage(self, solver):
        load = CouplingLoad(c_ground=40e-15, c_couple_active=20e-15)
        result = solver.solve(rising_input(), load)
        assert result.waveform.v_start == pytest.approx(
            load.restart_voltage(FALLING, PROCESS), abs=1e-9
        )
        assert result.waveform.t_start == pytest.approx(result.t_drop)

    def test_waveform_monotone_after_drop(self, solver):
        result = solver.solve(
            rising_input(), CouplingLoad(c_ground=40e-15, c_couple_active=20e-15)
        )
        assert result.waveform.is_monotone()

    def test_active_worse_than_same_passive(self, solver):
        """The active model must delay at least as much as treating the
        same capacitance as grounded (the coupling drop only adds)."""
        passive = solver.solve(
            rising_input(), CouplingLoad(c_ground=60e-15)
        )
        active = solver.solve(
            rising_input(), CouplingLoad(c_ground=40e-15, c_couple_active=20e-15)
        )
        assert active.t_cross >= passive.t_cross - 1e-15

    def test_bigger_coupling_bigger_penalty(self, solver):
        small = solver.solve(
            rising_input(), CouplingLoad(c_ground=40e-15, c_couple_active=5e-15)
        )
        large = solver.solve(
            rising_input(), CouplingLoad(c_ground=40e-15, c_couple_active=30e-15)
        )
        assert large.t_cross > small.t_cross

    def test_rising_victim_coupling(self, solver):
        """Falling input -> rising victim; the restart value is V_th."""
        base = solver.solve(falling_input(), CouplingLoad(c_ground=40e-15))
        coupled = solver.solve(
            falling_input(), CouplingLoad(c_ground=40e-15, c_couple_active=20e-15)
        )
        assert coupled.coupled
        assert coupled.direction == RISING
        assert coupled.t_cross > base.t_cross
        assert coupled.waveform.v_start == pytest.approx(PROCESS.v_th_model, abs=1e-9)

    def test_overwhelming_coupling_still_completes(self, solver):
        """Trigger clamping keeps the solver finishing even when coupling
        dominates the node."""
        result = solver.solve(
            falling_input(), CouplingLoad(c_ground=5e-15, c_couple_active=100e-15)
        )
        assert result.coupled
        assert result.direction == RISING
        assert result.waveform.v_end > 0.9 * VDD

    @given(
        c_gnd=st.floats(min_value=10e-15, max_value=100e-15),
        c_act=st.floats(min_value=1e-15, max_value=50e-15),
        tt=st.floats(min_value=20e-12, max_value=500e-12),
    )
    @settings(max_examples=25, deadline=None)
    def test_coupling_never_speeds_up(self, solver, c_gnd, c_act, tt):
        base = solver.solve(
            InputRamp(RISING, 0.0, tt), CouplingLoad(c_ground=c_gnd + c_act)
        )
        active = solver.solve(
            InputRamp(RISING, 0.0, tt),
            CouplingLoad(c_ground=c_gnd, c_couple_active=c_act),
        )
        assert active.t_cross >= base.t_cross - 1e-14


# -- oracle: the settle-at-the-rail loop -------------------------------------


def measure_stage_waveform(
    process,
    waveform,
    out_direction,
    fired,
    t_drop,
    newton_total,
    newton_bisections=0,
):
    """The reference measurement: the ramp-event markers of a solved stage
    waveform, each read by :meth:`Waveform.crossing_time` (a copy of the
    measurement the solvers shared before it moved onto sample lists)."""
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


def _monotone_clean(waveform):
    """The reference clean: clamp sub-tolerance numerical wiggles to the
    running maximum (rising) or minimum (falling)."""
    values = waveform.values.copy()
    if waveform.direction == RISING:
        np.maximum.accumulate(values, out=values)
    else:
        np.minimum.accumulate(values, out=values)
    return Waveform(waveform.times, values, waveform.direction)


@dataclass
class SettleTrace:
    """What the settle loop saw on the way: every Newton root, the time of
    each extension and the (clamped) trigger."""

    roots: list = field(default_factory=list)
    extensions_at: list = field(default_factory=list)
    trigger: float | None = None


def settle_loop_solve(solver, input_ramp, load, out_direction=None, aiding=False):
    """A copy of the scalar loop as it stood before it stopped at its last
    marker: it integrates until the output settles within 2% of V_DD of
    the rail and the input ramp is over, each step solved by
    :func:`solve_newton` on :meth:`StageTable.current_with_dvout`.

    Returns the measured :class:`StageResult` and a :class:`SettleTrace`.
    """
    process = solver.process
    vdd = process.vdd
    if out_direction is None:
        out_direction = opposite(input_ramp.direction)
    rising = out_direction == RISING
    c_total = load.c_total
    v_from = 0.0 if rising else vdd
    v_to = vdd if rising else 0.0
    settle_band = solver.settle_fraction * vdd
    tau = c_total * vdd / solver._drive_current(out_direction)
    dt = (input_ramp.transition + 4.0 * tau) / (2.0 * solver.steps_per_phase)
    dt = max(dt, 1e-15)
    trace = SettleTrace()

    trigger = None
    if load.has_active_coupling:
        if aiding:
            trigger = load.restart_voltage(out_direction, process)
        else:
            trigger = load.trigger_voltage(out_direction, process)
        if rising:
            trigger = min(trigger, vdd - 2.0 * settle_band)
        else:
            trigger = max(trigger, 2.0 * settle_band)
    trace.trigger = trigger
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
    t_drop = None
    newton_total = 0
    newton_bisections = 0
    max_steps = 2 * solver.steps_per_phase
    extensions = 0
    step = 0
    lo, hi = -0.4, vdd + 0.4
    while True:
        step += 1
        if step > max_steps:
            if extensions >= solver.max_extensions:
                raise StageSolverError("output failed to settle")
            extensions += 1
            trace.extensions_at.append(t)
            dt *= 2.0
            step = 0
            continue

        t_next = t + dt
        vin_next = input_ramp.voltage_at(t_next, vdd)
        coeff = dt / c_total
        v_prev = v

        def residual(x):
            current, dcurrent = solver.table.current_with_dvout(vin_next, x)
            return x - v_prev - coeff * current, 1.0 - coeff * dcurrent

        result = solve_newton(residual, x0=v_prev, tol=1e-7, lo=lo, hi=hi)
        newton_total += result.iterations
        if result.used_bisection:
            newton_bisections += 1
        v_next = result.root
        trace.roots.append(v_next)

        crossed = False
        if trigger is not None and not fired:
            if rising and v_prev < trigger <= v_next:
                crossed = True
            elif not rising and v_prev > trigger >= v_next:
                crossed = True
        if crossed:
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

    waveform = _monotone_clean(Waveform(np.array(times), np.array(values), out_direction))
    result = measure_stage_waveform(
        process, waveform, out_direction, fired, t_drop, newton_total, newton_bisections
    )
    return result, trace


ORACLE_FIELDS = ("direction", "t_cross", "transition", "t_early", "t_late", "coupled", "t_drop")


def assert_matches_settle_loop(solver, ramp, load, aiding=False):
    """``solver.solve`` equals the settle loop bit for bit on every marker
    and on ``coupled``; returns both results and the settle loop's trace."""
    got = solver.solve(ramp, load, aiding=aiding)
    ref, trace = settle_loop_solve(solver, ramp, load, aiding=aiding)
    for name in ORACLE_FIELDS:
        assert getattr(got, name) == getattr(ref, name), (name, ramp, load, aiding)
    return got, ref, trace


class SyntheticTable(StageTable):
    """A stage table with hand-set currents on hand-set axes, for the
    lanes no real cell reaches (clamped roots, flat Newton derivatives,
    exhausted step budgets)."""

    def __init__(self, x_axis, y_axis, values):
        self.process = default_process()
        self._grid = _BilinearGrid(
            np.asarray(x_axis, float), np.asarray(y_axis, float), np.asarray(values, float)
        )


GRID_AXIS = np.linspace(-0.3, VDD + 0.3, StageTable.DEFAULT_POINTS)


def _tabulate(current):
    """Sample ``current(vin, vout)`` on the default stage-table grid."""
    vin, vout = np.meshgrid(GRID_AXIS, GRID_AXIS, indexing="ij")
    return SyntheticTable(GRID_AXIS, GRID_AXIS, current(vin, vout))


def _overdriven_table(out_rising):
    """While the input is in its first half, a strong current pushes the
    output the wrong way, toward a point 0.35 V beyond its start rail.
    The table ends 0.3 V beyond the rails, and past its edge the clamped
    cell fraction holds the current at its edge value, which still
    pushes: the step's root is clamped at the Newton bound 0.4 V beyond
    the rail.  (An unclamped fraction would extrapolate to the point at
    0.35 V instead.)  In the second half a conductance pulls the output
    from there to the rail it heads for, through every marker threshold.
    """
    push, g = 0.1, 1e-3

    def pull(distance):
        return g * distance * (1.0 + distance)

    if out_rising:
        return _tabulate(
            lambda vin, vout: np.where(
                vin > 0.5 * VDD, -push * (vout + 0.35), pull(VDD - vout)
            )
        )
    return _tabulate(
        lambda vin, vout: np.where(
            vin < 0.5 * VDD, -push * (vout - VDD - 0.35), -pull(vout)
        )
    )


def _weak_tail_table():
    """A falling output whose pull-down is strong above 1 V and 50x weaker
    below: the step budget, sized from the strong drive, runs out before
    the output reaches its last marker."""
    strong = 1e-3
    return _tabulate(
        lambda vin, vout: np.where(vout > 1.0, -strong, -0.02 * strong * vout)
    )


# A load of 1/16 fF on a drive of 16.5 mA puts the time step at its
# 1e-15 s floor, so the backward-Euler factor dt / C is exactly 16.
FLAT_LOAD = CouplingLoad(c_ground=1e-15 / 16)


def _flat_derivative_table():
    """A falling output whose very first Newton iterate meets a zero
    derivative, ``1 - coeff * dI/dV_out == 0.0`` exactly, under
    :data:`FLAT_LOAD`.

    The input switches instantly, so every step reads the table at
    ``V_in = V_DD``, the end of a two-point x-axis (x-fraction exactly
    1).  The y-axis pitch is 1/16 V.  Off one cell the current is a
    conductance to ground; the cell holding V_DD rises by exactly 1/256
    A, a slope of 1/16 A/V, so ``16 * dI/dV_out`` is exactly 1.
    """
    dy = 1.0 / 16.0
    y_axis = -0.5 + dy * np.arange(65)
    cell = int((VDD + 0.5) / dy)
    values = -0.01 * y_axis
    values[cell] = -1.0 / 32.0
    values[cell + 1:] = -1.0 / 32.0 + 1.0 / 256.0
    return SyntheticTable([0.0, VDD], y_axis, np.vstack([values, values]))


def _rail_flat_derivative_table():
    """:func:`_flat_derivative_table` with the input axis's first row
    negated: while the input is between its rails, the two rows cancel
    (an input ramp of 2 fs is halfway after its first 1 fs step, and the
    x-fraction is exactly 0.5), so the output holds at V_DD; on the
    rail, the second row alone meets the zero derivative."""
    table = _flat_derivative_table()
    values = table.grid.values.copy()
    values[0] = -values[1]
    return SyntheticTable(table.grid.x_axis, table.grid.y_axis, values)


def _short_axis_table():
    """An inverter-like stage tabulated for inputs in [0.5 V, 2.5 V] only:
    a conductance to ground grows, and one to V_DD shrinks, across that
    span.  Both input rails lie off the axis, so the rail column's cell
    index and fraction clamp (the fraction to 1 at V_DD, to 0 at 0 V)."""
    g = 1e-3
    x_axis = np.linspace(0.5, 2.5, StageTable.DEFAULT_POINTS)
    vin, vout = np.meshgrid(x_axis, GRID_AXIS, indexing="ij")
    on = (vin - 0.5) / 2.0
    return SyntheticTable(
        x_axis, GRID_AXIS, -g * on * vout + g * (1.0 - on) * (VDD - vout)
    )


REAL_ARCS = (("INV_X1", "A"), ("NAND2_X1", "A"), ("NOR3_X2", "B"), ("AOI21_X4", "C"))


@pytest.fixture(scope="module")
def real_solvers(library):
    calc = GateDelayCalculator()
    return [calc.solver_for(library[name], pin) for name, pin in REAL_ARCS]


@pytest.fixture(scope="module")
def signature_solvers(library):
    """One solver per distinct stage signature of the library."""
    calc = GateDelayCalculator()
    solvers = {}
    for ctype in library:
        for pin in ctype.inputs:
            try:
                token = calc.signature(ctype, pin)
            except InputError:
                continue  # a pin that gates no transistor (flip-flops)
            solvers.setdefault(token, calc.solver_for(ctype, pin))
    return list(solvers.values())


def _hex(value):
    return value.hex() if isinstance(value, float) else value


class TestSettleLoopOracle:
    """Stopping at the last marker threshold leaves every marker where the
    settle-at-the-rail loop put it: the measurement reads, per threshold,
    only the first sample at or past it and its predecessor."""

    @given(
        index=st.integers(0, len(REAL_ARCS) - 1),
        direction=st.sampled_from([RISING, FALLING]),
        tt=st.one_of(st.just(0.0), st.floats(1e-12, 800e-12)),
        t_start=st.sampled_from([0.0, 1e-9]),
        c_ground=st.floats(0.3e-15, 150e-15),
        c_active=st.one_of(st.just(0.0), st.floats(0.3e-15, 40e-15)),
        aiding=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_settle_loop_bitwise(
        self, real_solvers, index, direction, tt, t_start, c_ground, c_active, aiding
    ):
        assert_matches_settle_loop(
            real_solvers[index],
            InputRamp(direction, t_start, tt),
            CouplingLoad(c_ground=c_ground, c_couple_active=c_active),
            aiding=aiding,
        )

    def test_root_clamped_at_lo(self):
        solver = StageSolver(_overdriven_table(out_rising=True))
        _, _, trace = assert_matches_settle_loop(
            solver, falling_input(100e-12), CouplingLoad(c_ground=10e-15)
        )
        assert -0.4 in trace.roots

    def test_root_clamped_at_hi(self):
        solver = StageSolver(_overdriven_table(out_rising=False))
        _, _, trace = assert_matches_settle_loop(
            solver, rising_input(100e-12), CouplingLoad(c_ground=10e-15)
        )
        assert VDD + 0.4 in trace.roots

    def test_zero_derivative_bisects(self):
        solver = StageSolver(_flat_derivative_table())
        got, ref, _ = assert_matches_settle_loop(solver, rising_input(0.0), FLAT_LOAD)
        assert ref.newton_bisections >= 1
        assert got.newton_bisections >= 1

    def test_exhausted_budget_extends(self):
        solver = StageSolver(_weak_tail_table())
        ramp = rising_input(50e-12)
        load = CouplingLoad(c_ground=10e-15)
        _, ref, trace = assert_matches_settle_loop(solver, ramp, load)
        # The budget ran out before the last marker, so both loops extend.
        assert trace.extensions_at and trace.extensions_at[0] < ref.t_late

    @pytest.mark.parametrize("direction", [RISING, FALLING])
    @pytest.mark.parametrize("index", [0, 2])
    def test_trigger_clamped_inside_the_settle_band(self, real_solvers, index, direction):
        """Coupling this strong puts the trigger past the last marker
        threshold; the clamp at ``2 * settle band`` from the rail keeps the
        drop firing, after the output passed that threshold."""
        solver = real_solvers[index]
        load = CouplingLoad(c_ground=1e-15, c_couple_active=10e-15)
        got, _, trace = assert_matches_settle_loop(
            solver, InputRamp(direction, 0.0, 80e-12), load
        )
        band = solver.settle_fraction * VDD
        out_rising = direction == FALLING
        assert trace.trigger == (VDD - 2.0 * band if out_rising else 2.0 * band)
        assert got.coupled

    @pytest.mark.parametrize("aiding", [False, True])
    @pytest.mark.parametrize("direction", [RISING, FALLING])
    @pytest.mark.parametrize("index", range(len(REAL_ARCS)))
    def test_zero_transition_runs_on_the_rail(self, real_solvers, index, direction, aiding):
        """An instant input is on its rail from the first step."""
        for load in (
            CouplingLoad(c_ground=30e-15),
            CouplingLoad(c_ground=20e-15, c_couple_active=10e-15),
        ):
            assert_matches_settle_loop(
                real_solvers[index], InputRamp(direction, 0.0, 0.0), load, aiding=aiding
            )

    @pytest.mark.parametrize("direction", [RISING, FALLING])
    def test_rail_column_clamps_off_the_axis(self, direction):
        solver = StageSolver(_short_axis_table())
        grid = solver.table.grid
        assert grid.x_axis[0] > 0.0 and grid.x_axis[-1] < VDD
        ramp = InputRamp(direction, 0.0, 20e-12)
        got, _, _ = assert_matches_settle_loop(solver, ramp, CouplingLoad(c_ground=50e-15))
        # The output is still on its way when the ramp ends.
        assert got.t_cross > ramp.transition

    def test_zero_derivative_on_the_rail_bisects(self):
        solver = StageSolver(_rail_flat_derivative_table())
        got, ref, trace = assert_matches_settle_loop(solver, rising_input(2e-15), FLAT_LOAD)
        # The ramp step left the output on V_DD; the rail step met the
        # zero derivative there and bisected.
        assert trace.roots[0] == VDD
        assert ref.newton_bisections >= 1
        assert got.newton_bisections == ref.newton_bisections

    @given(
        data=st.data(),
        direction=st.sampled_from([RISING, FALLING]),
        tt_steps=st.integers(1, 400),
        passive_steps=st.integers(1, 750),
        active_steps=st.one_of(st.just(0), st.integers(1, 200)),
        aiding=st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_quantized_signatures_match_reference_measurement(
        self, signature_solvers, data, direction, tt_steps, passive_steps,
        active_steps, aiding,
    ):
        """Every stage signature at quantized arc-cache keys: the markers
        equal the settle loop's, and the reported waveform and markers
        equal the reference clean and measurement, by hex."""
        solver = data.draw(st.sampled_from(signature_solvers))
        ramp = InputRamp(direction, 0.0, tt_steps * TRANSITION_GRID)
        load = CouplingLoad(
            c_ground=passive_steps * CAP_GRID, c_couple_active=active_steps * CAP_GRID
        )
        got = solver.solve(ramp, load, aiding=aiding)
        ref, _ = settle_loop_solve(solver, ramp, load, aiding=aiding)
        for name in ORACLE_FIELDS:
            assert _hex(getattr(got, name)) == _hex(getattr(ref, name)), name

        n = got.waveform.times.size
        assert got.waveform.times.tobytes() == ref.waveform.times[:n].tobytes()
        assert got.waveform.values.tobytes() == ref.waveform.values[:n].tobytes()
        measured = measure_stage_waveform(
            PROCESS, _monotone_clean(got.waveform), got.direction, got.coupled,
            got.t_drop, got.newton_iterations, got.newton_bisections,
        )
        assert measured.waveform.values.tobytes() == got.waveform.values.tobytes()
        for name in ORACLE_FIELDS + ("newton_iterations", "newton_bisections"):
            assert _hex(getattr(got, name)) == _hex(getattr(measured, name)), name
