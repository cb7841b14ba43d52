"""Tests for the scalar and the batched Newton solvers."""

import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices.newton import NewtonError, solve_newton, solve_newton_many
from repro.devices.tables import GridBank
from repro.waveform.gatedelay import GateDelayCalculator


def quadratic(root: float):
    def f(x: float):
        return (x - root) * (x + root + 10.0), 2 * x + 10.0

    return f


class TestNewton:
    def test_finds_linear_root(self):
        result = solve_newton(lambda x: (2 * x - 3, 2.0), x0=0.0)
        assert result.root == pytest.approx(1.5)
        assert not result.used_bisection

    def test_finds_quadratic_root(self):
        result = solve_newton(quadratic(2.0), x0=1.0, lo=0.0, hi=5.0)
        assert result.root == pytest.approx(2.0, abs=1e-6)

    def test_respects_bounds(self):
        result = solve_newton(quadratic(2.0), x0=4.9, lo=0.0, hi=5.0)
        assert 0.0 <= result.root <= 5.0

    def test_transcendental(self):
        result = solve_newton(
            lambda x: (math.cos(x) - x, -math.sin(x) - 1.0), x0=0.5
        )
        assert result.root == pytest.approx(0.7390851332, abs=1e-6)

    def test_zero_derivative_falls_back_to_bisection(self):
        def flat_then_slope(x: float):
            return (x - 1.0, 0.0)  # lies about its derivative

        result = solve_newton(flat_then_slope, x0=0.0, lo=0.0, hi=2.0)
        assert result.root == pytest.approx(1.0, abs=1e-6)
        assert result.used_bisection

    def test_zero_derivative_without_bracket_raises(self):
        with pytest.raises(NewtonError):
            solve_newton(lambda x: (x - 1.0, 0.0), x0=0.0)

    def test_no_bracket_raises(self):
        with pytest.raises(NewtonError, match="bracket"):
            solve_newton(lambda x: (1.0, 0.0), x0=0.5, lo=0.0, hi=1.0)

    def test_root_at_boundary(self):
        result = solve_newton(lambda x: (x, 0.0), x0=0.5, lo=0.0, hi=1.0)
        assert result.root == pytest.approx(0.0, abs=1e-9)

    @given(root=st.floats(min_value=-5.0, max_value=5.0))
    @settings(max_examples=50, deadline=None)
    def test_quadratic_roots_found(self, root):
        result = solve_newton(
            lambda x: ((x - root), 1.0), x0=root + 3.0, lo=root - 10, hi=root + 10
        )
        assert result.root == pytest.approx(root, abs=1e-6)

    def test_iteration_count_reported(self):
        result = solve_newton(lambda x: (2 * x - 3, 2.0), x0=0.0)
        assert result.iterations >= 1


# The stage solvers' Newton settings: tolerance and clamp interval.
TOL = 1e-7
LO, HI = -0.4, 3.3 + 0.4


@dataclass(frozen=True)
class Lane:
    """One problem of a batched solve.

    ``stage`` lanes carry the stage solvers' backward-Euler residual
    ``x - v_prev - coeff * I(vin, x)`` over bank member ``k``; ``flat``
    lanes report a zero derivative (immediate bisection) around
    ``root``; ``cycle`` lanes make Newton jump between ``x`` and ``-x``
    until the iteration budget runs out (bisection after it).  Every
    lane starts at ``v_prev``.
    """

    kind: str
    v_prev: float
    k: int = 0
    vin: float = 0.0
    coeff: float = 0.0
    root: float = 0.0


@pytest.fixture(scope="module")
def stage_bank(library, process):
    calc = GateDelayCalculator(process=process)
    arcs = [("INV_X1", "A"), ("NAND2_X1", "A"), ("NOR3_X2", "B"), ("AOI21_X4", "C")]
    tables = [calc.solver_for(library[name], pin).table for name, pin in arcs]
    return tables, GridBank([table.grid for table in tables])


def _batch_residual(bank, lanes):
    """The batch stage solver's residual, lane-wise, with the synthetic
    lanes masked in (every operation is elementwise, so a lane's values
    do not depend on its batch mates)."""
    k = np.array([lane.k for lane in lanes])
    vin = np.array([lane.vin for lane in lanes])
    v_prev = np.array([lane.v_prev for lane in lanes])
    coeff = np.array([lane.coeff for lane in lanes])
    root = np.array([lane.root for lane in lanes])
    flat = np.array([lane.kind == "flat" for lane in lanes])
    cycle = np.array([lane.kind == "cycle" for lane in lanes])
    row, tx, one_m_tx = bank.prepare_x(k, vin)

    def residual(x):
        current, dcurrent = bank.gradient_many_prepared(row, tx, one_m_tx, x)
        f = x - v_prev - current * coeff
        df = 1.0 - dcurrent * coeff
        with np.errstate(divide="ignore", invalid="ignore"):
            mag = np.sqrt(np.abs(x))
            f = np.where(cycle, np.copysign(mag, x), f)
            df = np.where(cycle, 0.5 / mag, df)
        f = np.where(flat, x - root, f)
        df = np.where(flat, 0.0, df)
        return f, df

    return residual


def _solve_batch(bank, lanes):
    return solve_newton_many(
        _batch_residual(bank, lanes),
        x0=np.array([lane.v_prev for lane in lanes]),
        tol=TOL,
        lo=LO,
        hi=HI,
    )


def _solve_scalar(table, lane):
    """The scalar stage solver's residual and Newton call for a stage lane."""

    def residual(x):
        current, dcurrent = table.current_with_dvout(lane.vin, x)
        return x - lane.v_prev - lane.coeff * current, 1.0 - lane.coeff * dcurrent

    return solve_newton(residual, x0=lane.v_prev, tol=TOL, lo=LO, hi=HI)


# Handcrafted lanes: bisection on a zero derivative and on an exhausted
# budget, roots clamped at both ends, and one quick and one stiff stage
# (1 vs many iterations).
HANDCRAFTED = {
    "flat": Lane("flat", v_prev=0.0, root=1.234),
    "cycle": Lane("cycle", v_prev=0.3),
    "clamp_lo": Lane("stage", v_prev=LO - 0.6, k=1, vin=0.0, coeff=10.0),
    "clamp_hi": Lane("stage", v_prev=HI + 0.6, k=2, vin=3.3, coeff=10.0),
    "quick": Lane("stage", v_prev=1.0, k=0, vin=3.3, coeff=1e-3),
    "stiff": Lane("stage", v_prev=3.3, k=3, vin=3.3, coeff=3e5),
}

stage_lanes = st.builds(
    Lane,
    kind=st.just("stage"),
    v_prev=st.floats(-0.2, 3.5),
    k=st.integers(0, 3),
    vin=st.floats(0.0, 3.3),
    coeff=st.floats(0.0, 5.5).map(lambda e: 10.0**e),
)


@st.composite
def mixed_batches(draw):
    lanes = draw(st.lists(stage_lanes, min_size=1, max_size=10))
    lanes += list(HANDCRAFTED.values())
    return draw(st.permutations(lanes))


class TestNewtonMany:
    def test_handcrafted_lanes_take_their_paths(self, stage_bank):
        _, bank = stage_bank
        lanes = list(HANDCRAFTED.values())
        got = _solve_batch(bank, lanes)
        at = {name: i for i, name in enumerate(HANDCRAFTED)}
        assert got.used_bisection[at["flat"]]
        assert got.used_bisection[at["cycle"]]
        assert got.roots[at["flat"]] == pytest.approx(1.234, abs=1e-6)
        assert got.roots[at["clamp_lo"]] == LO
        assert got.roots[at["clamp_hi"]] == HI
        assert got.iterations[at["quick"]] < got.iterations[at["stiff"]]
        assert got.bisection_count == 2

    @given(lanes=mixed_batches())
    @settings(max_examples=60, deadline=None)
    def test_lanes_match_own_solve_and_scalar_bitwise(self, stage_bank, lanes):
        """Each lane of a mixed batch equals its batch-of-one solve bit for
        bit (roots, iterations, bisection flag), and lanes that did not
        bisect equal the scalar :func:`solve_newton` on the scalar stage
        solver's residual."""
        tables, bank = stage_bank
        got = _solve_batch(bank, lanes)
        for i, lane in enumerate(lanes):
            own = _solve_batch(bank, [lane])
            assert got.roots[i].hex() == own.roots[0].hex(), lane
            assert got.iterations[i] == own.iterations[0], lane
            assert got.used_bisection[i] == own.used_bisection[0], lane
            if lane.kind == "stage" and not got.used_bisection[i]:
                ref = _solve_scalar(tables[lane.k], lane)
                assert not ref.used_bisection, lane
                assert got.roots[i].hex() == float(ref.root).hex(), lane
                assert got.iterations[i] == ref.iterations, lane
