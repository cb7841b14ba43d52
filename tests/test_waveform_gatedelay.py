"""Tests for the caching gate-delay calculator."""

import pytest

from repro.core.analyzer import CrosstalkSTA
from repro.core.modes import AnalysisMode, StaConfig
from repro.waveform.coupling import CouplingLoad
from repro.waveform.gatedelay import GateDelayCalculator
from repro.waveform.pwl import FALLING, RISING
from repro.waveform.ramp import RampEvent
from repro.waveform.stage import InputRamp


@pytest.fixture()
def calc():
    return GateDelayCalculator()


LOAD = CouplingLoad(c_ground=30e-15)


class TestCaching:
    def test_identical_calls_hit_cache(self, calc, library):
        inv = library["INV_X1"]
        calc.compute_arc_relative(inv, "A", RISING, 100e-12, LOAD)
        assert calc.evaluations == 1
        calc.compute_arc_relative(inv, "A", RISING, 100e-12, LOAD)
        assert calc.evaluations == 1
        assert calc.cache_hits == 1

    def test_quantization_buckets_nearby_loads(self, calc, library):
        inv = library["INV_X1"]
        calc.compute_arc_relative(inv, "A", RISING, 100e-12, CouplingLoad(30.05e-15))
        calc.compute_arc_relative(inv, "A", RISING, 100e-12, CouplingLoad(30.15e-15))
        assert calc.evaluations == 1

    def test_distinct_loads_not_merged(self, calc, library):
        inv = library["INV_X1"]
        calc.compute_arc_relative(inv, "A", RISING, 100e-12, CouplingLoad(30e-15))
        calc.compute_arc_relative(inv, "A", RISING, 100e-12, CouplingLoad(45e-15))
        assert calc.evaluations == 2

    def test_quantization_rounds_load_up(self, calc, library):
        """Quantizing up can only slow the modelled arc (conservative)."""
        inv = library["INV_X1"]
        exact = calc.solver_for(inv, "A").solve(
            InputRamp(RISING, 0.0, 100e-12), CouplingLoad(30.05e-15)
        )
        quantized = calc.compute_arc_relative(
            inv, "A", RISING, 100e-12, CouplingLoad(30.05e-15)
        )
        assert quantized.t_cross >= exact.t_cross - 1e-15

    def test_stats_reporting(self, calc, library):
        calc.compute_arc_relative(library["INV_X1"], "A", RISING, 100e-12, LOAD)
        stats = calc.cache_stats()
        assert stats["evaluations"] == 1
        assert stats["cached_arcs"] == 1
        assert stats["stage_tables"] == 1
        calc.reset_counters()
        assert calc.cache_stats()["evaluations"] == 0


class TestArcs:
    def test_all_library_arcs_compute(self, calc, library):
        """Every (cell, pin, direction) arc yields a sane event."""
        for cell in library:
            pins = ["A"] if cell.is_sequential else list(cell.inputs)
            for pin in pins:
                for direction in (RISING, FALLING):
                    arc = calc.compute_arc_relative(cell, pin, direction, 120e-12, LOAD)
                    assert arc.t_cross > 0
                    assert arc.transition > 0
                    assert arc.t_early < arc.t_late

    def test_event_shift_matches_input_timing(self, calc, library):
        inv = library["INV_X1"]
        base = RampEvent(RISING, 1e-9, 100e-12, 0.95e-9, 1.05e-9)
        out = calc.compute_arc(inv, "A", base, LOAD)
        later = calc.compute_arc(inv, "A", base.shifted(1e-9), LOAD)
        assert later.t_cross == pytest.approx(out.t_cross + 1e-9)

    def test_output_direction_inverted(self, calc, library):
        inv = library["INV_X1"]
        event = RampEvent(RISING, 1e-9, 100e-12, 0.95e-9, 1.05e-9)
        assert calc.compute_arc(inv, "A", event, LOAD).direction == FALLING

    def test_unknown_pin_rejected(self, calc, library):
        with pytest.raises(ValueError, match="no transistor"):
            calc.compute_arc_relative(library["INV_X1"], "Z", RISING, 100e-12, LOAD)

    def test_stronger_drive_faster_at_same_load(self, calc, library):
        weak = calc.compute_arc_relative(library["INV_X1"], "A", RISING, 120e-12, LOAD)
        strong = calc.compute_arc_relative(library["INV_X4"], "A", RISING, 120e-12, LOAD)
        assert strong.t_cross < weak.t_cross

    def test_stack_sizing_equalizes_nand_drive(self, calc, library):
        """The sizing rules widen stacks so a NAND2 leg matches the
        inverter's drive at equal external load (within a few percent)."""
        nand = calc.compute_arc_relative(library["NAND2_X1"], "A", RISING, 120e-12, LOAD)
        inv = calc.compute_arc_relative(library["INV_X1"], "A", RISING, 120e-12, LOAD)
        assert nand.t_cross == pytest.approx(inv.t_cross, rel=0.10)

    def test_coupled_flag_propagates(self, calc, library):
        arc = calc.compute_arc_relative(
            library["INV_X1"], "A", RISING, 100e-12,
            CouplingLoad(c_ground=30e-15, c_couple_active=15e-15),
        )
        assert arc.coupled

    def test_raw_solve_returns_waveform(self, calc, library):
        result = calc.solve_stage_raw(
            library["INV_X1"], "A", InputRamp(RISING, 0.0, 100e-12), LOAD
        )
        assert result.waveform.is_monotone()


class TestNewtonCostTotals:
    def test_sig_cost_matches_iteration_histogram(self, small_design):
        """The per-signature Newton cost totals account for every solve:
        per-layer benchmarks divide their iteration sum by their solve
        count to report Newton iterations per solve."""
        sta = CrosstalkSTA(small_design, StaConfig(mode=AnalysisMode.ONE_STEP))
        sta.run()
        calc = sta.calculator
        histogram = calc.metrics.snapshot()["histograms"]["newton.iterations_per_arc"]
        solves = sum(stats[0] for stats in calc._sig_cost.values())
        iterations = sum(stats[1] for stats in calc._sig_cost.values())
        assert solves > 0
        assert (solves, iterations) == (histogram["count"], histogram["sum"])
        assert solves == calc.evaluations

    def test_lockstep_iterations_in_cache_stats(self, small_design):
        """The batch solver's lockstep iterations reach ``cache_stats()``
        from the shared metrics registry."""
        sta = CrosstalkSTA(small_design, StaConfig(mode=AnalysisMode.BEST_CASE))
        sta.run()
        calc = sta.calculator
        counters = calc.metrics.snapshot()["counters"]
        assert calc.batched_solves > 0
        assert calc.cache_stats()["lockstep_iterations"] == counters[
            "solver.lockstep_iterations"
        ] > 0
