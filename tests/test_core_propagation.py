"""Tests for one-pass worst-case propagation and the coupling decisions."""

import pytest

from repro.core.analyzer import CrosstalkSTA
from repro.core.modes import AnalysisMode, StaConfig
from repro.core.propagation import Propagator, ideal_ramp_event
from repro.errors import EngineError
from repro.waveform.pwl import FALLING, RISING


@pytest.fixture(scope="module")
def sta(small_design):
    return CrosstalkSTA(small_design)


@pytest.fixture(scope="module")
def all_results(sta):
    return sta.run_all_modes()


class TestIdealRampEvent:
    def test_markers(self):
        event = ideal_ramp_event(RISING, 0.0, 100e-12, 3.3, 0.2)
        assert event.t_cross == pytest.approx(50e-12)
        assert event.t_early == pytest.approx(100e-12 * 0.2 / 3.3)
        assert event.t_late == pytest.approx(100e-12 * 3.1 / 3.3)

    def test_direction_symmetry(self):
        rise = ideal_ramp_event(RISING, 0.0, 100e-12, 3.3, 0.2)
        fall = ideal_ramp_event(FALLING, 0.0, 100e-12, 3.3, 0.2)
        assert rise.t_early == pytest.approx(fall.t_early)
        assert rise.t_late == pytest.approx(fall.t_late)


class TestPassBasics:
    def test_every_driven_net_has_an_event(self, small_design):
        propagator = Propagator(small_design, StaConfig(mode=AnalysisMode.BEST_CASE))
        result = propagator.run_pass()
        for name, net in small_design.circuit.nets.items():
            if net.driver is None:
                continue
            assert (
                result.state.event(name, RISING) is not None
                or result.state.event(name, FALLING) is not None
            ), name

    def test_arrivals_at_every_endpoint(self, small_design):
        propagator = Propagator(small_design, StaConfig(mode=AnalysisMode.BEST_CASE))
        result = propagator.run_pass()
        endpoints = {a.endpoint for a in result.arrivals}
        assert len(endpoints) == len(small_design.circuit.timing_endpoints())

    def test_longest_delay_is_max_arrival(self, small_design):
        propagator = Propagator(small_design, StaConfig(mode=AnalysisMode.BEST_CASE))
        result = propagator.run_pass()
        assert result.longest_delay == pytest.approx(
            max(a.event.t_cross for a in result.arrivals)
        )

    def test_event_marker_ordering(self, small_design):
        propagator = Propagator(small_design, StaConfig(mode=AnalysisMode.WORST_CASE))
        result = propagator.run_pass()
        for name in small_design.circuit.nets:
            for direction in (RISING, FALLING):
                event = result.state.event(name, direction)
                if event is not None:
                    assert event.t_early <= event.t_cross <= event.t_late

    def test_prev_from_another_compiled_design_rejected(self, small_design):
        config = StaConfig(mode=AnalysisMode.ITERATIVE)
        first = Propagator(small_design, config).run_pass()
        with pytest.raises(EngineError, match="another compiled design"):
            Propagator(small_design, config).run_pass(prev=first.state)

    def test_deterministic(self, small_design):
        config = StaConfig(mode=AnalysisMode.ONE_STEP)
        a = Propagator(small_design, config).run_pass()
        b = Propagator(small_design, config).run_pass()
        assert a.longest_delay == b.longest_delay


class TestModeOrdering:
    """The per-endpoint bound ordering -- the reproduction's central
    invariant (DESIGN.md section 5)."""

    def test_best_below_iterative(self, all_results):
        self._leq(all_results[AnalysisMode.BEST_CASE], all_results[AnalysisMode.ITERATIVE])

    def test_iterative_below_one_step(self, all_results):
        self._leq(all_results[AnalysisMode.ITERATIVE], all_results[AnalysisMode.ONE_STEP])

    def test_one_step_below_worst(self, all_results):
        self._leq(all_results[AnalysisMode.ONE_STEP], all_results[AnalysisMode.WORST_CASE])

    def test_best_below_static_doubled(self, all_results):
        self._leq(all_results[AnalysisMode.BEST_CASE], all_results[AnalysisMode.STATIC_DOUBLED])

    @staticmethod
    def _leq(lo, hi, tol=1e-12):
        lo_map = lo.arrival_map()
        hi_map = hi.arrival_map()
        assert set(lo_map) == set(hi_map)
        for key, value in lo_map.items():
            assert value <= hi_map[key] + tol, key

    def test_coupling_has_real_impact(self, all_results):
        """The design has enough coupling that worst > best measurably
        (otherwise these tests prove nothing)."""
        best = all_results[AnalysisMode.BEST_CASE].longest_delay
        worst = all_results[AnalysisMode.WORST_CASE].longest_delay
        assert worst > best * 1.02

    def test_one_step_improves_on_worst(self, all_results):
        """Quiet lines exist, so the window-based bound must beat
        permanent coupling somewhere (the paper's whole point)."""
        one_step = all_results[AnalysisMode.ONE_STEP].longest_delay
        worst = all_results[AnalysisMode.WORST_CASE].longest_delay
        assert one_step < worst


class TestEvaluationCounts:
    def test_one_step_costs_at_most_two_calcs_per_arc(self, small_design):
        config = StaConfig(mode=AnalysisMode.ONE_STEP)
        propagator = Propagator(small_design, config)
        result = propagator.run_pass()
        assert result.waveform_evaluations <= 2 * result.arcs_processed
        assert result.waveform_evaluations > result.arcs_processed

    def test_fixed_modes_cost_one_calc_per_arc(self, small_design):
        config = StaConfig(mode=AnalysisMode.BEST_CASE)
        result = Propagator(small_design, config).run_pass()
        assert result.waveform_evaluations == result.arcs_processed


class TestCoupledArcs:
    """``coupled_arcs`` counts the pass's ledger rows with an active
    aggressor, in every mode."""

    def test_worst_case_counts_every_arc_with_a_neighbour(self, s27_design):
        result = CrosstalkSTA(s27_design, StaConfig(mode=AnalysisMode.WORST_CASE)).run()
        assert result.arcs_processed == 48
        assert result.coupled_arcs == 42
        assert result.ledger.counts()["coupling"] == {"all_active": 48}

    @pytest.mark.parametrize(
        "mode", [AnalysisMode.BEST_CASE, AnalysisMode.STATIC_DOUBLED]
    )
    def test_grounded_coupling_counts_none(self, s27_design, mode):
        result = CrosstalkSTA(s27_design, StaConfig(mode=mode)).run()
        assert result.coupled_arcs == 0

    def test_one_step_counts_the_overlap_decisions(self, small_design):
        result = CrosstalkSTA(small_design, StaConfig(mode=AnalysisMode.ONE_STEP)).run()
        assert result.coupled_arcs == result.ledger.counts()["coupling"]["overlap"]
        assert 0 < result.coupled_arcs < result.arcs_processed
