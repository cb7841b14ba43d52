"""Integration: full STA-versus-simulation validation on s27.

These are the repository's strongest claims (the paper's Section 6):
every analysis mode upper-bounds the simulated delay of its scenario, and
the crosstalk-aware bounds are tight.
"""

import pytest

from repro.core.analyzer import CrosstalkSTA
from repro.core.modes import AnalysisMode
from repro.validate import check_bounds

VALIDATED = [mode for mode in AnalysisMode if mode is not AnalysisMode.STATIC_DOUBLED]


@pytest.fixture(scope="module")
def checks(s27_design):
    sta = CrosstalkSTA(s27_design)
    results = sta.run_all_modes()
    path = sta.critical_path(results[AnalysisMode.ITERATIVE])
    return check_bounds(s27_design, results, path)


class TestBounds:
    def test_quiet_simulation_below_best_case(self, checks):
        assert checks[AnalysisMode.BEST_CASE].holds

    def test_windowed_simulation_below_iterative(self, checks):
        assert checks[AnalysisMode.ITERATIVE].holds

    def test_windowed_simulation_below_one_step(self, checks):
        assert checks[AnalysisMode.ONE_STEP].holds

    def test_worst_simulation_below_worst_case(self, checks):
        assert checks[AnalysisMode.WORST_CASE].holds

    def test_simulations_ordered(self, checks):
        quiet = checks[AnalysisMode.BEST_CASE].simulated
        worst = checks[AnalysisMode.WORST_CASE].simulated
        for mode in (AnalysisMode.ONE_STEP, AnalysisMode.ITERATIVE):
            assert quiet <= checks[mode].simulated + 1e-12
            assert checks[mode].simulated <= worst + 1e-12


class TestTightness:
    def test_iterative_bound_tight(self, checks):
        """The paper stresses "the accuracy of the estimated delay values
        in comparison to the simulations": the bound should be within a
        modest factor of the achievable delay."""
        check = checks[AnalysisMode.ITERATIVE]
        assert check.bound <= check.simulated * 1.25

    def test_best_case_bound_tight(self, checks):
        check = checks[AnalysisMode.BEST_CASE]
        assert check.bound <= check.simulated * 1.25

    def test_coupling_visible_in_simulation(self, checks):
        """Aligned aggressors measurably slow the real (simulated) path."""
        quiet = checks[AnalysisMode.BEST_CASE].simulated
        assert checks[AnalysisMode.WORST_CASE].simulated > quiet * 1.005


class TestRecord:
    def test_one_record_per_validated_mode(self, checks):
        assert list(checks) == VALIDATED
        for mode, check in checks.items():
            assert check.mode is mode
            assert check.simulated > 0

    def test_coupling_impact_positive(self, checks):
        impact = checks[AnalysisMode.WORST_CASE].bound - checks[AnalysisMode.BEST_CASE].bound
        assert impact > 0

    def test_alignment_ran(self, checks):
        assert checks[AnalysisMode.BEST_CASE].iterations == 0
        for mode in VALIDATED[1:]:
            assert checks[mode].iterations >= 1
