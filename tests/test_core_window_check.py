"""Tests for the two-sided OVERLAP window check (extension of the paper's
one-sided quiescence comparison)."""

import pytest

from repro.core.analyzer import CrosstalkSTA
from repro.core.modes import AnalysisMode, StaConfig, WindowCheck
from repro.core.propagation import Propagator


@pytest.fixture(scope="module")
def runs(small_design):
    results = {}
    for check in WindowCheck:
        for mode in (AnalysisMode.ONE_STEP, AnalysisMode.ITERATIVE):
            config = StaConfig(mode=mode, window_check=check)
            results[(check, mode)] = CrosstalkSTA(small_design, config).run()
    return results


class TestOverlap:
    def test_default_is_the_papers_check(self):
        assert StaConfig().window_check is WindowCheck.QUIET

    def test_overlap_never_looser(self, runs):
        for mode in (AnalysisMode.ONE_STEP, AnalysisMode.ITERATIVE):
            quiet = runs[(WindowCheck.QUIET, mode)]
            overlap = runs[(WindowCheck.OVERLAP, mode)]
            assert overlap.longest_delay <= quiet.longest_delay + 1e-12

    def test_overlap_never_looser_per_endpoint(self, runs):
        quiet = runs[(WindowCheck.QUIET, AnalysisMode.ITERATIVE)].arrival_map()
        overlap = runs[(WindowCheck.OVERLAP, AnalysisMode.ITERATIVE)].arrival_map()
        for key, value in overlap.items():
            assert value <= quiet[key] + 1e-12, key

    def test_overlap_still_above_best_case(self, runs, small_design):
        best = CrosstalkSTA(small_design).run(AnalysisMode.BEST_CASE)
        overlap = runs[(WindowCheck.OVERLAP, AnalysisMode.ITERATIVE)]
        best_map = best.arrival_map()
        for key, value in overlap.arrival_map().items():
            assert value >= best_map[key] - 1e-12, key

    def test_overlap_costs_more_evaluations(self, small_design):
        quiet = Propagator(
            small_design, StaConfig(mode=AnalysisMode.ONE_STEP)
        ).run_pass()
        overlap = Propagator(
            small_design,
            StaConfig(mode=AnalysisMode.ONE_STEP, window_check=WindowCheck.OVERLAP),
        ).run_pass()
        assert overlap.waveform_evaluations >= quiet.waveform_evaluations
        # At most one extra (all-active) calculation per arc.
        assert overlap.waveform_evaluations <= 3 * overlap.arcs_processed

    def test_overlap_bound_still_holds_vs_simulation(self, s27_design):
        """The tighter bound is still an upper bound for feasible-window
        simulation."""
        from repro.validate import check_bounds

        config = StaConfig(mode=AnalysisMode.ITERATIVE, window_check=WindowCheck.OVERLAP)
        sta = CrosstalkSTA(s27_design, config)
        result = sta.run()
        path = sta.critical_path(result)
        checks = check_bounds(
            s27_design, {AnalysisMode.ITERATIVE: result}, path, WindowCheck.OVERLAP
        )
        assert checks[AnalysisMode.ITERATIVE].holds
