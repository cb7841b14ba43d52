"""Tests for the bound-versus-simulation harness's scenario policy.

The simulation primitives are replaced by recorders here, so these tests
pin which circuit state and which aggressor windows each mode is checked
under without running the simulator (tests/test_integration_validation.py
runs it).
"""

import math

import pytest

from repro.core.analyzer import CrosstalkSTA
from repro.core.modes import AnalysisMode, StaConfig, WindowCheck
from repro.validate import compare
from repro.validate.align import SimulationOutcome
from repro.validate.compare import BoundCheck, check_bounds, format_bound_checks


def run_modes(design, window_check):
    sta = CrosstalkSTA(design, StaConfig(window_check=window_check))
    results = sta.run_all_modes()
    return results, sta.critical_path(results[AnalysisMode.ITERATIVE])


@pytest.fixture
def recorded(monkeypatch):
    """Replace circuit building and simulation with recorders; each
    simulation reports the endpoint arrival it was given."""
    calls = []

    def build(design, path, state):
        return state

    def quiet(circuit):
        calls.append(("quiet", circuit, None))
        return SimulationOutcome(endpoint_arrival=1e-10, stimulus_cross=0.0, result=None)

    def align(circuit, windows=None):
        calls.append(("align", circuit, windows))
        outcome = SimulationOutcome(endpoint_arrival=2e-10, stimulus_cross=0.0, result=None)
        outcome.history = [None, None]
        return outcome

    monkeypatch.setattr(compare, "build_path_circuit", build)
    monkeypatch.setattr(compare, "quiet_simulation", quiet)
    monkeypatch.setattr(compare, "align_aggressors", align)
    return calls


class TestScenarioPerMode:
    @pytest.mark.parametrize("window_check", list(WindowCheck))
    def test_each_mode_simulated_from_its_own_state(
        self, small_design, recorded, window_check
    ):
        results, path = run_modes(small_design, window_check)
        checks = check_bounds(small_design, results, path, window_check)
        validated = [m for m in AnalysisMode if m is not AnalysisMode.STATIC_DOUBLED]
        assert list(checks) == validated
        states = [circuit for _, circuit, _ in recorded]
        assert states == [results[m].final_pass.state for m in validated]
        for mode, check in checks.items():
            assert check.bound == results[mode].longest_delay

    def test_best_case_quiet_worst_case_unconstrained(self, small_design, recorded):
        results, path = run_modes(small_design, WindowCheck.QUIET)
        checks = check_bounds(small_design, results, path)
        kinds = [(kind, windows) for kind, _, windows in recorded]
        assert kinds[0] == ("quiet", None)
        assert kinds[1] == ("align", None)
        assert checks[AnalysisMode.BEST_CASE].iterations == 0
        assert checks[AnalysisMode.WORST_CASE].iterations == 2

    def test_quiet_check_windows_are_open_early(self, small_design, recorded):
        results, path = run_modes(small_design, WindowCheck.QUIET)
        check_bounds(small_design, results, path, WindowCheck.QUIET)
        for (_, state, windows), mode in zip(
            recorded[2:], (AnalysisMode.ONE_STEP, AnalysisMode.ITERATIVE)
        ):
            quiet_times = results[mode].final_pass.state.quiet_snapshot()
            assert state is results[mode].final_pass.state
            assert len(windows) == len(quiet_times)
            for key, quiet in quiet_times.items():
                assert windows[key] == (-math.inf, quiet)

    def test_overlap_check_uses_two_sided_windows(self, small_design, recorded):
        results, path = run_modes(small_design, WindowCheck.OVERLAP)
        check_bounds(small_design, results, path, WindowCheck.OVERLAP)
        for (_, state, windows), mode in zip(
            recorded[2:], (AnalysisMode.ONE_STEP, AnalysisMode.ITERATIVE)
        ):
            assert dict(windows) == dict(state.window_snapshot())

    def test_static_doubled_not_simulated(self, small_design, recorded):
        results, path = run_modes(small_design, WindowCheck.QUIET)
        only = {AnalysisMode.STATIC_DOUBLED: results[AnalysisMode.STATIC_DOUBLED]}
        assert check_bounds(small_design, only, path) == {}
        assert recorded == []


class TestRecord:
    def test_holds_is_simulated_within_bound(self):
        at = BoundCheck(AnalysisMode.ONE_STEP, "s", simulated=1e-9, bound=1e-9, iterations=1)
        over = BoundCheck(AnalysisMode.ONE_STEP, "s", simulated=2e-9, bound=1e-9, iterations=1)
        assert at.holds
        assert not over.holds

    def test_format_marks_violations(self):
        checks = {
            AnalysisMode.BEST_CASE: BoundCheck(
                AnalysisMode.BEST_CASE, "quiet aggressors", 1e-9, 2e-9, 0
            ),
            AnalysisMode.ITERATIVE: BoundCheck(
                AnalysisMode.ITERATIVE, "aligned, quiet check", 3e-9, 2e-9, 5
            ),
        }
        lines = format_bound_checks(checks).splitlines()
        assert len(lines) == 4
        assert lines[2].startswith("Best case") and lines[2].endswith("yes")
        assert lines[3].startswith("Iterative") and lines[3].endswith("NO")
        assert "3.000" in lines[3]
