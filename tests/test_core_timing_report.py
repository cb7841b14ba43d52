"""Tests for K-worst-path extraction and its per-stage report."""

import pytest

from repro.core.analyzer import CrosstalkSTA
from repro.core.modes import AnalysisMode
from repro.core.explain import explain_result
from repro.core.paths import k_worst_paths


@pytest.fixture(scope="module")
def analysis(small_design):
    result = CrosstalkSTA(small_design).run(AnalysisMode.ITERATIVE)
    return small_design, result


class TestKWorstPaths:
    def test_count_and_order(self, analysis):
        design, result = analysis
        paths = k_worst_paths(design.circuit, result.final_pass, k=5)
        assert len(paths) == 5
        delays = [p.steps[-1].event.t_cross for p in paths]
        assert delays == sorted(delays, reverse=True)

    def test_first_is_the_critical_path(self, analysis):
        design, result = analysis
        paths = k_worst_paths(design.circuit, result.final_pass, k=1)
        assert paths[0].endpoint == result.critical_endpoint
        assert paths[0].direction == result.critical_direction

    def test_k_larger_than_endpoints(self, analysis):
        design, result = analysis
        total = len(result.final_pass.arrivals)
        paths = k_worst_paths(design.circuit, result.final_pass, k=total + 50)
        assert len(paths) == total

    def test_si_flag_marks_coupled_stages(self, analysis):
        """The per-stage report of these paths (``repro explain --paths
        K``) flags exactly the stages whose winning arc coupled."""
        design, result = analysis
        paths = k_worst_paths(design.circuit, result.final_pass, k=3)
        paths = [path for path in paths if path.steps]
        payload = explain_result(design.circuit, result, k=3)
        assert len(payload["paths"]) == len(paths)
        for path, explained in zip(paths, payload["paths"]):
            gates = [s for s in explained["stages"] if s["kind"] == "gate"]
            assert [s["coupled"] for s in gates] == [step.coupled for step in path.steps]
        assert any(step.coupled for path in paths for step in path.steps)
