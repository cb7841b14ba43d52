"""Tests for result table formatting and the ordering checker."""

import pytest

from repro.core.analyzer import CrosstalkSTA
from repro.core.modes import AnalysisMode
from repro.core.report import (
    MODE_LABELS,
    check_mode_ordering,
    format_table,
    result_rows,
)


@pytest.fixture(scope="module")
def results(small_design):
    return CrosstalkSTA(small_design).run_all_modes()


class TestFormatting:
    def test_table_has_all_rows(self, results):
        text = format_table("tiny", results, cell_count=123)
        for label in MODE_LABELS.values():
            assert label in text
        assert "(123 cells)" in text

    def test_rows_in_paper_order(self, results):
        rows = result_rows(results)
        assert [r.label for r in rows] == [
            "Best case",
            "Static doubled",
            "Worst case",
            "One step",
            "Iterative",
        ]

    def test_partial_results(self, results):
        partial = {AnalysisMode.BEST_CASE: results[AnalysisMode.BEST_CASE]}
        rows = result_rows(partial)
        assert len(rows) == 1


class TestOrderingChecker:
    def test_valid_results_have_no_violations(self, results):
        assert check_mode_ordering(results) == []

    def test_violation_detected(self, results):
        import copy

        broken = dict(results)
        fake = copy.copy(results[AnalysisMode.ITERATIVE])
        fake.longest_delay = results[AnalysisMode.BEST_CASE].longest_delay * 0.5
        broken[AnalysisMode.ITERATIVE] = fake
        violations = check_mode_ordering(broken)
        assert violations
        assert "Best case" in violations[0]

    def test_static_doubled_vs_worst_not_checked(self, results):
        """Not an invariant (see report docstring); the checker stays
        silent regardless of how the two compare."""
        import copy

        tweaked = dict(results)
        fake = copy.copy(results[AnalysisMode.STATIC_DOUBLED])
        fake.longest_delay = results[AnalysisMode.WORST_CASE].longest_delay * 2.0
        tweaked[AnalysisMode.STATIC_DOUBLED] = fake
        violations = check_mode_ordering(tweaked)
        assert all("Static doubled" not in v or "Best case" in v for v in violations)
