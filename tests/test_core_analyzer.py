"""Tests for the CrosstalkSTA facade."""

import pytest

from repro.core.analyzer import CrosstalkSTA
from repro.core.modes import AnalysisMode, StaConfig, WindowCheck


class TestRun:
    def test_default_mode_is_iterative(self, s27_design):
        result = CrosstalkSTA(s27_design).run()
        assert result.mode is AnalysisMode.ITERATIVE
        assert result.passes >= 2

    def test_explicit_mode_overrides(self, s27_design):
        sta = CrosstalkSTA(s27_design, StaConfig(mode=AnalysisMode.BEST_CASE))
        result = sta.run(AnalysisMode.WORST_CASE)
        assert result.mode is AnalysisMode.WORST_CASE

    def test_result_metadata(self, s27_design):
        result = CrosstalkSTA(s27_design).run(AnalysisMode.ONE_STEP)
        assert result.design_name == "s27"
        assert result.longest_delay > 0
        assert result.longest_delay_ns == pytest.approx(result.longest_delay * 1e9)
        assert result.runtime_seconds > 0
        assert result.critical_endpoint
        assert "s27" in str(result)

    def test_run_all_modes_covers_every_mode(self, s27_design):
        results = CrosstalkSTA(s27_design).run_all_modes()
        assert set(results) == set(AnalysisMode)

    def test_arrival_lookup(self, s27_design):
        result = CrosstalkSTA(s27_design).run(AnalysisMode.BEST_CASE)
        endpoint = result.critical_endpoint
        direction = result.critical_direction
        assert result.arrival(endpoint, direction) == pytest.approx(result.longest_delay)
        with pytest.raises(KeyError):
            result.arrival("nonexistent", "rise")

    def test_shared_calculator_reused(self, s27_design):
        sta = CrosstalkSTA(s27_design)
        sta.run(AnalysisMode.BEST_CASE)
        evals_first = sta.calculator.evaluations
        sta.run(AnalysisMode.BEST_CASE)
        # Second identical run is served from the arc cache.
        assert sta.calculator.evaluations == evals_first

    def test_passed_calculator_batches_like_its_own(self):
        """The solver choice lives in the calculator alone and depends on
        batch size only: a caller-supplied calculator makes the same
        batched solves as the one the analyzer builds, to the same hex."""
        from repro.waveform.gatedelay import GateDelayCalculator
        from tests.golden.make_golden import build_design

        design = build_design("s35932")
        config = StaConfig(mode=AnalysisMode.ONE_STEP)
        passed = CrosstalkSTA(
            design, config, calculator=GateDelayCalculator(process=design.process)
        ).run()
        own = CrosstalkSTA(design, config).run()

        def batched(result):
            return result.telemetry.metrics["counters"]["arc_cache.batched_solves"]

        assert batched(passed) == batched(own) > 0
        assert passed.longest_delay.hex() == own.longest_delay.hex()
        assert passed.arrival_map() == own.arrival_map()

    def test_history_recorded_for_iterative(self, s27_design):
        result = CrosstalkSTA(s27_design).run(AnalysisMode.ITERATIVE)
        assert len(result.history) == result.passes
        assert result.history[0].index == 1

    def test_critical_path_available(self, s27_design):
        sta = CrosstalkSTA(s27_design)
        result = sta.run(AnalysisMode.ITERATIVE)
        path = sta.critical_path(result)
        assert len(path) > 0


class TestCheckpointFingerprint:
    """A checkpoint resumes only into an analysis with the same
    fingerprint.  These digests were recorded while the configuration
    still carried solver-tier fields, so checkpoints written then stay
    resumable: a field appended to the hash, or a default that moved,
    fails here."""

    @pytest.mark.parametrize(
        "overrides, expected",
        [
            (
                {},
                "7d2f9fbf043275601b4ad8dc69d713eb"
                "e3b49ce02fd0f12f5063f648c7d4ec66",
            ),
            (
                {"window_check": WindowCheck.OVERLAP, "esperance": True},
                "65aa248c4e4aec189ea2b5cf783f5d4e"
                "4712d41ec56a1bbb67b95f7098ab64b9",
            ),
            (
                {"provenance": False},
                "b5f9130fa6e88db82835c5ac83b9f744"
                "9c88b8a45a1045fafe13abb826987537",
            ),
        ],
        ids=["iterative", "overlap-esperance", "provenance-off"],
    )
    def test_fingerprint_pinned(self, s27_design, overrides, expected):
        sta = CrosstalkSTA(s27_design, StaConfig(**overrides))
        assert sta.config.mode is AnalysisMode.ITERATIVE
        assert sta._checkpoint_fingerprint(sta.config) == expected


class TestConfig:
    def test_with_mode_preserves_other_fields(self):
        config = StaConfig(guard=7e-12)
        new = config.with_mode(AnalysisMode.WORST_CASE)
        assert new.mode is AnalysisMode.WORST_CASE
        assert new.guard == 7e-12

    def test_window_based_flag(self):
        assert AnalysisMode.ONE_STEP.is_window_based
        assert AnalysisMode.ITERATIVE.is_window_based
        assert not AnalysisMode.WORST_CASE.is_window_based
        assert not AnalysisMode.BEST_CASE.is_window_based
        assert not AnalysisMode.STATIC_DOUBLED.is_window_based

    def test_guard_band_tightens_conservatively(self, s27_design):
        """A larger guard band forces more coupling -> a larger bound."""
        small = CrosstalkSTA(
            s27_design, StaConfig(mode=AnalysisMode.ONE_STEP, guard=1e-12)
        ).run()
        large = CrosstalkSTA(
            s27_design, StaConfig(mode=AnalysisMode.ONE_STEP, guard=200e-12)
        ).run()
        assert large.longest_delay >= small.longest_delay - 1e-15
