"""Performance smoke checks for the delta-driven iterative engine.

Run in CI on tiny inputs: after the first pass has paid for the full
propagation, the delta-driven memo must keep later passes cheap -- the
second pass may issue at most 30% of the first pass's waveform
evaluations.  A regression here (an over-eager fingerprint, a memo that
never matches) would silently return the iterative mode to quadratic
cost without changing any result.
"""

import pytest

from repro.circuit.benchmarks import s27, s35932_like
from repro.core.analyzer import CrosstalkSTA
from repro.core.modes import AnalysisMode, SolverTier, StaConfig
from repro.flow import prepare_design

PASS2_BUDGET = 0.30

# Screened-tier smoke budget: at most half of the arcs an uncoupled
# screenable mode sees may fall back to full Newton.
ESCALATION_BUDGET = 0.50
SCREEN_TOLERANCE = 100e-12


def _iterative_history(circuit, **config):
    design = prepare_design(circuit)
    sta = CrosstalkSTA(design, StaConfig(mode=AnalysisMode.ITERATIVE, **config))
    result = sta.run()
    assert len(result.history) >= 2, "iterative mode converged in one pass"
    return result


class TestDeltaDrivenReuse:
    def test_s27_second_pass_free(self):
        """On the paper's example circuit the windows stabilize after one
        pass: the convergence pass reuses every arc."""
        result = _iterative_history(s27())
        second = result.history[1]
        assert second.waveform_evaluations == 0
        assert second.dirty_arcs == 0
        assert second.reused_arcs > 0

    def test_tiny_s35932_pass2_within_budget(self):
        """Scaled-down Table 1 circuit: real coupling churn between the
        passes, still >= 70% of the waveform work avoided."""
        result = _iterative_history(s35932_like(scale=0.02))
        first, second = result.history[0], result.history[1]
        assert first.waveform_evaluations > 0
        ratio = second.waveform_evaluations / first.waveform_evaluations
        assert ratio <= PASS2_BUDGET, (
            f"pass 2 issued {second.waveform_evaluations} of "
            f"{first.waveform_evaluations} evaluations ({ratio:.1%} > "
            f"{PASS2_BUDGET:.0%} budget)"
        )
        # The reuse accounting must corroborate: most arcs were clean.
        assert second.reused_arcs > second.dirty_arcs

    def test_incremental_off_pays_full_passes(self):
        """The control: with the memo disabled, pass 2 repeats roughly
        pass 1's work, so the budget above is meaningful."""
        result = _iterative_history(s27(), incremental=False)
        first, second = result.history[0], result.history[1]
        assert second.waveform_evaluations >= 0.5 * first.waveform_evaluations
        assert second.reused_arcs == 0


class TestScreenedBudget:
    """CI budget for the two-tier solver: on the smoke circuit the
    screen must actually absorb work (escalation fraction bounded) and
    the bound it reports must dominate exact."""

    @pytest.mark.parametrize(
        "mode", [AnalysisMode.BEST_CASE, AnalysisMode.STATIC_DOUBLED]
    )
    def test_escalation_fraction_within_budget(self, mode):
        """Uncoupled-screenable modes: with refinement disabled the
        screen should answer at least half the queries itself."""
        design = prepare_design(s35932_like(scale=0.02))
        sta = CrosstalkSTA(
            design,
            StaConfig(
                mode=mode,
                solver_tier=SolverTier.SCREENED,
                screen_tolerance=SCREEN_TOLERANCE,
                screen_slack_margin=0.0,
            ),
        )
        result = sta.run()
        tiers = result.cache_stats["tier_counts"]
        total = sum(tiers.values())
        assert total > 0, "screened run answered no queries"
        fraction = tiers["newton"] / total
        assert fraction <= ESCALATION_BUDGET, (
            f"{mode.value}: {tiers['newton']} of {total} queries escalated "
            f"to Newton ({fraction:.1%} > {ESCALATION_BUDGET:.0%} budget)"
        )
        # The screen paid for itself: cheap-tier answers outnumber the
        # anchor + coarse solves that built the bank.
        stats = result.cache_stats
        cheap = tiers["surface"] + tiers["analytical"]
        assert cheap > stats["anchor_solves"] + stats["coarse_solves"]

    @pytest.mark.parametrize("mode", list(AnalysisMode))
    def test_screened_bound_dominates_exact(self, mode):
        """Conservatism on the smoke circuit in every mode, with the
        default slack refinement keeping the delta inside tolerance."""
        circuit = s35932_like(scale=0.02)
        exact = CrosstalkSTA(
            prepare_design(circuit), StaConfig(mode=mode)
        ).run()
        screened = CrosstalkSTA(
            prepare_design(circuit),
            StaConfig(
                mode=mode,
                solver_tier=SolverTier.SCREENED,
                screen_tolerance=SCREEN_TOLERANCE,
            ),
        ).run()
        delta = screened.longest_delay - exact.longest_delay
        assert delta >= -1e-15
        assert delta <= SCREEN_TOLERANCE + 1e-15


class TestColumnarBudget:
    """CI budgets for the columnar design compile and memory: the
    one-time compile must amortize, and the full-scale run recorded in
    the committed benchmark JSON must fit the CI runner's RAM."""

    # Ubuntu CI runners expose ~7 GB to the job; leave generous headroom.
    RUNNER_RAM_BUDGET_MB = 4096.0
    COMPILE_BUDGET_FRACTION = 0.10
    SMOKE_SCALE = 0.05

    def test_compile_within_budget_of_solve(self):
        """At the benchmark's default scale the columnar compile costs
        at most 10% of a single one-step solve."""
        import time

        design = prepare_design(s35932_like(scale=self.SMOKE_SCALE))
        sta = CrosstalkSTA(design, StaConfig(mode=AnalysisMode.ONE_STEP))
        t0 = time.perf_counter()
        result = sta.run()
        seconds = time.perf_counter() - t0
        assert result.compile_seconds > 0.0, "columnar run recorded no compile"
        assert result.compile_seconds <= self.COMPILE_BUDGET_FRACTION * seconds, (
            f"compile {result.compile_seconds:.3f}s exceeds "
            f"{self.COMPILE_BUDGET_FRACTION:.0%} of the {seconds:.3f}s solve"
        )

    def test_full_scale_memory_within_runner_budget(self):
        """The committed scale-sweep row for scale 1.0 (regenerated by
        benchmarks/bench_perf_baseline.py) must stay under the CI
        runner's RAM, so the full-size benchmark remains runnable."""
        import json
        from pathlib import Path

        bench = Path(__file__).parent.parent / "BENCH_sta_runtime.json"
        payload = json.loads(bench.read_text())
        sweep = payload.get("scale_sweep")
        assert sweep, "BENCH_sta_runtime.json has no scale_sweep section"
        full = [row for row in sweep["scales"] if row["scale"] >= 1.0]
        assert full, "scale sweep has no scale-1.0 row"
        rss = full[0]["peak_rss_mb"]
        assert rss <= self.RUNNER_RAM_BUDGET_MB, (
            f"recorded scale-1.0 peak RSS {rss:.0f} MB exceeds the "
            f"{self.RUNNER_RAM_BUDGET_MB:.0f} MB runner budget"
        )
