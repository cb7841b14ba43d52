"""Performance smoke checks for the delta-driven iterative engine.

Run in CI on tiny inputs: after the first pass has paid for the full
propagation, the delta-driven memo must keep later passes cheap -- the
second pass may issue at most 30% of the first pass's waveform
evaluations.  A regression here (an over-eager fingerprint, a memo that
never matches) would silently return the iterative mode to quadratic
cost without changing any result.
"""

from repro.circuit.benchmarks import s27, s35932_like
from repro.core.analyzer import CrosstalkSTA
from repro.core.modes import AnalysisMode, StaConfig
from repro.flow import prepare_design

PASS2_BUDGET = 0.30


def _iterative_history(circuit):
    design = prepare_design(circuit)
    sta = CrosstalkSTA(design, StaConfig(mode=AnalysisMode.ITERATIVE))
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
