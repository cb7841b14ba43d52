"""Deterministic fault-injection suite.

Every test forces a failure mode through :mod:`repro.testing.faults` and
asserts the runtime's contract: results stay conservative (a degraded
bound never decreases), strict mode fails fast with the taxonomy's
types, corrupt artifacts are quarantined, and checkpointed runs resume
bit-identically.
"""

import json
import logging

import pytest

from repro.cli import main
from repro.core.analyzer import CrosstalkSTA
from repro.core.checkpoint import CheckpointManager
from repro.core.iterative import run_iterative
from repro.core.modes import AnalysisMode, StaConfig
from repro.core.propagation import PassResult, Propagator
from repro.core.graph import TimingState
from repro.errors import (
    AnalysisInterrupted,
    CacheError,
    DegradationBudgetError,
    SolverError,
)
from repro.obs import Observability
from repro.testing import (
    corrupt_file,
    interrupt_after_pass,
    newton_failures,
)
from repro.waveform.batchstage import BatchStageSolver
from repro.waveform.coupling import CouplingLoad
from repro.waveform.gatedelay import ArcRequest, GateDelayCalculator
from repro.waveform.stage import StageSolverError


def _run(design, mode=AnalysisMode.ONE_STEP, **config_kwargs):
    sta = CrosstalkSTA(design, StaConfig(mode=mode, **config_kwargs))
    return sta.run()


class TestGracefulDegradation:
    def test_degraded_bound_never_decreases(self, s27_design):
        clean = _run(s27_design)
        with newton_failures(rate=0.3, seed=3):
            degraded = _run(s27_design)
        assert degraded.degraded_arcs, "injection produced no degraded arcs"
        assert degraded.longest_delay >= clean.longest_delay
        # Per-endpoint: no arrival may come out earlier than the clean bound.
        clean_map = clean.arrival_map()
        for key, arrival in degraded.arrival_map().items():
            assert arrival >= clean_map[key]

    def test_all_arcs_degraded_still_conservative(self, s27_design):
        clean = _run(s27_design)
        with newton_failures(rate=1.0, seed=0):
            degraded = _run(s27_design)
        assert len(degraded.degraded_arcs) == degraded.cache_stats["evaluations"]
        assert degraded.longest_delay >= clean.longest_delay

    def test_degradation_is_deterministic(self, s27_design):
        with newton_failures(rate=0.3, seed=7):
            first = _run(s27_design)
        with newton_failures(rate=0.3, seed=7):
            second = _run(s27_design)
        assert first.longest_delay == second.longest_delay
        assert first.degraded_arcs == second.degraded_arcs

    def test_annotations_identify_the_arc(self, s27_design):
        with newton_failures(rate=1.0, seed=0):
            result = _run(s27_design, mode=AnalysisMode.BEST_CASE)
        note = result.degraded_arcs[0]
        assert {"cell", "pin", "input_direction", "bound", "reason"} <= set(note)
        assert "injected Newton failure" in note["reason"]

    def test_degraded_counter_recorded(self, s27_design):
        with newton_failures(rate=1.0, seed=0):
            result = _run(s27_design, mode=AnalysisMode.BEST_CASE)
        assert result.cache_stats["degraded_arcs"] == len(result.degraded_arcs) > 0

    def test_strict_mode_raises_solver_error(self, s27_design):
        with newton_failures(rate=1.0, seed=0):
            with pytest.raises(SolverError):
                _run(s27_design, mode=AnalysisMode.BEST_CASE, strict=True)

    def test_budget_exceeded_raises_with_result(self, s27_design):
        with newton_failures(rate=1.0, seed=0):
            with pytest.raises(DegradationBudgetError) as excinfo:
                _run(s27_design, mode=AnalysisMode.BEST_CASE, max_degraded=0)
        err = excinfo.value
        assert err.degraded > err.budget == 0
        assert err.result is not None
        assert err.result.degraded_arcs

    def test_within_budget_passes(self, s27_design):
        with newton_failures(rate=1.0, seed=0):
            result = _run(
                s27_design, mode=AnalysisMode.BEST_CASE, max_degraded=10_000
            )
        assert result.degraded_arcs


class TestBatchEngineFallback:
    def test_batch_failure_falls_back_per_arc(self, s27_design):
        clean = _run(s27_design)
        with newton_failures(rate=1.0, seed=0):
            degraded = _run(s27_design)
        counters = degraded.telemetry.metrics["counters"]
        assert counters.get("engine.batch_fallbacks", 0) >= 1
        assert degraded.cache_stats["degraded_arcs"] > 0
        assert degraded.longest_delay >= clean.longest_delay

    def test_batch_strict_raises(self, s27_design):
        with newton_failures(rate=1.0, seed=0):
            with pytest.raises(SolverError):
                _run(s27_design, strict=True)


class TestLookaheadFailure:
    """The columnar core's level look-ahead solves predicted keys; a
    failure of that speculative batch is nobody's failure: the waves
    solve the keys as if it had never run."""

    @pytest.mark.parametrize("mode", [AnalysisMode.ONE_STEP, AnalysisMode.ITERATIVE])
    def test_failed_lookahead_is_invisible(self, small_design, monkeypatch, mode):
        clean = _run(small_design, mode=mode)
        failed = []
        speculating = []
        prefetch = GateDelayCalculator.prefetch_keys
        solve_compact = BatchStageSolver.solve_many_compact

        def tracked_prefetch(self, keys):
            speculating.append(True)
            try:
                return prefetch(self, keys)
            finally:
                speculating.pop()

        def failing_compact(self, specs):
            if speculating:
                failed.append(len(specs))
                raise StageSolverError("injected look-ahead failure")
            return solve_compact(self, specs)

        monkeypatch.setattr(GateDelayCalculator, "prefetch_keys", tracked_prefetch)
        monkeypatch.setattr(BatchStageSolver, "solve_many_compact", failing_compact)
        result = _run(small_design, mode=mode, max_degraded=0)
        assert failed, "no look-ahead batch ran"
        assert result.degraded_arcs == []
        counters = result.telemetry.metrics["counters"]
        assert counters.get("propagation.lookahead_solves", 0) == 0
        assert counters.get("engine.batch_fallbacks", 0) == 0
        assert result.longest_delay.hex() == clean.longest_delay.hex()
        arrivals, reference = result.arrival_map(), clean.arrival_map()
        assert set(arrivals) == set(reference)
        for key in reference:
            assert arrivals[key].hex() == reference[key].hex(), key


def _arc_keys(calc, library):
    """Twelve distinct canonical keys for ``prime_keys``."""
    cells = [library[n] for n in ("INV_X1", "NAND2_X1", "NOR2_X1", "INV_X2")]
    keys = []
    for i, ctype in enumerate(cells):
        for j, tt in enumerate((80e-12, 120e-12, 160e-12)):
            request = ArcRequest(
                ctype,
                "A",
                "rise" if j % 2 else "fall",
                tt,
                CouplingLoad(c_ground=(2 + i) * 1e-15),
            )
            keys.append(calc._quantized_key(request))
    return keys


class TestCacheResilience:
    def _warm_cache(self, library, path):
        calc = GateDelayCalculator()
        cells = [library[n] for n in ("INV_X1", "NAND2_X1")]
        calc.prime_keys(_arc_keys(calc, library)[:4])
        calc.save_cache_file(str(path), cells)
        return calc, cells

    def test_truncated_cache_quarantined(self, library, tmp_path):
        path = tmp_path / "arcs.json"
        _, cells = self._warm_cache(library, path)
        corrupt_file(str(path), mode="truncate")
        fresh = GateDelayCalculator()
        assert fresh.load_cache_file(str(path), cells) == 0
        assert fresh.cache_stats()["quarantined"] == 1
        assert (tmp_path / "arcs.json.bad").exists()
        assert not path.exists()

    def test_bitflipped_cache_detected(self, library, tmp_path):
        path = tmp_path / "arcs.json"
        _, cells = self._warm_cache(library, path)
        corrupt_file(str(path), mode="bitflip", seed=5)
        fresh = GateDelayCalculator()
        assert fresh.load_cache_file(str(path), cells) == 0
        # Whatever the flip hit (payload, checksum, or structure), no
        # corrupt entry may be adopted, and the file must be quarantined.
        assert fresh.cache_stats()["quarantined"] == 1
        assert (tmp_path / "arcs.json.bad").exists()

    def test_strict_mode_raises_cache_error(self, library, tmp_path):
        path = tmp_path / "arcs.json"
        _, cells = self._warm_cache(library, path)
        corrupt_file(str(path), mode="truncate")
        strict_calc = GateDelayCalculator(strict=True)
        with pytest.raises(CacheError):
            strict_calc.load_cache_file(str(path), cells)

    def test_rebuild_after_quarantine_roundtrips(self, library, tmp_path):
        path = tmp_path / "arcs.json"
        calc, cells = self._warm_cache(library, path)
        corrupt_file(str(path), mode="truncate")
        fresh = GateDelayCalculator()
        assert fresh.load_cache_file(str(path), cells) == 0
        calc.save_cache_file(str(path), cells)
        assert fresh.load_cache_file(str(path), cells) == len(calc._arc_cache)


class TestCheckpointResume:
    CONFIG = dict(mode=AnalysisMode.ITERATIVE, max_iterations=6)

    def _iterative(self, design, checkpoint=None, after_pass=None):
        calc = GateDelayCalculator(process=design.process)
        propagator = Propagator(
            design, StaConfig(**self.CONFIG), calc, obs=Observability.disabled()
        )
        return run_iterative(propagator, checkpoint=checkpoint, after_pass=after_pass)

    def test_interrupt_then_resume_bit_identical(self, s27_design, tmp_path):
        reference = self._iterative(s27_design)
        path = str(tmp_path / "ck.json")
        manager = CheckpointManager(path, fingerprint="s27-test")
        with pytest.raises(AnalysisInterrupted):
            self._iterative(
                s27_design, checkpoint=manager, after_pass=interrupt_after_pass(1)
            )
        resumed = self._iterative(
            s27_design, checkpoint=CheckpointManager(path, fingerprint="s27-test")
        )
        assert resumed.final.longest_delay == reference.final.longest_delay
        assert resumed.final.arrival_map() == reference.final.arrival_map()
        assert [r.longest_delay for r in resumed.history] == [
            r.longest_delay for r in reference.history
        ]

    def test_converged_checkpoint_returns_without_passes(self, s27_design, tmp_path):
        path = str(tmp_path / "ck.json")
        manager = CheckpointManager(path, fingerprint="s27-test")
        finished = self._iterative(s27_design, checkpoint=manager)
        calc = GateDelayCalculator(process=s27_design.process)
        propagator = Propagator(
            s27_design,
            StaConfig(**self.CONFIG),
            calc,
            obs=Observability.disabled(),
        )
        again = run_iterative(
            propagator, checkpoint=CheckpointManager(path, fingerprint="s27-test")
        )
        assert again.final.longest_delay == finished.final.longest_delay
        assert calc.evaluations == 0, "resume of a converged run re-ran passes"

    def test_corrupt_checkpoint_quarantined_and_restarted(self, s27_design, tmp_path):
        reference = self._iterative(s27_design)
        path = str(tmp_path / "ck.json")
        manager = CheckpointManager(path, fingerprint="s27-test")
        with pytest.raises(AnalysisInterrupted):
            self._iterative(
                s27_design, checkpoint=manager, after_pass=interrupt_after_pass(1)
            )
        corrupt_file(path, mode="truncate")
        restarted = self._iterative(
            s27_design, checkpoint=CheckpointManager(path, fingerprint="s27-test")
        )
        assert restarted.final.longest_delay == reference.final.longest_delay
        assert (tmp_path / "ck.json.bad").exists()

    def test_fingerprint_mismatch_ignores_checkpoint(self, s27_design, tmp_path):
        path = str(tmp_path / "ck.json")
        with pytest.raises(AnalysisInterrupted):
            self._iterative(
                s27_design,
                checkpoint=CheckpointManager(path, fingerprint="config-A"),
                after_pass=interrupt_after_pass(1),
            )
        reference = self._iterative(s27_design)
        other = self._iterative(
            s27_design, checkpoint=CheckpointManager(path, fingerprint="config-B")
        )
        assert other.final.longest_delay == reference.final.longest_delay
        assert other.passes == reference.passes

    def test_analyzer_checkpoint_resume(self, s27_design, tmp_path):
        path = str(tmp_path / "analyzer_ck.json")
        clean = CrosstalkSTA(
            s27_design, StaConfig(mode=AnalysisMode.ITERATIVE)
        ).run()
        first = CrosstalkSTA(
            s27_design, StaConfig(mode=AnalysisMode.ITERATIVE, checkpoint=path)
        ).run()
        assert first.longest_delay == clean.longest_delay
        second = CrosstalkSTA(
            s27_design, StaConfig(mode=AnalysisMode.ITERATIVE, checkpoint=path)
        ).run()
        assert second.longest_delay == clean.longest_delay
        # The converged checkpoint was resumed, not recomputed.
        assert second.cache_stats["evaluations"] == 0


class _FakePropagator:
    """Scripted pass delays to exercise the iterative loop's stop logic."""

    def __init__(self, delays):
        self.delays = list(delays)
        self.calls = 0
        self.config = StaConfig(mode=AnalysisMode.ITERATIVE, max_iterations=10)
        self.order = []
        self.obs = Observability.disabled()

    def run_pass(self, prev_windows=None, recalc_cells=None, prev_state=None):
        delay = self.delays[self.calls]
        self.calls += 1
        return PassResult(state=TimingState(), longest_delay=delay)


class TestOscillationGuard:
    def test_oscillation_detected_and_logged(self, caplog):
        fake = _FakePropagator([10e-9, 9e-9, 10e-9, 8e-9])
        with caplog.at_level(logging.WARNING, logger="repro.core.iterative"):
            result = run_iterative(fake)
        # The loop stops at the bounce-back, reports the best bound, and
        # classifies the stop as oscillation.
        assert fake.calls == 3
        assert result.final.longest_delay == 9e-9
        assert [r.longest_delay for r in result.history] == [10e-9, 9e-9, 10e-9]
        assert any("oscillation" in r.message for r in caplog.records)
        assert (
            fake.obs.metrics.counter("iterative.oscillation_stops").value == 1
        )

    def test_convergence_not_flagged_as_oscillation(self, caplog):
        fake = _FakePropagator([10e-9, 9e-9, 9e-9])
        with caplog.at_level(logging.WARNING, logger="repro.core.iterative"):
            result = run_iterative(fake)
        assert result.final.longest_delay == 9e-9
        assert not any("oscillation" in r.message for r in caplog.records)
        assert (
            fake.obs.metrics.counter("iterative.oscillation_stops").value == 0
        )


class TestCliFaultPaths:
    def test_degraded_run_exits_zero_and_reports_counter(self, tmp_path, capsys):
        target = tmp_path / "metrics.json"
        with newton_failures(rate=1.0, seed=0):
            code = main(
                ["analyze", "s27", "--mode", "best_case", "--metrics", str(target)]
            )
        assert code == 0
        payload = json.loads(target.read_text())
        assert payload["cumulative"]["counters"]["solver.degraded_arcs"] > 0

    def test_budget_flag_maps_to_exit_code_3(self, capsys):
        with newton_failures(rate=1.0, seed=0):
            code = main(
                ["analyze", "s27", "--mode", "best_case", "--max-degraded", "0"]
            )
        assert code == 3

    def test_strict_flag_maps_to_exit_code_4(self, capsys):
        with newton_failures(rate=1.0, seed=0):
            code = main(["analyze", "s27", "--mode", "best_case", "--strict"])
        assert code == 4

    def test_missing_bench_file_maps_to_exit_code_2(self, tmp_path, capsys):
        assert main(["info", str(tmp_path / "nope.bench")]) == 2

    def test_checkpoint_flag_roundtrip(self, tmp_path, capsys):
        path = tmp_path / "ck.json"
        assert main(["analyze", "s27", "--checkpoint", str(path)]) == 0
        assert path.exists()
        assert main(["analyze", "s27", "--checkpoint", str(path)]) == 0
