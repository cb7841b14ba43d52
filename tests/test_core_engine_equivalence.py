"""Scalar vs batch engine: end-to-end equivalence.

The batch engine is strictly a performance feature: its longest-path
delay bounds must match the scalar reference within the quantization
guard band on every analysis mode (in practice they agree bitwise,
because both engines fill the same quantized arc cache with identical
numerics and share all decision logic).
"""

import pytest

from repro.circuit import s27
from repro.core.analyzer import CrosstalkSTA
from repro.core.modes import (
    AnalysisMode,
    Core,
    Engine,
    SolverTier,
    StaConfig,
    WindowCheck,
)
from repro.flow import prepare_design
from repro.testing import newton_failures


@pytest.fixture(scope="module")
def s27_design():
    return prepare_design(s27())


@pytest.fixture(scope="module")
def results(s27_design):
    out = {}
    for engine in (Engine.SCALAR, Engine.BATCH):
        sta = CrosstalkSTA(s27_design, StaConfig(engine=engine))
        out[engine] = {mode: sta.run(mode) for mode in AnalysisMode}
    return out


class TestEngineEquivalence:
    @pytest.mark.parametrize("mode", list(AnalysisMode))
    def test_longest_delay_within_guard(self, results, mode):
        guard = StaConfig().guard
        scalar = results[Engine.SCALAR][mode]
        batch = results[Engine.BATCH][mode]
        assert abs(scalar.longest_delay - batch.longest_delay) <= guard
        assert scalar.critical_endpoint == batch.critical_endpoint
        assert scalar.critical_direction == batch.critical_direction

    @pytest.mark.parametrize("mode", list(AnalysisMode))
    def test_every_endpoint_arrival_matches(self, results, mode):
        scalar = results[Engine.SCALAR][mode].arrival_map()
        batch = results[Engine.BATCH][mode].arrival_map()
        assert set(scalar) == set(batch)
        guard = StaConfig().guard
        for key in scalar:
            assert abs(scalar[key] - batch[key]) <= guard, key

    def test_same_evaluation_accounting(self, results):
        """Both engines walk the same arcs and make the same decisions."""
        for mode in AnalysisMode:
            scalar = results[Engine.SCALAR][mode]
            batch = results[Engine.BATCH][mode]
            assert scalar.arcs_processed == batch.arcs_processed
            assert scalar.waveform_evaluations == batch.waveform_evaluations
            assert scalar.coupled_arcs == batch.coupled_arcs
            assert scalar.passes == batch.passes

    def test_batch_engine_used_vectorized_solves(self, results):
        stats = results[Engine.BATCH][AnalysisMode.ITERATIVE].cache_stats
        assert stats["batched_solves"] > 0


class TestIncrementalEquivalence:
    """Delta-driven reuse must be invisible in the numbers: the memoized
    relative results re-anchor to exactly what a fresh solve would
    return, so every mode's bound is bit-identical (hex-equal), not
    merely within tolerance."""

    @pytest.fixture(scope="class")
    def pair(self, s27_design):
        out = {}
        for incremental in (True, False):
            sta = CrosstalkSTA(s27_design, StaConfig(incremental=incremental))
            out[incremental] = {mode: sta.run(mode) for mode in AnalysisMode}
        return out

    @pytest.mark.parametrize("mode", list(AnalysisMode))
    def test_longest_delay_bit_identical(self, pair, mode):
        inc, full = pair[True][mode], pair[False][mode]
        assert inc.longest_delay.hex() == full.longest_delay.hex()
        assert inc.critical_endpoint == full.critical_endpoint
        assert inc.critical_direction == full.critical_direction

    @pytest.mark.parametrize("mode", list(AnalysisMode))
    def test_every_pass_bit_identical(self, pair, mode):
        inc, full = pair[True][mode], pair[False][mode]
        assert len(inc.history) == len(full.history)
        for ri, rf in zip(inc.history, full.history):
            assert ri.longest_delay.hex() == rf.longest_delay.hex()

    @pytest.mark.parametrize("mode", list(AnalysisMode))
    def test_every_endpoint_arrival_bit_identical(self, pair, mode):
        inc = pair[True][mode].arrival_map()
        full = pair[False][mode].arrival_map()
        assert set(inc) == set(full)
        for key in inc:
            assert inc[key].hex() == full[key].hex(), key

    def test_iterative_later_passes_reuse(self, pair):
        """Once windows and ramp shapes stabilize, later passes skip the
        waveform work entirely on this small design."""
        history = pair[True][AnalysisMode.ITERATIVE].history
        assert len(history) >= 2
        assert history[1].waveform_evaluations == 0
        assert history[1].reused_arcs > 0
        assert history[1].dirty_arcs == 0
        # The non-incremental run pays the full pass every time.
        full_history = pair[False][AnalysisMode.ITERATIVE].history
        assert full_history[1].waveform_evaluations > 0
        assert full_history[1].reused_arcs == 0


class TestSolverTierEquivalence:
    """The exact tier must be a true no-op: explicitly requesting
    ``SolverTier.EXACT`` is hex-identical to the default config in every
    mode.  The screened tier is a conservative accelerator: its bound
    may sit above exact, never below, and never beyond the tolerance."""

    @pytest.fixture(scope="class")
    def exact_pair(self, s27_design):
        default = CrosstalkSTA(s27_design, StaConfig())
        explicit = CrosstalkSTA(
            s27_design, StaConfig(solver_tier=SolverTier.EXACT)
        )
        return (
            {mode: default.run(mode) for mode in AnalysisMode},
            {mode: explicit.run(mode) for mode in AnalysisMode},
        )

    @pytest.mark.parametrize("mode", list(AnalysisMode))
    def test_exact_tier_bit_identical_to_default(self, exact_pair, mode):
        default, explicit = exact_pair
        assert (
            default[mode].longest_delay.hex()
            == explicit[mode].longest_delay.hex()
        )
        assert default[mode].critical_endpoint == explicit[mode].critical_endpoint
        d_arrivals = default[mode].arrival_map()
        e_arrivals = explicit[mode].arrival_map()
        assert set(d_arrivals) == set(e_arrivals)
        for key in d_arrivals:
            assert d_arrivals[key].hex() == e_arrivals[key].hex(), key

    def test_exact_tier_reports_no_screen_activity(self, exact_pair):
        _, explicit = exact_pair
        stats = explicit[AnalysisMode.ITERATIVE].cache_stats
        assert stats["solver_tier"] == "exact"
        assert stats["tier_counts"]["surface"] == 0
        assert stats["tier_counts"]["analytical"] == 0

    @pytest.mark.parametrize("mode", list(AnalysisMode))
    def test_screened_conservative_within_tolerance(self, s27_design, mode):
        tolerance = 100e-12
        exact = CrosstalkSTA(s27_design, StaConfig(mode=mode)).run()
        screened = CrosstalkSTA(
            s27_design,
            StaConfig(
                mode=mode,
                solver_tier=SolverTier.SCREENED,
                screen_tolerance=tolerance,
            ),
        ).run()
        delta = screened.longest_delay - exact.longest_delay
        assert delta >= -1e-15
        assert delta <= tolerance + 1e-15

    def test_screened_composes_with_incremental(self, s27_design):
        """Screened + memoized passes compose: disabling incremental
        reuse leaves the reported bound bit-identical, and the memoized
        run still reuses arcs once windows stabilize."""
        results = {}
        for incremental in (True, False):
            sta = CrosstalkSTA(
                s27_design,
                StaConfig(
                    mode=AnalysisMode.ITERATIVE,
                    incremental=incremental,
                    solver_tier=SolverTier.SCREENED,
                ),
            )
            results[incremental] = sta.run()
        inc, full = results[True], results[False]
        assert inc.longest_delay.hex() == full.longest_delay.hex()
        assert inc.critical_endpoint == full.critical_endpoint
        assert any(record.reused_arcs > 0 for record in inc.history[1:])
        assert all(record.reused_arcs == 0 for record in full.history)

    def test_screened_composes_with_checkpoint(self, s27_design, tmp_path):
        """A screened iterative run checkpoints and resumes; the resumed
        result matches a straight-through screened run, and the
        checkpoint is keyed to the tier so an exact run never resumes
        screened state."""
        path = tmp_path / "screened.ckpt"
        config = StaConfig(
            mode=AnalysisMode.ITERATIVE,
            solver_tier=SolverTier.SCREENED,
            checkpoint=str(path),
        )
        straight = CrosstalkSTA(s27_design, config).run()
        resumed = CrosstalkSTA(s27_design, config).run()
        assert resumed.longest_delay.hex() == straight.longest_delay.hex()
        exact_config = StaConfig(
            mode=AnalysisMode.ITERATIVE, checkpoint=str(path)
        )
        exact = CrosstalkSTA(s27_design, exact_config).run()
        reference = CrosstalkSTA(
            s27_design, StaConfig(mode=AnalysisMode.ITERATIVE)
        ).run()
        assert exact.longest_delay.hex() == reference.longest_delay.hex()

    def test_screened_composes_with_degradation(self, s27_design):
        """Degraded (fault-substituted) solves stay out of the screen
        bank, so graceful degradation under the screened tier still
        yields a bound no smaller than the clean exact run."""
        clean = CrosstalkSTA(
            s27_design, StaConfig(mode=AnalysisMode.ONE_STEP)
        ).run()
        with newton_failures(rate=0.3, seed=3):
            degraded = CrosstalkSTA(
                s27_design,
                StaConfig(
                    mode=AnalysisMode.ONE_STEP,
                    solver_tier=SolverTier.SCREENED,
                ),
            ).run()
        assert degraded.degraded_arcs, "injection produced no degraded arcs"
        assert degraded.longest_delay >= clean.longest_delay - 1e-15


class TestWorkerPool:
    def test_pooled_batch_matches_scalar(self, s27_design):
        """Opt-in multi-process fan-out produces the same bound."""
        scalar = CrosstalkSTA(s27_design, StaConfig(engine=Engine.SCALAR)).run(
            AnalysisMode.ONE_STEP
        )
        sta = CrosstalkSTA(
            s27_design, StaConfig(engine=Engine.BATCH, workers=2)
        )
        pooled = sta.run(AnalysisMode.ONE_STEP)
        sta.calculator.close()
        assert abs(scalar.longest_delay - pooled.longest_delay) <= StaConfig().guard


class TestColumnarCoreEquivalence:
    """Columnar vs object core: the structure-of-arrays core is strictly
    a performance feature, so the exact tier must be ``float.hex()``-
    identical -- every endpoint arrival, every pass, every counter --
    in all five modes and in every composition (incremental on/off,
    checkpointed resume, screened tier)."""

    @pytest.fixture(scope="class")
    def core_pair(self, s27_design):
        out = {}
        for core in (Core.OBJECT, Core.COLUMNAR):
            sta = CrosstalkSTA(s27_design, StaConfig(core=core))
            out[core] = {mode: sta.run(mode) for mode in AnalysisMode}
        return out

    @pytest.mark.parametrize("mode", list(AnalysisMode))
    def test_arrivals_bit_identical(self, core_pair, mode):
        obj = core_pair[Core.OBJECT][mode].arrival_map()
        col = core_pair[Core.COLUMNAR][mode].arrival_map()
        assert set(obj) == set(col)
        for key in obj:
            assert obj[key].hex() == col[key].hex(), key

    @pytest.mark.parametrize("mode", list(AnalysisMode))
    def test_longest_delay_and_accounting_identical(self, core_pair, mode):
        obj = core_pair[Core.OBJECT][mode]
        col = core_pair[Core.COLUMNAR][mode]
        assert obj.longest_delay.hex() == col.longest_delay.hex()
        assert obj.critical_endpoint == col.critical_endpoint
        assert obj.critical_direction == col.critical_direction
        assert obj.arcs_processed == col.arcs_processed
        assert obj.waveform_evaluations == col.waveform_evaluations
        assert obj.coupled_arcs == col.coupled_arcs
        assert obj.passes == col.passes

    @pytest.mark.parametrize("mode", list(AnalysisMode))
    def test_every_pass_bit_identical(self, core_pair, mode):
        obj = core_pair[Core.OBJECT][mode]
        col = core_pair[Core.COLUMNAR][mode]
        assert len(obj.history) == len(col.history)
        for ro, rc in zip(obj.history, col.history):
            assert ro.longest_delay.hex() == rc.longest_delay.hex()
            assert ro.waveform_evaluations == rc.waveform_evaluations
            assert ro.dirty_arcs == rc.dirty_arcs
            assert ro.reused_arcs == rc.reused_arcs

    @pytest.mark.parametrize("mode", list(AnalysisMode))
    def test_provenance_ledger_identical(self, core_pair, mode):
        obj = core_pair[Core.OBJECT][mode].ledger
        col = core_pair[Core.COLUMNAR][mode].ledger
        assert obj is not None and col is not None
        assert len(obj) == len(col)
        assert obj.counts() == col.counts()

    @pytest.mark.parametrize("incremental", [True, False])
    def test_incremental_composition_identical(self, s27_design, incremental):
        results = {}
        for core in (Core.OBJECT, Core.COLUMNAR):
            sta = CrosstalkSTA(
                s27_design,
                StaConfig(
                    mode=AnalysisMode.ITERATIVE,
                    core=core,
                    incremental=incremental,
                ),
            )
            results[core] = sta.run()
        obj, col = results[Core.OBJECT], results[Core.COLUMNAR]
        assert obj.longest_delay.hex() == col.longest_delay.hex()
        for ro, rc in zip(obj.history, col.history):
            assert ro.waveform_evaluations == rc.waveform_evaluations
            assert ro.reused_arcs == rc.reused_arcs

    def test_checkpoint_cross_core_resume(self, s27_design, tmp_path):
        """Checkpoints are core-agnostic: a run interrupted under one
        core resumes under the other to the bit-identical result."""
        reference = CrosstalkSTA(
            s27_design,
            StaConfig(mode=AnalysisMode.ITERATIVE, core=Core.OBJECT),
        ).run()
        for first, second in (
            (Core.OBJECT, Core.COLUMNAR),
            (Core.COLUMNAR, Core.OBJECT),
        ):
            path = tmp_path / f"{first.value}-{second.value}.ckpt"
            config_first = StaConfig(
                mode=AnalysisMode.ITERATIVE, core=first, checkpoint=str(path)
            )
            CrosstalkSTA(s27_design, config_first).run()
            config_second = StaConfig(
                mode=AnalysisMode.ITERATIVE, core=second, checkpoint=str(path)
            )
            resumed = CrosstalkSTA(s27_design, config_second).run()
            assert resumed.longest_delay.hex() == reference.longest_delay.hex()

    @pytest.mark.parametrize("mode", list(AnalysisMode))
    def test_screened_composition_identical(self, s27_design, mode):
        results = {}
        for core in (Core.OBJECT, Core.COLUMNAR):
            sta = CrosstalkSTA(
                s27_design,
                StaConfig(
                    mode=mode,
                    core=core,
                    solver_tier=SolverTier.SCREENED,
                ),
            )
            results[core] = sta.run()
        obj, col = results[Core.OBJECT], results[Core.COLUMNAR]
        assert obj.longest_delay.hex() == col.longest_delay.hex()
        assert obj.waveform_evaluations == col.waveform_evaluations
        obj_a, col_a = obj.arrival_map(), col.arrival_map()
        assert set(obj_a) == set(col_a)
        for key in obj_a:
            assert obj_a[key].hex() == col_a[key].hex(), key

    def test_warm_start_cross_core(self, s27_design):
        """The session what-if path: a columnar analyzer warm-started
        from an object analyzer's memo (and vice versa) reuses every
        unchanged arc and reports the bit-identical bound."""
        cold = {}
        for core in (Core.OBJECT, Core.COLUMNAR):
            sta = CrosstalkSTA(
                s27_design,
                StaConfig(mode=AnalysisMode.ITERATIVE, core=core),
                keep_propagators=True,
            )
            cold[core] = (sta, sta.run())
        for source, target in (
            (Core.OBJECT, Core.COLUMNAR),
            (Core.COLUMNAR, Core.OBJECT),
        ):
            warm_sta = CrosstalkSTA(
                s27_design, StaConfig(mode=AnalysisMode.ITERATIVE, core=target)
            )
            warm_sta.warm_start_from(cold[source][0])
            warm = warm_sta.run()
            assert (
                warm.longest_delay.hex()
                == cold[target][1].longest_delay.hex()
            )
            assert warm.history[0].reused_arcs > 0


def _lookahead_solves(result) -> tuple[int, int]:
    """(look-ahead solves, wave-time catch-up solves) of one run."""
    counters = result.telemetry.metrics["counters"]
    return (
        counters.get("propagation.lookahead_solves", 0),
        counters.get("propagation.catchup_solves", 0),
    )


class TestLookaheadExactness:
    """The columnar core's level look-ahead, on a fixture with real wave
    structure (8 levels, up to 7 coupling waves in one level; s27 has at
    most 2).  With the batch engine the core solves each level's
    predicted coupled keys in one batch ahead of its waves; the scalar
    engine never primes.  Both must agree ``float.hex()``-exactly on
    every endpoint arrival and every pass."""

    CONFIGS = {
        **{mode.value: {"mode": mode} for mode in AnalysisMode},
        "one_step-overlap": {
            "mode": AnalysisMode.ONE_STEP,
            "window_check": WindowCheck.OVERLAP,
        },
        "iterative-overlap": {
            "mode": AnalysisMode.ITERATIVE,
            "window_check": WindowCheck.OVERLAP,
        },
        "iterative-no-incremental": {
            "mode": AnalysisMode.ITERATIVE,
            "incremental": False,
        },
    }

    @pytest.mark.parametrize("name", list(CONFIGS))
    def test_batch_matches_scalar(self, small_design, name):
        runs = {}
        for engine in (Engine.SCALAR, Engine.BATCH):
            config = StaConfig(engine=engine, **self.CONFIGS[name])
            runs[engine] = CrosstalkSTA(small_design, config).run()
        scalar, batch = runs[Engine.SCALAR], runs[Engine.BATCH]
        scalar_a, batch_a = scalar.arrival_map(), batch.arrival_map()
        assert set(scalar_a) == set(batch_a)
        for key in scalar_a:
            assert scalar_a[key].hex() == batch_a[key].hex(), key
        assert len(scalar.history) == len(batch.history)
        for rs, rb in zip(scalar.history, batch.history):
            assert rs.longest_delay.hex() == rb.longest_delay.hex()
            assert rs.waveform_evaluations == rb.waveform_evaluations
            assert rs.dirty_arcs == rb.dirty_arcs
            assert rs.reused_arcs == rb.reused_arcs
        assert _lookahead_solves(scalar) == (0, 0)
        ahead, catchup = _lookahead_solves(batch)
        if config.mode.is_window_based:
            histograms = batch.telemetry.metrics["histograms"]
            assert histograms["propagation.waves_per_level"]["max"] == 7
            # Most coupled keys are predicted right (here 95% or more): a
            # key drifting apart between look-ahead and waves shows here.
            assert ahead > 0
            assert catchup < ahead / 4
        else:
            assert (ahead, catchup) == (0, 0)

    @pytest.mark.parametrize("mode", [AnalysisMode.ONE_STEP, AnalysisMode.ITERATIVE])
    def test_screened_tier_never_looks_ahead(self, small_design, mode):
        config = StaConfig(
            mode=mode, engine=Engine.BATCH, solver_tier=SolverTier.SCREENED
        )
        result = CrosstalkSTA(small_design, config).run()
        assert _lookahead_solves(result) == (0, 0)


class TestCompiledDesignInterning:
    """The id spaces of :class:`CompiledDesign` are deterministic: an
    identical circuit compiles to identical ids, so cached compiled
    designs, memo columns and provenance rows can be exchanged."""

    def test_recompile_is_id_stable(self, s27_design):
        from repro.core.columnar import compile_design

        a = compile_design(s27_design)
        b = compile_design(prepare_design(s27()))
        assert a.net_names == b.net_names
        assert a.net_id == b.net_id
        assert a.cell_id == b.cell_id
        assert a.n_arcs == b.n_arcs
        assert a.arc_key_index == b.arc_key_index
        for name in (
            "arc_cell",
            "arc_out_net",
            "arc_in_net",
            "arc_in_dir",
            "arc_elmore",
            "arc_is_ff",
            "level_indptr",
            "coup_indptr",
            "coup_net",
            "coup_cap",
            "net_c_fixed",
            "net_cc_total",
        ):
            assert (getattr(a, name) == getattr(b, name)).all(), name

    def test_arc_key_index_round_trip(self, s27_design):
        """Every arc id maps back to the (cell, pin, direction) key that
        interned it, and lookups of that key return the same id."""
        from repro.core.columnar import DIRECTIONS, compile_design

        cp = compile_design(s27_design)
        assert len(cp.arc_key_index) == cp.n_arcs
        for key, arc in cp.arc_key_index.items():
            cell_name, pin, direction = key
            assert cp.cells[cp.arc_cell[arc]].name == cell_name
            assert cp.arc_pin[arc] == pin
            assert DIRECTIONS[cp.arc_in_dir[arc]] == direction

    def test_level_slabs_cover_all_arcs_contiguously(self, s27_design):
        from repro.core.columnar import compile_design

        cp = compile_design(s27_design)
        assert cp.level_indptr[0] == 0
        assert cp.level_indptr[-1] == cp.n_arcs
        assert (cp.level_indptr[1:] >= cp.level_indptr[:-1]).all()
