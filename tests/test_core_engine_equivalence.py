"""The propagation path against the golden digests, in every composition.

The analyzer once offered two propagation cores (object graph and
columnar) and two waveform engines (scalar and batch).  The digests in
``tests/golden/propagation.json`` were recorded while all four
combinations existed and agreed ``float.hex()``-exactly on every
endpoint arrival, pass and counter, so they stand in for the deleted
reference paths: the tests below re-derive them through every
composition the old pairwise checks covered -- an analyzer shared
across modes, the pass-to-pass memo, checkpoint resume, warm starts and
the level look-ahead.
"""

import pytest

from repro.circuit import s27
from repro.core.analyzer import CrosstalkSTA
from repro.core.modes import AnalysisMode, StaConfig
from repro.flow import prepare_design
from tests.golden.make_golden import VARIANTS, digest, mismatches, run_variant

# The digest fields that do not depend on the arc cache's history (the
# ledger's origin counts do: a shared analyzer turns fresh solves into
# dedup hits).
TIMING_FIELDS = [
    "longest_delay",
    "critical",
    "arrivals_sha256",
    "passes",
    "arcs",
    "coupled_arcs",
]


@pytest.fixture(scope="module")
def s27_design():
    return prepare_design(s27())


@pytest.fixture(scope="module")
def results(s27_design):
    """All five modes on one analyzer (shared arc cache)."""
    sta = CrosstalkSTA(s27_design, StaConfig())
    return {mode: sta.run(mode) for mode in AnalysisMode}


def _golden(design, key, result, fields=None):
    return mismatches(key, digest(design, result), fields)


class TestEngineEquivalence:
    """A shared analyzer's arc cache serves later modes from earlier
    modes' solves; that must never move a number."""

    @pytest.mark.parametrize("mode", list(AnalysisMode))
    def test_longest_delay_within_guard(self, s27_design, results, mode):
        assert _golden(
            s27_design, f"s27/{mode.value}", results[mode], ["longest_delay", "critical"]
        ) == []

    @pytest.mark.parametrize("mode", list(AnalysisMode))
    def test_every_endpoint_arrival_matches(self, s27_design, results, mode):
        assert _golden(
            s27_design, f"s27/{mode.value}", results[mode], ["arrivals_sha256"]
        ) == []

    def test_same_evaluation_accounting(self, s27_design, results):
        """Every mode walks the recorded arcs and makes the recorded
        decisions: arc counts and per-pass work match the digests."""
        for mode in AnalysisMode:
            assert _golden(
                s27_design,
                f"s27/{mode.value}",
                results[mode],
                ["arcs", "coupled_arcs", "passes"],
            ) == []

    def test_batch_engine_used_vectorized_solves(self, small_design):
        """On the small design, unlike s27, some batches reach MIN_BATCH
        keys and go to the batch solver."""
        sta = CrosstalkSTA(small_design, StaConfig())
        stats = sta.run(AnalysisMode.ITERATIVE).cache_stats
        assert stats["batched_solves"] > 0


class TestColumnarCoreEquivalence:
    """The digests were recorded while the object core still agreed with
    the columnar one; a fresh analyzer per mode reproduces every field
    (provenance ledger included) in every composition: the pass-to-pass
    memo, checkpoint resume, warm start."""

    @pytest.fixture(scope="class")
    def fresh(self, s27_design):
        return {mode: run_variant(s27_design, mode.value) for mode in AnalysisMode}

    @pytest.mark.parametrize("mode", list(AnalysisMode))
    def test_arrivals_bit_identical(self, s27_design, fresh, mode):
        assert _golden(
            s27_design, f"s27/{mode.value}", fresh[mode], ["arrivals_sha256"]
        ) == []

    @pytest.mark.parametrize("mode", list(AnalysisMode))
    def test_longest_delay_and_accounting_identical(self, s27_design, fresh, mode):
        assert _golden(
            s27_design, f"s27/{mode.value}", fresh[mode], TIMING_FIELDS
        ) == []

    @pytest.mark.parametrize("mode", list(AnalysisMode))
    def test_every_pass_bit_identical(self, s27_design, fresh, mode):
        assert _golden(s27_design, f"s27/{mode.value}", fresh[mode], ["passes"]) == []

    @pytest.mark.parametrize("mode", list(AnalysisMode))
    def test_provenance_ledger_identical(self, s27_design, fresh, mode):
        assert _golden(s27_design, f"s27/{mode.value}", fresh[mode], ["ledger"]) == []

    def test_incremental_composition_identical(self, s27_design):
        """The iterative run's later passes reuse the memo; the digest
        pins their numbers and their dirty/reused split."""
        result = run_variant(s27_design, "iterative")
        assert _golden(s27_design, "s27/iterative", result) == []

    def test_checkpoint_cross_core_resume(self, s27_design, tmp_path):
        """A checkpoint stores each pass by name and decodes into the
        resuming analyzer's columns; a run resumed from it reproduces
        every digest, the slack sweep over the restored state included."""
        config = StaConfig(
            **VARIANTS["iterative"], checkpoint=str(tmp_path / "run.ckpt")
        )
        CrosstalkSTA(s27_design, config).run()
        resumed = CrosstalkSTA(s27_design, config).run()
        assert _golden(s27_design, "s27/iterative", resumed) == []

    def test_warm_start_cross_core(self, s27_design):
        """The session what-if path: an analyzer warm-started from
        another one's retained propagators copies their memo columns by
        arc key, reuses every unchanged arc and reproduces the digests."""
        cold = CrosstalkSTA(
            s27_design, StaConfig(**VARIANTS["iterative"]), keep_propagators=True
        )
        cold.run()
        warm_sta = CrosstalkSTA(s27_design, StaConfig(**VARIANTS["iterative"]))
        warm_sta.warm_start_from(cold)
        warm = warm_sta.run()
        assert warm.history[0].reused_arcs > 0
        assert _golden(
            s27_design,
            "s27/iterative",
            warm,
            ["longest_delay", "critical", "arrivals_sha256", "arcs", "coupled_arcs"],
        ) == []


def _lookahead_solves(result) -> tuple[int, int]:
    """(look-ahead solves, wave-time catch-up solves) of one run."""
    counters = result.telemetry.metrics["counters"]
    return (
        counters.get("propagation.lookahead_solves", 0),
        counters.get("propagation.catchup_solves", 0),
    )


class TestLookaheadExactness:
    """The level look-ahead, on a fixture with real wave structure (8
    levels, up to 7 coupling waves in one level; s27 has at most 2).  The
    pass solves each level's predicted coupled keys in one batch ahead of
    its waves; the digests were recorded while a scalar engine that never
    primed still agreed with it, so a look-ahead that moves any arrival,
    pass or counter fails here."""

    NAMES = [
        *(mode.value for mode in AnalysisMode),
        "one_step-overlap",
        "iterative-overlap",
    ]

    @pytest.mark.parametrize("name", NAMES)
    def test_batch_matches_scalar(self, small_design, name):
        result = run_variant(small_design, name)
        assert _golden(small_design, f"small/{name}", result) == []
        ahead, catchup = _lookahead_solves(result)
        if VARIANTS[name]["mode"].is_window_based:
            histograms = result.telemetry.metrics["histograms"]
            assert histograms["propagation.waves_per_level"]["max"] == 7
            # Most coupled keys are predicted right (here 95% or more): a
            # key drifting apart between look-ahead and waves shows here.
            assert ahead > 0
            assert catchup < ahead / 4
        else:
            assert (ahead, catchup) == (0, 0)


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
