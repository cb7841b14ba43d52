"""Critical-path explain engine: bit-exact telescoping, provenance
annotations, blame table, and the provenance ledger itself."""

from __future__ import annotations

import pytest

from repro.core import (
    AnalysisMode,
    CrosstalkSTA,
    StaConfig,
    explain_result,
    format_explain,
    validate_explain,
)
from repro.core.explain import EXPLAIN_SCHEMA, _exact_increment
from repro.core.provenance import ORIGINS, ProvenanceLedger
from repro.errors import InputError


@pytest.fixture(scope="module", params=list(AnalysisMode))
def mode_result(request, s27_design):
    mode = request.param
    sta = CrosstalkSTA(s27_design, StaConfig(mode=mode))
    return s27_design, sta.run()


class TestExactIncrement:
    def test_identity(self):
        assert _exact_increment(0.0, 0.25) == 0.25

    def test_zero(self):
        assert _exact_increment(1.5e-9, 1.5e-9) == 0.0

    def test_bitwise_exact_on_awkward_floats(self):
        base = 0.1 + 0.2  # 0.30000000000000004
        target = 0.7
        c = _exact_increment(base, target)
        assert base + c == target

    def test_negative_increment(self):
        # A stage can land slightly *earlier* than its input crossing
        # (fast gate, slow ramp); nearby magnitudes subtract exactly.
        base, target = 5.0e-10, 4.9e-10
        c = _exact_increment(base, target)
        assert c < 0.0
        assert base + c == target

    def test_chain_telescopes(self):
        targets = [1e-10, 2.7e-10, 2.70000001e-10, 5.5e-10]
        running = 0.0
        for t in targets:
            running = running + _exact_increment(running, t)
            assert running == t


class TestExplainAllModes:
    def test_validates_bit_exact(self, mode_result):
        design, result = mode_result
        payload = explain_result(design.circuit, result, k=3, top=5)
        validate_explain(payload)  # raises on any violation
        assert payload["schema"] == EXPLAIN_SCHEMA

    def test_worst_path_sums_to_longest_delay(self, mode_result):
        design, result = mode_result
        payload = explain_result(design.circuit, result)
        worst = payload["paths"][0]
        running = 0.0
        for stage in worst["stages"]:
            running = running + float.fromhex(stage["contribution_hex"])
        assert running == result.longest_delay  # bitwise
        assert worst["arrival_hex"] == result.longest_delay.hex()

    def test_every_stage_has_populated_provenance(self, mode_result):
        design, result = mode_result
        payload = explain_result(design.circuit, result, k=3)
        for path in payload["paths"]:
            for stage in path["stages"]:
                prov = stage["provenance"]
                assert prov["tier"]
                assert prov["origin"] in ORIGINS or prov["origin"] == "wire"
                assert prov["origin"] != "unknown"
                assert prov["pass_index"] >= 0

    def test_last_stage_is_wire_to_endpoint(self, mode_result):
        design, result = mode_result
        payload = explain_result(design.circuit, result)
        worst = payload["paths"][0]
        last = worst["stages"][-1]
        assert last["kind"] == "wire"
        assert last["net"] == result.critical_endpoint
        assert last["provenance"]["tier"] == "elmore"
        assert last["provenance"]["origin"] == "wire"
        assert all(s["kind"] == "gate" for s in worst["stages"][:-1])

    def test_format_renders(self, mode_result):
        design, result = mode_result
        payload = explain_result(design.circuit, result, k=2, top=3)
        text = format_explain(payload)
        assert result.critical_endpoint in text
        assert "origin" in text


class TestExplainSemantics:
    def test_windowed_modes_have_coupling_deltas(self, s27_design):
        sta = CrosstalkSTA(s27_design, StaConfig(mode=AnalysisMode.ONE_STEP))
        result = sta.run()
        payload = explain_result(s27_design.circuit, result, top=10)
        assert payload["blame"], "s27 one_step should expose coupling shifts"
        deltas = [entry["coupling_delta"] for entry in payload["blame"]]
        assert deltas == sorted(deltas, reverse=True)
        assert all(d > 0.0 for d in deltas)
        for entry in payload["blame"]:
            assert entry["aggressors_active"] >= 1
            assert float.fromhex(entry["coupling_delta_hex"]) == entry[
                "coupling_delta"
            ]

    def test_fixed_modes_have_empty_blame(self, s27_design):
        sta = CrosstalkSTA(s27_design, StaConfig(mode=AnalysisMode.WORST_CASE))
        result = sta.run()
        payload = explain_result(s27_design.circuit, result)
        assert payload["blame"] == []

    def test_coupling_kind_matches_mode(self, s27_design):
        for mode, kind in [
            (AnalysisMode.BEST_CASE, "grounded"),
            (AnalysisMode.STATIC_DOUBLED, "doubled"),
            (AnalysisMode.WORST_CASE, "all_active"),
        ]:
            result = CrosstalkSTA(s27_design, StaConfig(mode=mode)).run()
            payload = explain_result(s27_design.circuit, result)
            kinds = {
                s["provenance"]["coupling"]
                for s in payload["paths"][0]["stages"]
                if s["kind"] == "gate"
            }
            assert kinds <= {kind, "none"}

    def test_iterative_memo_origins_surface(self, s27_design):
        result = CrosstalkSTA(
            s27_design, StaConfig(mode=AnalysisMode.ITERATIVE)
        ).run()
        assert result.passes >= 2
        counts = result.ledger.counts()["origin"]
        assert counts.get("memo", 0) > 0

    def test_provenance_off_raises_input_error(self, s27_design):
        config = StaConfig(mode=AnalysisMode.ONE_STEP, provenance=False)
        result = CrosstalkSTA(s27_design, config).run()
        assert result.ledger is None
        with pytest.raises(InputError):
            explain_result(s27_design.circuit, result)

    def test_validate_rejects_tampered_payload(self, s27_design):
        result = CrosstalkSTA(s27_design, StaConfig(mode=AnalysisMode.ONE_STEP)).run()
        payload = explain_result(s27_design.circuit, result)
        stage = payload["paths"][0]["stages"][0]
        stage["contribution_hex"] = (
            float.fromhex(stage["contribution_hex"]) + 1e-12
        ).hex()
        with pytest.raises(ValueError):
            validate_explain(payload)

    def test_validate_rejects_wrong_schema(self):
        with pytest.raises(ValueError):
            validate_explain({"schema": "something/else"})


class TestProvenanceOffHexIdentity:
    def test_delays_identical_with_ledger_off(self, s27_design):
        for mode in AnalysisMode:
            on = CrosstalkSTA(s27_design, StaConfig(mode=mode)).run()
            off = CrosstalkSTA(
                s27_design, StaConfig(mode=mode, provenance=False)
            ).run()
            assert on.longest_delay.hex() == off.longest_delay.hex()
            assert on.arrival_map() == off.arrival_map()
            assert off.final_pass.provenance_rows == 0
            assert not off.final_pass.state.arc_prov


class TestLedger:
    def test_ledger_rows_cover_processed_arcs(self, s27_design):
        result = CrosstalkSTA(s27_design, StaConfig(mode=AnalysisMode.ONE_STEP)).run()
        state = result.final_pass.state
        assert state.arc_prov, "winning arcs should be indexed"
        for row_id in state.arc_prov.values():
            row = result.ledger.row(row_id)
            assert row["origin"] in ORIGINS
            assert row["pass_index"] >= 1

    def test_payload_roundtrip(self, s27_design):
        result = CrosstalkSTA(s27_design, StaConfig(mode=AnalysisMode.ONE_STEP)).run()
        ledger = result.ledger
        clone = ProvenanceLedger.from_payload(ledger.to_payload())
        assert len(clone) == len(ledger)
        assert list(clone.rows()) == list(ledger.rows())
        assert clone.counts() == ledger.counts()

    def test_payload_with_old_escalation_column_loads(self, s27_design):
        """Ledgers saved while the ledger still had an ``escalation``
        column (format-2 checkpoints) load row for row: the extra
        column is ignored, not rejected."""
        result = CrosstalkSTA(s27_design, StaConfig(mode=AnalysisMode.ONE_STEP)).run()
        payload = result.ledger.to_payload()
        assert "escalation" not in payload
        payload["escalation"] = [None] * len(result.ledger)
        clone = ProvenanceLedger.from_payload(payload)
        assert list(clone.rows()) == list(result.ledger.rows())

    def test_payload_rejects_ragged_columns(self):
        ledger = ProvenanceLedger()
        ledger.append(
            tier="newton",
            origin="fresh",
            signature="sig",
            coupling="none",
            aggressors_total=0,
            aggressors_active=0,
            pass_index=1,
            coupling_delta=None,
        )
        payload = ledger.to_payload()
        payload["tier"] = []
        with pytest.raises(ValueError):
            ProvenanceLedger.from_payload(payload)

    def test_counts_histograms(self):
        ledger = ProvenanceLedger()
        for origin in ("fresh", "fresh", "dedup"):
            ledger.append(
                tier="newton",
                origin=origin,
                signature="s",
                coupling="overlap",
                aggressors_total=2,
                aggressors_active=1,
                pass_index=1,
                coupling_delta=1e-12,
            )
        counts = ledger.counts()
        assert counts["origin"] == {"dedup": 1, "fresh": 2}
        assert counts["coupling"] == {"overlap": 3}
