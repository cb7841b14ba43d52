"""Warm what-if analysis must be bit-identical to cold re-analysis.

The service's value proposition is that a what-if on a warm session
re-solves only the dirty cone -- *without changing a single bit* of the
answer.  These tests pin that guarantee in every analysis mode: the
edited design is analyzed once through the session's warm path
(migrated propagator memo + shared arc cache) and once completely cold
(fresh analyzer, fresh caches), and every arrival time must match to
the last ulp (compared via ``float.hex``).
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.analyzer import CrosstalkSTA
from repro.core.modes import AnalysisMode, StaConfig
from repro.flow import apply_edit
from repro.service import SessionManager

MODES = list(AnalysisMode)


def _hex_map(result):
    return {
        key: float(t).hex() for key, t in result.arrival_map().items()
    }


@pytest.fixture(scope="module")
def manager():
    return SessionManager(config=StaConfig(mode=AnalysisMode.ONE_STEP))


@pytest.fixture(scope="module")
def session(manager):
    return manager.open("s27")


@pytest.fixture(scope="module")
def respace_edit(session):
    exposures = session.exposures("one_step")
    assert exposures, "s27 must expose coupled nets"
    return {
        "action": "respace",
        "nets": [exposures[0].net],
        "guard_tracks": 1,
    }


def _cold_run(session, edit, mode):
    edited, _ = apply_edit(session.design, edit)
    config = replace(session.config, mode=mode, checkpoint=None)
    return CrosstalkSTA(edited, config).run()


def _warm_run(session, edit, mode):
    session.analyze(mode.value)  # make sure the session is warm for this mode
    edited, _ = apply_edit(session.design, edit)
    config = replace(session.config, mode=mode, checkpoint=None)
    warm_sta = CrosstalkSTA(
        edited, config, calculator=session.sta.calculator, keep_propagators=True
    )
    warm_sta.warm_start_from(session.sta)
    return warm_sta.run()


class TestWarmColdEquivalence:
    @pytest.mark.parametrize("mode", MODES, ids=[m.value for m in MODES])
    def test_every_arrival_bit_identical(self, session, respace_edit, mode):
        warm = _warm_run(session, respace_edit, mode)
        cold = _cold_run(session, respace_edit, mode)
        warm_map = _hex_map(warm)
        cold_map = _hex_map(cold)
        assert warm_map == cold_map
        assert float(warm.longest_delay).hex() == float(cold.longest_delay).hex()
        assert warm.critical_endpoint == cold.critical_endpoint
        assert warm.critical_direction == cold.critical_direction

    @pytest.mark.parametrize("mode", MODES, ids=[m.value for m in MODES])
    def test_whatif_payload_matches_cold(self, session, respace_edit, mode):
        payload = session.whatif(respace_edit, mode=mode.value)
        cold = _cold_run(session, respace_edit, mode)
        assert (
            payload["after"]["longest_delay_hex"]
            == float(cold.longest_delay).hex()
        )
        assert payload["after"]["critical_endpoint"] == cold.critical_endpoint
        assert not payload["committed"]

    def test_warm_run_actually_reuses_arcs(self, session, respace_edit):
        """Guard against vacuity: the warm path must *skip* work, not
        silently re-solve everything."""
        warm = _warm_run(session, respace_edit, AnalysisMode.ITERATIVE)
        reused = sum(r.reused_arcs for r in warm.history)
        dirty = sum(r.dirty_arcs for r in warm.history)
        assert reused > 0
        assert dirty > 0  # the edit's cone really was re-solved

    def test_drop_coupling_equivalence(self, session):
        exposures = session.exposures("one_step")
        victim = exposures[0].net
        neighbour = next(iter(session.design.loads[victim].couplings))
        edit = {"action": "drop_coupling", "net": victim, "neighbour": neighbour}
        for mode in (AnalysisMode.ONE_STEP, AnalysisMode.WORST_CASE):
            warm = _warm_run(session, edit, mode)
            cold = _cold_run(session, edit, mode)
            assert _hex_map(warm) == _hex_map(cold)

    def test_upsize_equivalence(self, session):
        exposures = session.exposures("one_step")
        edit = {"action": "upsize", "nets": [exposures[0].net], "steps": 1}
        warm = _warm_run(session, edit, AnalysisMode.ITERATIVE)
        cold = _cold_run(session, edit, AnalysisMode.ITERATIVE)
        assert _hex_map(warm) == _hex_map(cold)


class TestGeneratedDesignEquivalence:
    """Same guarantee on a denser generated circuit with real coupling."""

    @pytest.fixture(scope="class")
    def gen_session(self, manager):
        return manager.open("gen:s35932", scale=0.01)

    @pytest.mark.parametrize(
        "mode", [AnalysisMode.ONE_STEP, AnalysisMode.ITERATIVE],
        ids=["one_step", "iterative"],
    )
    def test_respace_bit_identical(self, gen_session, mode):
        exposures = gen_session.exposures(mode.value)
        edit = {
            "action": "respace",
            "nets": [e.net for e in exposures[:2]],
            "guard_tracks": 1,
        }
        warm = _warm_run(gen_session, edit, mode)
        cold = _cold_run(gen_session, edit, mode)
        assert _hex_map(warm) == _hex_map(cold)
        assert float(warm.longest_delay).hex() == float(cold.longest_delay).hex()
