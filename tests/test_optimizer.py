"""Tests for the autonomous crosstalk-repair optimizer and its service RPC.

The loop's contract: candidates are evaluated warm through the
transactional what-if path, only strict worst-slack improvements are
committed, the slack trajectory is monotone non-worsening, the dont-touch
list is honoured, and the committed design re-analyzes cold
bit-identically to the warm result.
"""

from __future__ import annotations

import pytest

from repro.circuit import s27
from repro.core.modes import StaConfig
from repro.core.netreport import rank_crosstalk_nets
from repro.errors import InputError
from repro.flow import prepare_design
from repro.flow.edits import edit_nets
from repro.flow.optimizer import (
    REPAIR_SCHEMA,
    format_repair,
    propose_edits,
    validate_repair,
)
from repro.obs import Observability
from repro.service import InProcessClient, ServiceCallError, TimingService
from repro.service.session import Session

# s27's iterative bound is ~0.794 ns: 0.78 ns leaves a small negative
# worst slack the optimizer can actually close within a few edits.
TIGHT = {"clock_period": 0.78e-9}
HOPELESS = {"clock_period": 0.4e-9}


@pytest.fixture(scope="module")
def service():
    service = TimingService(workers=2)
    yield service
    service.close()


@pytest.fixture(scope="module")
def client(service):
    with InProcessClient(service) as client:
        yield client


class TestRepairLoop:
    def test_reaches_nonnegative_worst_slack(self, client):
        sid = client.open_session("s27", config=TIGHT)["session"]
        baseline = client.analyze(sid)
        assert baseline["worst_slack"] < 0.0
        transcript = client.repair(sid, max_edits=6, cold_verify=True)
        validate_repair(transcript)
        assert transcript["schema"] == REPAIR_SCHEMA
        assert transcript["final"]["met"]
        assert transcript["final"]["worst_slack"] >= 0.0
        assert transcript["stop_reason"] == "target_reached"
        # Warm evaluation economics: every candidate went through the
        # incremental what-if path; the only cold run is the verify.
        assert transcript["cold_analyses"] == 1
        assert transcript["evaluations"] >= 10 * transcript["cold_analyses"]
        assert transcript["warm"]["reuse_ratio"] > 0.5
        assert transcript["cold_verify"]["identical"]
        # The session now owns the repaired design.
        info = client.session_info(sid)
        assert info["committed_edits"] == transcript["edits_committed"] > 0
        after = client.analyze(sid)
        assert (
            after["worst_slack_hex"] == transcript["final"]["worst_slack_hex"]
        )
        assert "bit-identical" in format_repair(transcript)

    def test_budget_exhaustion_is_monotone(self, client):
        sid = client.open_session("s27", config=HOPELESS)["session"]
        transcript = client.repair(sid, max_edits=3)
        validate_repair(transcript)  # checks the monotone trajectory
        assert not transcript["final"]["met"]
        assert transcript["stop_reason"] in ("budget_exhausted", "no_candidates")
        assert transcript["edits_committed"] <= 3
        values = [p["worst_slack"] for p in transcript["trajectory"]]
        assert values == sorted(values)
        # Committed rounds improved strictly.
        for entry in transcript["rounds"]:
            if entry["committed"] is not None:
                assert entry["worst_slack_after"] > entry["worst_slack_before"]

    def test_dont_touch_is_honoured(self, client):
        sid = client.open_session("s27", config=TIGHT)["session"]
        protected = ["CLK", "G15"]
        transcript = client.repair(sid, max_edits=4, dont_touch=protected)
        validate_repair(transcript)
        for entry in transcript["rounds"]:
            for candidate in entry["candidates"]:
                assert not set(edit_nets(candidate["edit"])) & set(protected)
        for edit in transcript["committed_edits"]:
            assert not set(edit_nets(edit)) & set(protected)

    def test_repair_without_clock_period_rejected(self, client):
        sid = client.open_session("s27")["session"]
        with pytest.raises(ServiceCallError) as excinfo:
            client.repair(sid)
        assert "clock period" in str(excinfo.value)

    def test_repair_without_guard_tracks_rejected(self, client):
        sid = client.open_session("s27", config=TIGHT)["session"]
        with pytest.raises(ServiceCallError) as excinfo:
            client.repair(sid, guard_tracks=0)
        assert "guard_tracks" in str(excinfo.value)

    def test_unknown_dont_touch_net_rejected(self, client):
        sid = client.open_session("s27", config=TIGHT)["session"]
        with pytest.raises(ServiceCallError):
            client.repair(sid, dont_touch=["no_such_net"])


class TestProposals:
    @pytest.fixture(scope="class")
    def ranked(self):
        design = prepare_design(s27())
        session = Session(
            session_id="t",
            spec="s27",
            design=design,
            config=StaConfig(clock_period=0.4e-9),
            obs=Observability.disabled(),
        )
        result = session.analyze()
        exposures = rank_crosstalk_nets(design, result.final_pass, slack=result.slack)
        return design, exposures

    def test_victim_in_dont_touch_yields_nothing(self, ranked):
        design, exposures = ranked
        victim = exposures[0]
        assert propose_edits(design, victim, frozenset({victim.net})) == []

    def test_proposals_cover_the_action_set(self, ranked):
        design, exposures = ranked
        actions = set()
        for exposure in exposures:
            for edit in propose_edits(design, exposure, frozenset()):
                actions.add(edit["action"])
                assert exposure.net in edit_nets(edit)
        assert "respace" in actions
        assert "drop_coupling" in actions

    def test_dont_touch_neighbour_excluded(self, ranked):
        design, exposures = ranked
        exposure = exposures[0]
        neighbours = set(design.loads[exposure.net].couplings)
        edits = propose_edits(design, exposure, frozenset(neighbours))
        for edit in edits:
            assert not set(edit_nets(edit)) & neighbours - {exposure.net}


class TestTranscriptValidation:
    def _transcript(self, client):
        sid = client.open_session("s27", config=TIGHT)["session"]
        return client.repair(sid, max_edits=2)

    def test_tampered_trajectory_rejected(self, client):
        transcript = self._transcript(client)
        bad = dict(transcript)
        bad["trajectory"] = list(transcript["trajectory"])[::-1]
        if len(bad["trajectory"]) > 1:
            with pytest.raises(ValueError):
                validate_repair(bad)

    def test_wrong_schema_rejected(self):
        with pytest.raises(ValueError):
            validate_repair({"schema": "something/else"})

    def test_session_validates_before_returning(self):
        design = prepare_design(s27())
        session = Session(
            session_id="t2",
            spec="s27",
            design=design,
            config=StaConfig(clock_period=0.78e-9),
            obs=Observability.disabled(),
        )
        transcript = session.repair(max_edits=2)
        validate_repair(transcript)
        assert session.committed_edits == transcript["committed_edits"]

    def test_direct_session_requires_period(self):
        design = prepare_design(s27())
        session = Session(
            session_id="t3",
            spec="s27",
            design=design,
            config=StaConfig(),
            obs=Observability.disabled(),
        )
        with pytest.raises(InputError):
            session.repair()
