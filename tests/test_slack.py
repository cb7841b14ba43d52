"""Tests for the graph-wide slack engine (backward required-time pass).

The invariants pinned here: per-arc slacks telescope bit-exactly onto
the endpoint slack in every analysis mode, and the vectorized sweep
reproduces the slack digests in ``tests/golden/propagation.json``,
recorded while an object-graph reference sweep still agreed with it
``float.hex()``-wise.  The sweep runs on demand: its dicts equal an eager
sweep's, and a what-if's summary runs none.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.circuit import s27
from repro.core.analyzer import CrosstalkSTA
from repro.core.constraints import check_hold, check_setup
from repro.core.minpath import MinAnalysisMode, MinPropagator
from repro.core.modes import AnalysisMode, StaConfig
from repro.core import slack as slack_module
from repro.core.slack import (
    SLACK_SCHEMA,
    _seed_required,
    backward_sweep,
    compute_slack,
    format_slack,
    slack_payload,
    validate_slack,
)
from repro.errors import InputError
from repro.flow import prepare_design
from repro.obs import Observability
from repro.service.session import Session
from tests.golden.make_golden import SLACK_PERIODS, load_golden, slack_digest

ALL_MODES = list(AnalysisMode)


@pytest.fixture(scope="module")
def design():
    return prepare_design(s27())


@pytest.fixture(scope="module")
def results(design):
    """One forward run per mode; slack passes reuse them."""
    sta = CrosstalkSTA(design, StaConfig())
    return {mode: sta.run(mode) for mode in ALL_MODES}


class TestCrossCoreIdentity:
    @pytest.mark.parametrize("mode", ALL_MODES, ids=lambda m: m.value)
    @pytest.mark.parametrize("period", ["met", "violated"])
    def test_columnar_matches_object_bitwise(self, design, results, mode, period):
        """The sweep reproduces the digests recorded while the object
        reference sweep agreed with it: worst slack, TNS, violations and
        every net and arc slack, bit for bit."""
        slack = compute_slack(design, results[mode], SLACK_PERIODS[period])
        golden = load_golden()[f"s27/{mode.value}"]["slack"][period]
        assert slack_digest(slack) == golden

    @pytest.mark.parametrize("mode", ALL_MODES, ids=lambda m: m.value)
    def test_payload_telescopes_bit_exactly(self, design, results, mode):
        result = results[mode]
        slack = compute_slack(design, result, 0.4e-9)
        payload = slack_payload(design.circuit, result, slack, k=2)
        assert payload["schema"] == SLACK_SCHEMA
        validate_slack(payload)  # raises on any bit mismatch
        assert "worst slack" in format_slack(payload)


class TestSlackSemantics:
    def test_worst_endpoint_matches_setup_check(self, design, results):
        result = results[AnalysisMode.ITERATIVE]
        slack = compute_slack(design, result, 0.4e-9)
        report = check_setup(result, 0.4e-9)
        assert slack.worst_slack == report.worst.slack
        assert slack.worst_endpoint == report.worst.endpoint
        assert slack.violations == len(report.failing())
        assert not slack.met and slack.worst_slack < 0.0

    def test_net_slack_bounded_by_fanout_arc_slacks(self, design, results):
        """A net's slack is the min over its fanout arcs' slacks --
        exactly, because both sides share the same float subtractions."""
        result = results[AnalysisMode.ITERATIVE]
        slack = compute_slack(design, result, 0.4e-9)
        by_input: dict[tuple[str, str], list[float]] = {}
        for (cell_name, pin_name, direction), value in slack.arc_slack.items():
            cell = design.circuit.cells[cell_name]
            # Flip-flop arcs are keyed by the compiled synthetic pin name;
            # the gate-arc invariant is what this test pins.
            pin = cell.pins.get(pin_name)
            if cell.is_sequential or pin is None or pin.net is None:
                continue
            by_input.setdefault((pin.net.name, direction), []).append(value)
        checked = 0
        for key, arc_values in by_input.items():
            net_value = slack.net_slack.get(key)
            if net_value is None:
                continue
            assert min(arc_values) >= net_value
            checked += 1
        assert checked > 10

    def test_total_negative_slack_accumulates_failures(self, design, results):
        result = results[AnalysisMode.WORST_CASE]
        slack = compute_slack(design, result, 0.4e-9)
        expected = sum(s.slack for s in slack.endpoints.slacks if s.slack < 0.0)
        assert slack.total_negative_slack == pytest.approx(expected, abs=1e-18)
        assert slack.violations == sum(
            1 for s in slack.endpoints.slacks if s.slack < 0.0
        )

    def test_met_period_has_no_violations(self, design, results):
        slack = compute_slack(
            design, results[AnalysisMode.BEST_CASE], 1.5e-9
        )
        assert slack.met
        assert slack.violations == 0
        assert slack.total_negative_slack == 0.0
        assert all(v >= 0.0 for v in slack.net_slack.values())


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(period_ps=st.floats(min_value=300.0, max_value=2000.0))
def test_property_telescoping(design, results, period_ps):
    """For any clock period: per-arc slacks telescope onto the endpoint
    slack bit-exactly."""
    period = period_ps * 1e-12
    result = results[AnalysisMode.ITERATIVE]
    slack = compute_slack(design, result, period)
    payload = slack_payload(design.circuit, result, slack, k=1)
    validate_slack(payload)
    # The reported worst endpoint tracks the minimum over all nets (to
    # rounding: the seed subtracts the terminal's Elmore delta in a
    # different association than the endpoint check, so the two floats
    # may differ in the last ulp).
    finite = [v for v in slack.net_slack.values() if math.isfinite(v)]
    assert min(finite) == pytest.approx(slack.worst_slack, abs=1e-15)


class TestConstraintConfig:
    def test_bad_clock_period_rejected(self):
        with pytest.raises(InputError):
            StaConfig(clock_period=0.0)
        with pytest.raises(InputError):
            StaConfig(clock_period=-1e-9)

    def test_negative_requirements_rejected(self):
        with pytest.raises(InputError):
            StaConfig(setup_time=-1e-12)
        with pytest.raises(InputError):
            StaConfig(hold_time=-1e-12)

    def test_check_hold_defaults_from_config(self, design):
        min_result = MinPropagator(design).run(MinAnalysisMode.WORST)
        defaulted = check_hold(min_result)
        explicit = check_hold(min_result, StaConfig().hold_time)
        assert defaulted.hold_time == explicit.hold_time
        assert [s.slack for s in defaulted.slacks] == [
            s.slack for s in explicit.slacks
        ]

    def test_analyzer_attaches_slack_only_with_period(self, design):
        with_period = CrosstalkSTA(
            design, StaConfig(clock_period=1.2e-9)
        ).run(AnalysisMode.BEST_CASE)
        assert with_period.slack is not None
        assert with_period.worst_slack == with_period.slack.worst_slack
        without = CrosstalkSTA(design, StaConfig()).run(AnalysisMode.BEST_CASE)
        assert without.slack is None
        assert without.worst_slack is None

    def test_checkpoint_state_loads_into_columns(self, design, tmp_path):
        """A run resumed from a converged checkpoint carries a state
        decoded straight into the resuming analyzer's columns; the sweep
        reproduces the digests of the uninterrupted run."""
        config = StaConfig(
            mode=AnalysisMode.ITERATIVE, checkpoint=str(tmp_path / "run.ckpt")
        )
        CrosstalkSTA(design, config).run()
        sta = CrosstalkSTA(design, config)
        resumed = sta.run()
        assert resumed.history and sta.calculator.evaluations == 0
        assert resumed.final_pass.state.compiled is sta.compiled_design()
        golden = load_golden()["s27/iterative"]["slack"]
        for label, period in SLACK_PERIODS.items():
            slack = compute_slack(design, resumed, period)
            assert slack_digest(slack) == golden[label], label


def _eager(design, result, period):
    """The per-net and per-arc dicts the way compute_slack built them
    before the sweep ran on demand: seeds, sweep and net slacks at once."""
    final = result.final_pass
    report = check_setup(final, period, 100e-12)
    net_required, arc_slack = backward_sweep(
        final.state, _seed_required(design, final, report)
    )
    net_slack = {}
    for (name, direction), required in net_required.items():
        event = final.state.event(name, direction)
        if event is not None:
            net_slack[(name, direction)] = required - event.t_cross
    return net_required, net_slack, arc_slack


def _hexed(values: dict) -> list:
    return [(key, float(v).hex()) for key, v in values.items()]


class TestOnDemandSweep:
    """compute_slack checks the endpoints at once; the backward sweep
    runs once, on the first read of a per-net or per-arc dict."""

    @pytest.mark.parametrize("mode", ALL_MODES, ids=lambda m: m.value)
    @pytest.mark.parametrize("period", ["met", "violated"])
    def test_on_demand_dicts_equal_an_eager_sweep(self, design, results, mode, period):
        slack = compute_slack(design, results[mode], SLACK_PERIODS[period])
        want = _eager(design, results[mode], SLACK_PERIODS[period])
        assert _hexed(slack.net_required) == _hexed(want[0])
        assert _hexed(slack.net_slack) == _hexed(want[1])
        assert _hexed(slack.arc_slack) == _hexed(want[2])

    def test_sweep_runs_once_on_first_read(self, design, results, monkeypatch):
        calls = []
        monkeypatch.setattr(
            slack_module,
            "backward_sweep",
            lambda *args: calls.append(1) or backward_sweep(*args),
        )
        slack = compute_slack(design, results[AnalysisMode.ONE_STEP], 0.4e-9)
        assert slack.violations > 0 and not slack.met
        assert slack.total_negative_slack <= slack.worst_slack < 0.0
        assert calls == []
        checked = slack.runtime_seconds
        assert slack.arc_slack and slack.net_slack and slack.net_required
        assert calls == [1]
        assert slack.runtime_seconds > checked

    def test_whatif_summary_runs_no_sweep(self, monkeypatch):
        """An uncommitted what-if and its summary never sweep; a
        committed result sweeps once, for its first reader."""
        calls = []
        monkeypatch.setattr(
            slack_module,
            "backward_sweep",
            lambda *args: calls.append(1) or backward_sweep(*args),
        )
        session = Session(
            session_id="t",
            spec="s27",
            design=prepare_design(s27()),
            config=StaConfig(mode=AnalysisMode.ONE_STEP, clock_period=0.4e-9),
            obs=Observability.disabled(),
        )
        net = max(
            session.design.loads,
            key=lambda n: session.design.loads[n].c_coupling_total,
        )
        edit = {"action": "respace", "nets": [net]}
        payload = session.whatif(edit)
        assert "worst_slack_hex" in payload["after"]
        assert calls == []
        payload = session.whatif(edit, commit=True)
        assert calls == []
        session.query_net(net)
        session.explain()
        session.exposures()
        assert calls == [1]
