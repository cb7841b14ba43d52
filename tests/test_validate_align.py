"""Unit tests for aggressor alignment mechanics.

Alignment moves the aggressor handles of the circuit it is given, so every
alignment runs on a freshly built circuit.
"""

import pytest

from repro.core.analyzer import CrosstalkSTA
from repro.core.modes import AnalysisMode
from repro.validate.align import align_aggressors, quiet_simulation, simulate_path
from repro.validate.pathsim import build_path_circuit


@pytest.fixture(scope="module")
def circuit_setup(s27_design):
    sta = CrosstalkSTA(s27_design)
    result = sta.run(AnalysisMode.ITERATIVE)
    path = sta.critical_path(result)

    def build():
        return build_path_circuit(s27_design, path, result.final_pass.state)

    return build, result


class TestQuietSimulation:
    def test_restores_aggressor_times(self, circuit_setup):
        build, _ = circuit_setup
        circuit = build()
        saved = [h.t_switch for h in circuit.aggressors]
        quiet_simulation(circuit, steps=800)
        assert [h.t_switch for h in circuit.aggressors] == saved

    def test_quiet_below_aligned(self, circuit_setup):
        build, _ = circuit_setup
        quiet = quiet_simulation(build(), steps=1200)
        aligned = align_aggressors(build(), steps=1200, max_iterations=3)
        assert quiet.path_delay <= aligned.path_delay + 1e-12


class TestAlignment:
    def test_history_recorded(self, circuit_setup):
        build, _ = circuit_setup
        outcome = align_aggressors(build(), steps=1200, max_iterations=3)
        assert 1 <= len(outcome.history) <= 3
        assert outcome.history[0].iteration == 1

    def test_alignment_improves_over_first_iteration(self, circuit_setup):
        """The fixed point cannot end below the first simulate (best is
        tracked across iterations)."""
        build, _ = circuit_setup
        outcome = align_aggressors(build(), steps=1200, max_iterations=3)
        first = outcome.history[0].endpoint_arrival
        assert outcome.endpoint_arrival >= first - 1e-12

    def test_window_constraint_never_exceeds_unconstrained(self, circuit_setup):
        build, result = circuit_setup
        unconstrained = align_aggressors(build(), steps=1200, max_iterations=3)
        constrained = align_aggressors(
            build(),
            steps=1200,
            max_iterations=3,
            windows=result.final_pass.state.window_snapshot(),
        )
        assert constrained.path_delay <= unconstrained.path_delay + 1e-12

    def test_empty_constraint_equals_quiet_simulation(self, circuit_setup):
        """An aggressor with no feasible window is held quiet from the
        first simulation on, so no infeasible scenario is ever measured."""
        build, _ = circuit_setup
        quiet = quiet_simulation(build(), steps=1200)
        aligned = align_aggressors(build(), steps=1200, windows={})
        assert aligned.path_delay == quiet.path_delay
        assert len(aligned.history) == 1

    def test_simulate_path_measures_stimulus(self, circuit_setup):
        build, _ = circuit_setup
        circuit = build()
        outcome = simulate_path(circuit, steps=800)
        assert outcome.stimulus_cross >= circuit.stimulus_t_start
        assert outcome.endpoint_arrival > outcome.stimulus_cross
