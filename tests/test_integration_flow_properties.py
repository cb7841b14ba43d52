"""End-to-end property tests: random circuits through the whole flow.

Hypothesis drives the synthetic generator with random shapes; each
generated circuit runs the complete pipeline (map -> place -> route ->
extract -> analyze) and the pipeline's invariants are checked.  Sizes are
kept small so each example stays sub-second.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.circuit.generators import GeneratorSpec, generate_circuit
from repro.circuit.validate import validate_circuit
from repro.core.analyzer import CrosstalkSTA
from repro.core.modes import AnalysisMode, StaConfig
from repro.core.propagation import Propagator
from repro.flow import prepare_design
from repro.waveform.pwl import FALLING, RISING

spec_strategy = st.builds(
    GeneratorSpec,
    name=st.just("prop"),
    seed=st.integers(min_value=0, max_value=2**31),
    n_inputs=st.integers(min_value=2, max_value=6),
    n_outputs=st.integers(min_value=1, max_value=5),
    n_ff=st.integers(min_value=2, max_value=10),
    n_gates=st.integers(min_value=20, max_value=80),
    depth=st.integers(min_value=3, max_value=8),
)

_slow = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


class TestFlowInvariants:
    @given(spec=spec_strategy)
    @_slow
    def test_generated_circuits_survive_the_flow(self, spec):
        circuit = generate_circuit(spec)
        report = validate_circuit(circuit)
        assert report.ok, report.errors[:3]
        design = prepare_design(circuit)
        # Every driven net with sinks is routed, extracted and loaded.
        for name, net in circuit.nets.items():
            assert name in design.loads
            if net.driver is not None and net.sinks:
                assert name in design.routing.routes
        # Coupling symmetry survives the pipeline.
        for name, load in design.loads.items():
            for other, cap in load.couplings.items():
                assert design.loads[other].couplings[name] == pytest.approx(cap)

    @given(spec=spec_strategy)
    @_slow
    def test_mode_bounds_on_random_circuits(self, spec):
        """best <= one-step <= worst per endpoint on arbitrary designs.

        The ordering holds up to the cache-quantization guard band: the
        modes quantize each arc's input slew independently, and the few
        femtofarads / picoseconds of rounding can shuffle arrivals by a
        grid step or two (exactly the error ``StaConfig.guard`` exists to
        absorb), so the comparisons use that guard as tolerance.
        """
        design = prepare_design(generate_circuit(spec))
        sta = CrosstalkSTA(design)
        guard = StaConfig().guard
        best = sta.run(AnalysisMode.BEST_CASE).arrival_map()
        one_step = sta.run(AnalysisMode.ONE_STEP).arrival_map()
        worst = sta.run(AnalysisMode.WORST_CASE).arrival_map()
        assert set(best) == set(one_step) == set(worst)
        for key in best:
            assert best[key] <= one_step[key] + guard, key
            assert one_step[key] <= worst[key] + guard, key

    @given(spec=spec_strategy)
    @_slow
    def test_event_marker_sanity_on_random_circuits(self, spec):
        design = prepare_design(generate_circuit(spec))
        result = Propagator(design, StaConfig(mode=AnalysisMode.ONE_STEP)).run_pass()
        for name in design.circuit.nets:
            for direction in (RISING, FALLING):
                event = result.state.event(name, direction)
                if event is None:
                    continue
                assert event.t_early <= event.t_cross <= event.t_late
                assert event.transition > 0
