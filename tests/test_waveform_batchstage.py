"""Batch stage solver vs the scalar reference.

The batch solver re-implements the scalar backward-Euler/Newton loop over
a batch axis with identical arithmetic and, like it, stops each element at
its last marker threshold; these tests pin the agreement of the markers on
randomized electrical situations (both directions, uncoupled, opposing
and aiding coupling), on situations that put the coupling trigger past
the last threshold, and check the batching machinery itself.
"""

import random

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.waveform.batchstage import BatchArcSpec, BatchStageSolver
from repro.waveform.coupling import CouplingLoad
from repro.waveform.gatedelay import GateDelayCalculator
from repro.waveform.pwl import FALLING, RISING
from repro.waveform.stage import InputRamp, StageSolverError

MARKERS = ("t_cross", "transition", "t_early", "t_late")


@pytest.fixture(scope="module")
def harness(library, process):
    """Shared stage tables (via a throwaway calculator) plus both solvers."""
    calc = GateDelayCalculator(process=process)
    arcs = [
        ("INV_X1", "A"),
        ("NAND2_X1", "A"),
        ("NOR3_X2", "B"),
        ("AOI21_X4", "C"),
    ]
    solvers = [calc.solver_for(library[name], pin) for name, pin in arcs]
    batch = BatchStageSolver([s.table for s in solvers], process)
    return solvers, batch


def _scalar(solvers, spec):
    """The scalar reference solve of one spec."""
    return solvers[spec.table_index].solve(
        InputRamp(
            direction=spec.input_direction,
            t_start=spec.t_start,
            transition=spec.transition,
        ),
        spec.load,
        out_direction=spec.out_direction,
        aiding=spec.aiding,
    )


def _assert_matches_scalar(solvers, specs, got):
    """Every marker and ``coupled`` of compact column ``i`` equal the
    scalar solve of ``specs[i]`` bit for bit."""
    assert len(got) == len(specs)
    for i, spec in enumerate(specs):
        ref = _scalar(solvers, spec)
        assert got.directions[i] == ref.direction, spec
        assert bool(got.coupled[i]) == ref.coupled, spec
        for marker in MARKERS:
            assert getattr(got, marker)[i] == getattr(ref, marker), (spec, marker)


def _random_specs(n, seed):
    rng = random.Random(seed)
    specs = []
    for _ in range(n):
        kind = rng.random()
        if kind < 0.4:
            load = CouplingLoad(c_ground=rng.uniform(1e-15, 30e-15))
            aiding = False
        elif kind < 0.8:
            load = CouplingLoad(
                c_ground=rng.uniform(1e-15, 10e-15),
                c_couple_active=rng.uniform(0.5e-15, 6e-15),
            )
            aiding = False
        else:
            load = CouplingLoad(
                c_ground=rng.uniform(1e-15, 10e-15),
                c_couple_active=rng.uniform(0.5e-15, 6e-15),
            )
            aiding = True
        specs.append(
            BatchArcSpec(
                table_index=rng.randrange(4),
                input_direction=rng.choice([RISING, FALLING]),
                transition=rng.uniform(10e-12, 250e-12),
                load=load,
                aiding=aiding,
            )
        )
    return specs


class TestBatchVsScalar:
    def test_random_mixed_batch_matches_scalar_bitwise(self, harness):
        solvers, batch = harness
        specs = _random_specs(40, seed=11)
        _assert_matches_scalar(solvers, specs, batch.solve_many_compact(specs))

    def test_compact_results_ignore_batch_mates(self, harness):
        """A spec's compact result is bitwise the same whatever else
        shares its batch, and equals the scalar solve: what lets the
        columnar core solve predicted keys ahead of their wave."""
        solvers, batch = harness
        specs = _random_specs(40, seed=11)
        full = batch.solve_many_compact(specs)
        subset = list(range(1, len(specs), 2))[::-1]
        part = batch.solve_many_compact([specs[i] for i in subset])
        for j, i in enumerate(subset):
            spec = specs[i]
            ref = _scalar(solvers, spec)
            assert full.directions[i] == part.directions[j] == ref.direction
            for marker in MARKERS:
                value = getattr(ref, marker)
                assert getattr(full, marker)[i] == value, (spec, marker)
                assert getattr(part, marker)[j] == value, (spec, marker)

    def test_per_element_measurement_matches_scalar(self, harness):
        """The per-element path (what an element that never reaches a
        threshold falls back to) measures each element's recorded samples
        as the scalar solver measures its own: same waveform bytes, same
        markers and counts."""
        solvers, batch = harness
        specs = _random_specs(40, seed=11)
        setup = batch._setup(specs)
        trace = batch._integrate(setup)
        for i, spec in enumerate(specs):
            got = batch._measure_element(setup, trace, i)
            ref = _scalar(solvers, spec)
            assert got.waveform.times.tobytes() == ref.waveform.times.tobytes(), spec
            assert got.waveform.values.tobytes() == ref.waveform.values.tobytes(), spec
            for name in MARKERS + (
                "direction", "coupled", "t_drop", "newton_iterations", "newton_bisections"
            ):
                assert getattr(got, name) == getattr(ref, name), (spec, name)

    def test_batch_of_one(self, harness):
        solvers, batch = harness
        spec = BatchArcSpec(
            table_index=1,
            input_direction=RISING,
            transition=80e-12,
            load=CouplingLoad(c_ground=5e-15, c_couple_active=2e-15),
        )
        got = batch.solve_many_compact([spec])
        _assert_matches_scalar(solvers, [spec], got)
        assert got.coupled[0]

    def test_empty_batch(self, harness):
        _, batch = harness
        assert len(batch.solve_many_compact([])) == 0

    def test_nonpositive_load_rejected(self, harness):
        _, batch = harness
        spec = BatchArcSpec(
            table_index=0,
            input_direction=RISING,
            transition=50e-12,
            load=CouplingLoad(c_ground=0.0),
        )
        with pytest.raises(StageSolverError):
            batch.solve_many_compact([spec])

    def test_nonzero_start_time_shifts_markers(self, harness):
        solvers, batch = harness
        base = BatchArcSpec(
            table_index=0,
            input_direction=FALLING,
            transition=60e-12,
            load=CouplingLoad(c_ground=8e-15),
        )
        shifted = BatchArcSpec(
            table_index=0,
            input_direction=FALLING,
            transition=60e-12,
            load=CouplingLoad(c_ground=8e-15),
            t_start=1e-9,
        )
        got = batch.solve_many_compact([base, shifted])
        _assert_matches_scalar(solvers, [base, shifted], got)
        assert got.t_cross[1] == pytest.approx(got.t_cross[0] + 1e-9, abs=1e-15)
        assert got.transition[1] == pytest.approx(got.transition[0], abs=1e-15)


# Situations the random specs never draw: the clamped opposing trigger
# (3.168 V rising, 0.132 V falling) and the aiding restart lie past the
# last marker threshold (3.1 V rising, 0.2 V falling), the input switches
# instantly, or a heavy load meets a slow input.
STOP_RULE_CASES = {
    "opposing-10f-1f": (CouplingLoad(c_ground=1e-15, c_couple_active=10e-15), 80e-12, False),
    "opposing-20f-0.5f": (CouplingLoad(c_ground=0.5e-15, c_couple_active=20e-15), 80e-12, False),
    "aiding-12f-1f": (CouplingLoad(c_ground=1e-15, c_couple_active=12e-15), 80e-12, True),
    "zero-transition": (CouplingLoad(c_ground=6e-15, c_couple_active=2e-15), 0.0, False),
    "heavy-load-slow-input": (CouplingLoad(c_ground=120e-15), 600e-12, False),
}
STOP_RULE_CELLS = (0, 2)  # INV_X1/A and NOR3_X2/B


class TestStopRule:
    @pytest.mark.parametrize("case", sorted(STOP_RULE_CASES))
    def test_markers_match_scalar_past_last_threshold(self, harness, case):
        """Both output directions on two cells, solved in one batch:
        every marker and ``coupled`` equal the scalar solver's."""
        solvers, batch = harness
        load, transition, aiding = STOP_RULE_CASES[case]
        specs = [
            BatchArcSpec(
                table_index=cell,
                input_direction=direction,
                transition=transition,
                load=load,
                aiding=aiding,
            )
            for cell in STOP_RULE_CELLS
            for direction in (RISING, FALLING)
        ]
        got = batch.solve_many_compact(specs)
        _assert_matches_scalar(solvers, specs, got)
        assert bool(got.coupled.all()) == load.has_active_coupling

    def test_stops_where_the_scalar_solver_stops(self, harness):
        """Both solvers stop under one rule, so an arc takes as many
        Newton iterations (and bisections) on the batch path as on the
        scalar one: uncoupled, opposing and aiding, with the trigger
        before or past the last threshold."""
        solvers, batch = harness
        specs = _random_specs(16, seed=5) + [
            BatchArcSpec(
                table_index=cell,
                input_direction=direction,
                transition=transition,
                load=load,
                aiding=aiding,
            )
            for load, transition, aiding in STOP_RULE_CASES.values()
            for cell in STOP_RULE_CELLS
            for direction in (RISING, FALLING)
        ]
        got = batch.solve_many_compact(specs)
        for i, spec in enumerate(specs):
            ref = _scalar(solvers, spec)
            assert got.newton_iterations[i] == ref.newton_iterations, spec
            assert got.newton_bisections[i] == ref.newton_bisections, spec


class TestLockstepCounter:
    def test_batch_takes_its_slowest_element_s_iterations(self, harness):
        """``solver.lockstep_iterations`` grows by the recorded rows of a
        batch solve: as many as its slowest element takes alone, since an
        element's steps (extensions included) do not depend on its batch
        mates."""
        _, batch = harness
        specs = _random_specs(12, seed=3)

        def lockstep(specs):
            metrics = MetricsRegistry()
            solver = BatchStageSolver(batch.tables, batch.process, metrics=metrics)
            solver.solve_many_compact(specs)
            return metrics.counter("solver.lockstep_iterations").value

        alone = [lockstep([spec]) for spec in specs]
        assert min(alone) > 0
        assert lockstep(specs) == max(alone)


class TestBatchedNewtonUsage:
    def test_mixed_convergence_lengths(self, harness):
        """Elements with very different time scales (fast inverter vs a
        heavily loaded stage) finish at different lockstep iterations; the
        masking must keep finished elements frozen."""
        solvers, batch = harness
        specs = [
            BatchArcSpec(
                table_index=0,
                input_direction=RISING,
                transition=10e-12,
                load=CouplingLoad(c_ground=1e-15),
            ),
            BatchArcSpec(
                table_index=0,
                input_direction=RISING,
                transition=300e-12,
                load=CouplingLoad(c_ground=60e-15),
            ),
        ]
        got = batch.solve_many_compact(specs)
        _assert_matches_scalar(solvers, specs, got)
        assert got.t_cross[0] < got.t_cross[1]
