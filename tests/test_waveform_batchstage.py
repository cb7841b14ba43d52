"""Batch stage solver vs the scalar reference.

The batch solver re-implements the scalar backward-Euler/Newton loop over
a batch axis with identical arithmetic; these tests pin the agreement on
randomized electrical situations (both directions, uncoupled, opposing
and aiding coupling) and check the batching machinery itself.
"""

import random

import numpy as np
import pytest

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
        batched = batch.solve_many(specs)
        for spec, got in zip(specs, batched):
            ref = solvers[spec.table_index].solve(
                InputRamp(
                    direction=spec.input_direction,
                    t_start=spec.t_start,
                    transition=spec.transition,
                ),
                spec.load,
                aiding=spec.aiding,
            )
            assert got.direction == ref.direction
            assert got.coupled == ref.coupled
            for marker in MARKERS:
                assert getattr(got, marker) == getattr(ref, marker), (spec, marker)

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
            ref = solvers[spec.table_index].solve(
                InputRamp(
                    direction=spec.input_direction,
                    t_start=spec.t_start,
                    transition=spec.transition,
                ),
                spec.load,
                aiding=spec.aiding,
            )
            assert full.directions[i] == part.directions[j] == ref.direction
            for marker in MARKERS:
                value = getattr(ref, marker)
                assert getattr(full, marker)[i] == value, (spec, marker)
                assert getattr(part, marker)[j] == value, (spec, marker)

    def test_batch_of_one(self, harness):
        solvers, batch = harness
        spec = BatchArcSpec(
            table_index=1,
            input_direction=RISING,
            transition=80e-12,
            load=CouplingLoad(c_ground=5e-15, c_couple_active=2e-15),
        )
        got = batch.solve_many([spec])[0]
        ref = solvers[1].solve(
            InputRamp(direction=RISING, t_start=0.0, transition=80e-12), spec.load
        )
        for marker in MARKERS:
            assert getattr(got, marker) == getattr(ref, marker)
        assert got.coupled and ref.coupled

    def test_empty_batch(self, harness):
        _, batch = harness
        assert batch.solve_many([]) == []

    def test_nonpositive_load_rejected(self, harness):
        _, batch = harness
        spec = BatchArcSpec(
            table_index=0,
            input_direction=RISING,
            transition=50e-12,
            load=CouplingLoad(c_ground=0.0),
        )
        with pytest.raises(StageSolverError):
            batch.solve_many([spec])

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
        r0, r1 = batch.solve_many([base, shifted])
        assert r1.t_cross == pytest.approx(r0.t_cross + 1e-9, abs=1e-15)
        assert r1.transition == pytest.approx(r0.transition, abs=1e-15)


class TestBatchedNewtonUsage:
    def test_mixed_convergence_lengths(self, harness):
        """Elements with very different time scales (fast inverter vs a
        heavily loaded stage) finish at different lockstep iterations; the
        masking must keep finished elements frozen."""
        _, batch = harness
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
        fast, slow = batch.solve_many(specs)
        assert fast.t_cross < slow.t_cross
        assert np.all(np.diff(fast.waveform.times) >= 0)
        assert np.all(np.diff(slow.waveform.times) >= 0)
