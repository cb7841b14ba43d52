"""Paper Section 5.2 speed-up: Esperance (Benkoski et al. [11]).

"This algorithm can be sped up by using a method called Esperance ...  In
this case only those wires that belong to long paths are recalculated."

We run the iterative analysis with and without the long-path-only
recalculation on the same design and compare waveform-evaluation counts,
CPU time and the resulting bound.
"""

import time

import pytest

from repro.circuit import s35932_like
from repro.core.analyzer import CrosstalkSTA
from repro.core.modes import AnalysisMode, StaConfig
from repro.flow import prepare_design


@pytest.fixture(scope="module")
def esperance_runs(scale, record_result):
    design = prepare_design(s35932_like(scale=scale))

    runs = {}
    for label, esperance in (("exact", False), ("esperance", True)):
        config = StaConfig(mode=AnalysisMode.ITERATIVE, esperance=esperance)
        t0 = time.process_time()
        result = CrosstalkSTA(design, config).run()
        runs[label] = {
            "delay": result.longest_delay,
            "evals": result.waveform_evaluations,
            "seconds": time.process_time() - t0,
            "passes": result.passes,
            "recalc": [r.recalculated_cells for r in result.history],
        }

    lines = [
        f"Iterative refinement with and without Esperance (scale {scale})",
        "",
        f"{'variant':<11} {'delay [ns]':>11} {'evals':>9} {'CPU [s]':>9} {'passes':>7}  recalc/pass",
        "-" * 75,
    ]
    for label, data in runs.items():
        lines.append(
            f"{label:<11} {data['delay']*1e9:>11.3f} {data['evals']:>9d} "
            f"{data['seconds']:>9.2f} {data['passes']:>7d}  {data['recalc']}"
        )
    record_result("ablation_esperance", "\n".join(lines))
    return runs


def test_esperance_reduces_work(esperance_runs, benchmark):
    exact = esperance_runs["exact"]
    esp = esperance_runs["esperance"]
    # From pass 2 on, only long-path cells are recomputed.
    assert any(r < exact["recalc"][0] for r in esp["recalc"][1:])
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_esperance_keeps_a_valid_bound(esperance_runs, benchmark):
    """Esperance may converge slightly looser but never below the exact
    iterative bound (both remain upper bounds; exact is the tightest)."""
    exact = esperance_runs["exact"]["delay"]
    esp = esperance_runs["esperance"]["delay"]
    assert esp >= exact - 1e-12
    assert esp <= exact * 1.05
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
