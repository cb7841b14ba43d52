"""Paper Section 2 claim: worst-case delay at the fastest aggressor slope.

"Simulations show that maximum delay is achieved when the aggressor
voltage has a short ramp time.  We get worst-case delay for an
instantaneous voltage drop on the aggressor line."

We re-simulate the s27 longest path with aligned aggressors at several
aggressor ramp times and check that (a) faster aggressors give longer
path delays, and (b) every finite-ramp simulation stays below the
worst-case STA bound (which assumes the instantaneous drop).
"""

import pytest

from repro.core.analyzer import CrosstalkSTA
from repro.core.modes import AnalysisMode
from repro.circuit import s27
from repro.flow import prepare_design
from repro.validate import align_aggressors, build_path_circuit

RAMPS = (5e-12, 50e-12, 200e-12, 600e-12)


@pytest.fixture(scope="module")
def slope_sweep(record_result):
    design = prepare_design(s27())
    sta = CrosstalkSTA(design)
    worst = sta.run(AnalysisMode.WORST_CASE)
    path = sta.critical_path(worst)
    state = worst.final_pass.state

    delays = {}
    for ramp in RAMPS:
        circuit = build_path_circuit(design, path, state, aggressor_transition=ramp)
        outcome = align_aggressors(circuit)
        delays[ramp] = outcome.path_delay

    lines = [
        "Aggressor ramp-time sweep (s27 longest path, aligned aggressors)",
        "",
        f"{'ramp [ps]':>10} {'path delay [ns]':>16}",
        "-" * 28,
    ]
    lines += [f"{r*1e12:>10.0f} {delays[r]*1e9:>16.4f}" for r in RAMPS]
    lines.append("")
    lines.append(f"worst-case STA bound: {worst.longest_delay*1e9:.4f} ns")
    record_result("ablation_aggressor_slope", "\n".join(lines))
    return delays, worst.longest_delay


def test_faster_aggressors_are_worse(slope_sweep, benchmark):
    delays, _ = slope_sweep
    assert delays[RAMPS[0]] >= delays[RAMPS[-1]] - 1e-12
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_instantaneous_model_bounds_all_slopes(slope_sweep, benchmark):
    delays, bound = slope_sweep
    for ramp, delay in delays.items():
        assert delay <= bound, f"ramp {ramp}: {delay} > {bound}"
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
