"""Paper Section 2 restriction: lumped vs distributed coupling.

"A disadvantage of the model is that it is restricted to lumped
capacitances."  We quantify what the restriction costs: the longest path
is re-simulated with each coupling capacitance (a) lumped at the victim's
driver, as the model assumes, and (b) spread uniformly over the victim's
RC-tree nodes, as the real layout has it.  Resistive shielding makes the
distributed case milder, so the lumped STA bound should hold for both.
"""

import pytest

from repro.circuit import s27
from repro.core.analyzer import CrosstalkSTA
from repro.core.modes import AnalysisMode
from repro.flow import prepare_design
from repro.validate import align_aggressors, build_path_circuit


@pytest.fixture(scope="module")
def lumped_vs_distributed(record_result):
    design = prepare_design(s27())
    sta = CrosstalkSTA(design)
    result = sta.run(AnalysisMode.WORST_CASE)
    path = sta.critical_path(result)
    state = result.final_pass.state

    delays = {}
    for label, distributed in (("lumped", False), ("distributed", True)):
        circuit = build_path_circuit(
            design, path, state, distributed_coupling=distributed
        )
        outcome = align_aggressors(circuit, max_iterations=4)
        delays[label] = outcome.path_delay

    lines = [
        "Lumped vs distributed coupling (s27 longest path, aligned aggressors)",
        "",
        f"{'coupling placement':<20} {'path delay [ns]':>16}",
        "-" * 38,
        f"{'lumped at driver':<20} {delays['lumped']*1e9:>16.4f}",
        f"{'distributed':<20} {delays['distributed']*1e9:>16.4f}",
        "",
        f"worst-case STA bound: {result.longest_delay*1e9:.4f} ns",
    ]
    record_result("ablation_lumped", "\n".join(lines))
    return delays, result.longest_delay


def test_bound_holds_for_both_placements(lumped_vs_distributed, benchmark):
    delays, bound = lumped_vs_distributed
    assert delays["lumped"] <= bound
    assert delays["distributed"] <= bound
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_distributed_not_dramatically_worse(lumped_vs_distributed, benchmark):
    """Resistive shielding keeps the distributed case close to (typically
    below) the lumped one; the lumped model does not hide a blow-up."""
    delays, _ = lumped_vs_distributed
    assert delays["distributed"] <= delays["lumped"] * 1.10
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
