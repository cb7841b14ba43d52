"""Paper Section 3 ablation: transistor-level vs table-lookup timing.

"Since our aim is to show the impact of coupling we chose a transistor-
level approach for delay calculation to obtain best accuracy."

We characterize the library into NLDM slew x load tables, run the STA
with the table-lookup calculator (which can only fold coupling into the
load at 1x or 2x -- the classical approaches), and compare against the
transistor-level engine with the active coupling model, using the
longest-path simulation as ground truth.
"""

import pytest

from repro.characterize import NldmDelayCalculator, characterize_library
from repro.circuit import s35932_like
from repro.core.analyzer import CrosstalkSTA
from repro.core.modes import AnalysisMode, StaConfig
from repro.flow import prepare_design
from repro.validate import check_bounds


@pytest.fixture(scope="module")
def nldm_comparison(scale, record_result):
    design = prepare_design(s35932_like(scale=scale))
    char = characterize_library()

    rows = {}
    # Table-lookup STA: coupling at 1x and at 2x (classical).
    for label, factor, mode in (
        ("nldm ignore (1x)", 1.0, AnalysisMode.BEST_CASE),
        ("nldm doubled (2x)", 2.0, AnalysisMode.STATIC_DOUBLED),
    ):
        calc = NldmDelayCalculator(char, coupling_factor=factor)
        sta = CrosstalkSTA(design, StaConfig(mode=mode), calculator=calc)
        rows[label] = sta.run().longest_delay

    # Transistor-level STA with the active model.
    exact_sta = CrosstalkSTA(design)
    for label, mode in (
        ("exact best case", AnalysisMode.BEST_CASE),
        ("exact iterative", AnalysisMode.ITERATIVE),
        ("exact worst case", AnalysisMode.WORST_CASE),
    ):
        rows[label] = exact_sta.run(mode).longest_delay

    # Ground truth: the simulated longest path, aggressors aligned within
    # the iterative mode's windows.
    iterative = {AnalysisMode.ITERATIVE: exact_sta.run(AnalysisMode.ITERATIVE)}
    path = exact_sta.critical_path(iterative[AnalysisMode.ITERATIVE])
    checks = check_bounds(design, iterative, path)
    rows["simulation (windows)"] = checks[AnalysisMode.ITERATIVE].simulated

    lines = [
        f"Table-lookup (NLDM) vs transistor-level timing (scale {scale})",
        "",
        f"{'engine':<22} {'delay [ns]':>11}",
        "-" * 35,
    ]
    lines += [f"{k:<22} {v*1e9:>11.3f}" for k, v in rows.items()]
    record_result("ablation_nldm", "\n".join(lines))
    return rows


def test_nldm_tracks_exact_without_coupling(nldm_comparison, benchmark):
    """The tables themselves are accurate: coupling-free analyses agree."""
    assert nldm_comparison["nldm ignore (1x)"] == pytest.approx(
        nldm_comparison["exact best case"], rel=0.08
    )
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_nldm_doubled_not_guaranteed_safe(nldm_comparison, benchmark):
    """The classical doubled-load table approach sits below the worst-case
    active-model bound: it cannot certify the true worst case (the paper's
    core criticism)."""
    assert (
        nldm_comparison["nldm doubled (2x)"] < nldm_comparison["exact worst case"]
    )
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_exact_iterative_bounds_simulation(nldm_comparison, benchmark):
    assert nldm_comparison["simulation (windows)"] <= nldm_comparison["exact iterative"]
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
