"""Shared driver for the paper's Tables 1-3 (not collected by pytest).

Each table bench runs the five analysis modes with *independent* delay
calculators (so the runtime column is honest per mode, like the paper's
CPU column), checks every mode's bound against a re-simulation of the
longest path under that mode's scenario (``repro.validate.check_bounds``),
and renders the paper-style table.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core.analyzer import CrosstalkSTA, StaResult
from repro.core.modes import AnalysisMode
from repro.core.report import MODE_LABELS, MODE_ORDER, check_mode_ordering
from repro.flow import Design, prepare_design
from repro.validate import check_bounds, format_bound_checks


@dataclass
class TableRun:
    """Everything a table bench produces."""

    title: str
    cell_count: int
    scale: float
    results: dict = field(default_factory=dict)
    prep_seconds: float = 0.0
    checks: dict = field(default_factory=dict)
    sim_seconds: float = 0.0
    path_stages: int = 0

    def render(self) -> str:
        lines = [
            f"{self.title} -- {self.cell_count} cells at scale {self.scale}"
            f" (physical design {self.prep_seconds:.1f} s)",
        ]
        lines.append("")
        lines.append(f"{'Mode':<16} {'Delay [ns]':>11} {'CPU [s]':>9} {'Evals':>9} {'Passes':>7}")
        lines.append("-" * 56)
        for mode in MODE_ORDER:
            res: StaResult = self.results[mode]
            lines.append(
                f"{MODE_LABELS[mode]:<16} {res.longest_delay_ns:>11.3f} "
                f"{res.runtime_seconds:>9.2f} {res.waveform_evaluations:>9d} "
                f"{res.passes:>7d}"
            )
        lines.append("")
        lines.append(format_bound_checks(self.checks))
        lines.append("")
        best = self.results[AnalysisMode.BEST_CASE].longest_delay_ns
        worst = self.results[AnalysisMode.WORST_CASE].longest_delay_ns
        iterative = self.results[AnalysisMode.ITERATIVE].longest_delay_ns
        lines.append(f"coupling impact (worst - best): {worst - best:.3f} ns")
        lines.append(f"window-based recovery (worst - iterative): {worst - iterative:.3f} ns")
        lines.append(
            f"critical path: {self.path_stages} stages, simulated in {self.sim_seconds:.1f} s"
        )
        return "\n".join(lines)


def run_table(factory, title: str, scale: float) -> TableRun:
    t0 = time.time()
    circuit = factory(scale=scale)
    design: Design = prepare_design(circuit)
    run = TableRun(
        title=title,
        cell_count=circuit.cell_count(),
        scale=scale,
        prep_seconds=time.time() - t0,
    )

    # Fresh calculator per mode: the CPU column measures each mode alone.
    for mode in MODE_ORDER:
        run.results[mode] = CrosstalkSTA(design).run(mode)

    path = CrosstalkSTA(design).critical_path(run.results[AnalysisMode.ITERATIVE])
    run.path_stages = len(path)
    t0 = time.time()
    run.checks = check_bounds(design, run.results, path)
    run.sim_seconds = time.time() - t0
    return run


def assert_paper_shape(run: TableRun) -> None:
    """The qualitative claims of Section 6, as assertions."""
    violations = check_mode_ordering(run.results)
    assert not violations, violations

    best = run.results[AnalysisMode.BEST_CASE].longest_delay
    worst = run.results[AnalysisMode.WORST_CASE].longest_delay
    one_step = run.results[AnalysisMode.ONE_STEP].longest_delay
    iterative = run.results[AnalysisMode.ITERATIVE].longest_delay

    # Coupling matters ("certainly cannot be ignored").
    assert worst > best * 1.01
    # The window-based algorithms recover some of the pessimism.
    assert one_step < worst
    assert iterative <= one_step

    # Upper-bound property against the simulations.
    for check in run.checks.values():
        assert check.holds, check
