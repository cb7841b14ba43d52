"""Bound-versus-simulation harness (the paper's Section 6 methodology).

Every analysis mode but static doubled claims an upper bound on the
longest path under its own assumption about the aggressors.
:func:`check_bounds` re-simulates the path once per such mode, in the
scenario that mode's bound covers and launched from that mode's final
timing state (stimulus, horizon, initial aggressor guesses):

* best case: aggressors held quiet at their rails;
* worst case: unconstrained aggressor alignment;
* one step and iterative: alignment confined to the windows the mode's
  own final state gives -- quiescent times under ``WindowCheck.QUIET``,
  ``(t_early, t_late)`` windows under ``WindowCheck.OVERLAP``.

Static doubled is not simulated: the paper shows doubling is no bound.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass

from repro.core.analyzer import StaResult
from repro.core.modes import AnalysisMode, WindowCheck
from repro.core.paths import CriticalPath
from repro.core.report import MODE_LABELS
from repro.flow.design import Design
from repro.validate.align import align_aggressors, quiet_simulation
from repro.validate.pathsim import build_path_circuit


@dataclass(frozen=True)
class BoundCheck:
    """One mode's bound against the simulation of its own scenario."""

    mode: AnalysisMode
    scenario: str
    simulated: float  # seconds, endpoint arrival of the simulated path
    bound: float  # seconds, the mode's longest delay
    iterations: int  # alignment iterations (0 for the quiet simulation)

    @property
    def holds(self) -> bool:
        return self.simulated <= self.bound


def check_bounds(
    design: Design,
    results: Mapping[AnalysisMode, StaResult],
    path: CriticalPath,
    window_check: WindowCheck = WindowCheck.QUIET,
) -> dict[AnalysisMode, BoundCheck]:
    """Simulate ``path`` under each validated mode's scenario and compare
    with that mode's bound; one record per mode in ``results`` except
    static doubled.  ``window_check`` is the check the window-based
    results were computed with."""
    checks = {}
    for mode, result in results.items():
        if mode is AnalysisMode.STATIC_DOUBLED:
            continue
        assert result.final_pass is not None
        state = result.final_pass.state
        circuit = build_path_circuit(design, path, state)
        if mode is AnalysisMode.BEST_CASE:
            scenario = "quiet aggressors"
            outcome = quiet_simulation(circuit)
        elif mode is AnalysisMode.WORST_CASE:
            scenario = "aligned, unconstrained"
            outcome = align_aggressors(circuit)
        else:
            scenario = f"aligned, {window_check.value} check"
            windows = state.window_snapshot()  # what _decide reads under OVERLAP
            if window_check is WindowCheck.QUIET:
                # The paper's one-sided check: only the quiet time binds.
                windows = {key: (-math.inf, quiet) for key, (_, quiet) in windows.items()}
            outcome = align_aggressors(circuit, windows=windows)
        checks[mode] = BoundCheck(
            mode=mode,
            scenario=scenario,
            simulated=outcome.path_delay,
            bound=result.longest_delay,
            iterations=len(outcome.history),
        )
    return checks


def format_bound_checks(checks: Mapping[AnalysisMode, BoundCheck]) -> str:
    """Render the records as text, one row per validated mode."""
    lines = [
        f"{'Mode':<16} {'Simulated scenario':<24} {'Sim [ns]':>9} "
        f"{'Bound [ns]':>11} {'Iter':>5}  Holds",
        "-" * 76,
    ]
    for check in checks.values():
        lines.append(
            f"{MODE_LABELS[check.mode]:<16} {check.scenario:<24} "
            f"{check.simulated * 1e9:>9.3f} {check.bound * 1e9:>11.3f} "
            f"{check.iterations:>5d}  {'yes' if check.holds else 'NO'}"
        )
    return "\n".join(lines)
