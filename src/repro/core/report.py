"""Result tables in the paper's format.

The paper's Tables 1-3 list, per circuit, the longest-path delay and the
analysis runtime for the five modes, compared against a simulation of the
longest path.  :func:`format_table` renders the same rows.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.analyzer import StaResult
from repro.core.modes import AnalysisMode

MODE_LABELS = {
    AnalysisMode.BEST_CASE: "Best case",
    AnalysisMode.STATIC_DOUBLED: "Static doubled",
    AnalysisMode.WORST_CASE: "Worst case",
    AnalysisMode.ONE_STEP: "One step",
    AnalysisMode.ITERATIVE: "Iterative",
}

MODE_ORDER = [
    AnalysisMode.BEST_CASE,
    AnalysisMode.STATIC_DOUBLED,
    AnalysisMode.WORST_CASE,
    AnalysisMode.ONE_STEP,
    AnalysisMode.ITERATIVE,
]


@dataclass(frozen=True)
class TableRow:
    label: str
    delay_ns: float
    runtime_s: float
    evaluations: int = 0
    passes: int = 1


def result_rows(results: dict[AnalysisMode, StaResult]) -> list[TableRow]:
    rows = []
    for mode in MODE_ORDER:
        if mode not in results:
            continue
        res = results[mode]
        rows.append(
            TableRow(
                label=MODE_LABELS[mode],
                delay_ns=res.longest_delay_ns,
                runtime_s=res.runtime_seconds,
                evaluations=res.waveform_evaluations,
                passes=res.passes,
            )
        )
    return rows


def format_table(
    title: str,
    results: dict[AnalysisMode, StaResult],
    simulation_ns: float | None = None,
    cell_count: int | None = None,
) -> str:
    """Render one paper-style table as text."""
    header = title if cell_count is None else f"{title} ({cell_count} cells)"
    lines = [header, "=" * len(header)]
    lines.append(f"{'Mode':<16} {'Delay [ns]':>11} {'CPU [s]':>9} {'Evals':>9} {'Passes':>7}")
    lines.append("-" * 56)
    for row in result_rows(results):
        lines.append(
            f"{row.label:<16} {row.delay_ns:>11.3f} {row.runtime_s:>9.2f} "
            f"{row.evaluations:>9d} {row.passes:>7d}"
        )
    if simulation_ns is not None:
        lines.append("-" * 56)
        lines.append(f"{'Simulation':<16} {simulation_ns:>11.3f}")
    return "\n".join(lines)


def format_timing_report(
    results: dict[AnalysisMode, StaResult] | StaResult,
) -> str:
    """Per-phase wall-clock and per-pass statistics of finished runs.

    Accepts a single :class:`StaResult` or the ``run_all_modes`` dict; with
    a dict every analyzed mode gets its own section (modes in table order).
    The arc-cache block is printed once at the end: the calculator is
    shared across modes, so its statistics are cumulative.
    """
    if isinstance(results, StaResult):
        results = {results.mode: results}
    ordered = [results[mode] for mode in MODE_ORDER if mode in results]
    ordered += [res for mode, res in results.items() if mode not in MODE_ORDER]
    lines: list[str] = []
    for result in ordered:
        lines.append(f"timing report [{result.mode.value}]")
        if result.slack is not None:
            slack = result.slack
            lines.append(
                f"  slack: {slack.summary()}"
            )
            lines.append(
                f"  slack: TNS {slack.total_negative_slack * 1e12:.1f} ps, "
                f"{slack.violations} failing / {len(slack.endpoints.slacks)} "
                f"endpoints, {len(slack.net_slack)} net / "
                f"{len(slack.arc_slack)} arc slacks "
                f"({slack.runtime_seconds:.3f} s backward pass)"
            )
        total = sum(result.phase_seconds.values())
        for phase, seconds in sorted(
            result.phase_seconds.items(), key=lambda kv: kv[1], reverse=True
        ):
            share = seconds / total if total else 0.0
            lines.append(f"  {phase:20s} {seconds:8.3f} s  ({share:5.1%})")
        for record in result.history:
            # Dedup (in-run canonical sharing) and persistent-cache reuse
            # are reported separately: only the former is this run's work
            # avoidance, the latter was paid for by an earlier run.
            line = (
                f"  pass {record.index}: {record.seconds:.3f} s, "
                f"{record.waveform_evaluations} evals, "
                f"{record.cache_evaluations} solved / "
                f"{record.cache_dedup_hits} dedup "
                f"({record.dedup_ratio:.1%}) / "
                f"{record.cache_persisted_hits} persisted"
            )
            if record.dirty_arcs or record.reused_arcs:
                line += (
                    f", {record.dirty_arcs} dirty / {record.reused_arcs} reused arcs"
                    f" ({record.dirty_fraction:.1%} recalc)"
                )
            lines.append(line)
    stats = ordered[-1].cache_stats if ordered else {}
    if stats:
        lines.append(
            f"  arc cache: {stats['evaluations']} solved, "
            f"{stats['cache_hits']} hits ({stats['hit_rate']:.1%} hit rate: "
            f"{stats.get('dedup_hits', 0)} dedup, "
            f"{stats.get('persisted_hits', 0)} persisted), "
            f"{stats['cached_arcs']} cached"
        )
        if stats.get("signatures"):
            lines.append(
                f"  canonical signatures: {stats['signatures']} distinct stages, "
                f"{stats.get('signature_aliases', 0)} (cell, pin) aliases folded"
            )
        if stats.get("batched_solves"):
            lines.append(f"  vectorized solves: {stats['batched_solves']}")
        if stats.get("persisted_loads"):
            lines.append(
                f"  persistent cache: {stats['persisted_loads']} arcs loaded from disk"
            )
        if stats.get("stale_rejects"):
            lines.append(
                f"  persistent cache: {stats['stale_rejects']} stale entries rejected"
            )
    return "\n".join(lines)


def check_mode_ordering(
    results: dict[AnalysisMode, StaResult],
    tolerance: float = 1e-12,
) -> list[str]:
    """Verify the invariant ordering of the five bounds; returns a list of
    violation descriptions (empty when all hold):

    best <= iterative <= one-step <= worst, and best <= static-doubled.

    Note: static-doubled versus worst-case is *not* an invariant -- the
    whole point of the paper's comparison is that the passive doubled
    model and the active model rank differently per arc (doubling slows
    every transition, the active model concentrates its impact in the
    coupling drop), so neither bounds the other in general.
    """
    violations = []

    def delay(mode: AnalysisMode) -> float:
        return results[mode].longest_delay

    pairs = [
        (AnalysisMode.BEST_CASE, AnalysisMode.ITERATIVE),
        (AnalysisMode.ITERATIVE, AnalysisMode.ONE_STEP),
        (AnalysisMode.ONE_STEP, AnalysisMode.WORST_CASE),
        (AnalysisMode.BEST_CASE, AnalysisMode.STATIC_DOUBLED),
    ]
    for lo, hi in pairs:
        if lo in results and hi in results and delay(lo) > delay(hi) + tolerance:
            violations.append(
                f"{MODE_LABELS[lo]} ({delay(lo) * 1e9:.3f} ns) exceeds "
                f"{MODE_LABELS[hi]} ({delay(hi) * 1e9:.3f} ns)"
            )
    return violations
