"""The iterative refinement algorithm (paper, Section 5.2).

The one-step pass is repeated; after every pass the per-net quiescent
times are stored and fed to the next pass, so no worst-case "uncalculated
neighbour" assumptions remain from the second pass on.  Iteration stops
when the longest-path delay no longer decreases::

    delay := default
    do
        delay_old := delay
        delay := do one-step sta
        store quiescent times for each wire
    while (delay < delay_old)

Every pass individually guarantees an upper bound, so the smallest pass
result is the reported bound.  The optional *Esperance* speed-up
(Benkoski et al. [11]) recomputes only nets on long paths from the second
pass on.

Robustness: a stop is classified as *convergence* (the final pass
matches the best bound) or *oscillation* (the delay bounced back above
an earlier bound -- coupling decisions flipping between passes); an
oscillating stop is logged with the full pass history and counted under
``iterative.oscillation_stops``, and the reported result is still the
smallest pass, so the bound stays valid either way.  An optional
checkpoint store (see :mod:`repro.core.checkpoint`) persists the state
after every pass so an interrupted run resumes bit-identically.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import Callable, Protocol

from repro.core.modes import CONVERGENCE_TOLERANCE, ESPERANCE_SLACK
from repro.core.propagation import PassResult, Propagator
from repro.core.slack import backward_sweep
from repro.flow.design import Design
from repro.waveform.pwl import FALLING, RISING

logger = logging.getLogger("repro.core.iterative")


@dataclass
class IterationRecord:
    """Bookkeeping for one pass of the iterative algorithm."""

    index: int
    longest_delay: float
    waveform_evaluations: int
    seconds: float
    recalculated_cells: int
    total_cells: int
    cache_evaluations: int = 0
    cache_hits: int = 0
    # Hit taxonomy (distinct, not conflated): in-run deduplication --
    # the same canonical arc situation requested again -- versus reuse
    # of entries loaded from a persistent cache file.
    cache_dedup_hits: int = 0
    cache_persisted_hits: int = 0
    # Delta-driven accounting: arcs that needed at least one waveform
    # solve this pass versus arcs served entirely from the previous
    # pass's memo (unchanged fingerprints).
    dirty_arcs: int = 0
    reused_arcs: int = 0
    phase_seconds: dict[str, float] = field(default_factory=dict)
    # Provenance-ledger rows appended during this pass.
    provenance_rows: int = 0

    @classmethod
    def from_pass(
        cls,
        index: int,
        result: PassResult,
        seconds: float,
        recalculated_cells: int,
        total_cells: int,
    ) -> "IterationRecord":
        """The record of one finished pass."""
        return cls(
            index=index,
            longest_delay=result.longest_delay,
            waveform_evaluations=result.waveform_evaluations,
            seconds=seconds,
            recalculated_cells=recalculated_cells,
            total_cells=total_cells,
            cache_evaluations=result.cache_evaluations,
            cache_hits=result.cache_hits,
            cache_dedup_hits=result.cache_dedup_hits,
            cache_persisted_hits=result.cache_persisted_hits,
            dirty_arcs=result.dirty_arcs,
            reused_arcs=result.reused_arcs,
            phase_seconds=dict(result.phase_seconds),
            provenance_rows=result.provenance_rows,
        )

    @property
    def recalc_fraction(self) -> float:
        if self.total_cells == 0:
            return 0.0
        return self.recalculated_cells / self.total_cells

    @property
    def cache_hit_rate(self) -> float:
        lookups = self.cache_evaluations + self.cache_hits
        return self.cache_hits / lookups if lookups else 0.0

    @property
    def dedup_ratio(self) -> float:
        """Fraction of cache lookups served by in-run deduplication
        (excludes persistent-cache loads, which are not this run's work)."""
        lookups = self.cache_evaluations + self.cache_hits
        return self.cache_dedup_hits / lookups if lookups else 0.0

    @property
    def dirty_fraction(self) -> float:
        """Fraction of this pass's arcs that actually required solving."""
        arcs = self.dirty_arcs + self.reused_arcs
        return self.dirty_arcs / arcs if arcs else 0.0

    def to_dict(self) -> dict:
        """JSON-safe summary for telemetry artifacts."""
        return {
            "index": self.index,
            "longest_delay_ns": self.longest_delay * 1e9,
            "waveform_evaluations": self.waveform_evaluations,
            "seconds": self.seconds,
            "recalculated_cells": self.recalculated_cells,
            "total_cells": self.total_cells,
            "recalc_fraction": self.recalc_fraction,
            "cache_evaluations": self.cache_evaluations,
            "cache_hits": self.cache_hits,
            "cache_hit_rate": self.cache_hit_rate,
            "cache_dedup_hits": self.cache_dedup_hits,
            "cache_persisted_hits": self.cache_persisted_hits,
            "dedup_ratio": self.dedup_ratio,
            "dirty_arcs": self.dirty_arcs,
            "reused_arcs": self.reused_arcs,
            "dirty_fraction": self.dirty_fraction,
            "provenance_rows": self.provenance_rows,
            "phase_seconds": dict(self.phase_seconds),
        }


@dataclass
class IterativeResult:
    """Final pass (the converged bound) plus the per-pass history."""

    final: PassResult
    history: list[IterationRecord] = field(default_factory=list)

    @property
    def passes(self) -> int:
        return len(self.history)


class CheckpointStore(Protocol):
    """What :func:`run_iterative` needs from a checkpoint backend
    (satisfied by :class:`repro.core.checkpoint.CheckpointManager`)."""

    def save(
        self,
        current: PassResult,
        best: PassResult,
        history: list[IterationRecord],
        converged: bool,
    ) -> None: ...

    def load(
        self,
    ) -> tuple[PassResult, PassResult, list[IterationRecord], bool] | None: ...


def run_iterative(
    propagator: Propagator,
    checkpoint: CheckpointStore | None = None,
    after_pass: Callable[[int, PassResult], None] | None = None,
) -> IterativeResult:
    """Run the iterative algorithm to convergence.

    ``checkpoint`` persists the state after every pass and, when it
    already holds passes for this configuration, resumes from them
    (bit-identical to an uninterrupted run).  ``after_pass(index,
    result)`` is invoked after each pass is recorded and checkpointed --
    the fault-injection harness uses it to interrupt mid-run.
    """
    config = propagator.config
    total_cells = len(propagator.order)
    history: list[IterationRecord] = []
    obs = propagator.obs
    tracer = obs.tracer
    metrics = obs.metrics
    g_passes = metrics.gauge("iterative.passes")
    g_recalc = metrics.gauge("iterative.recalc_fraction")
    g_dirty = metrics.gauge("iterative.dirty_fraction")
    g_waves = metrics.gauge("iterative.coupling_waves")
    c_waves = metrics.counter("propagation.coupling_waves")
    c_osc = metrics.counter("iterative.oscillation_stops")
    waves_before = c_waves.value

    current: PassResult | None = None
    best: PassResult | None = None
    if checkpoint is not None:
        restored = checkpoint.load()
        if restored is not None:
            current, best, history, converged = restored
            if converged:
                g_passes.set(len(history))
                g_waves.set(c_waves.value - waves_before)
                return IterativeResult(final=best, history=history)

    if current is None:
        with tracer.span("iterative.pass", index=1, full=True):
            t0 = time.perf_counter()
            current = propagator.run_pass()
            history.append(
                IterationRecord.from_pass(
                    1, current, time.perf_counter() - t0, total_cells, total_cells
                )
            )
        best = current
        if checkpoint is not None:
            checkpoint.save(current, best, history, converged=False)
        if after_pass is not None:
            after_pass(1, current)

    while len(history) < config.max_iterations:
        recalc = None
        if config.esperance and len(history) >= 1:
            recalc = esperance_recalc_cells(
                propagator.design, propagator, current, ESPERANCE_SLACK
            )
        n_recalc = len(recalc) if recalc is not None else total_cells
        with tracer.span(
            "iterative.pass",
            index=len(history) + 1,
            full=recalc is None,
            recalc_cells=n_recalc,
        ):
            t0 = time.perf_counter()
            next_pass = propagator.run_pass(prev=current.state, recalc_cells=recalc)
            record = IterationRecord.from_pass(
                len(history) + 1,
                next_pass,
                time.perf_counter() - t0,
                n_recalc,
                total_cells,
            )
            history.append(record)
            g_recalc.set(record.recalc_fraction)
            g_dirty.set(record.dirty_fraction)
        improved = next_pass.longest_delay < best.longest_delay - CONVERGENCE_TOLERANCE
        # Each pass is individually a valid upper bound, so a delay that
        # climbs back *above* the best bound means the coupling decisions
        # are cycling between passes, not converging.  The loop stops
        # either way (best = min is still correct); the distinction only
        # matters for diagnosis.
        oscillating = (
            not improved
            and next_pass.longest_delay
            > best.longest_delay + CONVERGENCE_TOLERANCE
        )
        if next_pass.longest_delay < best.longest_delay:
            best = next_pass
        current = next_pass
        if checkpoint is not None:
            checkpoint.save(current, best, history, converged=not improved)
        if after_pass is not None:
            after_pass(len(history), current)
        if oscillating:
            c_osc.inc()
            logger.warning(
                "iteration stopped on oscillation, not convergence: pass %d "
                "delay %.6e s is above the best bound %.6e s; reporting the "
                "best bound (history: %s)",
                len(history),
                next_pass.longest_delay,
                best.longest_delay,
                ", ".join(f"{r.longest_delay:.6e}" for r in history),
            )
        if not improved:
            break
    g_passes.set(len(history))
    g_waves.set(c_waves.value - waves_before)
    return IterativeResult(final=best, history=history)


def esperance_recalc_cells(
    design: Design,
    propagator: Propagator,
    pass_result: PassResult,
    slack_fraction: float,
) -> set[str]:
    """Cells on long paths, per the Esperance idea: the slack engine's
    backward required-time sweep over the *stored events* (pure
    arithmetic, no waveform work), seeded with the longest-path delay at
    every endpoint net that carries an event, marks every net whose
    slack is within ``slack_fraction`` of that delay; only the cells of
    ``propagator.order`` driving those nets are recomputed."""
    state = pass_result.state
    horizon = pass_result.longest_delay
    seeds: dict[tuple[str, str], float] = {}
    for endpoint in design.circuit.timing_endpoints():
        net = endpoint.net
        if net is None:
            continue
        for direction in (RISING, FALLING):
            if state.event(net.name, direction) is not None:
                seeds[(net.name, direction)] = horizon
    net_required, _ = backward_sweep(state, seeds)
    threshold = slack_fraction * horizon
    long_nets = {
        name
        for (name, direction), required in net_required.items()
        if required - state.event(name, direction).t_cross <= threshold
    }
    return {
        cell.name
        for cell in propagator.order
        if cell.output_pin.net is not None
        and cell.output_pin.net.name in long_nets
    }
