"""The crosstalk-aware static timing analyzer facade.

:class:`CrosstalkSTA` runs any of the paper's five analysis modes on a
prepared design and returns a :class:`StaResult` with the longest-path
delay bound, per-endpoint arrivals, the critical path and runtime /
evaluation statistics.  Repeated :meth:`CrosstalkSTA.run` calls on one
analyzer share its gate-delay cache; :meth:`CrosstalkSTA.run_all_modes`
gives each of the paper's five rows its own, so each row's CPU time is
that mode's alone.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field, replace

from repro.core.checkpoint import CheckpointManager
from repro.core.iterative import IterationRecord, run_iterative
from repro.core.modes import (
    CONVERGENCE_TOLERANCE,
    ESPERANCE_SLACK,
    SLEW_DEGRADATION_FACTOR,
    AnalysisMode,
    StaConfig,
)
from repro.core.paths import CriticalPath, extract_critical_path
from repro.core.propagation import PassResult, Propagator
from repro.core.provenance import ProvenanceLedger
from repro.core.slack import SlackResult, compute_slack
from repro.errors import DegradationBudgetError
from repro.flow.design import Design
from repro.obs.metrics import diff_snapshots
from repro.obs.telemetry import Observability, RunTelemetry
from repro.waveform.gatedelay import GateDelayCalculator


@dataclass
class StaResult:
    """Outcome of one analysis run."""

    mode: AnalysisMode
    design_name: str
    longest_delay: float
    critical_endpoint: str
    critical_direction: str
    runtime_seconds: float
    waveform_evaluations: int
    arcs_processed: int
    coupled_arcs: int
    passes: int
    history: list[IterationRecord] = field(default_factory=list)
    final_pass: PassResult | None = None
    cache_stats: dict = field(default_factory=dict)
    phase_seconds: dict[str, float] = field(default_factory=dict)
    telemetry: RunTelemetry | None = None
    # Arcs whose solve failed and received a conservative substitute bound
    # during this run (see GateDelayCalculator.degraded); empty on a
    # healthy run.  The reported delay is still a valid upper bound.
    degraded_arcs: list[dict] = field(default_factory=list)
    # The propagator's per-arc provenance ledger (shared across the
    # passes of this run; row ids in final_pass.state.arc_prov index into
    # it).
    ledger: ProvenanceLedger = field(default_factory=ProvenanceLedger)
    # Seconds spent compiling the design into the columnar id arrays,
    # amortized once per analyzer (0.0 when the compiled design was
    # already cached).
    compile_seconds: float = 0.0
    # Endpoint setup checks of the final state, with per-net/per-arc
    # slack from a backward sweep that runs on first read (see
    # repro.core.slack).  None unless config.clock_period is set.
    slack: "SlackResult | None" = None

    @property
    def longest_delay_ns(self) -> float:
        return self.longest_delay * 1e9

    @property
    def worst_slack(self) -> float | None:
        return self.slack.worst_slack if self.slack is not None else None

    def arrival(self, endpoint: str, direction: str) -> float:
        """Arrival time at one endpoint (seconds)."""
        assert self.final_pass is not None
        for a in self.final_pass.arrivals:
            if a.endpoint == endpoint and a.direction == direction:
                return a.event.t_cross
        raise KeyError(f"no arrival recorded for {endpoint!r} ({direction})")

    def arrival_map(self) -> dict[tuple[str, str], float]:
        assert self.final_pass is not None
        return self.final_pass.arrival_map()

    def __str__(self) -> str:
        return (
            f"{self.design_name} [{self.mode.value}]: "
            f"{self.longest_delay_ns:.3f} ns via {self.critical_endpoint} "
            f"({self.critical_direction}), {self.passes} pass(es), "
            f"{self.waveform_evaluations} waveform evals, "
            f"{self.runtime_seconds:.2f} s"
        )


class CrosstalkSTA:
    """Static timing analysis taking crosstalk into account."""

    def __init__(
        self,
        design: Design,
        config: StaConfig | None = None,
        calculator: GateDelayCalculator | None = None,
        obs: Observability | None = None,
        keep_propagators: bool = False,
    ):
        self.design = design
        self.config = config if config is not None else StaConfig()
        # Session reuse (the timing-query service): with
        # ``keep_propagators`` the analyzer retains one Propagator per
        # exact configuration across run() calls, so a repeated analysis
        # starts with a warm delta-driven arc memo instead of solving
        # every arc again.  ``_warm_sources`` seeds a *new* propagator
        # from another analyzer's retained one (see warm_start_from).
        self.keep_propagators = keep_propagators
        self._propagators: dict[StaConfig, Propagator] = {}
        self._warm_sources: dict[StaConfig, Propagator] = {}
        self._compiled = None
        self._compile_seconds = 0.0
        # A warm source's compilation over the same circuit, from which
        # this analyzer's is derived (see warm_start_from).
        self._compile_source = None
        if obs is not None:
            self.obs = obs
        else:
            self.obs = Observability.disabled()
        if calculator is not None:
            self.calculator = calculator
            # Adopt the calculator's registry so one snapshot covers arc
            # cache + propagation + solver (its instruments are bound to it
            # at construction and cannot move to ours).
            self.obs.metrics = calculator.metrics
        else:
            self.calculator = GateDelayCalculator(
                process=design.process,
                metrics=self.obs.metrics,
                strict=self.config.strict,
            )
        if self.config.arc_cache:
            with self.obs.tracer.span(
                "sta.arc_cache_load", path=str(self.config.arc_cache)
            ):
                self.calculator.load_cache_file(
                    self.config.arc_cache, self._cell_types()
                )

    def warm_start_from(self, other: "CrosstalkSTA") -> None:
        """Seed this analyzer's propagators from another analyzer's
        retained ones (requires ``other`` to use ``keep_propagators``).

        The designs may differ -- this is the what-if path of a design
        session: the edited design's propagator adopts every memo entry
        whose arc is electrically unchanged and re-solves only the dirty
        cone, and a single-pass one walks only the cells the edit can
        reach (see :meth:`Propagator.warm_start_from`).  Reuse is
        bit-identical to a cold analysis by construction.  Sources match
        by config without its checkpoint path, which names a file, not
        an analysis.

        An edit that keeps the circuit (a coupling edit or a respace)
        also derives this analyzer's compiled design from ``other``'s:
        the circuit-derived structure is shared and only the load
        columns are recomputed (:meth:`CompiledDesign.with_loads`).
        """
        self._warm_sources = {
            replace(config, checkpoint=None): propagator
            for config, propagator in other._propagators.items()
        }
        if other.design.circuit is self.design.circuit:
            self._compile_source = other._compiled

    def _propagator_for(self, config: StaConfig) -> Propagator:
        propagator = self._propagators.get(config)
        if propagator is not None:
            return propagator
        propagator = Propagator(
            self.design,
            config,
            self.calculator,
            obs=self.obs,
            compiled=self.compiled_design(),
        )
        source = self._warm_sources.get(replace(config, checkpoint=None))
        if source is not None:
            propagator.warm_start_from(source)
        if self.keep_propagators:
            self._propagators[config] = propagator
        return propagator

    def compiled_design(self):
        """The design's columnar compilation, built once per analyzer and
        shared by every propagator (all modes, all configs)."""
        compiled = self._compiled
        if compiled is None:
            from repro.core.columnar import compile_design

            with self.obs.tracer.span(
                "sta.compile_design", design=self.design.name
            ):
                if self._compile_source is not None:
                    compiled = self._compile_source.with_loads(self.design)
                else:
                    compiled = compile_design(self.design)
            self._compiled = compiled
            self._compile_seconds += compiled.compile_seconds
        return compiled

    def _cell_types(self):
        return {cell.ctype.name: cell.ctype for cell in self.design.circuit.cells.values()}.values()

    def _checkpoint_fingerprint(self, config: StaConfig) -> str:
        """Hash of everything that determines the iterative pass sequence
        -- a checkpoint is only resumable into the identical analysis."""
        blob = "|".join(
            str(part)
            for part in (
                self.design.name,
                self.calculator.fingerprint(self._cell_types()),
                config.mode.value,
                config.input_transition,
                config.guard,
                config.max_iterations,
                CONVERGENCE_TOLERANCE,
                config.esperance,
                ESPERANCE_SLACK,
                # The clock-aggressor model, a choice once; the blob keeps
                # its place so committed checkpoints still resume.
                "settled",
                SLEW_DEGRADATION_FACTOR,
                config.window_check.value,
            )
        )
        return hashlib.sha256(blob.encode()).hexdigest()

    def run(self, mode: AnalysisMode | None = None) -> StaResult:
        """Run one analysis mode (defaults to the configured one).

        When ``config.max_degraded`` is set and more arcs than that had
        to fall back to conservative substitute bounds, raises
        :class:`DegradationBudgetError` carrying the (still valid, but
        over-degraded) result on its ``result`` attribute.
        """
        config = self.config if mode is None else self.config.with_mode(mode)
        propagator = self._propagator_for(config)
        # One run, one ledger: each pass's arc_prov row ids index into it,
        # and a persistent session must not accumulate rows across
        # re-analyses.  The previous result keeps its own (replaced, not
        # cleared) ledger object, so its row ids stay valid.
        propagator.ledger = ProvenanceLedger()
        metrics_before = self.obs.metrics.snapshot()
        degraded_before = len(self.calculator.degraded)

        t0 = time.perf_counter()
        with self.obs.tracer.span(
            "sta.run", mode=config.mode.value, design=self.design.name
        ):
            if config.mode is AnalysisMode.ITERATIVE:
                checkpoint = None
                if config.checkpoint:
                    checkpoint = CheckpointManager(
                        config.checkpoint,
                        fingerprint=self._checkpoint_fingerprint(config),
                        propagator=propagator,
                    )
                iterative = run_iterative(propagator, checkpoint=checkpoint)
                final = iterative.final
                history = iterative.history
            else:
                final = propagator.run_pass()
                cells = len(propagator.order)
                history = [
                    IterationRecord.from_pass(
                        1, final, time.perf_counter() - t0, cells, cells
                    )
                ]
        runtime = time.perf_counter() - t0

        slack = None
        if config.clock_period is not None:
            with self.obs.tracer.span(
                "sta.slack", mode=config.mode.value, design=self.design.name
            ):
                slack = compute_slack(
                    self.design,
                    final,
                    config.clock_period,
                    config.setup_time,
                )
            metrics = self.obs.metrics
            metrics.counter("slack.runs").inc()
            metrics.counter("slack.endpoints").inc(len(slack.endpoints.slacks))
            metrics.counter("slack.violations").inc(slack.violations)
            metrics.gauge("slack.worst_ps").set(slack.worst_slack_ps)
            metrics.gauge("slack.seconds").set(slack.runtime_seconds)

        if config.arc_cache:
            with self.obs.tracer.span(
                "sta.arc_cache_save", path=str(config.arc_cache)
            ):
                self.calculator.save_cache_file(config.arc_cache, self._cell_types())

        phase_totals: dict[str, float] = {}
        for record in history:
            for phase, seconds in record.phase_seconds.items():
                phase_totals[phase] = phase_totals.get(phase, 0.0) + seconds

        telemetry = RunTelemetry(
            mode=config.mode.value,
            design=self.design.name,
            runtime_seconds=runtime,
            passes=[record.to_dict() for record in history],
            phase_seconds=phase_totals,
            metrics=diff_snapshots(metrics_before, self.obs.metrics.snapshot()),
        )

        degraded = list(self.calculator.degraded[degraded_before:])
        result = StaResult(
            mode=config.mode,
            design_name=self.design.name,
            longest_delay=final.longest_delay,
            critical_endpoint=final.critical_endpoint,
            critical_direction=final.critical_direction,
            runtime_seconds=runtime,
            waveform_evaluations=sum(r.waveform_evaluations for r in history),
            arcs_processed=final.arcs_processed,
            coupled_arcs=final.coupled_arcs,
            passes=len(history),
            history=history,
            final_pass=final,
            cache_stats=self.calculator.cache_stats(),
            phase_seconds=phase_totals,
            telemetry=telemetry,
            degraded_arcs=degraded,
            ledger=propagator.ledger,
            compile_seconds=self._compile_seconds,
            slack=slack,
        )
        if config.max_degraded is not None and len(degraded) > config.max_degraded:
            raise DegradationBudgetError(
                degraded=len(degraded),
                budget=config.max_degraded,
                result=result,
            )
        return result

    def run_all_modes(self) -> dict[AnalysisMode, StaResult]:
        """Run the paper's five modes (the rows of Tables 1-3).

        Each mode runs on a fresh arc cache, as it would alone: a shared
        cache would hand later modes the earlier modes' solves and report
        cache-warm times.  The modes share this analyzer's compiled design
        and observability."""
        calc = self.calculator
        results = {}
        for mode in AnalysisMode:
            sta = CrosstalkSTA(
                self.design,
                self.config,
                calculator=GateDelayCalculator(
                    process=calc.process,
                    metrics=self.obs.metrics,
                    strict=calc.strict,
                ),
                obs=self.obs,
            )
            sta._compiled = self.compiled_design()
            sta._compile_seconds = self._compile_seconds
            results[mode] = sta.run(mode)
        return results

    def critical_path(self, result: StaResult) -> CriticalPath:
        """Backtrace the longest path of a finished run."""
        assert result.final_pass is not None
        return extract_critical_path(self.design.circuit, result.final_pass)
