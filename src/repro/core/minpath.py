"""Min-delay (hold) analysis with same-direction coupling speed-up.

The paper computes the *longest* path and explicitly leaves the dual out
of scope ("switching in the same direction may occur, but this is not
within the scope of this discussion").  This module implements that dual
as an extension: a guaranteed **lower bound** on the earliest arrival at
every capture point, where an aggressor switching in the *same* direction
as the victim injects a helping divider jump (the mirror image of
Section 2's opposing drop).

Conservatism is reversed everywhere relative to the max analysis:

* loads and input slews quantize *down* (faster),
* Elmore wire delay is omitted (it over-estimates; zero is a valid
  lower bound on wire delay),
* unknown aggressors are assumed to *help*,
* per (net, direction) the **earliest** event is kept.

The mode set mirrors the paper's table rows:

* ``NO_COUPLING`` -- all coupling capacitances grounded.  A comparison
  value; *not* a safe lower bound.
* ``WORST`` -- every aggressor always helps: the safe, pessimistic bound.
* ``ONE_STEP`` -- an aggressor that is provably quiet before the victim's
  earliest possible activity cannot help (mirror of Section 5.1).
* ``ITERATIVE`` -- the one-step pass repeated with stored windows until
  the bound stops increasing (mirror of Section 5.2).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping

from repro.circuit.netlist import Cell, Pin
from repro.core import columnar
from repro.core.columnar import DIR_INDEX, ColumnTimingState
from repro.core.graph import evaluation_order
from repro.core.modes import CONVERGENCE_TOLERANCE, StaConfig
from repro.core.propagation import EndpointArrival, ideal_ramp_event, init_sources
from repro.flow.design import Design
from repro.waveform.coupling import CouplingLoad
from repro.waveform.gatedelay import GateDelayCalculator
from repro.waveform.pwl import FALLING, RISING, opposite
from repro.waveform.ramp import RampEvent


class MinAnalysisMode(Enum):
    """Coupling treatments of the min-delay analysis."""

    NO_COUPLING = "min_no_coupling"
    WORST = "min_worst"
    ONE_STEP = "min_one_step"
    ITERATIVE = "min_iterative"

    @property
    def is_window_based(self) -> bool:
        return self in (MinAnalysisMode.ONE_STEP, MinAnalysisMode.ITERATIVE)


def merge_earliest(a: RampEvent | None, b: RampEvent | None) -> RampEvent | None:
    """Earliest-envelope merge: earliest crossing and activity, fastest
    transition, latest quiescence (the activity window is the union)."""
    if a is None:
        return b
    if b is None:
        return a
    if a.direction != b.direction:
        raise ValueError(f"cannot merge {a.direction} with {b.direction}")
    return RampEvent(
        direction=a.direction,
        t_cross=min(a.t_cross, b.t_cross),
        transition=min(a.transition, b.transition),
        t_early=min(a.t_early, b.t_early),
        t_late=max(a.t_late, b.t_late),
    )


@dataclass
class MinPassResult:
    """Outcome of one min-delay propagation pass."""

    state: ColumnTimingState
    arrivals: list[EndpointArrival] = field(default_factory=list)
    shortest_delay: float = float("inf")
    critical_endpoint: str = ""
    critical_direction: str = ""
    waveform_evaluations: int = 0
    arcs_processed: int = 0

    def arrival_map(self) -> dict[tuple[str, str], float]:
        return {(a.endpoint, a.direction): a.event.t_cross for a in self.arrivals}


@dataclass
class MinStaResult:
    """Result of a min-delay analysis run."""

    mode: MinAnalysisMode
    design_name: str
    shortest_delay: float
    critical_endpoint: str
    critical_direction: str
    runtime_seconds: float
    waveform_evaluations: int
    passes: int
    final_pass: MinPassResult | None = None

    @property
    def shortest_delay_ns(self) -> float:
        return self.shortest_delay * 1e9

    def arrival_map(self) -> dict[tuple[str, str], float]:
        assert self.final_pass is not None
        return self.final_pass.arrival_map()


class MinPropagator:
    """Earliest-arrival propagation with helping coupling.

    Its passes build the same :class:`ColumnTimingState` as the max
    analysis; ``compiled`` shares an analyzer's compilation of the
    design instead of compiling it again.
    """

    def __init__(
        self,
        design: Design,
        config: StaConfig | None = None,
        calculator: GateDelayCalculator | None = None,
        compiled: columnar.CompiledDesign | None = None,
    ):
        self.design = design
        self.config = config if config is not None else StaConfig()
        self.calculator = (
            calculator
            if calculator is not None
            else GateDelayCalculator(process=design.process)
        )
        self.compiled = (
            compiled if compiled is not None else columnar.compile_design(design)
        )
        self.order = evaluation_order(design.circuit)

    # -- pass driver -----------------------------------------------------------

    def run_pass(
        self,
        mode: MinAnalysisMode,
        prev_windows: Mapping[tuple[str, str], tuple[float, float]] | None = None,
    ) -> MinPassResult:
        state = ColumnTimingState(self.compiled)
        result = MinPassResult(state=state)
        init_sources(state, self.design, self.config.input_transition)

        net_id = self.compiled.net_id
        for cell in self.order:
            out_net = cell.output_pin.net
            if out_net is None:
                continue
            out = net_id[out_net.name]
            state.present[out] = True
            if cell.is_sequential:
                self._process_flip_flop(cell, out, mode, state, prev_windows, result)
            else:
                self._process_gate(cell, out, mode, state, prev_windows, result)
            state.processed_mask[out] = True

        self._collect_arrivals(state, result)
        return result

    def run(self, mode: MinAnalysisMode) -> MinStaResult:
        """Run one min-analysis mode to completion."""
        t0 = time.perf_counter()
        passes = 1
        final = self.run_pass(mode)
        if mode is MinAnalysisMode.ITERATIVE:
            best = final
            while passes < self.config.max_iterations:
                windows = best.state.window_snapshot()
                nxt = self.run_pass(MinAnalysisMode.ITERATIVE, prev_windows=windows)
                passes += 1
                improved = (
                    nxt.shortest_delay
                    > best.shortest_delay + CONVERGENCE_TOLERANCE
                )
                if nxt.shortest_delay > best.shortest_delay:
                    best = nxt
                if not improved:
                    break
            final = best
        return MinStaResult(
            mode=mode,
            design_name=self.design.name,
            shortest_delay=final.shortest_delay,
            critical_endpoint=final.critical_endpoint,
            critical_direction=final.critical_direction,
            runtime_seconds=time.perf_counter() - t0,
            waveform_evaluations=final.waveform_evaluations,
            passes=passes,
            final_pass=final,
        )

    # -- internals --------------------------------------------------------------

    @staticmethod
    def _merge(state: ColumnTimingState, out: int, event: RampEvent) -> None:
        """Fold ``event`` into net ``out``'s earliest envelope."""
        d = DIR_INDEX[event.direction]
        merged = merge_earliest(state.event_at(d, out), event)
        state.set_event(
            d, out, merged.t_cross, merged.transition, merged.t_early, merged.t_late
        )

    def _process_gate(self, cell: Cell, out, mode, state, prev_windows, result) -> None:
        out_net = cell.output_pin.net
        for pin in cell.input_pins:
            in_net = pin.net
            if in_net is None:
                continue
            for direction in (RISING, FALLING):
                event = state.event(in_net.name, direction)
                if event is None:
                    continue
                # No wire delay: zero is the only guaranteed lower bound.
                out_event = self._compute_output_event(
                    cell, pin.name, event, out_net.name, mode, state, prev_windows, result
                )
                self._merge(state, out, out_event)

    def _process_flip_flop(
        self, cell: Cell, out, mode, state, prev_windows, result
    ) -> None:
        process = self.design.process
        out_net = cell.output_pin.net
        clk_net = cell.pins["CLK"].net
        clk_event = None
        if clk_net is not None:
            clk_event = state.event(clk_net.name, RISING) or state.event(
                clk_net.name, FALLING
            )
        if clk_event is None:
            clk_event = ideal_ramp_event(
                RISING, 0.0, self.config.input_transition, process.vdd, process.v_th_model
            )
        launch_cross = clk_event.t_cross + cell.ctype.clk_to_q
        for out_direction in (RISING, FALLING):
            internal = ideal_ramp_event(
                opposite(out_direction),
                launch_cross - 0.5 * clk_event.transition,
                clk_event.transition,
                process.vdd,
                process.v_th_model,
            )
            out_event = self._compute_output_event(
                cell, "A", internal, out_net.name, mode, state, prev_windows, result
            )
            self._merge(state, out, out_event)

    def _compute_output_event(
        self, cell, pin_name, arrival, out_net_name, mode, state, prev_windows, result
    ) -> RampEvent:
        load = self.design.loads[out_net_name]
        result.arcs_processed += 1

        if mode is MinAnalysisMode.NO_COUPLING or not load.couplings:
            result.waveform_evaluations += 1
            arc = self.calculator.compute_arc_relative(
                cell.ctype,
                pin_name,
                arrival.direction,
                arrival.transition,
                CouplingLoad(c_ground=load.c_fixed + load.c_coupling_total),
                quantize_down=True,
            )
            return arc.to_event(arrival.t_cross - 0.5 * arrival.transition)

        if mode is MinAnalysisMode.WORST:
            c_helping = load.c_coupling_total
        else:
            c_helping = self._helping_cap(
                cell, pin_name, arrival, load, state, prev_windows, result
            )

        result.waveform_evaluations += 1
        arc = self.calculator.compute_arc_relative(
            cell.ctype,
            pin_name,
            arrival.direction,
            arrival.transition,
            CouplingLoad(
                c_ground=load.c_fixed + (load.c_coupling_total - c_helping),
                c_couple_active=c_helping,
            ),
            aiding=c_helping > 0,
            quantize_down=True,
        )
        return arc.to_event(arrival.t_cross - 0.5 * arrival.transition)

    def _helping_cap(
        self, cell, pin_name, arrival, load, state, prev_windows, result
    ) -> float:
        """One-step decision, mirrored: compute the fastest (all-helping)
        waveform; an aggressor that is provably quiet before even that
        waveform's earliest activity cannot help."""
        result.waveform_evaluations += 1
        fastest = self.calculator.compute_arc_relative(
            cell.ctype,
            pin_name,
            arrival.direction,
            arrival.transition,
            CouplingLoad(c_ground=load.c_fixed, c_couple_active=load.c_coupling_total),
            aiding=True,
            quantize_down=True,
        ).to_event(arrival.t_cross - 0.5 * arrival.transition)
        t_earliest = fastest.t_early
        victim_direction = fastest.direction  # aggressors help in the SAME direction
        guard = self.config.guard

        helping = 0.0
        for other, cap in load.couplings.items():
            t_early, t_quiet = self._aggressor_window(
                other, victim_direction, state, prev_windows
            )
            if t_quiet > t_earliest - guard:
                helping += cap
        return helping

    def _aggressor_window(self, net_name, direction, state, prev_windows):
        net = self.compiled.net_id.get(net_name)
        if net is not None and state.processed_mask[net]:
            event = state.event_at(DIR_INDEX[direction], net)
            if event is None:
                return float("inf"), float("-inf")
            return event.t_early, event.t_late
        if prev_windows is not None:
            return prev_windows.get((net_name, direction), (float("inf"), float("-inf")))
        return float("-inf"), float("inf")

    def _collect_arrivals(
        self, state: ColumnTimingState, result: MinPassResult
    ) -> None:
        for endpoint in self.design.circuit.timing_endpoints():
            net = endpoint.net
            if net is None:
                continue
            terminal = (
                endpoint.full_name if isinstance(endpoint, Pin) else endpoint.name
            )
            for direction in (RISING, FALLING):
                event = state.event(net.name, direction)
                if event is None:
                    continue
                result.arrivals.append(
                    EndpointArrival(endpoint=terminal, direction=direction, event=event)
                )
                if event.t_cross < result.shortest_delay:
                    result.shortest_delay = event.t_cross
                    result.critical_endpoint = terminal
                    result.critical_direction = direction
