"""Iterative aggressor alignment.

The paper's validation runs required that "piecewise linear sources had to
be iteratively adjusted to obtain worst-case path delays at every coupling
capacitance" (Section 6).  This module implements that adjustment as a
fixed-point iteration: simulate, observe when each victim actually crosses
its trigger voltage, move each aggressor's switching instant there, and
repeat until the endpoint delay stops increasing.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field

from repro.spice.measure import crossing, last_crossing
from repro.spice.transient import TransientResult, TransientSimulator
from repro.validate.pathsim import AggressorHandle, PathCircuit
from repro.waveform.coupling import CouplingLoad

# Transient steps per path simulation.  On s27, 2,400 steps move each
# simulated delay by at most 1 ps (0.15%) and take 1.5x as long (four
# modes through check_bounds on a 2-vCPU x86 container).
SIM_STEPS = 1600

# (net, direction) -> (earliest activity, quiescent time) of an aggressor.
Windows = Mapping[tuple[str, str], tuple[float, float]]


@dataclass
class AlignmentRecord:
    """One alignment iteration."""

    iteration: int
    endpoint_arrival: float
    moved: float  # largest aggressor-time adjustment this round


@dataclass
class SimulationOutcome:
    """Measured results of one (aligned or quiet) path simulation."""

    endpoint_arrival: float
    stimulus_cross: float
    result: TransientResult
    history: list[AlignmentRecord] = field(default_factory=list)

    @property
    def path_delay(self) -> float:
        """Launch-to-capture delay (endpoint arrival, the quantity the
        paper's tables report)."""
        return self.endpoint_arrival


def simulate_path(circuit: PathCircuit, steps: int = SIM_STEPS) -> SimulationOutcome:
    """One transient run of the path circuit as currently configured."""
    sim = TransientSimulator(circuit.sim)
    dt = circuit.t_horizon / steps
    result = sim.run(
        t_stop=circuit.t_horizon,
        dt=dt,
        initial_voltages=circuit.initial_voltages,
    )
    vdd = circuit.design.process.vdd
    endpoint_arrival = last_crossing(
        result, circuit.endpoint_node, 0.5 * vdd, circuit.endpoint_direction
    )
    stimulus_cross = crossing(
        result, circuit.stimulus_node, 0.5 * vdd, circuit.stimulus_direction
    )
    return SimulationOutcome(
        endpoint_arrival=endpoint_arrival,
        stimulus_cross=stimulus_cross,
        result=result,
    )


def quiet_simulation(circuit: PathCircuit, steps: int = SIM_STEPS) -> SimulationOutcome:
    """Simulate with all aggressors held at their initial rails (coupling
    capacitances still present, i.e. the best-case assumption)."""
    saved = [h.t_switch for h in circuit.aggressors]
    for handle in circuit.aggressors:
        handle.t_switch = circuit.t_never
    circuit.rebuild_sources()
    try:
        return simulate_path(circuit, steps)
    finally:
        for handle, t in zip(circuit.aggressors, saved):
            handle.t_switch = t
        circuit.rebuild_sources()


def _place(
    circuit: PathCircuit,
    handle: AggressorHandle,
    target: float,
    windows: Windows | None,
) -> float:
    """The switching time nearest ``target`` at which the aggressor's
    whole ramp fits its feasible window, or ``circuit.t_never`` when
    none does."""
    if windows is None:
        return target
    earliest, quiet = windows.get(
        (handle.aggressor_net, handle.direction), (math.inf, -math.inf)
    )
    latest = quiet - handle.transition
    if quiet == -math.inf or earliest > latest:
        # Never makes this transition, or its window is too narrow for
        # the ramp: hold it quiet.
        return circuit.t_never
    return min(max(target, earliest), latest)


def align_aggressors(
    circuit: PathCircuit,
    windows: Windows | None = None,
    max_iterations: int = 5,
    steps: int = SIM_STEPS,
) -> SimulationOutcome:
    """Fixed-point alignment of every aggressor source.

    Each iteration simulates the path, then re-times every aggressor so
    its swing is centred on the moment its victim crosses the trigger
    voltage of the coupling model (the empirically worst instant: the
    divider drop then pulls the victim back the farthest without being
    absorbed by the driver early in the transition).

    ``windows`` optionally confines each aggressor to its feasible window
    ``(earliest, quiet)`` per (net, direction), taken from an STA pass: its
    ramp may start no earlier than ``earliest`` and must complete by
    ``quiet``.  The paper's one-sided check is a window whose early edge
    is minus infinity.  An aggressor with no window, or one too narrow for
    its ramp, is held quiet.  The starting positions are placed the same
    way, so every simulated scenario is feasible.  Unconstrained alignment
    validates the worst-case mode; constrained alignment validates the
    window-based modes, whose whole point is that some aggressors are
    provably quiet by the time the victim switches.
    """
    vdd = circuit.design.process.vdd
    process = circuit.design.process
    for handle in circuit.aggressors:
        handle.t_switch = _place(circuit, handle, handle.t_switch, windows)
    circuit.rebuild_sources()

    best: SimulationOutcome | None = None
    history: list[AlignmentRecord] = []
    for iteration in range(1, max_iterations + 1):
        outcome = simulate_path(circuit, steps)
        if best is None or outcome.endpoint_arrival > best.endpoint_arrival:
            best = outcome

        moved = 0.0
        for handle in circuit.aggressors:
            victim_dir = circuit.net_direction[handle.victim_net]
            load = circuit.design.loads[handle.victim_net]
            trigger = CouplingLoad(
                c_ground=load.c_fixed + load.c_coupling_total - handle.coupling_cap,
                c_couple_active=handle.coupling_cap,
            ).trigger_voltage(victim_dir, process)
            trigger = min(max(trigger, 0.05 * vdd), 0.95 * vdd)
            probe = circuit.net_probe[handle.victim_net]
            try:
                t_trigger = crossing(outcome.result, probe, trigger, victim_dir)
            except ValueError:
                continue
            target = _place(
                circuit, handle, t_trigger - 0.5 * handle.transition, windows
            )
            moved = max(moved, abs(target - handle.t_switch))
            handle.t_switch = target
        circuit.rebuild_sources()
        history.append(
            AlignmentRecord(
                iteration=iteration,
                endpoint_arrival=outcome.endpoint_arrival,
                moved=moved,
            )
        )
        if moved < 1e-12:  # no aggressor moved: converged
            break

    assert best is not None
    best.history = history
    return best
