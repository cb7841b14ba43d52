"""Build a transistor-level simulation circuit for a critical path.

Reproduces the paper's validation methodology (Section 6): "The
simulations of the longest paths were done with lumped resistances and
capacitances extracted from the layout", with the coupling capacitances
attached to piecewise-linear aggressor sources.

The simulation circuit contains, for every stage on the path:

* the driving cell's full transistor network (internal stack nodes
  included), side inputs tied to their non-controlling rails,
* explicit gate and drain-junction capacitances for each device,
* the extracted RC tree of the output net with off-path sink pin loads,
* one floating coupling capacitance per extracted neighbour, attached to
  a PWL aggressor source (or, when the neighbour itself lies on the path,
  directly between the two victim nets).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.circuit.netlist import Cell, Pin
from repro.core.columnar import ColumnTimingState
from repro.core.paths import CriticalPath, PathStep
from repro.devices.mosfet import Mosfet, MosfetParams
from repro.flow.design import Design
from repro.spice.netlist import SimCircuit
from repro.spice.elements import PwlSource
from repro.waveform.pwl import FALLING, RISING, opposite

_MIN_TREE_RESISTANCE = 1e-3  # ohms; stands in for zero-length tree edges

VDD_NODE = "vdd"
GND_NODE = "0"


@dataclass
class AggressorHandle:
    """One adjustable aggressor source in the path circuit."""

    victim_net: str
    aggressor_net: str
    node: str
    coupling_cap: float
    direction: str  # the aggressor's own transition direction
    t_switch: float
    transition: float

    def pwl_points(self, vdd: float) -> list[tuple[float, float]]:
        ramp = max(self.transition, 1e-15)
        if self.direction == RISING:
            v0, v1 = 0.0, vdd
        else:
            v0, v1 = vdd, 0.0
        return [(self.t_switch, v0), (self.t_switch + ramp, v1)]


@dataclass
class PathCircuit:
    """The assembled simulation circuit plus its measurement metadata."""

    sim: SimCircuit
    design: Design
    path: CriticalPath
    stimulus_node: str
    stimulus_direction: str
    stimulus_t_start: float
    stimulus_transition: float
    endpoint_node: str
    endpoint_direction: str
    net_probe: dict[str, str] = field(default_factory=dict)
    net_direction: dict[str, str] = field(default_factory=dict)
    aggressors: list[AggressorHandle] = field(default_factory=list)
    initial_voltages: dict[str, float] = field(default_factory=dict)
    t_horizon: float = 0.0

    @property
    def t_never(self) -> float:
        """A switching time past the horizon: the aggressor stays quiet."""
        return self.t_horizon * 10.0

    def rebuild_sources(self) -> None:
        """Re-emit the aggressor PWL points after alignment changes.

        Aggressor sources are stored by reference in the sim circuit, so
        replacing their points requires rebuilding the source list.
        """
        vdd = self.design.process.vdd
        keep = [
            s
            for s in self.sim.sources
            if not s.a.startswith("aggr::")
        ]
        self.sim.sources = keep
        for handle in self.aggressors:
            self.sim.add_source(
                PwlSource(handle.node, GND_NODE, handle.pwl_points(vdd))
            )


def build_path_circuit(
    design: Design,
    path: CriticalPath,
    state: ColumnTimingState,
    aggressor_transition: float = 10e-12,
    distributed_coupling: bool = False,
) -> PathCircuit:
    """Assemble the simulation circuit for a critical path.

    ``distributed_coupling`` spreads each victim's coupling capacitance
    uniformly over its RC-tree nodes instead of lumping it at the driver
    -- the fidelity experiment for the paper's noted model restriction
    ("the model ... is restricted to lumped capacitances").
    """
    if not path.steps:
        raise ValueError("cannot simulate an empty path")
    builder = _PathBuilder(
        design, path, state, aggressor_transition, distributed_coupling
    )
    return builder.build()


class _PathBuilder:
    def __init__(
        self,
        design: Design,
        path: CriticalPath,
        state: ColumnTimingState,
        aggressor_transition: float,
        distributed_coupling: bool,
    ):
        self.design = design
        self.path = path
        self.state = state
        self.aggressor_transition = aggressor_transition
        self.distributed_coupling = distributed_coupling
        self.process = design.process
        self.sim = SimCircuit(f"path::{path.endpoint}")
        self.initial: dict[str, float] = {VDD_NODE: self.process.vdd}
        self.net_probe: dict[str, str] = {}
        self.net_direction: dict[str, str] = {}
        self.aggressors: list[AggressorHandle] = []

    # -- top level ----------------------------------------------------------

    def build(self) -> PathCircuit:
        design = self.design
        process = self.process
        self.sim.add_vdc(VDD_NODE, process.vdd)

        steps = self.path.steps
        first_comb = 0
        if design.circuit.cells[steps[0].cell].is_sequential:
            first_comb = 1

        # Record each on-path net's transition direction.
        if first_comb == 0:
            self.net_direction[steps[0].in_net] = steps[0].in_direction
        for step in steps[first_comb:]:
            self.net_direction.setdefault(step.in_net, step.in_direction)
            self.net_direction[step.out_net] = step.out_direction
        if first_comb == 1:
            self.net_direction[steps[0].out_net] = steps[0].out_direction

        # Stimulus: the launch transition on the path's source net.
        if first_comb == 1:
            source_net = steps[0].out_net
            source_dir = steps[0].out_direction
            source_event = self.state.event(source_net, source_dir)
        else:
            source_net = steps[0].in_net
            source_dir = steps[0].in_direction
            source_event = self.state.event(source_net, source_dir)
        if source_event is None:
            raise ValueError(f"no event recorded on source net {source_net!r}")
        stim_transition = max(source_event.transition, 1e-12)
        stim_start = source_event.t_cross - 0.5 * stim_transition

        # Wire networks for every on-path net (source included).
        for net_name in self.net_direction:
            self._add_net_wires(net_name)

        # Gate stages.
        for step in steps[first_comb:]:
            self._add_stage(step)

        # Stimulus source at the source net's driver node.
        stim_node = self._net_root(source_net)
        v0 = 0.0 if source_dir == RISING else process.vdd
        v1 = process.vdd - v0
        self.sim.add_source(
            PwlSource(stim_node, GND_NODE, [(stim_start, v0), (stim_start + stim_transition, v1)])
        )
        self.initial[stim_node] = v0

        # Coupling capacitances and aggressor sources.
        self._add_coupling()

        # Endpoint probe.
        last = steps[-1]
        endpoint_node = self._endpoint_node(last)
        endpoint_event = self.state.event(last.out_net, last.out_direction)
        horizon = (
            (endpoint_event.t_late if endpoint_event is not None else 0.0)
            * 1.6
            + 2e-9
        )

        circuit = PathCircuit(
            sim=self.sim,
            design=self.design,
            path=self.path,
            stimulus_node=stim_node,
            stimulus_direction=source_dir,
            stimulus_t_start=stim_start,
            stimulus_transition=stim_transition,
            endpoint_node=endpoint_node,
            endpoint_direction=last.out_direction,
            net_probe=self.net_probe,
            net_direction=self.net_direction,
            aggressors=self.aggressors,
            initial_voltages=self.initial,
            t_horizon=horizon,
        )
        circuit.rebuild_sources()
        return circuit

    # -- pieces --------------------------------------------------------------

    def _net_root(self, net_name: str) -> str:
        """Simulator node at the driver output of a net."""
        probe = self.net_probe.get(net_name)
        if probe is not None:
            return probe
        # Unrouted net: a single shared node.
        node = f"net::{net_name}"
        self.net_probe[net_name] = node
        return node

    def _net_sink_node(self, net_name: str, terminal: str) -> str:
        """Simulator node at a sink terminal of a net."""
        pnet = self.design.extraction.nets.get(net_name)
        if pnet is None:
            return self._net_root(net_name)
        names = set(pnet.rc_tree.terminal_names())
        if terminal in names:
            return f"{net_name}::{terminal}"
        return self._net_root(net_name)

    def _add_net_wires(self, net_name: str) -> None:
        """Instantiate the extracted RC tree of a net, plus off-path sink
        pin loads."""
        process = self.process
        net = self.design.circuit.nets.get(net_name)
        direction = self.net_direction[net_name]
        initial = 0.0 if direction == RISING else process.vdd

        pnet = self.design.extraction.nets.get(net_name)
        if pnet is None:
            node = self._net_root(net_name)
            self.initial[node] = initial
            load = self.design.loads.get(net_name)
            if load is not None and load.c_fixed > 0:
                self.sim.add_capacitor(node, GND_NODE, load.c_fixed)
            return

        tree = pnet.rc_tree
        node_names: list[str] = []
        for tree_node in tree.nodes:
            if tree_node.name:
                name = f"{net_name}::{tree_node.name}"
            else:
                name = f"{net_name}::t{tree_node.index}"
            node_names.append(name)
            self.initial[name] = initial
            if tree_node.cap > 0:
                self.sim.add_capacitor(name, GND_NODE, tree_node.cap)
            if tree_node.parent >= 0:
                self.sim.add_resistor(
                    node_names[tree_node.parent],
                    name,
                    max(tree_node.r_to_parent, _MIN_TREE_RESISTANCE),
                )
        self.net_probe[net_name] = node_names[tree.root]

        # Pin loads of sinks whose gates are not instantiated.
        on_path_cells = {step.cell for step in self.path.steps}
        if net is not None:
            for sink in net.sinks:
                if isinstance(sink, Pin) and sink.cell.name in on_path_cells:
                    continue  # physical transistors provide this load
                terminal = sink.full_name if isinstance(sink, Pin) else sink.name
                cap = 0.0
                if isinstance(sink, Pin):
                    cap = sink.cell.ctype.input_cap(sink.name, process)
                if cap > 0:
                    self.sim.add_capacitor(
                        self._net_sink_node(net_name, terminal), GND_NODE, cap
                    )

    def _add_stage(self, step: PathStep) -> None:
        """Instantiate one on-path cell at transistor level."""
        process = self.process
        cell = self.design.circuit.cells[step.cell]
        ctype = cell.ctype
        out_node = self._net_root(step.out_net)
        in_node = self._net_sink_node(step.in_net, f"{step.cell}/{step.in_pin}")

        side_values = _sensitizing_side_inputs(ctype, step.in_pin)
        devices = ctype.topology.flatten(
            output=out_node, vdd=VDD_NODE, gnd=GND_NODE, prefix=step.cell
        )
        for index, flat in enumerate(devices):
            if flat.gate_pin == step.in_pin:
                gate_node = in_node
            else:
                gate_node = VDD_NODE if side_values[flat.gate_pin] else GND_NODE
            device = Mosfet(
                MosfetParams(polarity=flat.polarity, width=flat.width, length=process.l_min),
                process,
            )
            self.sim.add_mosfet(
                f"{step.cell}.m{index}", flat.drain, gate_node, flat.source, device
            )
            # Device parasitics the collapsed timing model accounts for via
            # pin/junction caps: make them physical here.
            self.sim.add_capacitor(gate_node, GND_NODE, process.gate_cap(flat.width))
            self.sim.add_capacitor(flat.drain, GND_NODE, process.c_junction * flat.width)
            # Internal stack nodes start near their conducting rail.
            for terminal in (flat.drain, flat.source):
                if terminal.startswith(step.cell + "."):
                    self.initial.setdefault(
                        terminal,
                        0.0 if flat.polarity > 0 else process.vdd,
                    )

    def _victim_attachment_nodes(self, net_name: str) -> list[str]:
        """Where a victim's coupling capacitance attaches: the driver node
        (lumped, the model's assumption) or spread over the wire's tree
        nodes (distributed)."""
        if not self.distributed_coupling:
            return [self._net_root(net_name)]
        pnet = self.design.extraction.nets.get(net_name)
        if pnet is None:
            return [self._net_root(net_name)]
        nodes = []
        for tree_node in pnet.rc_tree.nodes:
            if tree_node.name:
                nodes.append(f"{net_name}::{tree_node.name}")
            else:
                nodes.append(f"{net_name}::t{tree_node.index}")
        return nodes

    def _add_coupling(self) -> None:
        """Attach every extracted coupling capacitance of on-path nets."""
        process = self.process
        done_pairs: set[tuple[str, str]] = set()
        for net_name, direction in self.net_direction.items():
            load = self.design.loads.get(net_name)
            if load is None:
                continue
            attach = self._victim_attachment_nodes(net_name)
            for other, cap in load.couplings.items():
                if cap <= 0:
                    continue
                if other in self.net_direction:
                    # Neighbour is itself on the path: real victim-victim
                    # coupling, one capacitor for the pair.
                    key = (min(net_name, other), max(net_name, other))
                    if key in done_pairs:
                        continue
                    done_pairs.add(key)
                    self.sim.add_capacitor(
                        self._net_root(net_name), self._net_root(other), cap
                    )
                    continue
                aggressor_dir = opposite(direction)
                node = f"aggr::{net_name}::{other}"
                event = self.state.event(net_name, direction)
                t_guess = event.t_early if event is not None else 0.0
                handle = AggressorHandle(
                    victim_net=net_name,
                    aggressor_net=other,
                    node=node,
                    coupling_cap=cap,
                    direction=aggressor_dir,
                    t_switch=t_guess,
                    transition=self.aggressor_transition,
                )
                self.aggressors.append(handle)
                share = cap / len(attach)
                for victim_node in attach:
                    self.sim.add_capacitor(victim_node, node, share)
                self.initial[node] = 0.0 if aggressor_dir == RISING else process.vdd

    def _endpoint_node(self, last: PathStep) -> str:
        """Node where the endpoint arrival is measured: the endpoint
        terminal on the last net's tree if present, else the driver."""
        pnet = self.design.extraction.nets.get(last.out_net)
        if pnet is None:
            return self._net_root(last.out_net)
        terminals = pnet.rc_tree.terminal_names()
        endpoint = self.path.endpoint
        if endpoint in terminals:
            return f"{last.out_net}::{endpoint}"
        return self._net_root(last.out_net)


def _sensitizing_side_inputs(ctype, switching_pin: str) -> dict[str, bool]:
    """Pick constant values for the non-switching inputs so the output
    follows the switching pin (the gate is sensitized)."""
    others = [p for p in ctype.inputs if p != switching_pin]
    if ctype.function is None:
        # Sequential cell output driver is an inverter on "A".
        return {}
    for assignment in itertools.product((True, False), repeat=len(others)):
        values = dict(zip(others, assignment))
        lo = dict(values)
        hi = dict(values)
        lo[switching_pin] = False
        hi[switching_pin] = True
        if ctype.evaluate(lo) != ctype.evaluate(hi):
            return values
    raise ValueError(
        f"cannot sensitize {ctype.name} through pin {switching_pin!r}"
    )
