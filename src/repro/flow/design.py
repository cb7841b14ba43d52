"""The prepared design: netlist + physical data in timing-ready form.

``prepare_design`` runs the full physical flow (place, route, extract) and
precomputes everything the timing engine consumes per net: fixed load,
coupling neighbours, per-sink Elmore delays.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.circuit.netlist import Circuit, Net, Pin, Port
from repro.devices.params import ProcessParams, default_process
from repro.interconnect.elmore import sink_delays
from repro.layout.extraction import ExtractionResult, extract
from repro.layout.placement import Placement, place
from repro.layout.routing import RoutingResult, route
from repro.layout.technology import Technology, default_technology


@dataclass
class NetLoad:
    """Timing-ready electrical view of one net.

    ``c_fixed`` is the always-grounded part of the driver's load: wire
    ground capacitance, sink pin capacitances and the driver's output
    junction capacitance.  ``couplings`` maps neighbour net names to the
    extracted coupling capacitance.  ``sink_elmore`` maps sink terminal
    full-names to the Elmore wire delay from the driver.
    """

    net: str
    c_fixed: float
    couplings: dict[str, float] = field(default_factory=dict)
    sink_elmore: dict[str, float] = field(default_factory=dict)

    @property
    def c_coupling_total(self) -> float:
        return sum(self.couplings.values())


@dataclass
class Design:
    """A circuit with completed physical design and extracted parasitics."""

    circuit: Circuit
    placement: Placement
    routing: RoutingResult
    extraction: ExtractionResult
    process: ProcessParams
    technology: Technology
    loads: dict[str, NetLoad] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.circuit.name

    def coupling_cap_total(self) -> float:
        return sum(load.c_coupling_total for load in self.loads.values()) / 2.0


def prepare_design(
    circuit: Circuit,
    technology: Technology | None = None,
    process: ProcessParams | None = None,
) -> Design:
    """Run placement, routing and extraction; build per-net load views."""
    tech = technology if technology is not None else default_technology()
    proc = process if process is not None else default_process()
    placement = place(circuit, tech)
    routing = route(circuit, placement, tech)
    extraction = extract(routing, tech)

    design = Design(
        circuit=circuit,
        placement=placement,
        routing=routing,
        extraction=extraction,
        process=proc,
        technology=tech,
    )
    for net in circuit.nets.values():
        design.loads[net.name] = _net_load(net, extraction, proc)
    return design


def _net_load(net: Net, extraction: ExtractionResult, proc: ProcessParams) -> NetLoad:
    c_fixed = _fixed_cap(net, extraction, proc)
    pnet = extraction.nets.get(net.name)
    if pnet is None:
        return NetLoad(net=net.name, c_fixed=c_fixed)
    return NetLoad(
        net=net.name,
        c_fixed=c_fixed,
        couplings=dict(pnet.couplings),
        sink_elmore=sink_delays(pnet.rc_tree),
    )


def _fixed_cap(net: Net, extraction: ExtractionResult, proc: ProcessParams) -> float:
    """The net's ``NetLoad.c_fixed``: wire ground capacitance (when
    routed), sink pin capacitances and the driver's junction capacitance."""
    c_pins = 0.0
    for sink in net.sinks:
        if isinstance(sink, Pin):
            c_pins += sink.cell.ctype.input_cap(sink.name, proc)
    c_driver = 0.0
    driver = net.driver
    if isinstance(driver, Pin):
        c_driver = driver.cell.ctype.output_parasitic_cap(proc)

    pnet = extraction.nets.get(net.name)
    if pnet is None:
        return c_pins + c_driver
    return pnet.c_wire_ground + c_pins + c_driver
