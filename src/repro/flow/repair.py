"""The physical edit primitives behind the ECO vocabulary.

Each function builds a new :class:`~repro.flow.design.Design` and leaves
its source untouched: :func:`respace_nets` re-routes victims with shield
spacing (the classic fix for a crosstalk-critical wire: no neighbour on
the adjacent tracks), :func:`adjust_coupling` sets or drops one coupling
capacitance, and :func:`upsize_drivers` strengthens victim drivers.
:func:`repro.flow.edits.apply_edit` validates an edit and dispatches to
these; the repair optimizer (:mod:`repro.flow.optimizer`) closes the
analyze -> rank -> fix -> re-analyze loop over them.
"""

from __future__ import annotations

from dataclasses import replace

from repro.flow.design import Design, NetLoad, _fixed_cap, _net_load
from repro.layout.extraction import extract
from repro.layout.routing import reroute_nets


def respace_nets(design: Design, nets: list[str], guard_tracks: int = 1) -> Design:
    """Re-route the given nets with shield spacing; placement is kept,
    extraction and loads are rebuilt.

    Every other net keeps its geometry (local rip-up-and-reroute).
    """
    routing = reroute_nets(
        design.circuit,
        design.placement,
        design.routing,
        nets,
        guard_tracks=guard_tracks,
        technology=design.technology,
    )
    extraction = extract(routing, design.technology)
    repaired = Design(
        circuit=design.circuit,
        placement=design.placement,
        routing=routing,
        extraction=extraction,
        process=design.process,
        technology=design.technology,
    )
    for net in design.circuit.nets.values():
        repaired.loads[net.name] = _net_load(net, extraction, design.process)
    return repaired


def adjust_coupling(
    design: Design, net: str, neighbour: str, cap: float = 0.0
) -> Design:
    """Set (or, with ``cap <= 0``, drop) one coupling capacitance,
    symmetrically on both nets' load views.

    This is the cheapest what-if edit: geometry and extraction are
    untouched and shared with the source design; only the two affected
    :class:`NetLoad` entries are replaced.  It models the effect of a
    planned fix (drop) or of a suspected extraction miss (add) without
    paying for a re-route.
    """
    from repro.errors import InputError

    if design.loads.get(net) is None:
        raise InputError(f"unknown net {net!r}")
    if design.loads.get(neighbour) is None:
        raise InputError(f"unknown net {neighbour!r}")
    if net == neighbour:
        raise InputError("a net cannot couple to itself")
    if cap <= 0.0 and neighbour not in design.loads[net].couplings:
        raise InputError(f"{net!r} has no coupling entry for {neighbour!r}")

    edited = Design(
        circuit=design.circuit,
        placement=design.placement,
        routing=design.routing,
        extraction=design.extraction,
        process=design.process,
        technology=design.technology,
    )
    edited.loads.update(design.loads)
    for name, other in ((net, neighbour), (neighbour, net)):
        old = edited.loads[name]
        couplings = dict(old.couplings)
        if cap <= 0.0:
            couplings.pop(other, None)
        else:
            couplings[other] = cap
        edited.loads[name] = NetLoad(
            net=old.net,
            c_fixed=old.c_fixed,
            couplings=couplings,
            sink_elmore=dict(old.sink_elmore),
        )
    return edited


_DRIVE_ORDER = ["X1", "X2", "X4"]


def upsize_drivers(design: Design, nets: list[str], steps: int = 1) -> Design:
    """Strengthen the drivers of the given nets by ``steps`` drive classes.

    The other classic crosstalk fix: a stronger victim driver recovers
    from the coupling glitch faster (and is harder to deflect in the
    first place).  The circuit is cloned with the affected cells swapped
    to their higher-drive variants.  A drive variant keeps its family's
    transistor count, so its footprint: the placement, routing and
    extraction are kept (so is any committed respace), and only the nets
    on the upsized cells' pins take a new fixed load, since their pin
    and driver caps move; they keep their coupling and wire-delay views.
    An upsize that would change a footprint raises :class:`InputError`.
    """
    from repro.circuit.netlist import Circuit
    from repro.errors import InputError

    source = design.circuit
    upsized: dict[str, str] = {}
    for net_name in nets:
        net = source.nets.get(net_name)
        if net is None:
            continue
        driver = net.driver_cell()
        if driver is None:
            continue
        base, _, drive = driver.ctype.name.rpartition("_")
        try:
            index = _DRIVE_ORDER.index(drive)
        except ValueError:
            continue
        new_drive = _DRIVE_ORDER[min(index + steps, len(_DRIVE_ORDER) - 1)]
        if new_drive != drive:
            upsized[driver.name] = f"{base}_{new_drive}"

    clone = Circuit(source.name, source.library)
    for name, port in source.inputs.items():
        if port.net is not None and port.net.is_clock:
            clone.add_clock(name)
        else:
            clone.add_input(name, net_name=port.net.name if port.net else None)
    for cell in source.cells.values():
        ctype_name = upsized.get(cell.name, cell.ctype.name)
        connections = {
            pin.name: pin.net.name for pin in cell.pins.values() if pin.net is not None
        }
        clone.add_cell(ctype_name, cell.name, connections)
    for name, port in source.outputs.items():
        clone.add_output(name, net_name=port.net.name if port.net else None)
    for name, net in source.nets.items():
        if net.is_clock and name in clone.nets:
            clone.nets[name].is_clock = True

    tech = design.technology
    touched: set[str] = set()
    for cell_name in upsized:
        before, after = source.cells[cell_name].ctype, clone.cells[cell_name].ctype
        if tech.cell_width(after.transistor_count()) != tech.cell_width(
            before.transistor_count()
        ):
            raise InputError(
                f"upsizing {cell_name!r} to {after.name} changes its footprint"
            )
        touched.update(
            pin.net.name
            for pin in clone.cells[cell_name].pins.values()
            if pin.net is not None
        )

    edited = Design(
        circuit=clone,
        placement=replace(design.placement, circuit=clone),
        routing=design.routing,
        extraction=design.extraction,
        process=design.process,
        technology=tech,
    )
    for name, net in clone.nets.items():
        load = design.loads[name]
        if name in touched:
            load = replace(
                load, c_fixed=_fixed_cap(net, design.extraction, design.process)
            )
        edited.loads[name] = load
    return edited
