"""Row-based standard-cell placement.

A lightweight timing-driven-ish placer: cells are sorted by logic level so
that connected cells land in nearby rows/columns, then packed into rows of
roughly equal width (serpentine order).  Ports sit on the die edges.  The
point of this placer is not optimality -- it is to give the router and the
extractor realistic geometry: mostly-short nets with a tail of long ones,
and many parallel adjacent runs in the channels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.circuit.netlist import Circuit
from repro.layout.geometry import Point
from repro.layout.technology import Technology, default_technology


@dataclass
class Placement:
    """Placement result: cell and port locations (um).

    ``row_pitch`` is the realised row spacing: at least the technology's
    ``row_height``, stretched when routing demand needs taller channels
    (channel-routed designs grow their channels to fit; see
    :func:`_stretch_for_routability`).
    """

    circuit: Circuit
    technology: Technology
    cell_pos: dict[str, Point] = field(default_factory=dict)
    port_pos: dict[str, Point] = field(default_factory=dict)
    n_rows: int = 0
    die_width: float = 0.0
    die_height: float = 0.0
    row_pitch: float = 0.0

    def location(self, terminal: str) -> Point:
        """Location of a cell (by name) or port (by name)."""
        pos = self.cell_pos.get(terminal)
        if pos is not None:
            return pos
        pos = self.port_pos.get(terminal)
        if pos is not None:
            return pos
        raise KeyError(f"unknown terminal {terminal!r}")

    def total_wirelength_estimate(self) -> float:
        """Half-perimeter wirelength estimate over all nets (um)."""
        total = 0.0
        for net in self.circuit.nets.values():
            points = []
            if net.driver is not None:
                points.append(self._terminal_point(net.driver))
            for sink in net.sinks:
                points.append(self._terminal_point(sink))
            if len(points) < 2:
                continue
            xs = [p.x for p in points]
            ys = [p.y for p in points]
            total += (max(xs) - min(xs)) + (max(ys) - min(ys))
        return total

    def _terminal_point(self, pin_or_port) -> Point:
        cell = getattr(pin_or_port, "cell", None)
        if cell is not None:
            return self.cell_pos[cell.name]
        return self.port_pos[pin_or_port.name]


def place(
    circuit: Circuit,
    technology: Technology | None = None,
    refine_iterations: int = 8,
) -> Placement:
    """Place the circuit's cells into rows.

    Two phases: a serpentine seed placement in topological order, then
    ``refine_iterations`` rounds of force-directed refinement (each cell
    pulled to the centroid of its connected cells) with row legalization.
    """
    tech = technology if technology is not None else default_technology()
    cells = _ordered_cells(circuit)
    widths = {c.name: tech.cell_width(c.ctype.transistor_count()) for c in cells}
    total_width = sum(widths.values())

    # Near-square die: n_rows * row_height ~ total_width / n_rows.
    n_rows = max(1, round(math.sqrt(total_width / tech.row_height)))
    row_capacity = total_width / n_rows * 1.15

    placement = Placement(circuit=circuit, technology=tech, n_rows=n_rows)
    placement.die_width = row_capacity
    placement.die_height = n_rows * tech.row_height

    _legalize(placement, cells, widths, [i for i, _ in enumerate(cells)], row_capacity, n_rows)
    _place_ports(circuit, placement)

    neighbours = _neighbour_map(circuit)
    best_positions = dict(placement.cell_pos)
    best_wirelength = placement.total_wirelength_estimate()
    for _ in range(refine_iterations):
        _refine_once(placement, cells, widths, neighbours, row_capacity, n_rows)
        wirelength = placement.total_wirelength_estimate()
        if wirelength < best_wirelength:
            best_wirelength = wirelength
            best_positions = dict(placement.cell_pos)
    placement.cell_pos = best_positions
    _stretch_for_routability(placement)
    return placement


def _stretch_for_routability(placement: Placement, margin: float = 1.3) -> None:
    """Grow the row pitch until the horizontal track supply covers the
    estimated trunk demand.

    Channel-routed two-metal designs size their channels to demand; a
    fixed row height starves large designs (demand grows ~N^1.5, supply
    ~N) and sends the router on long overflow searches.  Stretching only
    y coordinates leaves x demand unchanged while the track supply scales
    with the factor.
    """
    tech = placement.technology
    demand = 0.0  # um of horizontal trunk
    for net in placement.circuit.nets.values():
        terminals = ([net.driver] if net.driver is not None else []) + net.sinks
        if len(terminals) < 2:
            continue
        xs = [placement._terminal_point(t).x for t in terminals]
        demand += max(xs) - min(xs)
    tracks_per_row = tech.row_height / tech.track_pitch
    supply = tracks_per_row * placement.n_rows * placement.die_width
    factor = max(1.0, margin * demand / max(supply, 1e-9))
    placement.row_pitch = tech.row_height * factor
    if factor > 1.0:
        placement.cell_pos = {
            name: Point(p.x, p.y * factor) for name, p in placement.cell_pos.items()
        }
        placement.port_pos = {
            name: Point(p.x, p.y * factor) for name, p in placement.port_pos.items()
        }
        placement.die_height *= factor


def _neighbour_map(circuit: Circuit) -> dict[str, list[str]]:
    """Cell -> connected terminals (cell or port names), net-degree capped
    so huge nets (clock root) do not dominate the centroid."""
    neighbours: dict[str, list[str]] = {c: [] for c in circuit.cells}
    for net in circuit.nets.values():
        terminals = []
        if net.driver is not None:
            terminals.append(net.driver)
        terminals.extend(net.sinks)
        if len(terminals) < 2 or len(terminals) > 16:
            continue
        names = [
            t.cell.name if hasattr(t, "cell") else t.name  # Pin vs Port
            for t in terminals
        ]
        for t, name in zip(terminals, names):
            if hasattr(t, "cell"):
                others = [n for n in names if n != name]
                neighbours[name].extend(others)
    return neighbours


def _refine_once(placement, cells, widths, neighbours, row_capacity, n_rows) -> None:
    """One force-directed sweep: targets = neighbour centroids, then
    legalize by sorting into rows."""
    targets: dict[str, Point] = {}
    for cell in cells:
        conn = neighbours.get(cell.name, ())
        if not conn:
            targets[cell.name] = placement.cell_pos[cell.name]
            continue
        sx = sy = 0.0
        for other in conn:
            p = placement.cell_pos.get(other) or placement.port_pos.get(other)
            sx += p.x
            sy += p.y
        targets[cell.name] = Point(sx / len(conn), sy / len(conn))
    order = sorted(range(len(cells)), key=lambda i: (targets[cells[i].name].y, targets[cells[i].name].x))
    _legalize(placement, cells, widths, order, row_capacity, n_rows, targets)


def _legalize(placement, cells, widths, order, row_capacity, n_rows, targets=None) -> None:
    """Pack cells into rows following ``order``; within a row, cells are
    sorted by target x and packed abutting from the left."""
    tech = placement.technology
    row = 0
    row_cells: list[int] = []
    used = 0.0

    def flush(row_index: int, members: list[int]) -> None:
        if targets is not None:
            members.sort(key=lambda i: targets[cells[i].name].x)
        x = 0.0
        total = sum(widths[cells[i].name] for i in members)
        # Spread slack evenly so rows stay aligned with the die width.
        gap = max(0.0, (row_capacity - total)) / (len(members) + 1)
        for i in members:
            w = widths[cells[i].name]
            x += gap
            placement.cell_pos[cells[i].name] = Point(
                x + w / 2.0, (row_index + 0.5) * tech.row_height
            )
            x += w

    for i in order:
        w = widths[cells[i].name]
        if used + w > row_capacity and row < n_rows - 1 and row_cells:
            flush(row, row_cells)
            row += 1
            row_cells = []
            used = 0.0
        row_cells.append(i)
        used += w
    if row_cells:
        flush(row, row_cells)
    placement.n_rows = max(placement.n_rows, row + 1)


def _ordered_cells(circuit: Circuit):
    """Cells in placement seed order: depth-first through the fanout from
    each timing source, so logically connected cells (clusters) receive
    consecutive placement slots."""
    ordered = []
    seen: set[str] = set()

    def visit(cell) -> None:
        stack = [cell]
        while stack:
            current = stack.pop()
            if current.name in seen:
                continue
            seen.add(current.name)
            ordered.append(current)
            out_net = current.output_pin.net
            if out_net is None:
                continue
            for sink_cell in out_net.sink_cells():
                if sink_cell.name not in seen:
                    stack.append(sink_cell)

    for net in circuit.timing_sources():
        driver = net.driver_cell()
        if driver is not None and driver.name not in seen:
            visit(driver)
        for sink_cell in net.sink_cells():
            if sink_cell.name not in seen:
                visit(sink_cell)
    # Anything unreachable (clock buffers, isolated cells) goes last.
    for cell in circuit.cells.values():
        if cell.name not in seen:
            visit(cell)
    return ordered


def _place_ports(circuit: Circuit, placement: Placement) -> None:
    tech = placement.technology
    inputs = sorted(circuit.inputs)
    outputs = sorted(circuit.outputs)
    for i, name in enumerate(inputs):
        y = (i + 1) * placement.die_height / (len(inputs) + 1)
        placement.port_pos[name] = Point(0.0, _snap(y, tech))
    for i, name in enumerate(outputs):
        y = (i + 1) * placement.die_height / (len(outputs) + 1)
        placement.port_pos[name] = Point(placement.die_width, _snap(y, tech))


def _snap(y: float, tech: Technology) -> float:
    return round(y / tech.track_pitch) * tech.track_pitch
