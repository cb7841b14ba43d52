"""Timing graph: evaluation order and winning-arc provenance.

The circuit is translated into a DAG (paper, Section 4) whose vertices are
cell instances.  A combinational cell depends on the drivers of all its
input nets; a flip-flop depends only on the driver of its clock net (its D
input is a capture endpoint, not a propagation dependency) -- this makes
the clock buffer tree evaluate before the flip-flops it clocks, and the
flip-flops before the logic they launch into.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.circuit.netlist import Cell, Circuit, NetlistError


def _dependency_graph(
    circuit: Circuit,
) -> tuple[dict[str, list[str]], dict[str, list[str]]]:
    """Per-cell dependency lists (and the reverse map) of the timing DAG."""
    dependencies: dict[str, list[str]] = {}
    dependents: dict[str, list[str]] = {name: [] for name in circuit.cells}

    for cell in circuit.cells.values():
        if cell.is_sequential:
            dep_nets = [cell.pins["CLK"].net] if cell.pins["CLK"].net is not None else []
        else:
            dep_nets = cell.input_nets()
        deps = []
        for net in dep_nets:
            driver = net.driver_cell()
            if driver is not None:
                deps.append(driver.name)
        dependencies[cell.name] = deps
        for dep in deps:
            dependents[dep].append(cell.name)
    return dependencies, dependents


def evaluation_order(circuit: Circuit) -> list[Cell]:
    """Topological order over all cells (clock buffers, flip-flops,
    combinational logic).  Raises on combinational cycles."""
    dependencies, dependents = _dependency_graph(circuit)
    indegree = {name: len(deps) for name, deps in dependencies.items()}
    ready = deque(sorted(name for name, deg in indegree.items() if deg == 0))
    order: list[Cell] = []
    while ready:
        name = ready.popleft()
        order.append(circuit.cells[name])
        for dependent in dependents[name]:
            indegree[dependent] -= 1
            if indegree[dependent] == 0:
                ready.append(dependent)
    if len(order) != len(circuit.cells):
        stuck = [n for n, d in indegree.items() if d > 0]
        raise NetlistError(
            f"timing graph has a cycle; unresolved cells e.g. {stuck[:5]}"
        )
    return order


def evaluation_levels(circuit: Circuit) -> list[list[Cell]]:
    """ASAP topological levels of the timing DAG.

    Level ``L`` holds every cell whose dependencies all sit in levels
    ``< L``; the cells of one level are electrically independent along
    timing arcs and can be solved as one batch.  Cells within a level are
    sorted by name for determinism.  Flattening the levels yields a valid
    topological order.  Raises on combinational cycles.
    """
    dependencies, dependents = _dependency_graph(circuit)
    indegree = {name: len(deps) for name, deps in dependencies.items()}
    frontier = sorted(name for name, deg in indegree.items() if deg == 0)
    levels: list[list[Cell]] = []
    seen = 0
    while frontier:
        levels.append([circuit.cells[name] for name in frontier])
        seen += len(frontier)
        next_frontier: list[str] = []
        for name in frontier:
            for dependent in dependents[name]:
                indegree[dependent] -= 1
                if indegree[dependent] == 0:
                    next_frontier.append(dependent)
        frontier = sorted(next_frontier)
    if seen != len(circuit.cells):
        stuck = [n for n, d in indegree.items() if d > 0]
        raise NetlistError(
            f"timing graph has a cycle; unresolved cells e.g. {stuck[:5]}"
        )
    return levels


@dataclass
class Provenance:
    """Which arc produced a net's worst event (for path backtrace)."""

    cell: str
    in_pin: str
    in_net: str
    in_direction: str
    coupled: bool
