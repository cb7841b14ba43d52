"""Longest-path extraction.

Backtraces the provenance recorded during propagation from a capture
endpoint to a timing source, yielding the stage-by-stage critical path that
the validation harness re-simulates (paper, Section 6: "The simulations of
the longest paths were done with lumped resistances and capacitances
extracted from the layout").
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.circuit.netlist import Circuit, Pin
from repro.core.propagation import PassResult
from repro.waveform.ramp import RampEvent
from repro.errors import InputError


@dataclass(frozen=True)
class PathStep:
    """One gate stage on the critical path.

    The step's cell receives ``in_direction`` on ``in_pin`` (net
    ``in_net``) and produces ``out_direction`` on ``out_net``; ``event``
    is the propagated worst event at the driver output.
    """

    cell: str
    ctype: str
    in_pin: str
    in_net: str
    in_direction: str
    out_net: str
    out_direction: str
    event: RampEvent
    coupled: bool


@dataclass
class CriticalPath:
    """A source-to-endpoint path, source first."""

    endpoint: str
    direction: str
    steps: list[PathStep] = field(default_factory=list)

    @property
    def delay(self) -> float:
        if not self.steps:
            return 0.0
        return self.steps[-1].event.t_cross

    @property
    def source_net(self) -> str:
        if not self.steps:
            return ""
        return self.steps[0].in_net

    def net_sequence(self) -> list[str]:
        """Nets along the path, source net first, endpoint net last."""
        if not self.steps:
            return []
        return [self.steps[0].in_net] + [step.out_net for step in self.steps]

    def cells(self) -> list[str]:
        return [step.cell for step in self.steps]

    def __len__(self) -> int:
        return len(self.steps)


def endpoint_net_name(circuit: Circuit, terminal: str) -> str:
    """Map an endpoint terminal name back to its net."""
    for endpoint in circuit.timing_endpoints():
        name = endpoint.full_name if isinstance(endpoint, Pin) else endpoint.name
        if name == terminal and endpoint.net is not None:
            return endpoint.net.name
    raise KeyError(f"unknown endpoint terminal {terminal!r}")


def k_worst_paths(
    circuit: Circuit,
    result: PassResult,
    k: int = 5,
) -> list[CriticalPath]:
    """The worst path ending at each of the ``k`` latest endpoint
    arrivals (one path per endpoint/direction, sorted by arrival)."""
    ranked = sorted(result.arrivals, key=lambda a: a.event.t_cross, reverse=True)
    paths = []
    for arrival in ranked[:k]:
        paths.append(
            extract_critical_path(circuit, result, arrival.endpoint, arrival.direction)
        )
    return paths


def extract_critical_path(
    circuit: Circuit,
    result: PassResult,
    endpoint: str | None = None,
    direction: str | None = None,
) -> CriticalPath:
    """Backtrace the worst path ending at ``endpoint`` (defaults to the
    pass's critical endpoint)."""
    if endpoint is None:
        endpoint = result.critical_endpoint
    if direction is None:
        direction = result.critical_direction
    if not endpoint:
        raise InputError("pass result has no critical endpoint (empty design?)")

    state = result.state
    path = CriticalPath(endpoint=endpoint, direction=direction)
    net_name = endpoint_net_name(circuit, endpoint)
    current_direction = direction

    guard = len(circuit.cells) + len(circuit.nets) + 2
    steps_reversed: list[PathStep] = []
    for _ in range(guard):
        provenance = state.provenance.get((net_name, current_direction))
        if provenance is None:
            break
        event = state.event(net_name, current_direction)
        cell = circuit.cells[provenance.cell]
        steps_reversed.append(
            PathStep(
                cell=provenance.cell,
                ctype=cell.ctype.name,
                in_pin=provenance.in_pin,
                in_net=provenance.in_net,
                in_direction=provenance.in_direction,
                out_net=net_name,
                out_direction=current_direction,
                event=event,
                coupled=provenance.coupled,
            )
        )
        if not provenance.in_net:
            break
        net_name = provenance.in_net
        current_direction = provenance.in_direction
        if cell.is_sequential:
            # The flip-flop's clock pin ends the data path backtrace; the
            # remaining trace would walk the clock tree.
            break
    path.steps = list(reversed(steps_reversed))
    return path
