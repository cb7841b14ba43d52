"""Two-layer track router.

Routes every net in trunk-and-branch style on the 0.5 um two-metal grid:

* one horizontal **metal-1 trunk** spanning the x extent of the net's
  terminals, placed on the free horizontal track nearest the driver, and
* vertical **metal-2 branches** dropping from each terminal to the trunk.

Track assignment is first-fit with outward search from the preferred
track, so congested regions push nets onto neighbouring tracks -- which is
precisely what creates the parallel adjacent runs whose coupling the paper
studies.  The router guarantees no two nets share a (layer, track)
interval; the extractor then derives coupling from adjacent-track overlap.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.circuit.netlist import Circuit, Net, Pin
from repro.layout.geometry import Point, TrackOccupancy, TrackSegment
from repro.layout.placement import Placement
from repro.layout.technology import Technology


@dataclass
class NetRoute:
    """Routed topology of one net.

    ``trunk`` may be ``None`` for nets whose terminals share one vertical
    track.  ``taps`` maps terminal names (pin/port full names) to their
    (x, branch segment) on the trunk; the driver's entry is under
    ``driver_tap``.
    """

    net: str
    trunk: TrackSegment | None
    trunk_y: float
    driver_tap: tuple[str, float, TrackSegment | None]
    sink_taps: list[tuple[str, float, TrackSegment | None]] = field(default_factory=list)

    def segments(self) -> list[TrackSegment]:
        segs = []
        if self.trunk is not None and self.trunk.length > 0:
            segs.append(self.trunk)
        for _, _, branch in [self.driver_tap] + self.sink_taps:
            if branch is not None and branch.length > 0:
                segs.append(branch)
        return segs

    def wirelength(self) -> float:
        return sum(seg.length for seg in self.segments())


@dataclass
class RoutingResult:
    """All net routes plus congestion statistics."""

    routes: dict[str, NetRoute] = field(default_factory=dict)
    overflow_count: int = 0

    def total_wirelength(self) -> float:
        return sum(route.wirelength() for route in self.routes.values())

    def all_segments(self) -> list[TrackSegment]:
        segs: list[TrackSegment] = []
        for route in self.routes.values():
            segs.extend(route.segments())
        return segs


class _TrackGrid:
    """Occupancy maps for both layers with outward first-fit search."""

    def __init__(self, pitch: float, clearance: float):
        self.pitch = pitch
        self.clearance = clearance
        self.h_tracks: dict[int, TrackOccupancy] = {}
        self.v_tracks: dict[int, TrackOccupancy] = {}
        self.overflows = 0

    def _occupancy(self, layer: int, track: int) -> TrackOccupancy:
        table = self.h_tracks if layer == 1 else self.v_tracks
        occ = table.get(track)
        if occ is None:
            occ = TrackOccupancy()
            table[track] = occ
        return occ

    def claim(
        self,
        layer: int,
        preferred_track: int,
        lo: float,
        hi: float,
        net: str,
        soft_radius: int = 6,
        guard_tracks: int = 0,
    ) -> TrackSegment:
        """Find the nearest free track to ``preferred_track`` and claim the
        interval.  Searches outward; beyond ``soft_radius`` the claim is
        counted as overflow but still succeeds (tracks are unbounded).

        ``guard_tracks`` > 0 additionally reserves the same interval on
        the neighbouring tracks (shield spacing): later nets cannot run
        adjacent to this one, eliminating its nearest-neighbour coupling.
        """
        offset = 0
        while True:
            for sign in (1, -1) if offset else (1,):
                track = preferred_track + sign * offset
                fits = all(
                    self._occupancy(layer, track + g).fits(lo, hi, self.clearance)
                    for g in range(-guard_tracks, guard_tracks + 1)
                )
                if fits:
                    for g in range(-guard_tracks, guard_tracks + 1):
                        self._occupancy(layer, track + g).add(lo, hi)
                    if offset > soft_radius:
                        self.overflows += 1
                    return TrackSegment(net=net, layer=layer, track=track, lo=lo, hi=hi)
            offset += 1


def route(
    circuit: Circuit,
    placement: Placement,
    technology: Technology | None = None,
) -> RoutingResult:
    """Route every multi-terminal net of the circuit."""
    tech = technology if technology is not None else placement.technology
    pitch = tech.track_pitch
    grid = _TrackGrid(pitch=pitch, clearance=0.25 * pitch)
    result = RoutingResult()

    # Short nets before long so long nets detour around them.
    nets = [n for n in circuit.nets.values() if n.driver is not None and n.sinks]
    nets.sort(key=lambda n: (_span_estimate(n, placement), n.name))

    for net in nets:
        result.routes[net.name] = _route_net(net, placement, grid, pitch)
    result.overflow_count = grid.overflows
    return result


def reroute_nets(
    circuit: Circuit,
    placement: Placement,
    routing: RoutingResult,
    nets: list[str],
    guard_tracks: int = 1,
    technology: Technology | None = None,
) -> RoutingResult:
    """Rip up and re-route only the given nets, with guard spacing.

    Every other net keeps its exact geometry: the track grid is replayed
    from the surviving segments before the victims are re-routed, so the
    repair is local -- the classic rip-up-and-reroute move.
    """
    tech = technology if technology is not None else placement.technology
    pitch = tech.track_pitch
    victims = set(nets)
    grid = _TrackGrid(pitch=pitch, clearance=0.25 * pitch)

    result = RoutingResult()
    for name, net_route in routing.routes.items():
        if name in victims:
            continue
        result.routes[name] = net_route
        for seg in net_route.segments():
            grid._occupancy(seg.layer, seg.track).add(seg.lo, seg.hi)

    for name in sorted(victims):
        net = circuit.nets.get(name)
        if net is None or net.driver is None or not net.sinks:
            continue
        result.routes[name] = _route_net(
            net, placement, grid, pitch, guard_tracks=guard_tracks
        )
    result.overflow_count = routing.overflow_count + grid.overflows
    return result


def _terminal_name_and_point(terminal, placement: Placement) -> tuple[str, Point]:
    if isinstance(terminal, Pin):
        return terminal.full_name, placement.cell_pos[terminal.cell.name]
    return terminal.name, placement.port_pos[terminal.name]


def _span_estimate(net: Net, placement: Placement) -> float:
    points = [_terminal_name_and_point(t, placement)[1] for t in [net.driver] + net.sinks]
    xs = [p.x for p in points]
    ys = [p.y for p in points]
    return (max(xs) - min(xs)) + (max(ys) - min(ys))


def _route_net(
    net: Net,
    placement: Placement,
    grid: _TrackGrid,
    pitch: float,
    guard_tracks: int = 0,
) -> NetRoute:
    driver_name, driver_pt = _terminal_name_and_point(net.driver, placement)
    sinks = [_terminal_name_and_point(s, placement) for s in net.sinks]

    xs = [driver_pt.x] + [p.x for _, p in sinks]
    x_lo, x_hi = min(xs), max(xs)

    # Trunk at the median terminal y: minimises total vertical branch
    # length (the binding routing resource on a two-layer grid).
    ys = sorted([driver_pt.y] + [p.y for _, p in sinks])
    median_y = ys[len(ys) // 2]
    trunk_track_pref = round(median_y / pitch)
    if x_hi - x_lo > 1e-9:
        trunk = grid.claim(
            1, trunk_track_pref, x_lo, x_hi, net.name, guard_tracks=guard_tracks
        )
        trunk_y = trunk.track * pitch
    else:
        trunk = None
        trunk_y = trunk_track_pref * pitch

    def branch_for(name: str, pt: Point) -> tuple[str, float, TrackSegment | None]:
        y_lo, y_hi = sorted((pt.y, trunk_y))
        if y_hi - y_lo <= 1e-9:
            return name, pt.x, None
        seg = grid.claim(
            2, round(pt.x / pitch), y_lo, y_hi, net.name, guard_tracks=guard_tracks
        )
        return name, seg.track * pitch, seg

    driver_tap = branch_for(driver_name, driver_pt)
    route_obj = NetRoute(
        net=net.name,
        trunk=trunk,
        trunk_y=trunk_y,
        driver_tap=driver_tap,
    )
    for name, pt in sinks:
        route_obj.sink_taps.append(branch_for(name, pt))
    return route_obj
