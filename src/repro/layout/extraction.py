"""Parasitic extraction from routed geometry.

Produces, for every routed net, what the crosstalk-aware STA consumes
(DESIGN.md section 3.3):

* an RC tree (wire resistance + grounded wire capacitance), and
* the set of coupling capacitances to neighbouring nets, from parallel
  runs on adjacent tracks of the same layer.

Coupling between tracks at distance *d* uses the technology's
``coupling_cap_per_um(d)``; same-track nets never overlap (router
guarantee) and end-to-end fringe coupling is ignored.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from repro.interconnect.rctree import RCTree
from repro.layout.routing import NetRoute, RoutingResult
from repro.layout.technology import Technology, default_technology


@dataclass
class ParasiticNet:
    """Extracted parasitics of one net."""

    name: str
    rc_tree: RCTree
    c_wire_ground: float
    couplings: dict[str, float] = field(default_factory=dict)

    @property
    def c_coupling_total(self) -> float:
        return sum(self.couplings.values())

    @property
    def r_total(self) -> float:
        return self.rc_tree.total_resistance()


@dataclass
class ExtractionResult:
    """Parasitics for all routed nets."""

    nets: dict[str, ParasiticNet] = field(default_factory=dict)

    def coupling_pairs(self) -> list[tuple[str, str, float]]:
        """All distinct (net_a, net_b, C_c) pairs with net_a < net_b."""
        pairs = []
        for name, pnet in self.nets.items():
            for other, cap in pnet.couplings.items():
                if name < other:
                    pairs.append((name, other, cap))
        return pairs

    def total_coupling_cap(self) -> float:
        return sum(cap for _, _, cap in self.coupling_pairs())


def extract(
    routing: RoutingResult,
    technology: Technology | None = None,
) -> ExtractionResult:
    """Extract RC trees and coupling capacitances from a routing."""
    tech = technology if technology is not None else default_technology()
    result = ExtractionResult()
    for route in routing.routes.values():
        tree = _build_rc_tree(route, tech)
        # The tree's trunk pieces span tap-to-tap; the routed trunk may
        # overhang the extreme taps slightly (branch track shifts).  Lump
        # any residual metal capacitance at the root so the tree accounts
        # for every routed micron -- never less than the drawn wire.
        drawn_cap = sum(seg.length for seg in route.segments()) * tech.c_ground_per_um
        residual = drawn_cap - tree.total_cap()
        if residual > 0:
            tree.add_cap(tree.root, residual)
        result.nets[route.net] = ParasiticNet(
            name=route.net,
            rc_tree=tree,
            c_wire_ground=tree.total_cap(),
        )
    _extract_coupling(routing, tech, result)
    return result


def _build_rc_tree(route: NetRoute, tech: Technology) -> RCTree:
    """Trunk-and-branch RC tree: driver -> driver tap -> trunk chain ->
    sink taps -> sinks.  Segment capacitance is split half/half onto the
    segment's end nodes."""
    tree = RCTree(route.net)
    driver_name, driver_x, driver_branch = route.driver_tap
    root = tree.add_node(-1, 0.0, 0.0, name=driver_name)

    # Driver branch (vertical, M2) from the driver pin down to the trunk.
    branch_r, branch_c = _segment_rc(driver_branch, tech, vertical=True)
    drv_tap = tree.add_node(root, branch_r + (tech.via_resistance if driver_branch else 0.0))
    tree.add_cap(root, branch_c / 2.0)
    tree.add_cap(drv_tap, branch_c / 2.0)

    # Order sink taps along the trunk; chain them left and right of the
    # driver tap.
    taps = sorted(route.sink_taps, key=lambda t: t[1])
    left = [t for t in taps if t[1] <= driver_x]
    right = [t for t in taps if t[1] > driver_x]

    for group, reverse in ((left, True), (right, False)):
        ordered = list(reversed(group)) if reverse else group
        prev_node, prev_x = drv_tap, driver_x
        for sink_name, tap_x, branch in ordered:
            trunk_r = abs(tap_x - prev_x) * tech.r_per_um
            trunk_c = abs(tap_x - prev_x) * tech.c_ground_per_um
            tap_node = tree.add_node(prev_node, trunk_r)
            tree.add_cap(prev_node, trunk_c / 2.0)
            tree.add_cap(tap_node, trunk_c / 2.0)
            branch_r, branch_c = _segment_rc(branch, tech, vertical=True)
            sink_node = tree.add_node(
                tap_node,
                branch_r + (tech.via_resistance if branch else 0.0),
                name=sink_name,
            )
            tree.add_cap(tap_node, branch_c / 2.0)
            tree.add_cap(sink_node, branch_c / 2.0)
            prev_node, prev_x = tap_node, tap_x
    return tree


def _segment_rc(segment, tech: Technology, vertical: bool) -> tuple[float, float]:
    if segment is None:
        return 0.0, 0.0
    r_per_um = tech.r_per_um_m2 if vertical else tech.r_per_um
    return segment.length * r_per_um, segment.length * tech.c_ground_per_um


def _extract_coupling(
    routing: RoutingResult,
    tech: Technology,
    result: ExtractionResult,
) -> None:
    """Adjacent-track overlap sweep over all segments of each layer."""
    by_track: dict[tuple[int, int], list] = defaultdict(list)
    for seg in routing.all_segments():
        by_track[(seg.layer, seg.track)].append(seg)
    for segs in by_track.values():
        segs.sort(key=lambda s: s.lo)

    pair_caps: dict[tuple[str, str], float] = defaultdict(float)
    for (layer, track), segs in by_track.items():
        for distance in range(1, tech.max_coupling_tracks + 1):
            neighbour = by_track.get((layer, track + distance))
            if not neighbour:
                continue
            c_per_um = tech.coupling_cap_per_um(distance)
            if c_per_um <= 0.0:
                continue
            _sweep_overlaps(segs, neighbour, c_per_um, pair_caps)

    for (net_a, net_b), cap in pair_caps.items():
        if net_a in result.nets:
            result.nets[net_a].couplings[net_b] = (
                result.nets[net_a].couplings.get(net_b, 0.0) + cap
            )
        if net_b in result.nets:
            result.nets[net_b].couplings[net_a] = (
                result.nets[net_b].couplings.get(net_a, 0.0) + cap
            )


def _sweep_overlaps(
    segs_a: list,
    segs_b: list,
    c_per_um: float,
    pair_caps: dict[tuple[str, str], float],
) -> None:
    """Two-pointer sweep accumulating overlap * c_per_um per net pair."""
    i = j = 0
    while i < len(segs_a) and j < len(segs_b):
        a, b = segs_a[i], segs_b[j]
        overlap = min(a.hi, b.hi) - max(a.lo, b.lo)
        if overlap > 0 and a.net != b.net:
            key = (a.net, b.net) if a.net < b.net else (b.net, a.net)
            pair_caps[key] += overlap * c_per_um
        if a.hi <= b.hi:
            i += 1
        else:
            j += 1
