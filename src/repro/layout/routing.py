"""Two-layer track router.

Routes every net in trunk-and-branch style on the 0.5 um two-metal grid:

* one horizontal **metal-1 trunk** spanning the x extent of the net's
  terminals, placed on the free horizontal track nearest the driver, and
* vertical **metal-2 branches** dropping from each terminal to the trunk.

Track assignment is first-fit with outward search from the preferred
track, so congested regions push nets onto neighbouring tracks -- which is
precisely what creates the parallel adjacent runs whose coupling the paper
studies.  A per-layer occupancy bitmap screens whole blocks of candidate
tracks at once; the exact interval check still decides every accept, in
the same outward order (see ``docs/ALGORITHMS.md`` section 10).  The
router guarantees no two nets share a (layer, track) interval; the
extractor then derives coupling from adjacent-track overlap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

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


# Tracks per bitmap word, and bins per step of a bitmap's growth.
_WORD_TRACKS = 64
_BIN_CHUNK = 64

# The search screens the tracks within _FIRST_RADIUS of the preferred
# one first, then rings _RADIUS_GROWTH times wider each.
_FIRST_RADIUS = 32
_RADIUS_GROWTH = 4


class _CoverBitmap:
    """The bins of one layer's tracks that a single claimed interval
    covers whole.

    Bin ``b`` spans ``[b * width, (b + 1) * width]``.  Tracks are packed 64
    to a word: bit ``k`` of ``words[r, j]`` is track ``track0 + 64 r + k``
    at bin ``bin0 + j``.  Tracks and bins outside the array hold no
    interval and read as clear; the array grows to cover what is marked.
    """

    def __init__(self, width: float):
        self.width = width
        self.track0 = 0
        self.bin0 = 0
        self.words = np.zeros((0, 0), dtype="<u8")

    def whole_bins(self, lo: float, hi: float) -> tuple[int, int]:
        """The bins ``[first, end)`` that lie entirely inside ``[lo, hi]``."""
        width = self.width
        first = math.ceil(lo / width)
        if first * width < lo:
            first += 1
        end = math.floor(hi / width)
        if end * width > hi:
            end -= 1
        return first, end

    def blocked(self, t_lo: int, t_hi: int, first: int, end: int) -> int:
        """Tracks ``t_lo..t_hi`` with a set bin in ``[first, end)``: bit
        ``i`` is track ``t_lo + i``."""
        rows, cols = self.words.shape
        r_lo = max((t_lo - self.track0) // _WORD_TRACKS, 0)
        r_hi = min((t_hi - self.track0) // _WORD_TRACKS + 1, rows)
        j_lo = max(first - self.bin0, 0)
        j_hi = min(end - self.bin0, cols)
        if r_lo >= r_hi or j_lo >= j_hi:
            return 0
        reduced = np.bitwise_or.reduce(self.words[r_lo:r_hi, j_lo:j_hi], axis=1)
        bits = int.from_bytes(reduced.tobytes(), "little")
        shift = t_lo - (self.track0 + _WORD_TRACKS * r_lo)
        bits = bits >> shift if shift >= 0 else bits << -shift
        return bits & ((1 << (t_hi - t_lo + 1)) - 1)

    def mark(self, track: int, first: int, end: int) -> None:
        """Set bins ``[first, end)`` of one track."""
        if first >= end:
            return
        self._cover(track, track, first, end)
        row, bit = divmod(track - self.track0, _WORD_TRACKS)
        self.words[row, first - self.bin0 : end - self.bin0] |= np.uint64(1 << bit)

    def mark_many(self, tracks: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> None:
        """Set the whole bins of every interval ``[lo[i], hi[i]]`` on track
        ``tracks[i]``, in one pass.  The intervals on one track must be
        disjoint: then no two of them cover one bin, and a running sum of
        track bits along each word row is their OR."""
        width = self.width
        first = np.ceil(lo / width)
        first += first * width < lo
        end = np.floor(hi / width)
        end -= end * width > hi
        keep = end > first
        if not keep.any():
            return
        tracks = tracks[keep]
        first = first[keep].astype(np.int64)
        end = end[keep].astype(np.int64)
        self._cover(int(tracks.min()), int(tracks.max()), int(first.min()), int(end.max()))
        rows, bits = np.divmod(tracks - self.track0, _WORD_TRACKS)
        bits = np.left_shift(np.uint64(1), bits.astype(np.uint64))
        steps = np.zeros((self.words.shape[0], self.words.shape[1] + 1), dtype="<u8")
        np.add.at(steps, (rows, first - self.bin0), bits)
        np.subtract.at(steps, (rows, end - self.bin0), bits)
        self.words |= np.cumsum(steps[:, :-1], axis=1, dtype="<u8")

    def _cover(self, t_lo: int, t_hi: int, first: int, end: int) -> None:
        """Grow the words to hold tracks ``t_lo..t_hi`` and bins
        ``[first, end)``, keeping what is set."""
        rows, cols = self.words.shape
        track0, bin0 = self.track0, self.bin0
        if rows:
            if (
                track0 <= t_lo
                and t_hi < track0 + _WORD_TRACKS * rows
                and bin0 <= first
                and end <= bin0 + cols
            ):
                return
            t_lo = min(t_lo, track0)
            t_hi = max(t_hi, track0 + _WORD_TRACKS * rows - 1)
            first = min(first, bin0)
            end = max(end, bin0 + cols)
        self.track0 = t_lo - t_lo % _WORD_TRACKS
        self.bin0 = first - first % _BIN_CHUNK
        words = np.zeros(
            (
                (t_hi - self.track0) // _WORD_TRACKS + 1,
                -(-(end - self.bin0) // _BIN_CHUNK) * _BIN_CHUNK,
            ),
            dtype="<u8",
        )
        if rows:
            r0 = (track0 - self.track0) // _WORD_TRACKS
            j0 = bin0 - self.bin0
            words[r0 : r0 + rows, j0 : j0 + cols] = self.words
        self.words = words


class _TrackGrid:
    """Occupancy maps for both layers with outward first-fit search.

    ``tracks[layer]`` holds each track's claimed intervals; tracks that
    were never claimed have no entry.  ``bitmaps[layer]`` marks, in bins
    one clearance wide, where a single interval covers a whole bin.
    """

    def __init__(self, pitch: float, clearance: float):
        self.pitch = pitch
        self.clearance = clearance
        self.tracks: dict[int, dict[int, TrackOccupancy]] = {1: {}, 2: {}}
        self.bitmaps = {1: _CoverBitmap(clearance), 2: _CoverBitmap(clearance)}
        self.overflows = 0

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
        interval.  Searches outward, ``+offset`` before ``-offset``;
        beyond ``soft_radius`` the claim is counted as overflow but still
        succeeds (tracks are unbounded).

        ``guard_tracks`` > 0 additionally reserves the same interval on
        the neighbouring tracks (shield spacing): later nets cannot run
        adjacent to this one, eliminating its nearest-neighbour coupling.

        The bitmap skips every track with a whole bin of the widened
        interval set on it or a guard row; such a track cannot fit.  The
        rest are checked exactly, in outward order.
        """
        tracks = self.tracks[layer]
        bitmap = self.bitmaps[layer]
        clearance = self.clearance
        first, end = bitmap.whole_bins(lo - clearance, hi + clearance)
        guards = range(-guard_tracks, guard_tracks + 1)

        def free(t_lo: int, t_hi: int) -> int:
            # Bit i: no row of track t_lo + i's guard band is screened out.
            blocked = bitmap.blocked(t_lo - guard_tracks, t_hi + guard_tracks, first, end)
            hit = blocked
            for shift in range(1, 2 * guard_tracks + 1):
                hit |= blocked >> shift
            return ((1 << (t_hi - t_lo + 1)) - 1) & ~hit

        # Each ring: the screened tracks at offsets ``inner..radius`` above
        # (bit i at offset inner + i) and ``max(inner, 1)..radius`` below
        # (bit i at offset radius - i) the preferred track.
        inner, radius = 0, _FIRST_RADIUS
        window = free(preferred_track - radius, preferred_track + radius)
        above, below = window >> radius, window & ((1 << radius) - 1)
        while True:
            while above or below:
                if above:
                    up = (above & -above).bit_length() - 1
                if below:
                    down = below.bit_length() - 1
                if above and (not below or inner + up <= radius - down):
                    above ^= 1 << up
                    offset = inner + up
                    track = preferred_track + offset
                else:
                    below ^= 1 << down
                    offset = radius - down
                    track = preferred_track - offset
                if all(
                    (occupancy := tracks.get(track + g)) is None
                    or occupancy.fits(lo, hi, clearance)
                    for g in guards
                ):
                    covered = bitmap.whole_bins(lo, hi)
                    for g in guards:
                        occupancy = tracks.get(track + g)
                        if occupancy is None:
                            occupancy = tracks[track + g] = TrackOccupancy()
                        occupancy.add(lo, hi)
                        bitmap.mark(track + g, *covered)
                    if offset > soft_radius:
                        self.overflows += 1
                    return TrackSegment(net=net, layer=layer, track=track, lo=lo, hi=hi)
            inner, radius = radius + 1, radius * _RADIUS_GROWTH
            above = free(preferred_track + inner, preferred_track + radius)
            below = free(preferred_track - radius, preferred_track - inner)

    def replay(self, segments: list[TrackSegment]) -> None:
        """Occupy the given segments as they are, in one pass per layer.

        They must be routed segments (the segments on one track pairwise
        clear), as every routing's are."""
        for layer in (1, 2):
            layer_segments = [seg for seg in segments if seg.layer == layer]
            if not layer_segments:
                continue
            tracks = self.tracks[layer]
            touched = set()
            for seg in layer_segments:
                occupancy = tracks.get(seg.track)
                if occupancy is None:
                    occupancy = tracks[seg.track] = TrackOccupancy()
                occupancy.intervals.append((seg.lo, seg.hi))
                touched.add(seg.track)
            for track in touched:
                tracks[track].intervals.sort()
            self.bitmaps[layer].mark_many(
                np.array([seg.track for seg in layer_segments], dtype=np.int64),
                np.array([seg.lo for seg in layer_segments], dtype=np.float64),
                np.array([seg.hi for seg in layer_segments], dtype=np.float64),
            )


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
    grid.replay(
        [seg for net_route in result.routes.values() for seg in net_route.segments()]
    )

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
