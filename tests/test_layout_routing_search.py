"""The router's bitmap-screened track search against a probe-by-probe one.

``ProbeGrid`` is the track search as the router ran it before the
occupancy bitmap: every track outward from the preferred one, ``+offset``
before ``-offset``, each checked with ``TrackOccupancy.fits`` until one
fits.  Hypothesis draws claim sequences -- spans shorter than one bin,
negative coordinates, preferred tracks far from every claimed row, ends
within 1e-9 of a bin edge or of another claim's clearance, one or two
guard tracks, replayed segments -- and the router's ``_TrackGrid`` must
return the same segments, count the same overflows and leave the same
intervals on every track.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.layout.geometry import TrackOccupancy, TrackSegment
from repro.layout.routing import _TrackGrid

# Track pitches: the default technology's (a clearance that is exact in
# binary) and one whose clearance is not.
PITCHES = (1.5, 0.7)

# Offsets that put a coordinate just off a bin edge or another claim's
# clearance boundary, on both sides of fits' 1e-9 overlap tolerance.
EDGE_DELTAS = (0.0, 5e-10, -5e-10, 1e-9, -1e-9, 1.5e-9, -1.5e-9, 1e-12, -1e-12)


class ProbeGrid:
    """The oracle: one exact ``fits`` probe per track, outward."""

    def __init__(self, clearance: float):
        self.clearance = clearance
        self.tracks: dict[int, dict[int, TrackOccupancy]] = {1: {}, 2: {}}
        self.overflows = 0

    def _occupancy(self, layer: int, track: int) -> TrackOccupancy:
        return self.tracks[layer].setdefault(track, TrackOccupancy())

    def claim(self, layer, preferred_track, lo, hi, net, soft_radius=6, guard_tracks=0):
        guards = range(-guard_tracks, guard_tracks + 1)
        offset = 0
        while True:
            for sign in (1, -1) if offset else (1,):
                track = preferred_track + sign * offset
                if all(
                    self._occupancy(layer, track + g).fits(lo, hi, self.clearance)
                    for g in guards
                ):
                    for g in guards:
                        self._occupancy(layer, track + g).add(lo, hi)
                    if offset > soft_radius:
                        self.overflows += 1
                    return TrackSegment(net=net, layer=layer, track=track, lo=lo, hi=hi)
            offset += 1

    def replay(self, segments: list[TrackSegment]) -> None:
        for seg in segments:
            self._occupancy(seg.layer, seg.track).add(seg.lo, seg.hi)


def occupied(tracks: dict[int, dict[int, TrackOccupancy]]) -> dict:
    """Every non-empty track's intervals, by (layer, track)."""
    return {
        (layer, track): occupancy.intervals
        for layer, table in tracks.items()
        for track, occupancy in table.items()
        if occupancy.intervals
    }


EDGES = st.sampled_from(EDGE_DELTAS)
# Offsets: just off an edge, or anywhere up to a bin and more.
OFFSETS = st.one_of(EDGES, EDGES, st.floats(0.0, 0.5))

# One claim's draws: layer, preferred track, guard tracks, anchor, which
# earlier claim, snap to a bin edge, two offsets, first bin, span in bins.
CLAIMS = st.tuples(
    st.sampled_from((1, 2)),
    st.one_of(st.integers(-6, 6), st.integers(-300, 300)),
    st.integers(0, 2),
    st.sampled_from(("lattice", "after", "before")),
    st.integers(0, 10**6),
    st.booleans(),
    OFFSETS,
    OFFSETS,
    st.integers(-40, 40),
    st.integers(0, 30),
)


def draw_claim(data, clearance: float, earlier: list[TrackSegment]):
    """One claim's (layer, preferred track, lo, hi, guard tracks)."""
    layer, track, guard, anchor, pick, snap, d1, d2, first, span = data.draw(CLAIMS)
    if anchor != "lattice" and earlier:
        # On an earlier claim's track, start one clearance past its end
        # (or end one clearance before its start), or past the bin edge
        # nearest that end: the widened query's edge meets the claim or
        # the bin it reaches into.
        seg = earlier[pick % len(earlier)]
        layer, track = seg.layer, seg.track
        span = min(span, 12) * clearance
        if anchor == "after":
            end = round(seg.hi / clearance) * clearance if snap else seg.hi
            lo = end + clearance + d1
            hi = lo + span + d2
        else:
            end = round(seg.lo / clearance) * clearance if snap else seg.lo
            hi = end - clearance + d1
            lo = hi - span - d2
    else:
        # Bin edges and fractions of a bin, negative coordinates included.
        lo = first * clearance + d1
        hi = (first + span) * clearance + d2
    # Claimed spans are longer than fits' tolerance, as the router's are.
    hi = max(hi, lo + 2e-9)
    return layer, track, lo, hi, guard


def claim_both(grid, oracle, data, clearance, segments, count, guard=None):
    """Make ``count`` drawn claims on both grids; every segment must agree."""
    for _ in range(count):
        layer, track, lo, hi, drawn_guard = draw_claim(data, clearance, segments)
        guard_tracks = drawn_guard if guard is None else guard
        net = f"n{len(segments)}"
        got = grid.claim(layer, track, lo, hi, net, guard_tracks=guard_tracks)
        want = oracle.claim(layer, track, lo, hi, net, guard_tracks=guard_tracks)
        assert got == want
        segments.append(got)


@given(data=st.data())
@settings(max_examples=120, deadline=None)
def test_claims_match_probe_by_probe_search(data):
    pitch = data.draw(st.sampled_from(PITCHES))
    clearance = 0.25 * pitch
    grid, oracle = _TrackGrid(pitch=pitch, clearance=clearance), ProbeGrid(clearance)
    segments: list[TrackSegment] = []
    claim_both(grid, oracle, data, clearance, segments, data.draw(st.integers(1, 60)))
    assert grid.overflows == oracle.overflows
    assert occupied(grid.tracks) == occupied(oracle.tracks)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_replayed_segments_match_probe_by_probe_search(data):
    """Rip-up and re-route: the surviving segments of a routing are
    replayed onto fresh grids, then more nets claim with guard tracks."""
    pitch = data.draw(st.sampled_from(PITCHES))
    clearance = 0.25 * pitch
    routed: list[TrackSegment] = []
    claim_both(
        _TrackGrid(pitch=pitch, clearance=clearance),
        ProbeGrid(clearance),
        data,
        clearance,
        routed,
        data.draw(st.integers(1, 50)),
        guard=0,
    )
    survivors = [seg for seg in routed if data.draw(st.booleans())]
    grid, oracle = _TrackGrid(pitch=pitch, clearance=clearance), ProbeGrid(clearance)
    grid.replay(survivors)
    oracle.replay(survivors)
    assert occupied(grid.tracks) == occupied(oracle.tracks)
    segments = list(survivors)
    claim_both(grid, oracle, data, clearance, segments, data.draw(st.integers(1, 30)))
    assert grid.overflows == oracle.overflows
    assert occupied(grid.tracks) == occupied(oracle.tracks)


@pytest.mark.parametrize("wall", [32, 128, 450])
def test_deep_search_crosses_rings(wall):
    """Claims that only fit past a wall of full tracks -- just past the
    first screened ring, just past the second, hundreds of tracks out --
    land where the probe-by-probe search puts them."""
    clearance = 0.375
    grid, oracle = _TrackGrid(pitch=1.5, clearance=clearance), ProbeGrid(clearance)
    for track in range(-wall, wall + 1):
        for target in (grid, oracle):
            target.claim(1, track, 0.0, 20.0, f"w{track}")
    for lo, hi, guard in ((5.0, 6.0, 0), (-3.0, 2.0, 1), (19.0, 40.0, 2)):
        got = grid.claim(1, 0, lo, hi, "deep", guard_tracks=guard)
        assert got == oracle.claim(1, 0, lo, hi, "deep", guard_tracks=guard)
        assert abs(got.track) > wall
    assert grid.overflows == oracle.overflows
    assert occupied(grid.tracks) == occupied(oracle.tracks)


def test_edge_touch_within_tolerance_is_not_screened():
    """An interval that reaches a whole bin of the query by less than
    1e-9 does not block the track: ``fits`` accepts it, so the screen
    must not mark that bin."""
    clearance = 0.375
    grid, oracle = _TrackGrid(pitch=1.5, clearance=clearance), ProbeGrid(clearance)
    for target in (grid, oracle):
        target.claim(1, 0, -5.0, 4 * clearance + 5e-10, "left")
    # The widened query starts exactly on the bin edge the left claim
    # passes by 5e-10.
    lo = 5 * clearance
    got = grid.claim(1, 0, lo, lo + 1.0, "right")
    assert got == oracle.claim(1, 0, lo, lo + 1.0, "right")
    assert got.track == 0
