"""Tests for the respace edit (shield-spaced rip-up-and-reroute)."""

import pytest

from repro.core.analyzer import CrosstalkSTA
from repro.core.modes import AnalysisMode
from repro.core.netreport import rank_crosstalk_nets
from repro.flow import respace_nets


@pytest.fixture(scope="module")
def baseline(small_design):
    result = CrosstalkSTA(small_design).run(AnalysisMode.ITERATIVE)
    return small_design, result


def top_victims(baseline, top):
    design, result = baseline
    return [e.net for e in rank_crosstalk_nets(design, result.final_pass, top=top)]


def segments_by_track(routing):
    by_track = {}
    for seg in routing.all_segments():
        by_track.setdefault((seg.layer, seg.track), []).append(seg)
    return by_track


class TestRespace:
    def test_guarded_nets_lose_coupling(self, baseline):
        design, _ = baseline
        victims = top_victims(baseline, 4)
        repaired = respace_nets(design, victims)
        for net in victims:
            before_neighbours = set(design.loads[net].couplings)
            after_neighbours = set(repaired.loads[net].couplings)
            # Shielding sheds the majority of the net's former aggressors
            # (the re-route may pick up a few new ones)...
            assert len(before_neighbours & after_neighbours) <= max(
                1, len(before_neighbours) // 2
            )
            # ...and cuts its total coupling load sharply.
            assert (
                repaired.loads[net].c_coupling_total
                < design.loads[net].c_coupling_total * 0.5
            )

    def test_guarded_routing_still_overlap_free(self, baseline):
        design, _ = baseline
        routing = respace_nets(design, top_victims(baseline, 4)).routing
        for segs in segments_by_track(routing).values():
            segs.sort(key=lambda s: s.lo)
            for a, b in zip(segs, segs[1:]):
                assert a.hi <= b.lo + 1e-9

    def test_no_neighbour_on_adjacent_tracks(self, baseline):
        """The shield guarantee: nothing runs directly adjacent to a
        guarded net's segments over their spans."""
        design, _ = baseline
        victims = top_victims(baseline, 3)
        routing = respace_nets(design, victims).routing
        by_track = segments_by_track(routing)
        for victim in victims:
            for seg in routing.routes[victim].segments():
                for neighbour_track in (seg.track - 1, seg.track + 1):
                    for other in by_track.get((seg.layer, neighbour_track), []):
                        if other.net == victim:
                            continue
                        assert seg.overlap(other) <= 1e-9, (victim, other.net)

    def test_untouched_nets_keep_their_geometry(self, baseline):
        """The repair is local: placement is shared and every other net
        keeps its route object; only the victims are re-routed."""
        design, _ = baseline
        victims = top_victims(baseline, 4)
        repaired = respace_nets(design, victims)
        assert repaired.placement is design.placement
        assert set(repaired.routing.routes) == set(design.routing.routes)
        for name, net_route in repaired.routing.routes.items():
            if name in victims:
                assert net_route is not design.routing.routes[name]
            else:
                assert net_route is design.routing.routes[name]
