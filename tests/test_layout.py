"""Tests for placement, routing, technology and geometry."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import s27
from repro.circuit.generators import GeneratorSpec, generate_circuit
from repro.layout.geometry import Point, TrackOccupancy, TrackSegment, interval_overlaps
from repro.layout.placement import place
from repro.layout.routing import route
from repro.layout.technology import Technology, default_technology


@pytest.fixture(scope="module")
def placed_s27():
    circuit = s27()
    return circuit, place(circuit)


@pytest.fixture(scope="module")
def routed_medium():
    spec = GeneratorSpec(
        name="med", seed=11, n_inputs=5, n_outputs=5, n_ff=10, n_gates=120, depth=8
    )
    circuit = generate_circuit(spec)
    placement = place(circuit)
    return circuit, placement, route(circuit, placement)


class TestGeometry:
    def test_point_manhattan(self):
        assert Point(0, 0).manhattan(Point(3, 4)) == 7

    def test_segment_validation(self):
        with pytest.raises(ValueError, match="layer"):
            TrackSegment("n", 3, 0, 0.0, 1.0)
        with pytest.raises(ValueError, match="hi < lo"):
            TrackSegment("n", 1, 0, 2.0, 1.0)

    def test_segment_overlap(self):
        a = TrackSegment("a", 1, 0, 0.0, 10.0)
        b = TrackSegment("b", 1, 1, 5.0, 15.0)
        assert a.overlap(b) == 5.0
        assert b.overlap(a) == 5.0

    def test_occupancy_first_fit(self):
        occ = TrackOccupancy()
        occ.add(0.0, 10.0)
        assert not occ.fits(5.0, 15.0)
        assert occ.fits(11.0, 20.0)
        assert not occ.fits(9.0, 20.0, clearance=2.0)

    @given(
        lo_a=st.floats(0, 100), len_a=st.floats(0.1, 50),
        lo_b=st.floats(0, 100), len_b=st.floats(0.1, 50),
    )
    @settings(max_examples=50, deadline=None)
    def test_interval_overlap_symmetric(self, lo_a, len_a, lo_b, len_b):
        assert interval_overlaps(lo_a, lo_a + len_a, lo_b, lo_b + len_b) == \
            interval_overlaps(lo_b, lo_b + len_b, lo_a, lo_a + len_a)


class TestTechnology:
    def test_coupling_decays_with_distance(self):
        tech = default_technology()
        assert tech.coupling_cap_per_um(1) > tech.coupling_cap_per_um(2)

    def test_coupling_zero_beyond_radius(self):
        tech = default_technology()
        assert tech.coupling_cap_per_um(tech.max_coupling_tracks + 1) == 0.0

    def test_coupling_distance_validated(self):
        with pytest.raises(ValueError):
            default_technology().coupling_cap_per_um(0)

    def test_cell_width_grows_with_transistors(self):
        tech = default_technology()
        assert tech.cell_width(8) > tech.cell_width(2)


class TestPlacement:
    def test_all_cells_placed(self, placed_s27):
        circuit, placement = placed_s27
        assert set(placement.cell_pos) == set(circuit.cells)

    def test_cells_inside_die(self, placed_s27):
        _, placement = placed_s27
        for point in placement.cell_pos.values():
            assert 0 <= point.x <= placement.die_width + 1e-9
            assert 0 <= point.y <= placement.die_height + 1e-9

    def test_cells_on_row_centres(self, placed_s27):
        _, placement = placed_s27
        pitch = placement.row_pitch or placement.technology.row_height
        for point in placement.cell_pos.values():
            frac = (point.y / pitch) % 1.0
            assert frac == pytest.approx(0.5, abs=1e-6)

    def test_no_overlaps_within_rows(self, routed_medium):
        circuit, placement, _ = routed_medium
        tech = placement.technology
        by_row = {}
        for name, point in placement.cell_pos.items():
            width = tech.cell_width(circuit.cells[name].ctype.transistor_count())
            by_row.setdefault(round(point.y, 3), []).append((point.x - width / 2, point.x + width / 2))
        for intervals in by_row.values():
            intervals.sort()
            for (lo1, hi1), (lo2, hi2) in zip(intervals, intervals[1:]):
                assert hi1 <= lo2 + 1e-6

    def test_ports_on_edges(self, placed_s27):
        circuit, placement = placed_s27
        for name in circuit.inputs:
            assert placement.port_pos[name].x == 0.0
        for name in circuit.outputs:
            assert placement.port_pos[name].x == pytest.approx(placement.die_width)

    def test_refinement_reduces_wirelength(self):
        circuit = s27()
        rough = place(circuit, refine_iterations=0)
        refined = place(circuit, refine_iterations=8)
        assert refined.total_wirelength_estimate() <= rough.total_wirelength_estimate() * 1.05

    def test_unknown_terminal_raises(self, placed_s27):
        _, placement = placed_s27
        with pytest.raises(KeyError):
            placement.location("nonsense")

    def test_row_pitch_at_least_technology_height(self, routed_medium):
        _, placement, _ = routed_medium
        assert placement.row_pitch >= placement.technology.row_height - 1e-9

    def test_channel_stretch_scales_with_demand(self):
        """Bigger designs need taller channels: the realised row pitch
        grows with circuit size."""
        small = place(generate_circuit(GeneratorSpec(
            name="s", seed=5, n_inputs=4, n_outputs=4, n_ff=6, n_gates=60, depth=5
        )))
        large = place(generate_circuit(GeneratorSpec(
            name="l", seed=5, n_inputs=8, n_outputs=8, n_ff=60, n_gates=900, depth=10
        )))
        assert large.row_pitch >= small.row_pitch

    def test_stretch_keeps_cells_on_pitch_grid(self, routed_medium):
        _, placement, _ = routed_medium
        for point in placement.cell_pos.values():
            frac = (point.y / placement.row_pitch) % 1.0
            assert frac == pytest.approx(0.5, abs=1e-6)


class TestRouting:
    def test_every_driven_net_routed(self, routed_medium):
        circuit, _, routing = routed_medium
        expected = {
            n.name for n in circuit.nets.values() if n.driver is not None and n.sinks
        }
        assert set(routing.routes) == expected

    def test_no_same_track_overlaps(self, routed_medium):
        """The router's core guarantee: one net per (layer, track)
        interval, and neighbours on a track at least the clearance apart
        (up to the 1e-9 overlap tolerance) -- the invariant the track
        search's bitmap screen is exact under."""
        _, placement, routing = routed_medium
        clearance = 0.25 * placement.technology.track_pitch
        by_track = {}
        for seg in routing.all_segments():
            by_track.setdefault((seg.layer, seg.track), []).append(seg)
        for segs in by_track.values():
            segs.sort(key=lambda s: s.lo)
            for a, b in zip(segs, segs[1:]):
                assert b.lo - a.hi >= clearance - 1e-9, (a, b)

    def test_route_connects_all_terminals(self, routed_medium):
        circuit, placement, routing = routed_medium
        for net_name, route_obj in routing.routes.items():
            net = circuit.nets[net_name]
            assert len(route_obj.sink_taps) == len(net.sinks)

    def test_branches_touch_trunk(self, routed_medium):
        _, _, routing = routed_medium
        for route_obj in routing.routes.values():
            for _, _, branch in [route_obj.driver_tap] + route_obj.sink_taps:
                if branch is None:
                    continue
                assert branch.lo <= route_obj.trunk_y + 1e-6
                assert branch.hi >= route_obj.trunk_y - 1e-6

    def test_deterministic(self):
        circuit = s27()
        placement = place(circuit)
        first = route(circuit, placement)
        second = route(circuit, placement)
        assert first.total_wirelength() == second.total_wirelength()

    def test_wirelength_positive(self, routed_medium):
        _, _, routing = routed_medium
        assert routing.total_wirelength() > 0
