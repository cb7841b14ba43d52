"""Tests for the driver-upsizing repair move.

The layout oracle: an upsize keeps the design's placement, routing and
extraction, and on an unedited design that equals what re-running the
whole physical flow on the upsized circuit builds.
"""

import pytest

from repro.circuit.library import CellType
from repro.circuit.validate import validate_circuit
from repro.core.analyzer import CrosstalkSTA
from repro.core.modes import AnalysisMode
from repro.core.netreport import rank_crosstalk_nets
from repro.errors import InputError
from repro.flow import adjust_coupling, prepare_design, respace_nets, upsize_drivers
from tests.golden.make_golden import build_design


@pytest.fixture(scope="module")
def upsized(s27_design):
    result = CrosstalkSTA(s27_design).run(AnalysisMode.ITERATIVE)
    victims = [e.net for e in rank_crosstalk_nets(s27_design, result.final_pass, top=4)]
    return s27_design, victims, upsize_drivers(s27_design, victims)


class TestUpsize:
    def test_drivers_strengthened(self, upsized):
        original, victims, design = upsized
        strengthened = 0
        for net_name in victims:
            before = original.circuit.nets[net_name].driver_cell()
            after = design.circuit.nets[net_name].driver_cell()
            if before is None or after is None:
                continue
            order = {"X1": 0, "X2": 1, "X4": 2}
            assert order[after.ctype.drive] >= order[before.ctype.drive]
            if after.ctype.drive != before.ctype.drive:
                strengthened += 1
        assert strengthened > 0

    def test_other_cells_untouched(self, upsized):
        original, victims, design = upsized
        victim_drivers = {
            original.circuit.nets[n].driver_cell().name
            for n in victims
            if original.circuit.nets[n].driver_cell() is not None
        }
        for name, cell in original.circuit.cells.items():
            if name in victim_drivers:
                continue
            assert design.circuit.cells[name].ctype.name == cell.ctype.name

    def test_clone_structurally_valid(self, upsized):
        _, _, design = upsized
        report = validate_circuit(design.circuit)
        assert report.ok, report.errors[:3]

    def test_connectivity_preserved(self, upsized):
        original, _, design = upsized
        assert set(design.circuit.nets) == set(original.circuit.nets)
        for name, net in original.circuit.nets.items():
            assert design.circuit.nets[name].fanout == net.fanout

    def test_clock_marking_preserved(self, upsized):
        original, _, design = upsized
        for name, net in original.circuit.nets.items():
            assert design.circuit.nets[name].is_clock == net.is_clock

    def test_x4_saturates(self, s27_design):
        """Upsizing an already-maximal driver is a no-op, not an error."""
        all_nets = list(s27_design.circuit.nets)
        design = upsize_drivers(s27_design, all_nets, steps=5)
        for cell in design.circuit.cells.values():
            assert cell.ctype.drive in ("X1", "X2", "X4")

    def test_analysis_still_runs(self, upsized):
        _, _, design = upsized
        result = CrosstalkSTA(design).run(AnalysisMode.ONE_STEP)
        assert result.longest_delay > 0


# -- the kept layout ---------------------------------------------------------


def _driven_nets(design):
    return [
        name
        for name, net in design.circuit.nets.items()
        if net.driver_cell() is not None
    ]


def _assert_same_layout(got, want):
    """Placement, every route's segments, the overflow count, the
    extraction and every ``NetLoad`` in order, float for float."""
    placed, ref = got.placement, want.placement
    assert placed.circuit is got.circuit
    assert placed.cell_pos == ref.cell_pos
    assert placed.port_pos == ref.port_pos
    assert (placed.n_rows, placed.die_width, placed.die_height, placed.row_pitch) == (
        ref.n_rows,
        ref.die_width,
        ref.die_height,
        ref.row_pitch,
    )
    assert list(got.routing.routes) == list(want.routing.routes)
    for name, route in want.routing.routes.items():
        assert got.routing.routes[name].segments() == route.segments(), name
    assert got.routing.overflow_count == want.routing.overflow_count
    assert list(got.extraction.nets) == list(want.extraction.nets)
    for name, pnet in want.extraction.nets.items():
        mine = got.extraction.nets[name]
        assert mine.c_wire_ground == pnet.c_wire_ground, name
        assert list(mine.couplings.items()) == list(pnet.couplings.items()), name
        assert mine.rc_tree.nodes == pnet.rc_tree.nodes, name
    assert list(got.loads) == list(want.loads)
    for name, load in want.loads.items():
        mine = got.loads[name]
        assert mine.c_fixed.hex() == load.c_fixed.hex(), name
        assert list(mine.couplings.items()) == list(load.couplings.items()), name
        assert list(mine.sink_elmore.items()) == list(load.sink_elmore.items()), name


def _upsize_cases():
    """(design, nets, steps): single nets spread over each design, one
    multi-net edit, and every net at a step count that saturates at X4."""
    cases = []
    for name in ("s27", "small", "s35932"):
        design = build_design(name)
        nets = _driven_nets(design)
        stride = max(1, len(nets) // 3)
        for net in nets[::stride][:3]:
            cases.append(pytest.param(name, [net], 1, id=f"{name}-{net}"))
        cases.append(pytest.param(name, nets[:6], 1, id=f"{name}-multi"))
        cases.append(pytest.param(name, list(design.circuit.nets), 5, id=f"{name}-x4"))
    return cases


@pytest.mark.parametrize("design_name, nets, steps", _upsize_cases())
def test_upsize_keeps_the_layout_a_full_reflow_builds(design_name, nets, steps):
    """Drive variants share their family's footprint, so re-running
    place, route and extract on the upsized clone rebuilds the very
    layout the upsize kept, and the same loads."""
    design = build_design(design_name)
    upsized = upsize_drivers(design, nets, steps=steps)
    changed = [
        name
        for name, cell in design.circuit.cells.items()
        if upsized.circuit.cells[name].ctype.name != cell.ctype.name
    ]
    assert changed, "the edit upsized no cell"
    assert upsized.routing is design.routing
    assert upsized.extraction is design.extraction
    _assert_same_layout(upsized, prepare_design(upsized.circuit))


def test_only_the_upsized_cells_nets_take_new_loads(small_design):
    nets = _driven_nets(small_design)[:3]
    upsized = upsize_drivers(small_design, nets)
    touched = {
        pin.net.name
        for net in nets
        for pin in small_design.circuit.nets[net].driver_cell().pins.values()
        if pin.net is not None
    }
    for name, load in small_design.loads.items():
        if name in touched:
            assert upsized.loads[name] is not load
            assert upsized.loads[name].couplings == load.couplings
        else:
            assert upsized.loads[name] is load
    # The upsized drivers' output caps moved.
    assert all(
        upsized.loads[net].c_fixed != small_design.loads[net].c_fixed for net in nets
    )


@pytest.mark.parametrize("design_name", ["s27", "small"])
def test_upsize_keeps_a_committed_respace(design_name):
    """Respace the most-coupled net, then upsize an unrelated driver:
    the respaced net keeps its shielded route and its reduced coupling
    (a full re-place and re-route brought the old route back)."""
    design = build_design(design_name)
    victim = max(design.loads, key=lambda n: design.loads[n].c_coupling_total)
    respaced = respace_nets(design, [victim])
    assert (
        respaced.loads[victim].c_coupling_total
        < design.loads[victim].c_coupling_total
    )
    other = next(
        name
        for name in _driven_nets(design)
        if name != victim
        and victim not in design.loads[name].couplings
        and victim
        not in {
            pin.net.name
            for pin in design.circuit.nets[name].driver_cell().pins.values()
            if pin.net is not None
        }
        and design.circuit.nets[name].driver_cell().ctype.drive != "X4"
    )
    upsized = upsize_drivers(respaced, [other])
    assert (
        upsized.routing.routes[victim].segments()
        == respaced.routing.routes[victim].segments()
    )
    assert upsized.loads[victim] is respaced.loads[victim]
    assert (
        upsized.loads[victim].c_coupling_total
        == respaced.loads[victim].c_coupling_total
    )


def test_upsize_keeps_a_committed_coupling_edit(small_design):
    """A set coupling survives an upsize of the net's own driver on both
    sides of the pair: the touched net takes a new fixed load only."""
    net = next(
        name
        for name in _driven_nets(small_design)
        if small_design.loads[name].couplings
        and small_design.circuit.nets[name].driver_cell().ctype.drive != "X4"
    )
    neighbour = next(iter(small_design.loads[net].couplings))
    edited = adjust_coupling(small_design, net, neighbour, cap=3e-15)
    upsized = upsize_drivers(edited, [net])
    assert upsized.loads[net].couplings[neighbour] == 3e-15
    assert upsized.loads[neighbour].couplings[net] == 3e-15
    assert upsized.loads[net].c_fixed != edited.loads[net].c_fixed


def test_upsize_refuses_a_footprint_change(small_design, monkeypatch):
    """No shipped drive variant changes its cell's width; one that did
    would need a re-place, which would undo committed respace routing."""
    original = CellType.transistor_count

    def wider_x2(self):
        count = original(self)
        return count + 4 if self.name.endswith("_X2") else count

    monkeypatch.setattr(CellType, "transistor_count", wider_x2)
    net = next(
        name
        for name in _driven_nets(small_design)
        if small_design.circuit.nets[name].driver_cell().ctype.drive == "X1"
    )
    driver = small_design.circuit.nets[net].driver_cell().name
    with pytest.raises(InputError, match=driver):
        upsize_drivers(small_design, [net])
