"""Tests for NLDM characterization, the Liberty writer/reader and the
table-lookup delay calculator."""

import numpy as np
import pytest

from repro.characterize import (
    NldmDelayCalculator,
    characterize_cell,
    characterize_library,
    parse_liberty,
    write_liberty,
)
from repro.characterize.liberty import LibertyParseError, parse_groups
from repro.waveform import CouplingLoad, GateDelayCalculator
from repro.waveform.pwl import FALLING, RISING

SLEWS = [50e-12, 150e-12, 400e-12]
LOADS = [10e-15, 40e-15, 120e-15]


@pytest.fixture(scope="module")
def char(library):
    return characterize_library(
        library, cells=["INV_X1", "NAND2_X1", "DFF_X1"], slews=SLEWS, loads=LOADS
    )


class TestCharacterize:
    def test_arc_count(self, char):
        # INV: 1 pin x 2 dirs; NAND2: 2 x 2; DFF output driver: 1 x 2.
        assert char.arc_count() == 2 + 4 + 2

    def test_tables_positive(self, char):
        for cell in char.cells.values():
            for arc in cell.arcs.values():
                assert np.all(arc.delay > 0)
                assert np.all(arc.transition > 0)

    def test_delay_monotone_in_load(self, char):
        for cell in char.cells.values():
            for arc in cell.arcs.values():
                assert arc.monotone_in_load(), (arc.cell, arc.pin)

    def test_lookup_exact_on_grid(self, char):
        arc = char.cell("INV_X1").arc("A", RISING)
        delay, transition = arc.lookup(SLEWS[1], LOADS[1])
        assert delay == pytest.approx(arc.delay[1, 1])
        assert transition == pytest.approx(arc.transition[1, 1])

    def test_lookup_clamps_outside_grid(self, char):
        arc = char.cell("INV_X1").arc("A", RISING)
        low = arc.lookup(1e-15, 1e-18)
        assert low[0] == pytest.approx(arc.delay[0, 0])
        high = arc.lookup(1.0, 1.0)
        assert high[0] == pytest.approx(arc.delay[-1, -1])

    def test_interpolation_between_grid_points(self, char):
        arc = char.cell("INV_X1").arc("A", RISING)
        mid, _ = arc.lookup(
            0.5 * (SLEWS[0] + SLEWS[1]), 0.5 * (LOADS[0] + LOADS[1])
        )
        corners = arc.delay[0:2, 0:2]
        assert corners.min() <= mid <= corners.max()

    def test_output_direction_inverted(self, char):
        arc = char.cell("INV_X1").arc("A", RISING)
        assert arc.output_direction == FALLING


class TestDefaultGrids:
    def test_grids_sorted_and_positive(self):
        from repro.characterize import default_load_grid, default_slew_grid

        for grid in (default_slew_grid(), default_load_grid()):
            assert all(v > 0 for v in grid)
            assert grid == sorted(grid)

    def test_grids_cover_routed_design_range(self, s27_design):
        """The default grids bracket the loads/slews real designs hit, so
        the NLDM calculator interpolates instead of clamping."""
        from repro.characterize import default_load_grid

        loads = [
            load.c_fixed + load.c_coupling_total
            for load in s27_design.loads.values()
        ]
        assert max(loads) <= default_load_grid()[-1]


class TestLiberty:
    def test_roundtrip_preserves_everything(self, char):
        back = parse_liberty(write_liberty(char))
        assert sorted(back.cells) == sorted(char.cells)
        assert np.allclose(back.slews, char.slews)
        assert np.allclose(back.loads, char.loads)
        for name, cell in char.cells.items():
            for key, arc in cell.arcs.items():
                other = back.cells[name].arcs[key]
                assert np.allclose(other.delay, arc.delay, rtol=1e-4)
                assert np.allclose(other.transition, arc.transition, rtol=1e-4)

    def test_generic_parser_tree(self):
        tree = parse_groups(
            'library (x) { foo : "bar"; cell (a) { pin (Y) { direction : output; } } }'
        )
        assert tree.name == "library"
        assert tree.attrs["foo"] == "bar"
        assert tree.find("cell")[0].find("pin")[0].attrs["direction"] == "output"

    def test_comments_stripped(self):
        tree = parse_groups("library (x) { /* note */ a : 1; // eol\n }")
        assert tree.attrs["a"] == "1"

    def test_unbalanced_rejected(self):
        with pytest.raises(LibertyParseError):
            parse_groups("library (x) {")

    def test_wrong_top_group_rejected(self, char):
        with pytest.raises(LibertyParseError, match="library"):
            parse_liberty("cell (a) { }")

    def test_wrong_value_count_rejected(self, char):
        text = write_liberty(char)
        broken = text.replace('values ( \\', 'values ( "1, 2", \\', 1)
        with pytest.raises(LibertyParseError, match="expected"):
            parse_liberty(broken)


class TestNldmCalculator:
    def test_matches_transistor_level_on_grid(self, char, library):
        nldm = NldmDelayCalculator(char, coupling_factor=1.0)
        exact = GateDelayCalculator()
        for slew in SLEWS:
            for load in LOADS:
                approx = nldm.compute_arc_relative(
                    library["INV_X1"], "A", RISING, slew, CouplingLoad(load)
                )
                reference = exact.compute_arc_relative(
                    library["INV_X1"], "A", RISING, slew, CouplingLoad(load)
                )
                assert approx.t_cross == pytest.approx(reference.t_cross, rel=0.05)

    def test_coupling_factor_folds_active_cap(self, char, library):
        doubled = NldmDelayCalculator(char, coupling_factor=2.0)
        ignored = NldmDelayCalculator(char, coupling_factor=1.0)
        load = CouplingLoad(c_ground=20e-15, c_couple_active=20e-15)
        slow = doubled.compute_arc_relative(library["INV_X1"], "A", RISING, 100e-12, load)
        fast = ignored.compute_arc_relative(library["INV_X1"], "A", RISING, 100e-12, load)
        assert slow.t_cross > fast.t_cross

    def test_cannot_express_active_model(self, char, library):
        """The table model underestimates the paper's active coupling:
        its doubled-cap answer sits below the transistor-level drop
        model's, for the same situation."""
        nldm = NldmDelayCalculator(char, coupling_factor=2.0)
        exact = GateDelayCalculator()
        load = CouplingLoad(c_ground=20e-15, c_couple_active=25e-15)
        table_answer = nldm.compute_arc_relative(
            library["INV_X1"], "A", RISING, 100e-12, load
        )
        active_answer = exact.compute_arc_relative(
            library["INV_X1"], "A", RISING, 100e-12, load
        )
        assert table_answer.t_cross < active_answer.t_cross

    def test_invalid_factor(self, char):
        with pytest.raises(ValueError):
            NldmDelayCalculator(char, coupling_factor=-1.0)

    def test_interface_parity(self, char, library):
        """A calculator subclass: same statistics surface as the
        transistor-level calculator."""
        nldm = NldmDelayCalculator(char)
        assert isinstance(nldm, GateDelayCalculator)
        assert set(nldm.cache_stats()) == set(GateDelayCalculator().cache_stats())


class TestNldmAnalysis:
    def test_s27_best_case_tracks_exact(self, s27_design):
        """The table-lookup calculator drives the analyzer unchanged (it
        answers the propagator's canonical keys from its tables), and
        coupling-free, its bound tracks the transistor-level one."""
        from repro.core.analyzer import CrosstalkSTA
        from repro.core.modes import AnalysisMode, StaConfig

        config = StaConfig(mode=AnalysisMode.BEST_CASE)
        nldm = NldmDelayCalculator(characterize_library(), coupling_factor=1.0)
        table = CrosstalkSTA(s27_design, config, calculator=nldm).run()
        exact = CrosstalkSTA(s27_design, config).run()
        assert table.cache_stats["evaluations"] > 0
        assert table.longest_delay == pytest.approx(exact.longest_delay, rel=0.02)

