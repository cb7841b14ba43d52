"""Tests for the tabulated device models."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices.mosfet import nmos, pmos
from repro.devices.params import default_process
from repro.devices.tables import StageTable

VDD = default_process().vdd


@pytest.fixture(scope="module")
def nmos_table():
    """One tabulated NMOS: a pull-down-only stage, whose current into
    the output node is ``-ids(vin, vout)``."""
    return StageTable(None, nmos(2e-6))


@pytest.fixture(scope="module")
def stage_table():
    return StageTable(pmos(4e-6), nmos(2e-6))


def _ids(table, vgs, vds):
    """The tabulated drain current of a pull-down-only stage."""
    return -table.current(vgs, vds)


def _max_interpolation_error(table, samples=40):
    """Worst absolute error against the analytic model at off-grid
    sample points, normalised by the device on-current."""
    axis = table.grid.x_axis
    mid = 0.5 * (axis[:-1] + axis[1:])
    probe = mid[:: max(1, mid.size // samples)]
    vgs, vds = np.meshgrid(probe, probe, indexing="ij")
    device = table.pull_down
    error = np.abs(device.ids_array(vgs, vds) + table.current_array(vgs, vds))
    return float(np.max(error) / max(device.saturation_current(), 1e-12))


class TestDeviceTable:
    """Accuracy of one tabulated device as the STA reads it, through a
    pull-down-only :class:`StageTable`."""

    def test_matches_analytic_on_grid_points(self, nmos_table):
        device = nmos_table.pull_down
        axis = nmos_table.grid.x_axis
        for vgs in axis[::20]:
            for vds in axis[::20]:
                assert _ids(nmos_table, vgs, vds) == pytest.approx(
                    device.ids(vgs, vds), rel=1e-9, abs=1e-15
                )

    def test_interpolation_error_small(self, nmos_table):
        assert _max_interpolation_error(nmos_table) < 1e-3

    def test_finer_table_is_more_accurate(self):
        coarse = StageTable(None, nmos(2e-6), points=31)
        fine = StageTable(None, nmos(2e-6), points=241)
        assert _max_interpolation_error(fine) < _max_interpolation_error(coarse)

    def test_clamps_outside_range(self, nmos_table):
        inside = _ids(nmos_table, VDD + 0.3, VDD + 0.3)
        outside = _ids(nmos_table, VDD + 5.0, VDD + 5.0)
        assert outside == pytest.approx(inside, rel=1e-9)

    def test_derivative_consistent_with_finite_difference(self, nmos_table):
        vgs, vds = 2.0, 1.0
        _, dcurrent = nmos_table.current_with_dvout(vgs, vds)
        gds = -dcurrent
        h = 1e-4
        fd = (_ids(nmos_table, vgs, vds + h) - _ids(nmos_table, vgs, vds - h)) / (2 * h)
        assert gds == pytest.approx(fd, rel=0.05)

    @given(
        vgs=st.floats(min_value=0.0, max_value=VDD),
        vds=st.floats(min_value=0.0, max_value=VDD),
    )
    @settings(max_examples=60, deadline=None)
    def test_interpolation_close_to_analytic(self, nmos_table, vgs, vds):
        exact = nmos_table.pull_down.ids(vgs, vds)
        scale = nmos_table.pull_down.saturation_current()
        assert _ids(nmos_table, vgs, vds) == pytest.approx(exact, abs=1e-3 * scale)

    def test_vectorised_lookup_matches_scalar(self, nmos_table):
        vgs = np.linspace(0, VDD, 7)
        vds = np.linspace(0, VDD, 7)
        vec = -nmos_table.current_array(vgs, vds)
        for i in range(7):
            assert vec[i] == pytest.approx(_ids(nmos_table, vgs[i], vds[i]), rel=1e-12, abs=1e-18)

    def test_shape_mismatch_rejected(self):
        from repro.devices.tables import _BilinearGrid

        with pytest.raises(ValueError, match="shape"):
            _BilinearGrid(np.arange(3.0), np.arange(4.0), np.zeros((3, 3)))


class TestStageTable:
    def test_pull_up_wins_with_input_low(self, stage_table):
        assert stage_table.current(0.0, 0.5 * VDD) > 0

    def test_pull_down_wins_with_input_high(self, stage_table):
        assert stage_table.current(VDD, 0.5 * VDD) < 0

    def test_settled_rails_near_zero_current(self, stage_table):
        on = abs(stage_table.current(0.0, 0.5 * VDD))
        assert abs(stage_table.current(0.0, VDD)) < 1e-3 * on
        assert abs(stage_table.current(VDD, 0.0)) < 1e-3 * on

    def test_derivative_is_negative_at_midpoint(self, stage_table):
        """More output voltage -> less pull-up current / more pull-down:
        the stage conductance is negative (stabilising) mid-transition."""
        _, dvout = stage_table.current_with_dvout(0.5 * VDD, 0.5 * VDD)
        assert dvout < 0

    def test_requires_a_device(self):
        with pytest.raises(ValueError, match="at least one"):
            StageTable(None, None)

    def test_pull_down_only_stage(self):
        table = StageTable(None, nmos(2e-6))
        assert table.current(VDD, VDD) < 0
        assert table.current(0.0, VDD) == pytest.approx(0.0, abs=1e-9)

    def test_pull_up_only_stage(self):
        table = StageTable(pmos(4e-6), None)
        assert table.current(0.0, 0.0) > 0
