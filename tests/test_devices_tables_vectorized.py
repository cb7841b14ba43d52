"""Vectorized table lookups vs the scalar reference.

The batch engine rests on ``lookup_many``/``gradient_many`` and the
stacked :class:`GridBank`; these tests pin exact (bitwise) agreement with
the scalar paths, including outside the tabulated range where the clamped
cell index extrapolates linearly.
"""

import numpy as np
import pytest

from repro.devices.mosfet import Mosfet, MosfetParams
from repro.devices.tables import GridBank, StageTable, _BilinearGrid


@pytest.fixture(scope="module")
def grid():
    x = np.linspace(0.0, 1.0, 11)
    y = np.linspace(-0.5, 0.5, 21)
    values = np.sin(np.outer(x, np.arange(21) * 0.3))
    return _BilinearGrid(x, y, values)


@pytest.fixture(scope="module")
def stage_tables(process):
    tables = []
    for wp, wn in [(400e-9, 200e-9), (800e-9, 400e-9), (250e-9, 600e-9)]:
        pu = Mosfet(MosfetParams(polarity=-1, width=wp, length=process.l_min), process)
        pd = Mosfet(MosfetParams(polarity=1, width=wn, length=process.l_min), process)
        tables.append(StageTable(pu, pd, process=process))
    return tables


def _sample_points(rng, n):
    # Inside, at the edges, and well outside the axes.
    x = rng.uniform(-0.6, 1.6, n)
    y = rng.uniform(-1.2, 1.2, n)
    x[:3] = [0.0, 1.0, 1.7]
    y[:3] = [-0.5, 0.5, -1.9]
    return x, y


class TestBilinearVectorized:
    def test_lookup_many_matches_scalar_bitwise(self, grid):
        rng = np.random.default_rng(0)
        x, y = _sample_points(rng, 200)
        vector = grid.lookup_many(x, y)
        scalar = np.array([grid.lookup(xi, yi) for xi, yi in zip(x, y)])
        assert np.array_equal(vector, scalar)

    def test_gradient_many_matches_scalar_bitwise(self, grid):
        rng = np.random.default_rng(1)
        x, y = _sample_points(rng, 200)
        value_v, dvalue_v = grid.gradient_many(x, y)
        pairs = [grid.lookup_with_dy(xi, yi) for xi, yi in zip(x, y)]
        assert np.array_equal(value_v, np.array([p[0] for p in pairs]))
        assert np.array_equal(dvalue_v, np.array([p[1] for p in pairs]))

    def test_lookup_array_delegates(self, grid):
        rng = np.random.default_rng(2)
        x, y = _sample_points(rng, 50)
        assert np.array_equal(grid.lookup_array(x, y), grid.lookup_many(x, y))


class TestGridBank:
    def test_bank_matches_member_grids(self, stage_tables):
        bank = GridBank([t.grid for t in stage_tables])
        assert len(bank) == len(stage_tables)
        rng = np.random.default_rng(3)
        n = 160
        k = rng.integers(0, len(stage_tables), n)
        # The axes span -0.3..3.6 V: sample beyond both ends, and pin the
        # last cell of the last member (the highest flat-table offsets).
        x = rng.uniform(-0.8, 4.1, n)
        y = rng.uniform(-0.8, 4.1, n)
        last = len(stage_tables) - 1
        k[:6] = last
        x[:6] = [3.6, 3.6, 3.59, 4.1, -0.3, -0.8]
        y[:6] = [3.6, 3.59, 3.6, 4.1, -0.3, 3.6]
        value, dvalue = bank.gradient_many(k, x, y)
        lookup = bank.lookup_many(k, x, y)
        for i in range(n):
            grid = stage_tables[k[i]].grid
            v_ref, d_ref = grid.lookup_with_dy(x[i], y[i])
            assert value[i] == v_ref
            assert dvalue[i] == d_ref
            assert lookup[i] == grid.lookup(x[i], y[i])

    def test_incongruent_grids_rejected(self, grid):
        other = _BilinearGrid(
            np.linspace(0.0, 2.0, 11), grid.y_axis.copy(), grid.values.copy()
        )
        with pytest.raises(ValueError):
            GridBank([grid, other])

    def test_empty_bank_rejected(self):
        with pytest.raises(ValueError):
            GridBank([])


class TestStageTableVectorized:
    def test_current_many_matches_scalar(self, stage_tables):
        table = stage_tables[0]
        rng = np.random.default_rng(4)
        vin = rng.uniform(-0.4, 2.2, 80)
        vout = rng.uniform(-0.4, 2.2, 80)
        many = table.current_many(vin, vout)
        with_d = table.current_with_dvout_many(vin, vout)
        for i in range(80):
            assert many[i] == table.current(vin[i], vout[i])
            ref_v, ref_d = table.current_with_dvout(vin[i], vout[i])
            assert with_d[0][i] == ref_v
            assert with_d[1][i] == ref_d
