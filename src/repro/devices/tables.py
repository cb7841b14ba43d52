"""Tabulated DC device models.

Following TETA and the paper (Section 3), the DC behaviour of transistors is
stored in tables and interpolated during timing analysis.  The paper notes
that "due to the fine discretization of the tables we do not get convergence
problems" with classical Newton iteration -- so the tables here default to a
fine grid and expose both the interpolated current and its partial
derivative with respect to the output voltage, which is exactly what the
Newton loop of the waveform engine needs.

The table is :class:`StageTable`: the *net* output-node current
``I(V_in, V_out) = I_pullup - I_pulldown`` of a collapsed CMOS stage,
sampled from the analytic device model of :mod:`repro.devices.mosfet`.
Collapsing the stage into one table halves the interpolation work per
Newton iteration, the dominant cost of the whole analysis.  The
validation simulator (:mod:`repro.spice`) evaluates the same analytic
model directly, without a table.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.devices.mosfet import Mosfet
from repro.devices.params import ProcessParams, default_process
from repro.errors import InputError


def _cell_locate(f, n: int):
    """Clamped cell index and in-cell fraction for a fractional grid
    coordinate ``f`` on an axis of ``n`` points.

    This defines the edge handling of every lookup flavour (scalar,
    scalar-with-gradient, vectorized, banked): the cell index is the
    truncation of ``f`` clamped to ``[0, n - 2]`` and the fraction is
    ``f - index`` clamped to ``[0, 1]``.

    Accepts a python float (returns ``(int, float)``) or a numpy array
    (returns ``(int array, float array)``).  Both stage solvers inline
    the same clamp in their step loops, for the input voltage once per
    time step and for the output voltage once per Newton iteration, and
    a test holds each copy bit for bit to a reference built on this
    function: ``tests/test_waveform_stage.py::TestSettleLoopOracle``
    the scalar solver's to :meth:`_BilinearGrid.lookup_with_dy`, and
    ``tests/test_waveform_batchstage.py::TestFusedLoopOracle`` the batch
    solver's lockstep row to a copy of its loop over
    :meth:`GridBank.prepare_x` and :meth:`GridBank.gradient_many_prepared`.
    The scalar solver calls the scalar branch once per solver and input
    rail, for its rail columns.
    """
    if isinstance(f, np.ndarray):
        # Explicit maximum/minimum rather than np.clip: same arithmetic
        # (clip is minimum(maximum(f, lo), hi)), none of the wrapper
        # overhead.
        i = f.astype(int)
        np.maximum(i, 0, out=i)
        np.minimum(i, n - 2, out=i)
        t = f - i
        np.maximum(t, 0.0, out=t)
        np.minimum(t, 1.0, out=t)
        return i, t
    i = int(f)
    if i < 0:
        i = 0
    elif i > n - 2:
        i = n - 2
    t = f - i
    if t < 0.0:
        t = 0.0
    elif t > 1.0:
        t = 1.0
    return i, t


class _BilinearGrid:
    """Shared bilinear-interpolation machinery over a regular 2-D grid."""

    def __init__(self, x_axis: np.ndarray, y_axis: np.ndarray, values: np.ndarray):
        if values.shape != (x_axis.size, y_axis.size):
            raise InputError(
                f"table shape {values.shape} does not match axes "
                f"({x_axis.size}, {y_axis.size})"
            )
        if x_axis.size < 2 or y_axis.size < 2:
            raise InputError("table axes need at least two points")
        self.x_axis = np.asarray(x_axis, dtype=float)
        self.y_axis = np.asarray(y_axis, dtype=float)
        self.values = np.asarray(values, dtype=float)
        # A single NaN/Inf entry would silently poison every Newton solve
        # that interpolates near it; reject the table at load instead.
        if not (np.isfinite(self.x_axis).all() and np.isfinite(self.y_axis).all()):
            raise InputError("device table axes contain non-finite values")
        if not np.isfinite(self.values).all():
            bad = int(np.size(self.values) - np.count_nonzero(np.isfinite(self.values)))
            raise InputError(
                f"device table contains {bad} non-finite (NaN/Inf) entries; "
                "refusing to load it"
            )
        self._x0 = float(self.x_axis[0])
        self._y0 = float(self.y_axis[0])
        self._dx = float(self.x_axis[1] - self.x_axis[0])
        self._dy = float(self.y_axis[1] - self.y_axis[0])
        self._nx = self.x_axis.size
        self._ny = self.y_axis.size

    def lookup(self, x: float, y: float) -> float:
        """Bilinear interpolation with clamping at the table edges."""
        ix, tx = _cell_locate((x - self._x0) / self._dx, self._nx)
        iy, ty = _cell_locate((y - self._y0) / self._dy, self._ny)
        v = self.values
        v00 = v[ix, iy]
        v10 = v[ix + 1, iy]
        v01 = v[ix, iy + 1]
        v11 = v[ix + 1, iy + 1]
        return (
            v00 * (1.0 - tx) * (1.0 - ty)
            + v10 * tx * (1.0 - ty)
            + v01 * (1.0 - tx) * ty
            + v11 * tx * ty
        )

    def lookup_with_dy(self, x: float, y: float) -> tuple[float, float]:
        """Value and partial derivative with respect to ``y``.

        The derivative of the bilinear interpolant is piecewise constant in
        ``y`` within a cell -- sufficient for Newton on a fine grid.
        """
        ix, tx = _cell_locate((x - self._x0) / self._dx, self._nx)
        iy, ty = _cell_locate((y - self._y0) / self._dy, self._ny)
        v = self.values
        v00 = v[ix, iy]
        v10 = v[ix + 1, iy]
        v01 = v[ix, iy + 1]
        v11 = v[ix + 1, iy + 1]
        lo = v00 * (1.0 - tx) + v10 * tx
        hi = v01 * (1.0 - tx) + v11 * tx
        value = lo * (1.0 - ty) + hi * ty
        dvalue_dy = (hi - lo) / self._dy
        return value, dvalue_dy

    def lookup_many(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Vectorised bilinear interpolation, edge handling identical to
        the scalar :meth:`lookup` (shared :func:`_cell_locate`)."""
        ix, tx = _cell_locate((np.asarray(x, float) - self._x0) / self._dx, self._nx)
        iy, ty = _cell_locate((np.asarray(y, float) - self._y0) / self._dy, self._ny)
        v = self.values
        return (
            v[ix, iy] * (1.0 - tx) * (1.0 - ty)
            + v[ix + 1, iy] * tx * (1.0 - ty)
            + v[ix, iy + 1] * (1.0 - tx) * ty
            + v[ix + 1, iy + 1] * tx * ty
        )

    def gradient_many(
        self, x: np.ndarray, y: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorised value and partial derivative with respect to ``y``,
        term-for-term the same arithmetic as :meth:`lookup_with_dy`."""
        ix, tx = _cell_locate((np.asarray(x, float) - self._x0) / self._dx, self._nx)
        iy, ty = _cell_locate((np.asarray(y, float) - self._y0) / self._dy, self._ny)
        v = self.values
        v00 = v[ix, iy]
        v10 = v[ix + 1, iy]
        v01 = v[ix, iy + 1]
        v11 = v[ix + 1, iy + 1]
        lo = v00 * (1.0 - tx) + v10 * tx
        hi = v01 * (1.0 - tx) + v11 * tx
        value = lo * (1.0 - ty) + hi * ty
        dvalue_dy = (hi - lo) / self._dy
        return value, dvalue_dy

    def lookup_array(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Vectorised bilinear interpolation (what
        :meth:`StageTable.current_array` reads)."""
        return self.lookup_many(x, y)


class BankLayout(NamedTuple):
    """Where a :class:`GridBank` keeps its values, for a loop that inlines
    :meth:`GridBank.gradient_many_prepared` (the batch stage solver's).

    Corner ``(ix, iy)`` of table ``k``'s cell sits at flat index
    ``base = (k * nx + ix) * ny + iy`` of ``flat``; the cell's other
    three corners sit at ``base`` of the shifted views ``flat_x1``
    (``ix + 1``), ``flat_y1`` (``iy + 1``) and ``flat_x1y1``.  An axis
    value ``v`` has the fractional grid coordinate ``(v - x0) / dx``
    (``(v - y0) / dy`` on the y axis), located by :func:`_cell_locate`.
    """

    flat: np.ndarray
    flat_x1: np.ndarray
    flat_y1: np.ndarray
    flat_x1y1: np.ndarray
    x0: float
    dx: float
    nx: int
    y0: float
    dy: float
    ny: int


class GridBank:
    """A stack of congruent :class:`_BilinearGrid` tables for per-element
    batched lookup.

    The batch stage solver integrates arcs of *different* cells in one
    array-shaped loop; each element carries an index ``k`` selecting its
    table.  All grids must share the same axes (stage tables built from
    one process with the same point count do), so one fancy-indexed read
    ``values[k, ix, iy]`` serves the whole batch.
    """

    def __init__(self, grids: list[_BilinearGrid]):
        if not grids:
            raise InputError("grid bank needs at least one grid")
        base = grids[0]
        for grid in grids[1:]:
            if not (
                np.array_equal(grid.x_axis, base.x_axis)
                and np.array_equal(grid.y_axis, base.y_axis)
            ):
                raise InputError("grid bank requires congruent grid axes")
        self._x0 = base._x0
        self._y0 = base._y0
        self._dx = base._dx
        self._dy = base._dy
        self._nx = base._nx
        self._ny = base._ny
        self.values = np.stack([grid.values for grid in grids])
        self._flat = self.values.reshape(-1)
        # The other three corners of cell ``base`` sit at ``base + ny``,
        # ``base + 1`` and ``base + ny + 1``: shifted views of the flat
        # table read them without adding offsets to the indices.
        self._flat_x1 = self._flat[self._ny:]
        self._flat_y1 = self._flat[1:]
        self._flat_x1y1 = self._flat[self._ny + 1:]
        self.layout = BankLayout(
            self._flat, self._flat_x1, self._flat_y1, self._flat_x1y1,
            self._x0, self._dx, self._nx, self._y0, self._dy, self._ny,
        )

    def __len__(self) -> int:
        return self.values.shape[0]

    def lookup_many(self, k: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Per-element bilinear interpolation: element ``i`` reads table
        ``k[i]`` at ``(x[i], y[i])``."""
        ix, tx = _cell_locate((np.asarray(x, float) - self._x0) / self._dx, self._nx)
        iy, ty = _cell_locate((np.asarray(y, float) - self._y0) / self._dy, self._ny)
        base = (k * self._nx + ix) * self._ny + iy
        flat = self.values.reshape(-1)
        return (
            flat[base] * (1.0 - tx) * (1.0 - ty)
            + flat[base + self._ny] * tx * (1.0 - ty)
            + flat[base + 1] * (1.0 - tx) * ty
            + flat[base + self._ny + 1] * tx * ty
        )

    def gradient_many(
        self, k: np.ndarray, x: np.ndarray, y: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-element value and d/dy, matching
        :meth:`_BilinearGrid.lookup_with_dy` arithmetic exactly."""
        return self.gradient_many_prepared(*self.prepare_x(k, x), y)

    def prepare_x(
        self, k: np.ndarray, x: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Precompute the x-side of :meth:`gradient_many` for a fixed
        ``(k, x)`` batch: the flattened row offset plus the x-cell
        fraction and its complement.  Within one Newton solve only ``y``
        changes, so the x-side locate is paid once per time step instead
        of once per function evaluation; the batch stage solver inlines
        it in its lockstep row."""
        ix, tx = _cell_locate((np.asarray(x, float) - self._x0) / self._dx, self._nx)
        row = (k * self._nx + ix) * self._ny
        return row, tx, 1.0 - tx

    def gradient_many_prepared(
        self,
        row: np.ndarray,
        tx: np.ndarray,
        one_m_tx: np.ndarray,
        y: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`gradient_many` with the x-side prepared by
        :meth:`prepare_x`.  Every float operation keeps the reference
        evaluation order (``v00*(1-tx) + v10*tx`` etc.), so the results
        are bit-identical; the in-place updates only touch the freshly
        gathered corner arrays."""
        iy, ty = _cell_locate((np.asarray(y, float) - self._y0) / self._dy, self._ny)
        # One flat gather per corner instead of four multi-axis fancy
        # indexes; the elements read are identical.
        base = row + iy
        v00 = self._flat[base]
        v10 = self._flat_x1[base]
        v01 = self._flat_y1[base]
        v11 = self._flat_x1y1[base]
        np.multiply(v00, one_m_tx, out=v00)
        v00 += np.multiply(v10, tx, out=v10)  # lo = v00*(1-tx) + v10*tx
        np.multiply(v01, one_m_tx, out=v01)
        v01 += np.multiply(v11, tx, out=v11)  # hi = v01*(1-tx) + v11*tx
        dvalue_dy = np.subtract(v01, v00)
        dvalue_dy /= self._dy  # (hi - lo) / dy
        one_m_ty = 1.0 - ty
        np.multiply(v00, one_m_ty, out=v00)
        v00 += np.multiply(v01, ty, out=v01)  # value = lo*(1-ty) + hi*ty
        return v00, dvalue_dy


class StageTable:
    """Net output-node current of a collapsed CMOS stage.

    For a stage whose pull-up and pull-down networks have been collapsed to
    single equivalent PMOS/NMOS devices driven by the same switching input,
    the output node obeys ``C dV/dt = I(V_in, V_out)`` with

    ``I(V_in, V_out) = -I_P(V_in - V_DD, V_out - V_DD) - I_N(V_in, V_out)``

    where ``I_P``/``I_N`` follow the drain-source convention of
    :class:`Mosfet` (current *into* the output node is positive here).
    Tabulating ``I`` directly gives the waveform engine a single lookup per
    Newton iteration.
    """

    DEFAULT_POINTS = 121

    def __init__(
        self,
        pull_up: Mosfet | None,
        pull_down: Mosfet | None,
        process: ProcessParams | None = None,
        points: int = DEFAULT_POINTS,
        margin: float = 0.3,
    ):
        if pull_up is None and pull_down is None:
            raise InputError("stage needs at least one of pull-up / pull-down")
        self.process = process if process is not None else default_process()
        vdd = self.process.vdd
        axis = np.linspace(-margin, vdd + margin, points)
        vin, vout = np.meshgrid(axis, axis, indexing="ij")
        current = np.zeros_like(vin)
        if pull_up is not None:
            # PMOS source at VDD: V_GS = vin - vdd, V_DS = vout - vdd.
            # Its (negative) drain current flows out of VDD into the node.
            current -= pull_up.ids_array(vin - vdd, vout - vdd)
        if pull_down is not None:
            # NMOS source at GND: V_GS = vin, V_DS = vout; drains the node.
            current -= pull_down.ids_array(vin, vout)
        self.pull_up = pull_up
        self.pull_down = pull_down
        self._grid = _BilinearGrid(axis, axis, current)

    def current(self, vin: float, vout: float) -> float:
        """Net current into the output node."""
        return self._grid.lookup(vin, vout)

    def current_with_dvout(self, vin: float, vout: float) -> tuple[float, float]:
        """Net current and its derivative with respect to ``V_out``."""
        return self._grid.lookup_with_dy(vin, vout)

    def current_array(self, vin: np.ndarray, vout: np.ndarray) -> np.ndarray:
        """Vectorised net current."""
        return self._grid.lookup_array(vin, vout)

    def current_many(self, vin: np.ndarray, vout: np.ndarray) -> np.ndarray:
        """Vectorised net current with scalar-identical edge handling."""
        return self._grid.lookup_many(vin, vout)

    def current_with_dvout_many(
        self, vin: np.ndarray, vout: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorised net current and d/dV_out."""
        return self._grid.gradient_many(vin, vout)

    @property
    def grid(self) -> _BilinearGrid:
        """The underlying interpolation grid (for :class:`GridBank`)."""
        return self._grid
