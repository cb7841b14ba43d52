"""Columnar structure-of-arrays timing core.

The propagator (:mod:`repro.core.propagation`) never walks per-object
Python structures during a pass.  This module compiles a prepared design
once per analyzer into dense int32/float64 id arrays
(:class:`CompiledDesign`) and keeps the per-pass timing data in numpy
columns indexed by those ids (:class:`ColumnTimingState`):

* **Id spaces.**  Nets, cells and timing arcs are interned into three
  dense id ranges.  An *arc* is the static identity ``(cell, input pin,
  input direction)`` -- the key the delta-driven memo, warm starts and
  the slack results use -- enumerated at compile time in a fixed order:
  levels in topological order, cells name-sorted within a level, input
  pins in declaration order, rising before falling; flip-flops enumerate
  by output direction.  Ids are therefore stable across re-compiles of
  an identical circuit.
* **CSR level index.**  ``level_indptr`` slices the arc arrays into one
  contiguous slab per topological level, so a pass processes each level
  with vectorized slab operations.  The coupling neighbours of every net
  are a second CSR (``coup_indptr``/``coup_net``/``coup_cap``)
  preserving the extraction dict's order, which keeps the float
  accumulation order of the decided coupling loads fixed.
* **Memo columns.**  The incremental engine's per-arc memo is a set of
  parallel columns held by the propagator; fingerprint comparison is one
  vectorized exact-equality compare over the level slab, and the dirty
  set is the resulting boolean mask.
* **State columns.**  Arrival events live in ``(2, n_nets)`` float64
  columns (rising row 0, falling row 1) plus validity masks;
  ``quiet_snapshot()``/``window_snapshot()`` are O(1) views over these
  columns instead of per-pass dict rebuilds.  :class:`ColumnTimingState`
  is the only pass state: every max- and min-delay pass builds one, and
  a checkpoint decodes straight into one over the resuming propagator's
  compiled design.  ``state.provenance`` / ``state.arc_prov`` and
  per-net :class:`RampEvent` access are thin lazy views for the service,
  explain and report layers.
"""

from __future__ import annotations

import time
from typing import Iterator, Mapping

import numpy as np

from repro.circuit.netlist import Cell, Pin
from repro.core.graph import Provenance, evaluation_levels
from repro.flow.design import Design
from repro.waveform.pwl import FALLING, RISING
from repro.waveform.ramp import RampEvent

# Direction codes of the column layout: row 0 = rising, row 1 = falling.
DIRECTIONS = (RISING, FALLING)
DIR_INDEX = {RISING: 0, FALLING: 1}


class CompiledDesign:
    """Static structure-of-arrays view of a prepared design.

    Built once per analyzer session (``compile_seconds`` records the
    cost) and shared by every propagator over the same design;
    holds no per-pass state.
    """

    def __init__(self, design: Design):
        t0 = time.perf_counter()
        self.design = design
        circuit = design.circuit

        # -- net id space ---------------------------------------------------
        self.net_names: list[str] = list(circuit.nets.keys())
        self.net_id: dict[str, int] = {
            name: i for i, name in enumerate(self.net_names)
        }
        self.n_nets = len(self.net_names)

        # -- cell id space (flattened topological levels) -------------------
        self.levels = evaluation_levels(circuit)
        self.cells: list[Cell] = [c for level in self.levels for c in level]
        self.cell_id: dict[str, int] = {
            c.name: i for i, c in enumerate(self.cells)
        }
        n_cells = len(self.cells)
        self.n_cells = n_cells
        self.cell_out_net = np.full(n_cells, -1, dtype=np.int64)
        self.cell_is_ff = np.zeros(n_cells, dtype=bool)
        self.cell_arc_begin = np.zeros(n_cells, dtype=np.int64)
        self.cell_arc_end = np.zeros(n_cells, dtype=np.int64)
        self.cell_clk_net = np.full(n_cells, -1, dtype=np.int64)
        self.cell_clk_to_q = np.zeros(n_cells, dtype=np.float64)
        self.cell_clk_terminal: list[str | None] = [None] * n_cells

        # -- arc table --------------------------------------------------------
        arc_cell: list[int] = []
        arc_out_net: list[int] = []
        arc_in_net: list[int] = []
        arc_in_dir: list[int] = []
        arc_is_ff: list[bool] = []
        self.arc_pin: list[str] = []
        self.arc_prov_pin: list[str] = []
        self.arc_prov_net: list[str] = []
        # The input pin, whose net's sink Elmore delay the arc adds
        # (None on flip-flop arcs, which carry no wire delay).
        self.arc_in_pin: list[Pin | None] = []
        level_counts: list[int] = []
        for level in self.levels:
            level_start = len(arc_cell)
            for cell in level:
                ci = self.cell_id[cell.name]
                out_net = cell.output_pin.net
                if out_net is None:
                    continue
                oi = self.net_id[out_net.name]
                self.cell_out_net[ci] = oi
                self.cell_arc_begin[ci] = len(arc_cell)
                if cell.is_sequential:
                    self.cell_is_ff[ci] = True
                    self.cell_clk_to_q[ci] = cell.ctype.clk_to_q
                    clk_pin = cell.pins["CLK"]
                    clk_net = clk_pin.net
                    if clk_net is not None:
                        self.cell_clk_net[ci] = self.net_id[clk_net.name]
                        self.cell_clk_terminal[ci] = clk_pin.full_name
                    clk_name = clk_net.name if clk_net is not None else ""
                    # Launch tasks enumerate by output direction; the
                    # internal arrival direction is the opposite one.
                    for out_direction in DIRECTIONS:
                        arc_cell.append(ci)
                        arc_out_net.append(oi)
                        arc_in_net.append(
                            self.cell_clk_net[ci]
                            if clk_net is not None
                            else -1
                        )
                        arc_in_dir.append(1 - DIR_INDEX[out_direction])
                        arc_is_ff.append(True)
                        self.arc_pin.append("A")
                        self.arc_prov_pin.append("CLK")
                        self.arc_prov_net.append(clk_name)
                        self.arc_in_pin.append(None)
                else:
                    for pin in cell.input_pins:
                        in_net = pin.net
                        if in_net is None:
                            continue
                        ii = self.net_id[in_net.name]
                        for direction in DIRECTIONS:
                            arc_cell.append(ci)
                            arc_out_net.append(oi)
                            arc_in_net.append(ii)
                            arc_in_dir.append(DIR_INDEX[direction])
                            arc_is_ff.append(False)
                            self.arc_pin.append(pin.name)
                            self.arc_prov_pin.append(pin.name)
                            self.arc_prov_net.append(in_net.name)
                            self.arc_in_pin.append(pin)
                self.cell_arc_end[ci] = len(arc_cell)
            level_counts.append(len(arc_cell) - level_start)

        self.n_arcs = len(arc_cell)
        self.arc_cell = np.asarray(arc_cell, dtype=np.int64)
        self.arc_out_net = np.asarray(arc_out_net, dtype=np.int64)
        self.arc_in_net = np.asarray(arc_in_net, dtype=np.int64)
        self.arc_in_dir = np.asarray(arc_in_dir, dtype=np.int64)
        self.arc_is_ff = np.asarray(arc_is_ff, dtype=bool)
        self.level_indptr = np.zeros(len(self.levels) + 1, dtype=np.int64)
        np.cumsum(np.asarray(level_counts, dtype=np.int64), out=self.level_indptr[1:])
        # Arc-identity index: the (cell, pin, direction) key of each arc
        # id (checkpoint decoding, slack results).
        self.arc_key_index: dict[tuple[str, str, str], int] = {}
        for a in range(self.n_arcs):
            cell = self.cells[self.arc_cell[a]]
            self.arc_key_index[
                (cell.name, self.arc_pin[a], DIRECTIONS[self.arc_in_dir[a]])
            ] = a
        self._compile_loads()
        self.compile_seconds = time.perf_counter() - t0

    def _compile_loads(self) -> None:
        """The columns the design's net loads determine: each net's fixed
        and total coupling load, the coupling CSR, and each arc's sink
        Elmore delay and coupling count."""
        loads = self.design.loads
        net_id = self.net_id
        c_fixed: list[float] = []
        cc_total: list[float] = []
        # Coupling CSR, preserving each load's dict order (the float
        # accumulation order of aggregate_load depends on it).
        coup_counts: list[int] = []
        coup_net: list[int] = []
        coup_cap: list[float] = []
        for name in self.net_names:
            load = loads.get(name)
            if load is None:
                c_fixed.append(0.0)
                cc_total.append(0.0)
                coup_counts.append(0)
                continue
            couplings = load.couplings
            c_fixed.append(load.c_fixed)
            # Same accumulation as NetLoad.c_coupling_total (dict order).
            cc_total.append(sum(couplings.values()))
            coup_counts.append(len(couplings))
            coup_net.extend([net_id.get(other, -1) for other in couplings])
            coup_cap.extend(couplings.values())
        self.net_c_fixed = np.asarray(c_fixed, dtype=np.float64)
        self.net_cc_total = np.asarray(cc_total, dtype=np.float64)
        self.coup_indptr = np.zeros(self.n_nets + 1, dtype=np.int64)
        np.cumsum(np.asarray(coup_counts, dtype=np.int64), out=self.coup_indptr[1:])
        self.coup_net = np.asarray(coup_net, dtype=np.int64)
        self.coup_cap = np.asarray(coup_cap, dtype=np.float64)

        self.arc_elmore = np.asarray(
            [
                0.0
                if pin is None
                else loads[pin.net.name].sink_elmore.get(pin.full_name, 0.0)
                for pin in self.arc_in_pin
            ],
            dtype=np.float64,
        )
        self.arc_n_coup = (
            self.coup_indptr[self.arc_out_net + 1]
            - self.coup_indptr[self.arc_out_net]
        )

    def with_loads(self, design: Design) -> "CompiledDesign":
        """The compilation of ``design``, an edit of this design that keeps
        its circuit (a coupling edit or a respace): it shares every
        circuit-derived field with this one -- id spaces, levels, cells,
        the arc table and its index -- and recomputes only the load
        columns, so each array is what :func:`compile_design` builds."""
        t0 = time.perf_counter()
        derived = object.__new__(CompiledDesign)
        derived.__dict__.update(self.__dict__)
        derived.design = design
        derived._compile_loads()
        derived.compile_seconds = time.perf_counter() - t0
        return derived

    def net_map(self, other: "CompiledDesign") -> np.ndarray | None:
        """``other``'s id of each of this design's nets, when both designs
        have the same nets (by name) and number the same cells and arcs
        in the same levels; None otherwise.  A warm start adopts
        another design's per-arc state by id only then (net ids may
        differ: a cloned circuit can create its nets in another order)."""
        if self.net_names is other.net_names and self.cells is other.cells:
            # One circuit's compilation, shared (with_loads).
            return np.arange(self.n_nets)
        if len(self.net_names) != len(other.net_names):
            return None
        net_map = np.array(
            [other.net_id.get(name, -1) for name in self.net_names], dtype=np.int64
        )
        if (net_map < 0).any():
            return None

        def mapped(ids: np.ndarray) -> np.ndarray:
            return np.where(ids >= 0, net_map[ids], -1)

        same = (
            [c.name for c in self.cells] == [c.name for c in other.cells]
            and [len(level) for level in self.levels]
            == [len(level) for level in other.levels]
            and self.arc_pin == other.arc_pin
            and all(
                np.array_equal(getattr(self, name), getattr(other, name))
                for name in (
                    "cell_arc_begin",
                    "cell_arc_end",
                    "arc_cell",
                    "arc_in_dir",
                    "arc_is_ff",
                )
            )
            and all(
                np.array_equal(mapped(getattr(self, name)), getattr(other, name))
                for name in ("cell_out_net", "cell_clk_net", "arc_in_net")
            )
        )
        return net_map if same else None


def compile_design(design: Design) -> CompiledDesign:
    """Intern a prepared design into the columnar id spaces."""
    return CompiledDesign(design)


# -- lazy views over the columns ---------------------------------------------


class _ProvenanceView(Mapping):
    """``state.provenance`` view: (net, direction) -> :class:`Provenance`.

    Winners are stored as arc ids plus the per-win dynamic fields
    (coupled flag, input direction); the :class:`Provenance` object is
    materialized on access.
    """

    __slots__ = ("_state",)

    def __init__(self, state: "ColumnTimingState"):
        self._state = state

    def get(self, key, default=None):
        state = self._state
        net = state.compiled.net_id.get(key[0])
        d = DIR_INDEX.get(key[1])
        if net is None or d is None:
            return default
        arc = int(state.win_arc[d, net])
        if arc < 0:
            return default
        compiled = state.compiled
        return Provenance(
            cell=compiled.cells[compiled.arc_cell[arc]].name,
            in_pin=compiled.arc_prov_pin[arc],
            in_net=compiled.arc_prov_net[arc],
            in_direction=DIRECTIONS[state.win_prov_dir[d, net]],
            coupled=bool(state.win_coupled[d, net]),
        )

    def __getitem__(self, key) -> Provenance:
        prov = self.get(key)
        if prov is None:
            raise KeyError(key)
        return prov

    def __iter__(self) -> Iterator[tuple[str, str]]:
        names = self._state.compiled.net_names
        for d, net in zip(*np.nonzero(self._state.win_arc >= 0)):
            yield (names[net], DIRECTIONS[d])

    def __len__(self) -> int:
        return int((self._state.win_arc >= 0).sum())


class _ArcProvView(Mapping):
    """``state.arc_prov`` view: (net, direction) -> ledger row id."""

    __slots__ = ("_state",)

    def __init__(self, state: "ColumnTimingState"):
        self._state = state

    def get(self, key, default=None):
        state = self._state
        net = state.compiled.net_id.get(key[0])
        d = DIR_INDEX.get(key[1])
        if net is None or d is None:
            return default
        row = int(state.aprov_row[d, net])
        return row if row >= 0 else default

    def __getitem__(self, key) -> int:
        row = self.get(key)
        if row is None:
            raise KeyError(key)
        return row

    def __iter__(self) -> Iterator[tuple[str, str]]:
        state = self._state
        names = state.compiled.net_names
        for d, net in zip(*np.nonzero(state.aprov_row >= 0)):
            yield (names[net], DIRECTIONS[d])

    def __len__(self) -> int:
        return int((self._state.aprov_row >= 0).sum())


class SnapshotView(Mapping):
    """O(1) snapshot: (net, direction) -> quiescent time ``t_late``
    (``quiet_snapshot()``) or activity window ``(t_early, t_late)``
    (``window_snapshot()``).

    A net with no event in a direction can never make that transition:
    its quiescent time is minus infinity and its window empty
    (``(+inf, -inf)``).  Backed directly by the state columns -- nothing
    is copied.  The state a snapshot is taken from is final (each pass
    builds a fresh state object), so the view is stable.
    """

    __slots__ = ("_state", "_windows")

    def __init__(self, state: "ColumnTimingState", windows: bool):
        self._state = state
        self._windows = windows

    def get(self, key, default=None):
        state = self._state
        net = state.compiled.net_id.get(key[0])
        d = DIR_INDEX.get(key[1])
        if net is None or d is None or not state.present[net]:
            return default
        if not state.valid[d, net]:
            return (float("inf"), float("-inf")) if self._windows else float("-inf")
        t_late = float(state.ev_tl[d, net])
        return (float(state.ev_te[d, net]), t_late) if self._windows else t_late

    def __getitem__(self, key):
        value = self.get(key)
        if value is None:
            raise KeyError(key)
        return value

    def __iter__(self) -> Iterator[tuple[str, str]]:
        names = self._state.compiled.net_names
        for net in np.nonzero(self._state.present)[0]:
            for direction in DIRECTIONS:
                yield (names[net], direction)

    def __len__(self) -> int:
        return 2 * int(self._state.present.sum())


class ColumnTimingState:
    """Mutable per-pass timing data over a compiled design.

    Events are ``(2, n_nets)`` float64 columns (row 0 rising, row 1
    falling) holding the worst event per (net, direction) at the *driver
    output* (wire delay is added when a sink consumes the event), plus
    boolean validity/presence masks.  ``processed_mask`` marks nets whose
    events are final for this pass -- the "calculated" predicate of the
    one-step pseudo-code.  ``win_*`` record each winning event's arc and
    ``aprov_row`` its row in the propagator's
    :class:`~repro.core.provenance.ProvenanceLedger` (-1 where no row
    was recorded, as in a min-delay pass).  ``provenance``, ``arc_prov``, ``event()`` and the
    snapshots are thin lazy views for the explain engine, reports and
    the service layer.
    """

    def __init__(self, compiled: CompiledDesign):
        self.compiled = compiled
        n = compiled.n_nets
        # The net carries this pass's slot (calculated or a source).
        self.present = np.zeros(n, dtype=bool)
        # Event per (direction, net); masked by ``valid``.
        self.valid = np.zeros((2, n), dtype=bool)
        self.ev_tc = np.zeros((2, n), dtype=np.float64)
        self.ev_tr = np.zeros((2, n), dtype=np.float64)
        self.ev_te = np.zeros((2, n), dtype=np.float64)
        self.ev_tl = np.zeros((2, n), dtype=np.float64)
        self.processed_mask = np.zeros(n, dtype=bool)
        # Winning-arc provenance per (direction, net).
        self.win_arc = np.full((2, n), -1, dtype=np.int64)
        self.win_prov_dir = np.zeros((2, n), dtype=np.int8)
        self.win_coupled = np.zeros((2, n), dtype=bool)
        self.aprov_row = np.full((2, n), -1, dtype=np.int64)
        # Materialized-event memo (cleared per slot on write).
        self._ev_cache: dict[tuple[int, int], RampEvent] = {}

    # -- lazy views ---------------------------------------------------------

    @property
    def provenance(self) -> _ProvenanceView:
        return _ProvenanceView(self)

    @property
    def arc_prov(self) -> _ArcProvView:
        return _ArcProvView(self)

    def event_at(self, d: int, net: int) -> RampEvent | None:
        """The event of net id ``net`` in direction row ``d``, or None."""
        if not self.valid[d, net]:
            return None
        cached = self._ev_cache.get((d, net))
        if cached is not None:
            return cached
        event = RampEvent(
            direction=DIRECTIONS[d],
            t_cross=float(self.ev_tc[d, net]),
            transition=float(self.ev_tr[d, net]),
            t_early=float(self.ev_te[d, net]),
            t_late=float(self.ev_tl[d, net]),
        )
        self._ev_cache[(d, net)] = event
        return event

    def event(self, net_name: str, direction: str) -> RampEvent | None:
        net = self.compiled.net_id.get(net_name)
        if net is None or not self.present[net]:
            return None
        return self.event_at(DIR_INDEX[direction], net)

    def quiet_time(self, net_name: str, direction: str) -> float:
        """Time after which the net is quiet for ``direction``
        transitions, assuming the net has been calculated: the merged
        event's ``t_late``, or minus infinity if the net never
        transitions that way."""
        event = self.event(net_name, direction)
        if event is None:
            return float("-inf")
        return event.t_late

    def quiet_snapshot(self) -> SnapshotView:
        """Per-(net, direction) quiescent times -- what the iterative
        algorithm stores between passes ("store quiescent times for each
        wire")."""
        return SnapshotView(self, windows=False)

    def window_snapshot(self) -> SnapshotView:
        """Per-(net, direction) activity windows ``(t_early, t_late)``,
        read by the two-sided overlap check (an extension of the paper's
        one-sided comparison)."""
        return SnapshotView(self, windows=True)

    # -- column writes ----------------------------------------------------

    def set_event(
        self,
        d: int,
        net: int,
        t_cross: float,
        transition: float,
        t_early: float,
        t_late: float,
    ) -> None:
        self.present[net] = True
        self.valid[d, net] = True
        self.ev_tc[d, net] = t_cross
        self.ev_tr[d, net] = transition
        self.ev_te[d, net] = t_early
        self.ev_tl[d, net] = t_late
        self._ev_cache.pop((d, net), None)

    def renumbered(
        self, compiled: CompiledDesign, net_map: np.ndarray
    ) -> "ColumnTimingState":
        """This state over ``compiled``, whose net ``i`` is this state's
        net ``net_map[i]`` (same cells and arcs)."""
        state = ColumnTimingState(compiled)
        for name in ("present", "processed_mask"):
            setattr(state, name, getattr(self, name)[net_map])
        for name in (
            "valid",
            "ev_tc",
            "ev_tr",
            "ev_te",
            "ev_tl",
            "win_arc",
            "win_prov_dir",
            "win_coupled",
            "aprov_row",
        ):
            setattr(state, name, getattr(self, name)[:, net_map])
        return state

    def copy_nets_from(
        self, prev: "ColumnTimingState", nets, row_shift=0
    ) -> None:
        """Adopt some nets' events, provenance and ledger rows from
        another pass over the same compiled design (the Esperance copy
        path and the warm what-if's carried cells); the caller marks
        them calculated.  ``nets`` is one id or an id array; the adopted
        ledger rows move by ``row_shift`` (a scalar, or one shift per
        net)."""
        nets = np.asarray(nets)
        self.present[nets] = True
        for name in (
            "valid",
            "ev_tc",
            "ev_tr",
            "ev_te",
            "ev_tl",
            "win_arc",
            "win_prov_dir",
            "win_coupled",
        ):
            getattr(self, name)[:, nets] = getattr(prev, name)[:, nets]
        rows = prev.aprov_row[:, nets]
        self.aprov_row[:, nets] = np.where(rows >= 0, rows + row_shift, -1)
        if self._ev_cache:
            for net in nets.reshape(-1).tolist():
                self._ev_cache.pop((0, net), None)
                self._ev_cache.pop((1, net), None)

