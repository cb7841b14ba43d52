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
  columns instead of per-pass dict rebuilds.

The object API of :class:`~repro.core.graph.TimingState` --
``state.events`` / ``state.processed`` / ``state.provenance`` /
``state.arc_prov`` and per-net :class:`RampEvent` access -- stays
available as thin lazy views, so the service, explain, report and
checkpoint layers read a columnar state like a plain one.
"""

from __future__ import annotations

import time
from typing import Iterator, Mapping

import numpy as np

from repro.circuit.netlist import Cell
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
        loads = design.loads

        # -- net id space ---------------------------------------------------
        self.net_names: list[str] = list(circuit.nets.keys())
        self.net_id: dict[str, int] = {
            name: i for i, name in enumerate(self.net_names)
        }
        n_nets = len(self.net_names)
        self.n_nets = n_nets
        self.net_c_fixed = np.zeros(n_nets, dtype=np.float64)
        self.net_cc_total = np.zeros(n_nets, dtype=np.float64)
        self.net_is_clock = np.zeros(n_nets, dtype=bool)

        # Coupling CSR, preserving each load's dict order (the float
        # accumulation order of aggregate_load depends on it).
        coup_counts = np.zeros(n_nets, dtype=np.int64)
        coup_net_rows: list[list[int]] = [[] for _ in range(n_nets)]
        coup_cap_rows: list[list[float]] = [[] for _ in range(n_nets)]
        coup_name_rows: list[list[str]] = [[] for _ in range(n_nets)]
        for name, net in circuit.nets.items():
            i = self.net_id[name]
            self.net_is_clock[i] = net.is_clock
            load = loads.get(name)
            if load is None:
                continue
            self.net_c_fixed[i] = load.c_fixed
            # Same accumulation as NetLoad.c_coupling_total (dict order).
            self.net_cc_total[i] = sum(load.couplings.values())
            coup_counts[i] = len(load.couplings)
            for other, cap in load.couplings.items():
                coup_net_rows[i].append(self.net_id.get(other, -1))
                coup_cap_rows[i].append(cap)
                coup_name_rows[i].append(other)
        self.coup_indptr = np.zeros(n_nets + 1, dtype=np.int64)
        np.cumsum(coup_counts, out=self.coup_indptr[1:])
        nnz = int(self.coup_indptr[-1])
        self.coup_net = np.empty(nnz, dtype=np.int64)
        self.coup_cap = np.empty(nnz, dtype=np.float64)
        self.coup_name: list[str] = []
        for i in range(n_nets):
            lo = int(self.coup_indptr[i])
            hi = int(self.coup_indptr[i + 1])
            self.coup_net[lo:hi] = coup_net_rows[i]
            self.coup_cap[lo:hi] = coup_cap_rows[i]
            self.coup_name.extend(coup_name_rows[i])

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
        arc_elmore: list[float] = []
        arc_is_ff: list[bool] = []
        self.arc_pin: list[str] = []
        self.arc_prov_pin: list[str] = []
        self.arc_prov_net: list[str] = []
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
                        arc_elmore.append(0.0)
                        arc_is_ff.append(True)
                        self.arc_pin.append("A")
                        self.arc_prov_pin.append("CLK")
                        self.arc_prov_net.append(clk_name)
                else:
                    for pin in cell.input_pins:
                        in_net = pin.net
                        if in_net is None:
                            continue
                        elmore = loads[in_net.name].sink_elmore.get(
                            pin.full_name, 0.0
                        )
                        ii = self.net_id[in_net.name]
                        for direction in DIRECTIONS:
                            arc_cell.append(ci)
                            arc_out_net.append(oi)
                            arc_in_net.append(ii)
                            arc_in_dir.append(DIR_INDEX[direction])
                            arc_elmore.append(elmore)
                            arc_is_ff.append(False)
                            self.arc_pin.append(pin.name)
                            self.arc_prov_pin.append(pin.name)
                            self.arc_prov_net.append(in_net.name)
                self.cell_arc_end[ci] = len(arc_cell)
            level_counts.append(len(arc_cell) - level_start)

        self.n_arcs = len(arc_cell)
        self.arc_cell = np.asarray(arc_cell, dtype=np.int64)
        self.arc_out_net = np.asarray(arc_out_net, dtype=np.int64)
        self.arc_in_net = np.asarray(arc_in_net, dtype=np.int64)
        self.arc_in_dir = np.asarray(arc_in_dir, dtype=np.int64)
        self.arc_elmore = np.asarray(arc_elmore, dtype=np.float64)
        self.arc_is_ff = np.asarray(arc_is_ff, dtype=bool)
        self.level_indptr = np.zeros(len(self.levels) + 1, dtype=np.int64)
        np.cumsum(np.asarray(level_counts, dtype=np.int64), out=self.level_indptr[1:])
        self.arc_n_coup = (
            self.coup_indptr[self.arc_out_net + 1]
            - self.coup_indptr[self.arc_out_net]
        )
        # Arc-identity index: the (cell, pin, direction) key of each arc
        # id (warm-start migration across designs, slack results).
        self.arc_key_index: dict[tuple[str, str, str], int] = {}
        for a in range(self.n_arcs):
            cell = self.cells[self.arc_cell[a]]
            self.arc_key_index[
                (cell.name, self.arc_pin[a], DIRECTIONS[self.arc_in_dir[a]])
            ] = a
        self.compile_seconds = time.perf_counter() - t0


def compile_design(design: Design) -> CompiledDesign:
    """Intern a prepared design into the columnar id spaces."""
    return CompiledDesign(design)


# -- lazy object views over the columns --------------------------------------


class _SlotView(Mapping):
    """One net's ``{direction: RampEvent | None}`` mapping."""

    __slots__ = ("_state", "_net")

    def __init__(self, state: "ColumnTimingState", net: int):
        self._state = state
        self._net = net

    def __getitem__(self, direction: str) -> RampEvent | None:
        return self._state._event_at(DIR_INDEX[direction], self._net)

    def __setitem__(self, direction: str, event: RampEvent) -> None:
        self._state.set_event(
            DIR_INDEX[direction],
            self._net,
            event.t_cross,
            event.transition,
            event.t_early,
            event.t_late,
        )

    def __iter__(self) -> Iterator[str]:
        return iter(DIRECTIONS)

    def __len__(self) -> int:
        return 2

    def get(self, direction, default=None):
        idx = DIR_INDEX.get(direction)
        if idx is None:
            return default
        return self._state._event_at(idx, self._net)


class _EventsView(Mapping):
    """``state.events`` compatibility view: net name -> slot mapping."""

    __slots__ = ("_state",)

    def __init__(self, state: "ColumnTimingState"):
        self._state = state

    def __getitem__(self, net_name: str) -> _SlotView:
        state = self._state
        net = state.compiled.net_id[net_name]
        if not state.present[net]:
            raise KeyError(net_name)
        return _SlotView(state, net)

    def get(self, net_name, default=None):
        state = self._state
        net = state.compiled.net_id.get(net_name)
        if net is None or not state.present[net]:
            return default
        return _SlotView(state, net)

    def __contains__(self, net_name) -> bool:
        net = self._state.compiled.net_id.get(net_name)
        return net is not None and bool(self._state.present[net])

    def __iter__(self) -> Iterator[str]:
        names = self._state.compiled.net_names
        for net in np.nonzero(self._state.present)[0]:
            yield names[net]

    def __len__(self) -> int:
        return int(self._state.present.sum())


class _ProcessedView:
    """``state.processed`` compatibility view (set-like over the mask)."""

    __slots__ = ("_state",)

    def __init__(self, state: "ColumnTimingState"):
        self._state = state

    def add(self, net_name: str) -> None:
        self._state.processed_mask[self._state.compiled.net_id[net_name]] = True

    def __contains__(self, net_name) -> bool:
        net = self._state.compiled.net_id.get(net_name)
        return net is not None and bool(self._state.processed_mask[net])

    def __iter__(self) -> Iterator[str]:
        names = self._state.compiled.net_names
        for net in np.nonzero(self._state.processed_mask)[0]:
            yield names[net]

    def __len__(self) -> int:
        return int(self._state.processed_mask.sum())


class _ProvenanceView(Mapping):
    """``state.provenance`` view: (net, direction) -> :class:`Provenance`.

    Winners are stored as arc ids plus the per-win dynamic fields
    (coupled flag, input direction); the :class:`Provenance` object is
    materialized on access.  ``overrides`` holds entries copied from a
    non-columnar previous state (checkpoint resume).
    """

    __slots__ = ("_state",)

    def __init__(self, state: "ColumnTimingState"):
        self._state = state

    def _materialize(self, d: int, net: int) -> Provenance | None:
        state = self._state
        arc = int(state.win_arc[d, net])
        if arc < 0:
            return None
        compiled = state.compiled
        return Provenance(
            cell=compiled.cells[compiled.arc_cell[arc]].name,
            in_pin=compiled.arc_prov_pin[arc],
            in_net=compiled.arc_prov_net[arc],
            in_direction=DIRECTIONS[state.win_prov_dir[d, net]],
            coupled=bool(state.win_coupled[d, net]),
            c_active=0.0,
        )

    def get(self, key, default=None):
        state = self._state
        override = state.prov_overrides.get(key)
        if override is not None:
            return override
        net = state.compiled.net_id.get(key[0])
        d = DIR_INDEX.get(key[1])
        if net is None or d is None:
            return default
        prov = self._materialize(d, net)
        return prov if prov is not None else default

    def __getitem__(self, key) -> Provenance:
        prov = self.get(key)
        if prov is None:
            raise KeyError(key)
        return prov

    def __iter__(self) -> Iterator[tuple[str, str]]:
        state = self._state
        names = state.compiled.net_names
        seen = set(state.prov_overrides)
        yield from state.prov_overrides
        for d, net in zip(*np.nonzero(state.win_arc >= 0)):
            key = (names[net], DIRECTIONS[d])
            if key not in seen:
                yield key

    def __len__(self) -> int:
        return sum(1 for _ in self)


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


class QuietSnapshotView(Mapping):
    """O(1) ``quiet_snapshot()``: (net, direction) -> quiescent time.

    Backed directly by the state columns -- nothing is copied.  The
    state a snapshot is taken from is final (each pass builds a fresh
    state object), so the view is stable.
    """

    __slots__ = ("_state",)

    def __init__(self, state: "ColumnTimingState"):
        self._state = state

    def get(self, key, default=None):
        state = self._state
        net = state.compiled.net_id.get(key[0])
        d = DIR_INDEX.get(key[1])
        if net is None or d is None or not state.present[net]:
            return default
        if not state.valid[d, net]:
            return float("-inf")
        return float(state.ev_tl[d, net])

    def __getitem__(self, key) -> float:
        value = self.get(key)
        if value is None:
            raise KeyError(key)
        return value

    def __iter__(self) -> Iterator[tuple[str, str]]:
        state = self._state
        names = state.compiled.net_names
        for net in np.nonzero(state.present)[0]:
            for direction in DIRECTIONS:
                yield (names[net], direction)

    def __len__(self) -> int:
        return 2 * int(self._state.present.sum())


class WindowSnapshotView(Mapping):
    """O(1) ``window_snapshot()``: (net, direction) -> (t_early, t_late)."""

    __slots__ = ("_state",)

    def __init__(self, state: "ColumnTimingState"):
        self._state = state

    @property
    def state(self) -> "ColumnTimingState":
        return self._state

    def get(self, key, default=None):
        state = self._state
        net = state.compiled.net_id.get(key[0])
        d = DIR_INDEX.get(key[1])
        if net is None or d is None or not state.present[net]:
            return default
        if not state.valid[d, net]:
            return (float("inf"), float("-inf"))
        return (float(state.ev_te[d, net]), float(state.ev_tl[d, net]))

    def __getitem__(self, key) -> tuple[float, float]:
        value = self.get(key)
        if value is None:
            raise KeyError(key)
        return value

    def __iter__(self) -> Iterator[tuple[str, str]]:
        state = self._state
        names = state.compiled.net_names
        for net in np.nonzero(state.present)[0]:
            for direction in DIRECTIONS:
                yield (names[net], direction)

    def __len__(self) -> int:
        return 2 * int(self._state.present.sum())


class ColumnTimingState:
    """Column-backed counterpart of :class:`repro.core.graph.TimingState`.

    Events are ``(2, n_nets)`` float64 columns (row 0 rising, row 1
    falling) plus boolean validity/presence masks; the object API
    (``events``/``processed``/``provenance``/``arc_prov``, ``event()``,
    the snapshot methods) is served by thin lazy views so every
    downstream consumer -- checkpoints, the explain engine, reports,
    the service layer -- works unchanged.
    """

    def __init__(self, compiled: CompiledDesign):
        self.compiled = compiled
        n = compiled.n_nets
        # Slot exists (``net in state.events``).
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
        # Provenance entries copied from a non-columnar previous state
        # (checkpoint resume); consulted before the winner arrays.
        self.prov_overrides: dict[tuple[str, str], Provenance] = {}
        # Materialized-event memo (cleared per slot on write).
        self._ev_cache: dict[tuple[int, int], RampEvent] = {}

    @classmethod
    def from_state(
        cls, compiled: CompiledDesign, state: object
    ) -> "ColumnTimingState":
        """Load a plain :class:`~repro.core.graph.TimingState` (a pass
        restored from a checkpoint) into columns over ``compiled``."""
        out = cls(compiled)
        for name in state.events:
            out.copy_net_from(state, compiled.net_id[name])
        return out

    # -- object API -------------------------------------------------------

    @property
    def events(self) -> _EventsView:
        return _EventsView(self)

    @property
    def processed(self) -> _ProcessedView:
        return _ProcessedView(self)

    @property
    def provenance(self) -> _ProvenanceView:
        return _ProvenanceView(self)

    @property
    def arc_prov(self) -> _ArcProvView:
        return _ArcProvView(self)

    def ensure_net(self, net_name: str) -> _SlotView:
        net = self.compiled.net_id[net_name]
        self.present[net] = True
        return _SlotView(self, net)

    def _event_at(self, d: int, net: int) -> RampEvent | None:
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
        return self._event_at(DIR_INDEX[direction], net)

    def quiet_time(self, net_name: str, direction: str) -> float:
        event = self.event(net_name, direction)
        if event is None:
            return float("-inf")
        return event.t_late

    def quiet_snapshot(self) -> QuietSnapshotView:
        return QuietSnapshotView(self)

    def window_snapshot(self) -> WindowSnapshotView:
        return WindowSnapshotView(self)

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

    def copy_net_from(self, prev: "ColumnTimingState | object", net: int) -> None:
        """Adopt one net's previous-pass events, provenance and ledger
        row (the Esperance copy path).  ``prev`` may be a columnar state
        over the same compiled design or a plain :class:`TimingState`
        (checkpoint resume)."""
        name = self.compiled.net_names[net]
        if isinstance(prev, ColumnTimingState):
            self.present[net] = True
            for d in (0, 1):
                self.valid[d, net] = prev.valid[d, net]
                self.ev_tc[d, net] = prev.ev_tc[d, net]
                self.ev_tr[d, net] = prev.ev_tr[d, net]
                self.ev_te[d, net] = prev.ev_te[d, net]
                self.ev_tl[d, net] = prev.ev_tl[d, net]
                self.win_arc[d, net] = prev.win_arc[d, net]
                self.win_prov_dir[d, net] = prev.win_prov_dir[d, net]
                self.win_coupled[d, net] = prev.win_coupled[d, net]
                self.aprov_row[d, net] = prev.aprov_row[d, net]
                self._ev_cache.pop((d, net), None)
                key = (name, DIRECTIONS[d])
                override = prev.prov_overrides.get(key)
                if override is not None:
                    self.prov_overrides[key] = override
            self.processed_mask[net] = True
            return
        # Plain TimingState: decode the dict layout into columns.
        slot = prev.events[name]
        self.present[net] = True
        for d, direction in enumerate(DIRECTIONS):
            event = slot.get(direction)
            if event is not None:
                self.set_event(
                    d, net, event.t_cross, event.transition,
                    event.t_early, event.t_late,
                )
            prov = prev.provenance.get((name, direction))
            if prov is not None:
                self.prov_overrides[(name, direction)] = prov
            row = prev.arc_prov.get((name, direction))
            if row is not None:
                self.aprov_row[d, net] = row
        self.processed_mask[net] = True
