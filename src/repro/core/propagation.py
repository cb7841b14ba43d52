"""Levelized worst-case waveform propagation (one STA pass).

Implements the breadth-first propagation of Section 4 with the per-arc
coupling decisions of Sections 2 and 5.  One :class:`Propagator` serves
all five analysis modes; the window-based modes (one-step, iterative)
perform the extra best-case calculation per arc described in the paper's
pseudo-code and decide each neighbour's coupling treatment by comparing
the aggressor's activity window with the victim's earliest possible
activity.

The pass runs over the compiled design (:mod:`repro.core.columnar`):
nets, cells and timing arcs are dense ids, every topological level is
one contiguous slab of arcs, and arrival events live in numpy columns.
Per level the pass

1. gathers the live arcs' arrivals with one fancy-index over the slab
   (Elmore wire delay and slew degradation applied in vector form);
2. solves the *base* waveforms -- the fixed-treatment load of the
   non-window modes, or the best-case (and, under OVERLAP, the
   all-active) calculation of the window-based modes -- as
   pre-quantized canonical cache keys, primed in one
   :meth:`~repro.waveform.gatedelay.GateDelayCalculator.prime_keys`
   call and then resolved key by key;
3. decides coupling in *coupling waves*: cells of a level only wait on
   earlier-ordered cells of the same level whose output nets couple to
   theirs, so a net's window is exactly as "calculated" as under a
   sequential walk and mutually coupled neighbours keep their asymmetric
   one-sees-the-other treatment;
4. solves each wave's decided final waveforms (one prime per wave) and
   merges every arc's event into its output net (pointwise worst).

How a batch of distinct keys is solved is the calculator's business
alone: batches below ``MIN_BATCH`` go to the scalar stage solver, larger
ones to one in-process vectorized integration.  A key's
result does not depend on the batch it was solved in, so the size-based
choice never moves a number.

Between iterative passes the propagator is *delta-driven*: per-arc
memo columns keep only what a solve consumes and returns -- the
arrival's transition, the load of the final solve, and the
*origin-free relative* results
(:class:`~repro.waveform.gatedelay.ArcResult`).  An arc whose inputs are
unchanged (exact float equality, one vectorized compare per slab)
re-anchors the memoized relative waveform at the current arrival's time
origin instead of re-solving; the full path would hit the identical
quantized cache entry and shift it by the identical origin, so the
reused event is bit-for-bit what a fresh solve returns.  The arrival's
crossing time is not part of the fingerprint -- it only chooses the
origin -- so an arc whose arrival merely shifted stays clean, and
dirtiness propagates only through genuine shape changes.  The cheap
parts of the pass (gathering, window comparisons, merging) run in full
on every cold and iterative pass, so coupling decisions are re-derived
every pass.

The ledger row is the one record of what a pass did with an arc: every
live arc gets exactly one, and its origin is "memo" unless the pass
resolved one of the arc's keys.  The pass's arc counts are tallies of
its rows (:meth:`~repro.core.provenance.ProvenanceLedger.tally`):
``arcs_processed`` counts them, ``reused_arcs`` the memo rows,
``dirty_arcs`` the others and ``coupled_arcs`` the rows with an active
aggressor (the "overlap" decisions of the window-based modes, every arc
with a coupling neighbour in worst_case, none where coupling is
grounded).

A warm what-if walks less.  :meth:`Propagator.warm_start_from` keeps
the source's last pass as the *base* of the first single-pass run, and
that pass walks only the cells the edit can reach: the *seeds* (a new
cell type, a new output :class:`~repro.flow.design.NetLoad`, a moved
sink Elmore delay on an input pin), the readers of every net whose
events differ bit for bit from the base's, the cells whose decisions
read such a net once it counts as calculated, and, where a net's
validity moved, the same-level coupled neighbours of its readers.
Every other cell is *carried*: its events, winners and ledger rows are
copied from the base, its rows as memo reuses.
That is exact because a decision reads an aggressor's window only once
its net is calculated (before that it counts as switching, whatever its
value).  Between two coupled cells of one level, which one sees the
other depends only on their order, which no edit changes; a cell counts
as calculated at its gather when it has no live arc, else at its wave's
barrier, and its live-ness moves only with its inputs' validity -- the
same-level rule covers that.  A cell outside the cone reads the base's
inputs and load, so every live arc of a walked level still looks up its
memo in the base step and a cell outside the cone always hits it; a
carried cell reuses its memo (and its last look-ahead prediction) and
touches no calculator, so every delay, counter and ledger row stays the
same.

The pass also looks ahead across each level's coupling waves: the
coupled final keys the waves will probably need are solved in one batch
before wave 0 instead of one batch per wave.  Wave 0 takes the
look-ahead's decisions, which are its own (nothing of the level has
merged yet); the later waves still decide and merge alone, so this
changes when keys are solved, never what they resolve to.

The regression oracle is ``tests/golden/propagation.json``:
``float.hex()`` digests of every endpoint arrival, pass and counter over
a fixed set of designs and configurations, recorded while an object
core and a scalar engine still existed beside this path and all four
combinations agreed.  ``tests/test_golden.py`` compares against it;
regenerate it with ``tests/golden/make_golden.py`` only for a change
that is meant to move a number.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from repro.circuit.netlist import Cell, Pin
from repro.core import columnar
from repro.core.columnar import DIR_INDEX, DIRECTIONS, ColumnTimingState
from repro.core.modes import (
    SLEW_DEGRADATION_FACTOR,
    AnalysisMode,
    StaConfig,
    WindowCheck,
)
from repro.core.provenance import ORIGIN_MEMO, ProvenanceLedger
from repro.errors import EngineError
from repro.flow.design import Design
from repro.obs.metrics import SMALL_COUNT_BUCKETS
from repro.obs.telemetry import Observability
from repro.waveform.gatedelay import (
    CAP_GRID,
    TRANSITION_GRID,
    ArcResult,
    GateDelayCalculator,
)
from repro.waveform.pwl import FALLING, RISING
from repro.waveform.ramp import RampEvent

# The propagation phases, in execution order (timer and metric keys).
PASS_PHASES = (
    "gather",
    "base_waveforms",
    "coupling_decisions",
    "final_waveforms",
    "merge",
)


@dataclass
class EndpointArrival:
    """Worst arrival of one transition at a capture point."""

    endpoint: str
    direction: str
    event: RampEvent


@dataclass
class PassResult:
    """Outcome of one propagation pass."""

    state: ColumnTimingState
    arrivals: list[EndpointArrival] = field(default_factory=list)
    longest_delay: float = 0.0
    critical_endpoint: str = ""
    critical_direction: str = ""
    waveform_evaluations: int = 0
    arcs_processed: int = 0
    coupled_arcs: int = 0
    dirty_arcs: int = 0
    reused_arcs: int = 0
    cache_evaluations: int = 0
    cache_hits: int = 0
    cache_dedup_hits: int = 0
    cache_persisted_hits: int = 0
    phase_seconds: dict[str, float] = field(default_factory=dict)
    # Rows this pass appended to the propagator's provenance ledger.
    provenance_rows: int = 0
    # Cells whose live arcs this pass decided and merged, and live arcs
    # it carried from a warm start's base instead (counted as reused).
    walked_cells: int = 0
    carried_arcs: int = 0

    def arrival_map(self) -> dict[tuple[str, str], float]:
        return {(a.endpoint, a.direction): a.event.t_cross for a in self.arrivals}


@dataclass
class _PassTrace:
    """What a later pass needs to carry cells over from this one: its
    final state, the ledger it wrote, the first ledger row of each
    cell's arcs (-1 where none merged), each level's first row (one
    entry more than levels: the end) and each level's coupling-wave
    count."""

    state: ColumnTimingState
    ledger: ProvenanceLedger
    cell_row: np.ndarray
    level_row: np.ndarray
    level_waves: list[int]


def ideal_ramp_event(
    direction: str,
    t_start: float,
    transition: float,
    vdd: float,
    v_th: float,
) -> RampEvent:
    """Ramp event of an ideal rail-to-rail ramp starting at ``t_start``.

    By symmetry the threshold crossings land at the same offsets for both
    directions: the near-start threshold at ``transition * v_th / vdd``
    and the near-end one at ``transition * (vdd - v_th) / vdd``.
    """
    return RampEvent(
        direction=direction,
        t_cross=t_start + 0.5 * transition,
        transition=transition,
        t_early=t_start + transition * v_th / vdd,
        t_late=t_start + transition * (vdd - v_th) / vdd,
    )


def init_sources(
    state: ColumnTimingState, design: Design, input_transition: float
) -> None:
    """Seed a pass's primary inputs with ideal ramps at ``t = 0`` and
    mark them calculated: the clock launches a rising edge only, data
    inputs may make either transition."""
    process = design.process
    net_id = state.compiled.net_id
    for port in design.circuit.inputs.values():
        net = port.net
        if net is None:
            continue
        i = net_id[net.name]
        directions = (RISING,) if net.is_clock else (RISING, FALLING)
        for direction in directions:
            event = ideal_ramp_event(
                direction, 0.0, input_transition, process.vdd, process.v_th_model
            )
            state.set_event(
                DIR_INDEX[direction],
                i,
                event.t_cross,
                event.transition,
                event.t_early,
                event.t_late,
            )
        state.processed_mask[i] = True


# Decided coupling treatment of the non-window modes (the window-based
# modes decide per aggressor: "quiet" / "overlap").
_FIXED_COUPLING_KIND = {
    AnalysisMode.BEST_CASE: "grounded",
    AnalysisMode.STATIC_DOUBLED: "doubled",
    AnalysisMode.WORST_CASE: "all_active",
}


def _csr(keys: np.ndarray, values: np.ndarray, n: int) -> tuple[list[int], np.ndarray]:
    """``values`` grouped by ``keys`` (ids below ``n``): row pointers and
    the grouped values."""
    pointers = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=n), out=pointers[1:])
    return pointers.tolist(), values[np.argsort(keys, kind="stable")]


class Propagator:
    """Runs single STA passes over a compiled design."""

    def __init__(
        self,
        design: Design,
        config: StaConfig,
        calculator: GateDelayCalculator | None = None,
        obs: Observability | None = None,
        compiled: columnar.CompiledDesign | None = None,
    ):
        self.design = design
        self.config = config
        if obs is not None:
            self.obs = obs
        elif calculator is not None:
            # Share the calculator's registry so arc-cache and propagation
            # metrics land in one snapshot.
            self.obs = Observability.disabled()
            self.obs.metrics = calculator.metrics
        else:
            self.obs = Observability.disabled()
        self.calculator = (
            calculator
            if calculator is not None
            else GateDelayCalculator(
                process=design.process,
                metrics=self.obs.metrics,
            )
        )
        self.compiled = (
            compiled if compiled is not None else columnar.compile_design(design)
        )
        self.levels = self.compiled.levels
        self.order = self.compiled.cells
        # Per-arc provenance ledger (columnar; one row per merged arc).
        self.ledger = ProvenanceLedger()
        self._pass_count = 0
        # The last pass, and a warm start's base for the next one with
        # its seed cells (see warm_start_from).
        self._trace: _PassTrace | None = None
        self._base: _PassTrace | None = None
        self._seed: np.ndarray | None = None
        metrics = self.obs.metrics
        self._c_phase = {
            phase: metrics.counter("propagation.phase_seconds", phase=phase)
            for phase in PASS_PHASES
        }
        self._c_passes = metrics.counter("propagation.passes")
        self._c_arcs = metrics.counter("propagation.arcs_processed")
        self._c_evals = metrics.counter("propagation.waveform_evaluations")
        self._c_coupled = metrics.counter("propagation.coupled_arcs")
        self._c_dirty = metrics.counter("propagation.dirty_arcs")
        self._c_reused = metrics.counter("propagation.reused_arcs")
        self._c_carried = metrics.counter("propagation.carried_arcs")
        self._c_waves = metrics.counter("propagation.coupling_waves")
        # Level look-ahead: keys it solved ahead of their wave, and keys
        # the waves still had to solve in levels where it ran (its
        # misses).
        self._c_lookahead = metrics.counter("propagation.lookahead_solves")
        self._c_catchup = metrics.counter("propagation.catchup_solves")
        self._h_waves = metrics.histogram(
            "propagation.waves_per_level", boundaries=SMALL_COUNT_BUCKETS
        )
        self._init_columns()

    # -- static columns ------------------------------------------------------

    def _init_columns(self) -> None:
        cp = self.compiled
        config = self.config
        n = cp.n_arcs
        mode = config.mode
        wb = mode.is_window_based
        cf = cp.net_c_fixed[cp.arc_out_net]
        cc = cp.net_cc_total[cp.arc_out_net]
        # The plain (decision-free) load of each arc: the grounded load of
        # the window-based modes' no-neighbour arcs, or the mode's fixed
        # treatment otherwise (coupling grounded at 1x or 2x, or all
        # active).
        if wb or mode is AnalysisMode.BEST_CASE:
            plain_cg, plain_ca = cf + cc, np.zeros(n)
        elif mode is AnalysisMode.STATIC_DOUBLED:
            plain_cg, plain_ca = cf + 2.0 * cc, np.zeros(n)
        elif mode is AnalysisMode.WORST_CASE:
            plain_cg, plain_ca = cf.copy(), cc.copy()
        else:  # pragma: no cover - AnalysisMode is closed
            raise EngineError(f"mode {mode} has no fixed coupling treatment")
        self._s_windowed = wb & (cp.arc_n_coup > 0)
        self._s_plain_cg = plain_cg
        self._s_plain_ca = plain_ca
        self._s_plain_coupled = (plain_ca > 0.0).tolist()
        # A windowed arc's decided coupled load: c_fixed plus its
        # (active, passive) pair.
        self._s_cf = cf.tolist()
        # Pre-quantized cache-key loads (python floats: the keys are
        # JSON-serialized by the persistent cache).  The vectorized ceil
        # is bit-identical to the scalar math.ceil path: the quotients
        # are small enough that the ceiling integer is exact in float64.
        def qcap(values: np.ndarray) -> list[float]:
            return (np.ceil(np.maximum(values, 0.0) / CAP_GRID) * CAP_GRID).tolist()

        self._qp_plain_p = qcap(plain_cg)
        self._qp_plain_a = qcap(plain_ca)
        self._qp_best_p = qcap(cf + cc)
        self._qp_worst_p = qcap(cf)
        self._qp_worst_a = qcap(cc)

        # Per-arc object/str columns the hot loops index by id.
        self._s_cell = [cp.cells[i] for i in cp.arc_cell.tolist()]
        self._s_pin = cp.arc_pin
        self._s_dir = [DIRECTIONS[i] for i in cp.arc_in_dir.tolist()]
        self._s_indir = cp.arc_in_dir.tolist()
        self._s_outd = (1 - cp.arc_in_dir).tolist()
        self._s_out = cp.arc_out_net.tolist()
        self._s_windowed_l = self._s_windowed.tolist()
        self._tokens: list[str | None] = [None] * n
        self._coup_indptr = cp.coup_indptr.tolist()
        self._coup_net = cp.coup_net.tolist()
        self._coup_cap = cp.coup_cap.tolist()

        # Ledger annotation columns.  Unwindowed arcs keep their static
        # values; the decision phase rewrites windowed entries each pass.
        plain_kind = _FIXED_COUPLING_KIND.get(mode, "none")
        self._a_kind = [plain_kind] * n
        self._s_aggt = cp.arc_n_coup.tolist()
        self._a_agga = (
            list(self._s_aggt)
            if mode is AnalysisMode.WORST_CASE
            else [0] * n
        )

        # Delta-driven memo columns: what an arc's last solves consumed
        # -- the arrival transition (``_m_tt``) and the final load -- and
        # what they returned.  Loads are (c_ground, c_couple_active,
        # c_couple_passive) triples; NaN encodes "no load" (the windowed
        # quiet short-circuit), which correctly never compares equal to a
        # real load.  A valid windowed entry always holds its best-case
        # result, and under OVERLAP its all-active one.
        self._m_valid = np.zeros(n, dtype=bool)
        self._m_tt = np.zeros(n, dtype=np.float64)
        self._m_cg = np.full(n, np.nan)
        self._m_ca = np.full(n, np.nan)
        self._m_cp = np.full(n, np.nan)
        self._m_best: list[ArcResult | None] = [None] * n
        self._m_worst: list[ArcResult | None] = [None] * n
        self._m_final: list[ArcResult | None] = [None] * n
        # The level look-ahead's last prediction per windowed arc
        # ``(n_active, active_sum, passive_sum)``, or None once a pass
        # walked the arc without one (see run_pass).
        self._p: list[tuple | None] = [None] * n

        # Per-level cell records: (cell, cell id, out net id, arc slab
        # range, is_ff), and each level's cell and out-net ids.
        self._lvl_cells: list[list[tuple[Cell, int, int, int, int, bool]]] = []
        for level in self.levels:
            records = []
            for cell in level:
                ci = cp.cell_id[cell.name]
                oi = int(cp.cell_out_net[ci])
                if oi < 0:
                    continue
                records.append(
                    (
                        cell,
                        ci,
                        oi,
                        int(cp.cell_arc_begin[ci]),
                        int(cp.cell_arc_end[ci]),
                        bool(cp.cell_is_ff[ci]),
                    )
                )
            self._lvl_cells.append(records)
        self._lvl_ci = [
            np.array([r[1] for r in records], dtype=np.int64)
            for records in self._lvl_cells
        ]
        self._lvl_out = [
            np.array([r[2] for r in records], dtype=np.int64)
            for records in self._lvl_cells
        ]

    def _token(self, a: int) -> str:
        """The arc's interned stage-signature token, resolved lazily on
        first use so signature/alias metrics track actual demand."""
        token = self._tokens[a]
        if token is None:
            token = self.calculator.signature(self._s_cell[a].ctype, self._s_pin[a])
            self._tokens[a] = token
        return token

    def _decide(self, a, ts, best, worst, state, prev):
        """The coupling decision of one windowed arc (paper §5.1):
        ``(n_active, active_sum, passive_sum)`` over its aggressors.

        An aggressor may couple when its window can overlap the victim's
        guarded activity window.  Its window is this pass's once its net
        is calculated (``state.processed_mask``), else the previous
        pass's (``prev``), else unknown (always switching).  Clock nets
        are windowed like any other: they switch once, at the launch
        edge, and the return edge lies outside the analysis window.
        Reads ``state`` only, so the level look-ahead and the wave loop
        share it.
        """
        guard = self.config.guard
        tb_g = (ts + best.t_early) - guard
        tvl_g = (ts + worst.t_late) + guard if worst is not None else float("inf")
        agg_d = self._s_indir[a]
        out = self._s_out[a]
        active_sum = 0.0
        passive_sum = 0.0
        n_active = 0
        for j in range(self._coup_indptr[out], self._coup_indptr[out + 1]):
            other = self._coup_net[j]
            cap = self._coup_cap[j]
            if other >= 0 and state.processed_mask[other]:
                if state.valid[agg_d, other]:
                    te = state.ev_te[agg_d, other]
                    tq = state.ev_tl[agg_d, other]
                else:
                    te, tq = float("inf"), float("-inf")
            elif prev is not None:
                if other >= 0 and prev.valid[agg_d, other]:
                    te = prev.ev_te[agg_d, other]
                    tq = prev.ev_tl[agg_d, other]
                else:
                    te, tq = float("inf"), float("-inf")
            else:
                te, tq = float("-inf"), float("inf")
            may_couple = tq > tb_g
            if may_couple and te >= tvl_g:
                may_couple = False
            if may_couple:
                active_sum += cap
                n_active += 1
            else:
                passive_sum += cap
        return n_active, active_sum, passive_sum

    def _key(self, a, qtt, q_passive, q_active) -> tuple:
        """The cache key of one of arc ``a``'s solves: its stage token
        (so every key an arc resolves starts with it), its direction, the
        quantized slew and the quantized loads."""
        return (self._token(a), self._s_dir[a], qtt, q_passive, q_active, False)

    def _final_key(self, a, attached, qtt, load):
        """The cache key of arc ``a``'s coupled final solve under its
        decided ``(active, passive)`` load, or None when its memo already
        holds that load's result (its ground part is the arc's static
        c_fixed).  Shared by the look-ahead and the wave loop, so a right
        prediction is exactly the key the wave resolves."""
        active_sum, passive_sum = load
        if attached and self._m_ca[a] == active_sum and self._m_cp[a] == passive_sum:
            return None
        q_cap = self.calculator._q_cap
        return self._key(
            a, qtt, q_cap(self._s_cf[a] + passive_sum), q_cap(active_sum)
        )

    # -- session reuse -------------------------------------------------------

    @property
    def memo_arcs(self) -> int:
        """Number of arcs with a live delta-driven memo entry."""
        return int(self._m_valid.sum())

    def warm_start_from(self, source: "Propagator") -> None:
        """Adopt another propagator's per-arc state (the what-if path of
        a persistent design session).

        Every ECO edit keeps the cell and arc ids and the nets (an
        upsize's cloned circuit numbers a few nets differently), so the
        state is adopted by arc id, nets mapped by name, and only when
        both compiled designs agree on them; otherwise nothing is
        adopted and the next pass runs cold, which is always exact.

        The memo fingerprints only what a solve consumes beyond the
        arc's identity -- the arrival shape and the decided load --
        because within one design a cell's type and its output net's
        electrical view cannot change between passes.  Across designs
        they can, so the arcs of a cell with a new cell type or a new
        output :class:`NetLoad` (fixed load, coupling neighbours, sink
        Elmore delays) lose their entries and are re-solved.  Changes
        upstream of a surviving arc are caught by the arrival
        fingerprint itself (a moved transition misses the memo), so a
        reused arc stays bit-identical to a fresh solve.

        A single-pass config also keeps the source's last pass as the
        *base* of its next pass, which then walks only the cells the
        edit can reach (see the module docstring).  Its seeds are the
        cells above plus those whose coupling order or input-pin sink
        Elmore delays moved.
        """
        cp, old = self.compiled, source.compiled
        net_map = cp.net_map(old)
        if net_map is None:
            return
        loads, old_loads = self.design.loads, source.design.loads
        kept = np.ones(cp.n_cells, dtype=bool)
        seed = np.zeros(cp.n_cells, dtype=bool)
        for ci, oi in enumerate(cp.cell_out_net.tolist()):
            if oi < 0:
                continue
            name = cp.net_names[oi]
            load, old_load = loads.get(name), old_loads.get(name)
            if cp.cells[ci].ctype.name != old.cells[ci].ctype.name or (
                load is not old_load and load != old_load
            ):
                kept[ci] = False
                seed[ci] = True
            elif load is not old_load and list(load.couplings) != list(
                old_load.couplings
            ):
                # Equal loads, but the decided coupling sums would
                # accumulate in another order.
                seed[ci] = True
        moved = cp.arc_elmore.view(np.int64) != old.arc_elmore.view(np.int64)
        seed[cp.arc_cell[moved]] = True
        for ci in np.nonzero(cp.cell_clk_net >= 0)[0].tolist():
            clk = cp.net_names[cp.cell_clk_net[ci]]
            load, old_load = loads.get(clk), old_loads.get(clk)
            terminal = cp.cell_clk_terminal[ci]
            if load is not old_load and load.sink_elmore.get(
                terminal, 0.0
            ) != old_load.sink_elmore.get(terminal, 0.0):
                seed[ci] = True

        for name in ("_m_valid", "_m_tt", "_m_cg", "_m_ca", "_m_cp"):
            getattr(self, name)[:] = getattr(source, name)
        for name in ("_m_best", "_m_worst", "_m_final", "_p"):
            setattr(self, name, list(getattr(source, name)))
        self._m_valid[~kept[cp.arc_cell]] = False
        if (
            self.config.mode is not AnalysisMode.ITERATIVE
            and source._trace is not None
            and replace(source.config, checkpoint=None)
            == replace(self.config, checkpoint=None)
        ):
            base = source._trace
            if not np.array_equal(net_map, np.arange(cp.n_nets)):
                base = replace(base, state=base.state.renumbered(cp, net_map))
            self._base = base
            self._seed = seed
            self._build_cone_index()

    def _build_cone_index(self) -> None:
        """The cone's index: each net's readers and, in the window-based
        modes, its deciders (the cells that decide against it as an
        aggressor); each cell's same-level coupled neighbours; and the
        nets no cell drives."""
        cp = self.compiled
        n_nets = cp.n_nets
        has_out = cp.cell_out_net >= 0
        driver = np.full(n_nets, -1, dtype=np.int64)
        driver[cp.cell_out_net[has_out]] = np.nonzero(has_out)[0]
        reads = cp.arc_in_net >= 0
        self._readers = _csr(cp.arc_in_net[reads], cp.arc_cell[reads], n_nets)
        no_cells = np.zeros(0, dtype=np.int64)
        self._deciders = _csr(no_cells, no_cells, n_nets)
        self._mates = _csr(no_cells, no_cells, cp.n_cells)
        if self.config.mode.is_window_based:
            # Coupling entry (owner net -> aggressor net): the owner's
            # driver decides against the aggressor.
            owner = np.repeat(np.arange(n_nets), np.diff(cp.coup_indptr))
            decider = driver[owner]
            aggressor = cp.coup_net
            ok = (decider >= 0) & (aggressor >= 0)
            decider, aggressor = decider[ok], aggressor[ok]
            self._deciders = _csr(aggressor, decider, n_nets)
            aggressor_driver = driver[aggressor]
            level = np.repeat(
                np.arange(len(self.levels)), [len(lv) for lv in self.levels]
            )
            same = (aggressor_driver >= 0) & (
                level[np.maximum(aggressor_driver, 0)] == level[decider]
            )
            self._mates = _csr(aggressor_driver[same], decider[same], cp.n_cells)
        self._source_nets = np.nonzero(driver < 0)[0]

    # -- pass driver ---------------------------------------------------------

    def run_pass(
        self,
        prev: ColumnTimingState | None = None,
        recalc_cells: set[str] | None = None,
    ) -> PassResult:
        """One full level-synchronous propagation.

        ``prev`` is the previous iterative pass's state (one of this
        propagator's passes, or one restored from a checkpoint over its
        compiled design): it supplies the stored per-net activity windows
        (earliest activity, quiescent time).  ``recalc_cells``
        (Esperance) restricts waveform recalculation to the given cells;
        every other cell whose net ``prev`` calculated copies its events
        from ``prev``.  The first pass after a warm start of a
        single-pass config walks only the edit's cone and carries every
        other cell from the warm start's base (see the module docstring).
        """
        cp = self.compiled
        if prev is not None and prev.compiled is not cp:
            raise EngineError(
                "previous pass state belongs to another compiled design"
            )
        copy_from = prev if recalc_cells is not None else None
        base = self._base if prev is None and recalc_cells is None else None
        self._base = None
        calc = self.calculator
        config = self.config
        n = cp.n_arcs
        state = ColumnTimingState(cp)
        result = PassResult(state=state)
        eval_before = calc.evaluations
        hits_before = calc.cache_hits
        dedup_before = calc.dedup_hits
        persisted_before = calc.persisted_hits
        ledger_before = len(self.ledger)
        self._pass_count += 1
        timers = {phase: 0.0 for phase in PASS_PHASES}
        tracer = self.obs.tracer

        overlap = config.window_check is WindowCheck.OVERLAP
        mode = config.mode
        k_slew = SLEW_DEGRADATION_FACTOR

        # Per-pass arc columns.  Every arc starts from its memo's results
        # and origin "memo"; a miss replaces them with what the keys this
        # pass resolves return.  A windowed arc decided coupled gets its
        # (active, passive) load.
        a_live = np.zeros(n, dtype=bool)
        a_tt = np.zeros(n, dtype=np.float64)
        a_ts = np.zeros(n, dtype=np.float64)
        a_prov_dir = cp.arc_in_dir.astype(np.int8)
        a_attach = np.zeros(n, dtype=bool)
        a_best = list(self._m_best)
        a_worst = list(self._m_worst)
        a_final = list(self._m_final)
        a_origin: list[str] = [ORIGIN_MEMO] * n
        a_load: list[tuple[float, float] | None] = [None] * n
        qtt_l: list[float] = [0.0] * n
        ts_l: list[float] = [0.0] * n

        # This pass's trace (what a later warm start carries from it).
        cell_row = np.full(cp.n_cells, -1, dtype=np.int64)
        level_row = np.zeros(len(self.levels) + 1, dtype=np.int64)
        level_waves = [0] * len(self.levels)
        # With a base, the cells to walk are the edit's cone (``dirty``),
        # which grows as changed nets are found, with the cells whose
        # live-ness may have moved (``flipped``).
        if base is not None:
            dirty = self._seed.copy()
            cone = (dirty, np.zeros(cp.n_cells, dtype=bool))

        with tracer.span(
            "sta.pass",
            mode=mode.value,
            esperance=recalc_cells is not None,
        ) as pass_span:
            init_sources(state, self.design, config.input_transition)
            if base is not None:
                self._mark_changed(state, base.state, self._source_nets, cone)
            for level_index, level in enumerate(self.levels):
                level_row[level_index] = len(self.ledger)
                if base is not None and not self._cone_reaches(level_index, cone):
                    with tracer.span(
                        "sta.level", index=level_index, cells=len(level), carried=True
                    ):
                        t0 = time.perf_counter()
                        self._carry_level(
                            level_index, base, state, result, cell_row, level_waves
                        )
                        timers["merge"] += time.perf_counter() - t0
                    continue
                with tracer.span(
                    "sta.level", index=level_index, cells=len(level)
                ) as level_span:
                    t0 = time.perf_counter()
                    records = self._lvl_cells[level_index]
                    lo = int(cp.level_indptr[level_index])
                    hi = int(cp.level_indptr[level_index + 1])
                    active_records = []
                    gate_any = False
                    for record in records:
                        cell, ci, oi, b, e, is_ff = record
                        if (
                            copy_from is not None
                            and cell.name not in recalc_cells
                            and copy_from.processed_mask[oi]
                        ):
                            state.copy_nets_from(copy_from, oi)
                            state.processed_mask[oi] = True
                            continue
                        state.present[oi] = True
                        active_records.append(record)
                        if is_ff:
                            self._gather_flip_flop(record, state, a_live, a_tt, a_ts, a_prov_dir)
                        elif b < e:
                            a_live[b:e] = True  # candidate; pruned below
                            gate_any = True
                    if gate_any:
                        idx = np.nonzero(a_live[lo:hi] & ~cp.arc_is_ff[lo:hi])[0] + lo
                        innet = cp.arc_in_net[idx]
                        indir = cp.arc_in_dir[idx]
                        ok = state.valid[indir, innet]
                        a_live[idx[~ok]] = False
                        live_idx = idx[ok]
                        innet = innet[ok]
                        indir = indir[ok]
                        tc = state.ev_tc[indir, innet]
                        tr = state.ev_tr[indir, innet]
                        el = cp.arc_elmore[live_idx]
                        shift = el > 0.0
                        tc = np.where(shift, tc + el, tc)
                        tr = np.where(shift, tr + k_slew * el, tr)
                        a_tt[live_idx] = tr
                        a_ts[live_idx] = tc - 0.5 * tr
                    ts_l[lo:hi] = a_ts[lo:hi].tolist()
                    live_l = a_live[lo:hi].tolist()
                    computed: list[tuple] = []
                    quiet_walked: list[int] = []
                    for record in active_records:
                        _, ci, oi, b, e, is_ff = record
                        if is_ff or any(live_l[b - lo : e - lo]):
                            computed.append(record)
                        else:
                            # No launch events reach this cell: its output
                            # stays quiet this pass.
                            state.processed_mask[oi] = True
                            if base is not None and dirty[ci]:
                                quiet_walked.append(oi)
                    if quiet_walked:
                        self._mark_changed(state, base.state, quiet_walked, cone)
                    timers["gather"] += time.perf_counter() - t0

                    live_slab = a_live[lo:hi]
                    n_live = int(live_slab.sum())
                    if n_live == 0:
                        continue

                    # Every live arc checks its memo, walked or not: a
                    # cell outside the cone reads the base's inputs and
                    # load, so it always hits, and a cell the cone reaches
                    # later in the level walks on its memo's results.
                    t0 = time.perf_counter()
                    with tracer.span("phase.base_waveforms", tasks=n_live):
                        sl = slice(lo, hi)
                        qtt = (
                            np.ceil(np.maximum(a_tt[sl], 1e-13) / TRANSITION_GRID)
                            * TRANSITION_GRID
                        )
                        qtt_l[lo:hi] = qtt.tolist()
                        attach = (
                            live_slab
                            & self._m_valid[sl]
                            & (self._m_tt[sl] == a_tt[sl])
                        )
                        a_attach[sl] = attach
                        windowed = self._s_windowed[sl]
                        # A valid windowed entry holds its base results;
                        # an unwindowed one is reused only under the plain
                        # load it was solved with.
                        hit = attach & (
                            windowed
                            | (
                                (self._m_cg[sl] == self._s_plain_cg[sl])
                                & (self._m_ca[sl] == self._s_plain_ca[sl])
                                & (self._m_cp[sl] == 0.0)
                            )
                        )
                        miss_l = (np.nonzero(live_slab & ~hit)[0] + lo).tolist()
                        if miss_l:
                            keys = []
                            for a in miss_l:
                                q = qtt_l[a]
                                if not self._s_windowed_l[a]:
                                    keys.append(
                                        self._key(
                                            a, q, self._qp_plain_p[a], self._qp_plain_a[a]
                                        )
                                    )
                                    continue
                                keys.append(self._key(a, q, self._qp_best_p[a], 0.0))
                                if overlap:
                                    keys.append(
                                        self._key(
                                            a, q, self._qp_worst_p[a], self._qp_worst_a[a]
                                        )
                                    )
                            calc.prime_keys(keys)
                            result.waveform_evaluations += len(keys)
                            # Resolved in the order they were primed.
                            resolving = iter(keys)
                            for a in miss_l:
                                rel = calc.resolve_key(next(resolving))
                                a_origin[a] = calc.last_origin
                                if not self._s_windowed_l[a]:
                                    a_final[a] = rel
                                    continue
                                a_best[a] = rel
                                if overlap:
                                    a_worst[a] = calc.resolve_key(next(resolving))
                    timers["base_waveforms"] += time.perf_counter() - t0

                    waves = self._coupling_waves(computed)
                    level_waves[level_index] = len(waves)
                    self._c_waves.inc(len(waves))
                    self._h_waves.observe(len(waves))
                    level_span.set(tasks=n_live, waves=len(waves))
                    # Look-ahead: decide every windowed arc of the level
                    # against the pre-wave state and solve the coupled
                    # keys in one batch instead of one batch per wave.
                    # Wave 0's decisions are exact (wave 0 reuses them);
                    # later waves' are predictions (an earlier wave's
                    # aggressor still counts as not calculated).  The
                    # later waves still decide and merge alone, so a
                    # right guess is a cache hit and a wrong one a
                    # catch-up solve.  Only levels where some windowed arc
                    # missed its memo (warm what-ifs mostly skip it).
                    # Carried arcs count too: their predictions solve
                    # what a full walk's would.
                    w = live_slab & windowed
                    lookahead = len(waves) >= 2 and bool((w & ~hit).any())
                    if lookahead:
                        t0 = time.perf_counter()
                        w_arcs = (np.nonzero(w)[0] + lo).tolist()
                        # Which of them are in the cone as the level starts.
                        fresh = w if base is None else w & dirty[cp.arc_cell[sl]]
                        with tracer.span(
                            "phase.coupling_decisions",
                            lookahead=True,
                            tasks=len(w_arcs),
                        ):
                            keys = []
                            for a, decides in zip(w_arcs, fresh[w].tolist()):
                                # A carried arc's prediction is the one its
                                # last look-ahead made: it sees the same
                                # pre-wave state.
                                decision = None if decides else self._p[a]
                                if decision is None:
                                    decision = self._decide(
                                        a,
                                        ts_l[a],
                                        a_best[a],
                                        a_worst[a],
                                        state,
                                        prev,
                                    )
                                    self._p[a] = decision
                                n_active, active_sum, passive_sum = decision
                                if not n_active:
                                    continue
                                key = self._final_key(
                                    a, a_attach[a], qtt_l[a], (active_sum, passive_sum)
                                )
                                if key is not None:
                                    keys.append(key)
                        timers["coupling_decisions"] += time.perf_counter() - t0
                        t0 = time.perf_counter()
                        with tracer.span(
                            "phase.final_waveforms", lookahead=True, keys=len(keys)
                        ):
                            self._c_lookahead.inc(calc.prefetch_keys(keys))
                        timers["final_waveforms"] += time.perf_counter() - t0
                    for wave_index, wave in enumerate(waves):
                        t0 = time.perf_counter()
                        # Which of the wave's cells walk: the cone as it
                        # stands now (every other cell is carried).
                        if base is not None:
                            walks = [bool(dirty[record[1]]) for record in wave]
                        else:
                            walks = [True] * len(wave)
                        plan = []
                        for record, walked in zip(wave, walks):
                            _, _, _, b, e, _ = record
                            plan.append(
                                (record, walked, [a for a in range(b, e) if live_l[a - lo]])
                            )
                        wave_arcs = [a for _, walked, arcs in plan if walked for a in arcs]
                        result.walked_cells += sum(walks)
                        with tracer.span(
                            "phase.coupling_decisions",
                            wave=wave_index,
                            tasks=len(wave_arcs),
                        ):
                            # Wave 0 decides against the pre-wave state:
                            # exactly the look-ahead's decisions.
                            ahead = lookahead and wave_index == 0
                            for a in wave_arcs:
                                if not self._s_windowed_l[a]:
                                    continue
                                best = a_best[a]
                                if ahead:
                                    n_active, active_sum, passive_sum = self._p[a]
                                else:
                                    n_active, active_sum, passive_sum = self._decide(
                                        a,
                                        ts_l[a],
                                        best,
                                        a_worst[a],
                                        state,
                                        prev,
                                    )
                                self._a_kind[a] = "overlap" if n_active else "quiet"
                                self._a_agga[a] = n_active
                                if not lookahead:
                                    self._p[a] = None
                                if n_active:
                                    a_load[a] = (active_sum, passive_sum)
                                else:
                                    a_final[a] = best
                        timers["coupling_decisions"] += time.perf_counter() - t0

                        t0 = time.perf_counter()
                        with tracer.span("phase.final_waveforms", wave=wave_index):
                            pending: list[int] = []
                            keys = []
                            for a in wave_arcs:
                                load = a_load[a]
                                if load is None:
                                    continue
                                # No key: the memo's final, which the pass
                                # started from, was solved under this load.
                                key = self._final_key(a, a_attach[a], qtt_l[a], load)
                                if key is not None:
                                    pending.append(a)
                                    keys.append(key)
                            if pending:
                                solved = calc.prime_keys(keys)
                                if lookahead:
                                    self._c_catchup.inc(solved)
                                result.waveform_evaluations += len(keys)
                                for a, key in zip(pending, keys):
                                    a_final[a] = calc.resolve_key(key)
                                    a_origin[a] = calc.last_origin
                        timers["final_waveforms"] += time.perf_counter() - t0

                        t0 = time.perf_counter()
                        walked_nets = []
                        carried_nets = []
                        carried_shift = []
                        for record, walked, arcs in plan:
                            _, ci, oi, _, _, _ = record
                            if not walked:
                                carried_shift.append(
                                    self._carry_cell(record, len(arcs), base, result, cell_row)
                                )
                                carried_nets.append(oi)
                                continue
                            walked_nets.append(oi)
                            cell_row[ci] = len(self.ledger)
                            for a in arcs:
                                rel = a_final[a]
                                load = a_load[a]
                                windowed_arc = self._s_windowed_l[a]
                                if windowed_arc:
                                    coupled = load is not None
                                    delta = (
                                        rel.t_cross - a_best[a].t_cross if coupled else 0.0
                                    )
                                else:
                                    coupled = self._s_plain_coupled[a]
                                    delta = 0.0 if mode is AnalysisMode.BEST_CASE else None
                                row = self.ledger.append(
                                    origin=a_origin[a],
                                    signature=self._token(a),
                                    coupling=self._a_kind[a],
                                    aggressors_total=self._s_aggt[a],
                                    aggressors_active=self._a_agga[a],
                                    pass_index=self._pass_count,
                                    coupling_delta=delta,
                                )
                                ts = ts_l[a]
                                tc = ts + rel.t_cross
                                tr = rel.transition
                                te = ts + rel.t_early
                                tl = ts + rel.t_late
                                d = self._s_outd[a]
                                out = self._s_out[a]
                                if state.valid[d, out]:
                                    cur_tc = state.ev_tc[d, out]
                                    winner = tc > cur_tc
                                    # Pointwise-worst merge (merge_worst):
                                    # each component keeps the current value
                                    # on ties, like python max/min.
                                    if not cur_tc >= tc:
                                        state.ev_tc[d, out] = tc
                                    if not state.ev_tr[d, out] >= tr:
                                        state.ev_tr[d, out] = tr
                                    if not state.ev_te[d, out] <= te:
                                        state.ev_te[d, out] = te
                                    if not state.ev_tl[d, out] >= tl:
                                        state.ev_tl[d, out] = tl
                                    state._ev_cache.pop((d, out), None)
                                else:
                                    state.valid[d, out] = True
                                    state.ev_tc[d, out] = tc
                                    state.ev_tr[d, out] = tr
                                    state.ev_te[d, out] = te
                                    state.ev_tl[d, out] = tl
                                    winner = True
                                if winner:
                                    state.win_arc[d, out] = a
                                    state.win_coupled[d, out] = coupled
                                    state.win_prov_dir[d, out] = a_prov_dir[a]
                                    state.aprov_row[d, out] = row
                                self._m_valid[a] = True
                                self._m_tt[a] = a_tt[a]
                                self._m_best[a] = a_best[a]
                                self._m_worst[a] = a_worst[a]
                                self._m_final[a] = rel
                                if load is not None:
                                    self._m_cg[a] = self._s_cf[a]
                                    self._m_ca[a], self._m_cp[a] = load
                                elif windowed_arc:
                                    self._m_cg[a] = self._m_ca[a] = self._m_cp[a] = np.nan
                                else:
                                    self._m_cg[a] = self._s_plain_cg[a]
                                    self._m_ca[a] = self._s_plain_ca[a]
                                    self._m_cp[a] = 0.0
                        if carried_nets:
                            state.copy_nets_from(
                                base.state, carried_nets, np.array(carried_shift)
                            )
                        if base is not None and walked_nets:
                            self._mark_changed(state, base.state, walked_nets, cone)
                        # Wave barrier: these events now count as calculated
                        # for the later waves' and levels' decisions.
                        for record in wave:
                            state.processed_mask[record[2]] = True
                        timers["merge"] += time.perf_counter() - t0

            level_row[len(self.levels)] = len(self.ledger)
            # The arc counts are tallies of this pass's rows: one per live
            # arc, walked or carried.
            rows, memo, coupled_rows = self.ledger.tally(ledger_before)
            result.arcs_processed = result.provenance_rows = rows
            result.reused_arcs = memo
            result.dirty_arcs = rows - memo
            result.coupled_arcs = coupled_rows
            self._collect_arrivals(state, result)
            pass_span.set(
                arcs=result.arcs_processed,
                evaluations=result.waveform_evaluations,
                coupled_arcs=result.coupled_arcs,
                walked_cells=result.walked_cells,
                carried_arcs=result.carried_arcs,
                longest_delay_ns=result.longest_delay * 1e9,
            )

        result.cache_evaluations = calc.evaluations - eval_before
        result.cache_hits = calc.cache_hits - hits_before
        result.cache_dedup_hits = calc.dedup_hits - dedup_before
        result.cache_persisted_hits = calc.persisted_hits - persisted_before
        result.phase_seconds = timers
        self._trace = _PassTrace(state, self.ledger, cell_row, level_row, level_waves)
        self._c_passes.inc()
        self._c_arcs.inc(result.arcs_processed)
        self._c_evals.inc(result.waveform_evaluations)
        self._c_coupled.inc(result.coupled_arcs)
        self._c_dirty.inc(result.dirty_arcs)
        self._c_reused.inc(result.reused_arcs)
        self._c_carried.inc(result.carried_arcs)
        for phase, seconds in timers.items():
            self._c_phase[phase].inc(seconds)
        return result

    # -- the warm what-if's cone ------------------------------------------------

    def _cone_reaches(self, level_index: int, cone) -> bool:
        """Whether the cone reaches a cell of this level.  In the
        window-based modes a cell whose live-ness may have moved (an
        input net's validity moved) takes its same-level coupled
        neighbours along: the moment its net counts as calculated for
        them moves with its live-ness."""
        dirty, flipped = cone
        level_ci = self._lvl_ci[level_index]
        if not dirty[level_ci].any():
            return False
        pointers, mates = self._mates
        for ci in level_ci[flipped[level_ci]].tolist():
            dirty[mates[pointers[ci] : pointers[ci + 1]]] = True
        return True

    def _mark_changed(self, state, base_state, nets, cone) -> None:
        """Add to the cone the readers and deciders of every net in
        ``nets`` whose events differ bit for bit from the base's; a
        moved validity also flips its readers' live-ness."""
        dirty, flipped = cone
        nets = np.asarray(nets, dtype=np.int64)
        valid = state.valid[:, nets]
        flips = (valid != base_state.valid[:, nets]).any(axis=0)
        moved = flips.copy()
        for name in ("ev_tc", "ev_tr", "ev_te", "ev_tl"):
            mine = getattr(state, name)[:, nets].view(np.int64)
            theirs = getattr(base_state, name)[:, nets].view(np.int64)
            moved |= (valid & (mine != theirs)).any(axis=0)
        for index in (self._readers, self._deciders):
            pointers, cells = index
            for net in nets[moved].tolist():
                dirty[cells[pointers[net] : pointers[net + 1]]] = True
        pointers, cells = self._readers
        for net in nets[flips].tolist():
            flipped[cells[pointers[net] : pointers[net + 1]]] = True

    def _carry_cell(self, record, count, base, result, cell_row) -> int:
        """Append one carried cell's ``count`` ledger rows (the caller
        copies its net's events at its wave's barrier); returns the
        shift of its rows against the base's."""
        ci = record[1]
        row = int(base.cell_row[ci])
        start = len(self.ledger)
        self.ledger.carry(base.ledger, row, row + count, self._pass_count)
        cell_row[ci] = start
        result.carried_arcs += count
        return start - row

    def _carry_level(
        self, level_index, base, state, result, cell_row, level_waves
    ) -> None:
        """Carry a whole level the cone does not reach: its nets' events,
        winners and ledger rows; its coupling waves are the base's."""
        lo, hi = (int(r) for r in base.level_row[level_index : level_index + 2])
        start = len(self.ledger)
        self.ledger.carry(base.ledger, lo, hi, self._pass_count)
        nets = self._lvl_out[level_index]
        state.copy_nets_from(base.state, nets, start - lo)
        state.processed_mask[nets] = True
        level_ci = self._lvl_ci[level_index]
        rows = base.cell_row[level_ci]
        cell_row[level_ci] = np.where(rows >= 0, rows + (start - lo), -1)
        if hi > lo:
            waves = base.level_waves[level_index]
            level_waves[level_index] = waves
            self._c_waves.inc(waves)
            self._h_waves.observe(waves)
            result.carried_arcs += hi - lo

    def _gather_flip_flop(self, record, state, a_live, a_tt, a_ts, a_prov_dir) -> None:
        """Launch both Q transitions off the clock arrival at this cell."""
        cell, ci, oi, b, e, _ = record
        cp = self.compiled
        process = self.design.process
        clk_net_id = int(cp.cell_clk_net[ci])
        clk_event = None
        if clk_net_id >= 0:
            clk_name = cp.net_names[clk_net_id]
            clk_event = state.event(clk_name, RISING) or state.event(
                clk_name, FALLING
            )
        if clk_event is not None and clk_net_id >= 0:
            clk_arrival = self._arrival_at_pin(
                clk_event, clk_name, cp.cell_clk_terminal[ci]
            )
        else:
            clk_arrival = ideal_ramp_event(
                RISING,
                0.0,
                self.config.input_transition,
                process.vdd,
                process.v_th_model,
            )
        launch_cross = clk_arrival.t_cross + cell.ctype.clk_to_q
        tt = clk_arrival.transition
        # The internal arrival is an ideal ramp starting at
        # launch_cross - tt/2; its origin is recovered from its crossing
        # time like every gate arc's (t_cross - tt/2), rounding included.
        ts = ((launch_cross - 0.5 * tt) + 0.5 * tt) - 0.5 * tt
        a_live[b:e] = True
        a_tt[b:e] = tt
        a_ts[b:e] = ts
        a_prov_dir[b:e] = DIR_INDEX[clk_arrival.direction]

    # -- coupling waves ----------------------------------------------------------

    def _coupling_waves(self, records: list[tuple]) -> list[list[tuple]]:
        """Split one level's cell records into decision waves.

        A cell must wait for an earlier-ordered cell of the same level
        only when that cell drives a net coupled to its own output --
        otherwise the two share no timing information at all and can be
        decided together.  Processing the waves in order reproduces the
        sequential walk's asymmetric visibility (for every coupled pair
        driven in one level, exactly one side sees the other's freshly
        calculated window) while keeping each wave batchable.  The
        non-window modes never read windows: everything is one wave.
        """
        if not self.config.mode.is_window_based or len(records) <= 1:
            return [records] if records else []
        pointers, neighbours = self._coup_indptr, self._coup_net
        driver_wave: dict[int, int] = {}
        waves: list[list[tuple]] = []
        for record in records:
            out = record[2]
            wave = 0
            for j in range(pointers[out], pointers[out + 1]):
                earlier = driver_wave.get(neighbours[j])
                if earlier is not None and earlier >= wave:
                    wave = earlier + 1
            driver_wave[out] = wave
            if wave == len(waves):
                waves.append([])
            waves[wave].append(record)
        return waves

    # -- helpers -------------------------------------------------------------

    def _arrival_at_pin(self, event: RampEvent, net_name: str, terminal: str) -> RampEvent:
        """Shift a driver-output event to a sink terminal: Elmore wire
        delay plus slew degradation.

        The transition degrades by linear addition of the wire's own
        transition scale (``k * T_elmore``), not the popular quadrature
        (PERI) form: linear addition upper-bounds the RC-filtered sink
        slew, which the worst-case analysis needs -- quadrature measurably
        under-estimates the slow exponential tail on long stretched wires
        and can let the simulation beat the bound.
        """
        elmore = self.design.loads[net_name].sink_elmore.get(terminal, 0.0)
        if elmore <= 0.0:
            return event
        # event.shifted(elmore).with_transition(...), built in one step.
        return RampEvent(
            direction=event.direction,
            t_cross=event.t_cross + elmore,
            transition=event.transition + SLEW_DEGRADATION_FACTOR * elmore,
            t_early=event.t_early + elmore,
            t_late=event.t_late + elmore,
        )

    def _collect_arrivals(self, state, result: PassResult) -> None:
        for endpoint in self.design.circuit.timing_endpoints():
            net = endpoint.net
            if net is None:
                continue
            terminal = endpoint.full_name if isinstance(endpoint, Pin) else endpoint.name
            for direction in (RISING, FALLING):
                event = state.event(net.name, direction)
                if event is None:
                    continue
                arrival = self._arrival_at_pin(event, net.name, terminal)
                result.arrivals.append(
                    EndpointArrival(endpoint=terminal, direction=direction, event=arrival)
                )
                if arrival.t_cross > result.longest_delay:
                    result.longest_delay = arrival.t_cross
                    result.critical_endpoint = terminal
                    result.critical_direction = direction
