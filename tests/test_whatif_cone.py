"""Warm what-ifs against cold analyses of the edited design.

A design session answers a what-if by warm-starting the edited design's
propagator from the session's retained one.  Whatever the warm pass
reuses, its answer must be the answer of a cold analysis of the edited
design, to the last bit.  Hypothesis draws small designs, the four
single-pass modes under both window checks, and sequences of all four
ECO edit actions with random commits; every what-if's endpoint arrivals
(``float.hex``) must equal a fresh analyzer's.

A single-pass warm what-if walks only the cells its edit can reach and
carries the rest from the session's last pass.  So every what-if also
runs on a twin session whose warm pass drops that base and walks every
cell, and the two must agree on the state columns, every pass and
metric counter but the carried-arc count, the result summary, the
ledger and the explain payload.

Hand-built lanes pin the cases a random draw rarely reaches:

* only the earlier cell of a coupled pair in one level changes;
* a drop_coupling between two cells of one level;
* a respace-like edit that moves only sink Elmore delays, so the
  driver's own events stay bit for bit the same;
* an aggressor in an earlier level moves into a victim's window;
* a cell of one level gains its first live arc, so the moment its net
  counts as calculated moves for its earlier-ordered neighbour.
"""

from __future__ import annotations

import functools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.circuit import resolve_circuit
from repro.circuit.netlist import Circuit
from repro.core.analyzer import CrosstalkSTA
from repro.core.columnar import compile_design
from repro.core.explain import explain_result
from repro.core.modes import AnalysisMode, StaConfig, WindowCheck
from repro.flow import EDIT_ACTIONS, apply_edit, prepare_design
from repro.flow.design import Design
from repro.service.session import result_summary

SINGLE_PASS_MODES = (
    AnalysisMode.BEST_CASE,
    AnalysisMode.STATIC_DOUBLED,
    AnalysisMode.WORST_CASE,
    AnalysisMode.ONE_STEP,
)
CHECKS = (WindowCheck.QUIET, WindowCheck.OVERLAP)


@functools.lru_cache(maxsize=None)
def _design(spec: str):
    """A prepared design (cached; edits never mutate their source)."""
    return prepare_design(resolve_circuit(spec, 0.01))


def _arrivals_hex(result) -> dict:
    return {key: float(t).hex() for key, t in result.arrival_map().items()}


def _net_events_hex(result) -> dict:
    """Every net's driver-output crossing times."""
    state = result.final_pass.state
    return {
        (net, d): state.event(net, d).t_cross.hex()
        for net in state.compiled.net_names
        for d in ("rise", "fall")
        if state.event(net, d) is not None
    }


def _cold(design, config):
    return CrosstalkSTA(design, config).run()


class _Chain:
    """A design session's what-if path: each what-if analyzes the
    edited design on an analyzer warm-started from the current one and
    sharing its calculator; a commit makes it the current one.  With
    ``full_walk`` the warm pass drops its base and walks every cell."""

    def __init__(self, design, config, full_walk=False):
        self.design = design
        self.config = config
        self.full_walk = full_walk
        self.sta = CrosstalkSTA(design, config, keep_propagators=True)
        self.result = self.sta.run()

    def whatif(self, edited, commit=False):
        sta = CrosstalkSTA(
            edited, self.config, calculator=self.sta.calculator, keep_propagators=True
        )
        sta.warm_start_from(self.sta)
        if self.full_walk:
            sta._propagator_for(self.config)._base = None
        result = sta.run()
        if commit:
            self.design, self.sta, self.result = edited, sta, result
        return result


STATE_COLUMNS = (
    "present",
    "valid",
    "ev_tc",
    "ev_tr",
    "ev_te",
    "ev_tl",
    "win_arc",
    "win_coupled",
    "win_prov_dir",
    "aprov_row",
)
PASS_COUNTS = (
    "waveform_evaluations",
    "arcs_processed",
    "coupled_arcs",
    "dirty_arcs",
    "reused_arcs",
    "cache_evaluations",
    "cache_hits",
    "cache_dedup_hits",
    "cache_persisted_hits",
    "provenance_rows",
)


def _counters(result) -> dict:
    """The run's counter deltas, without time and the carried-arc count
    (the only counter a warm pass's cone walk moves)."""
    return {
        key: value
        for key, value in result.telemetry.metrics["counters"].items()
        if "seconds" not in key and "carried_arcs" not in key
    }


def _assert_same_walk(cone, full, design) -> None:
    """A cone walk and a full walk of the same warm what-if agree on
    everything but time and the carried-arc count."""
    for name in STATE_COLUMNS:
        assert np.array_equal(
            getattr(cone.final_pass.state, name), getattr(full.final_pass.state, name)
        ), name
    for name in PASS_COUNTS:
        assert getattr(cone.final_pass, name) == getattr(full.final_pass, name), name
    assert full.final_pass.carried_arcs == 0
    summaries = [result_summary(r) for r in (cone, full)]
    for summary in summaries:
        summary.pop("runtime_seconds")
    assert summaries[0] == summaries[1]
    assert cone.ledger.counts() == full.ledger.counts()
    assert explain_result(design.circuit, cone, k=3) == explain_result(
        design.circuit, full, k=3
    )
    assert _counters(cone) == _counters(full)


class _Pair:
    """Two sessions over one design taking the same what-ifs: one walks
    each warm what-if's cone, the other every cell.  Each has its own
    calculator, so both see the same cache history."""

    def __init__(self, design, config):
        self.cone = _Chain(design, config)
        self.full = _Chain(design, config, full_walk=True)

    @property
    def design(self):
        return self.cone.design

    @property
    def result(self):
        return self.cone.result

    def whatif(self, edited, commit=False):
        cone = self.cone.whatif(edited, commit)
        full = self.full.whatif(edited, commit)
        _assert_same_walk(cone, full, edited)
        return cone


def _assert_matches_cold(result, edited, config):
    cold = _cold(edited, config)
    assert float(result.longest_delay).hex() == float(cold.longest_delay).hex()
    assert _arrivals_hex(result) == _arrivals_hex(cold)
    return cold


# -- random edit sequences ----------------------------------------------------


def _draw_edit(data, design) -> dict:
    """One ECO edit that :func:`apply_edit` accepts on ``design``."""
    loads = design.loads
    coupled = sorted(name for name, load in loads.items() if load.couplings)
    action = data.draw(st.sampled_from(EDIT_ACTIONS), label="action")
    if action == "drop_coupling":
        net = data.draw(st.sampled_from(coupled), label="net")
        neighbour = data.draw(st.sampled_from(sorted(loads[net].couplings)))
        return {"action": action, "net": net, "neighbour": neighbour}
    if action == "set_coupling":
        net = data.draw(st.sampled_from(coupled), label="net")
        neighbour = data.draw(
            st.sampled_from(sorted(name for name in loads if name != net))
        )
        cap = data.draw(st.sampled_from((0.5e-15, 2e-15, 8e-15)), label="cap")
        return {"action": action, "net": net, "neighbour": neighbour, "cap": cap}
    if action == "respace":
        nets = data.draw(
            st.lists(st.sampled_from(coupled), min_size=1, max_size=2, unique=True)
        )
        guard = data.draw(st.integers(1, 2), label="guard_tracks")
        return {"action": action, "nets": nets, "guard_tracks": guard}
    driven = sorted(
        name
        for name, net in design.circuit.nets.items()
        if net.driver_cell() is not None
    )
    nets = data.draw(
        st.lists(st.sampled_from(driven), min_size=1, max_size=2, unique=True)
    )
    return {"action": "upsize", "nets": nets, "steps": data.draw(st.integers(1, 2))}


@given(data=st.data())
@settings(
    max_examples=14,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_warm_whatif_sequences_match_cold(data):
    spec = data.draw(st.sampled_from(("s27", "gen:s35932")), label="design")
    mode = data.draw(st.sampled_from(SINGLE_PASS_MODES), label="mode")
    check = data.draw(st.sampled_from(CHECKS), label="window_check")
    config = StaConfig(mode=mode, window_check=check)
    chain = _Pair(_design(spec), config)
    for _ in range(data.draw(st.integers(1, 3), label="whatifs")):
        edit = _draw_edit(data, chain.design)
        commit = data.draw(st.booleans(), label="commit")
        edited, _ = apply_edit(chain.design, edit)
        _assert_matches_cold(chain.whatif(edited, commit), edited, config)


# -- hand-built lanes ---------------------------------------------------------


def _with_loads(design, **changes) -> Design:
    """``design`` with some nets' :class:`NetLoad` replaced (physical
    views shared, as an ECO edit builds its copy)."""
    edited = Design(
        circuit=design.circuit,
        placement=design.placement,
        routing=design.routing,
        extraction=design.extraction,
        process=design.process,
        technology=design.technology,
    )
    edited.loads.update(design.loads)
    for net, fields in changes.items():
        edited.loads[net] = replace(design.loads[net], **fields)
    return edited


def _same_level_pairs(design) -> list[tuple[str, str]]:
    """Coupled output nets of two cells of one level, the earlier-ordered
    driver's net first."""
    cp = compile_design(design)
    level_of = {}
    for index, level in enumerate(cp.levels):
        for cell in level:
            if cell.output_pin.net is not None:
                level_of[cell.output_pin.net.name] = (index, cp.cell_id[cell.name])
    pairs = []
    for net, (level, order) in level_of.items():
        for other in design.loads[net].couplings:
            mate = level_of.get(other)
            if mate is not None and mate[0] == level and order < mate[1]:
                pairs.append((net, other))
    return sorted(pairs)


ONE_STEP_CONFIGS = [
    StaConfig(mode=AnalysisMode.ONE_STEP, window_check=check) for check in CHECKS
]
CONFIG_IDS = [check.value for check in CHECKS]


@pytest.mark.parametrize("config", ONE_STEP_CONFIGS, ids=CONFIG_IDS)
def test_earlier_cell_of_a_same_level_pair_changes(config):
    design = _design("gen:s35932")
    pairs = _same_level_pairs(design)
    assert pairs, "the design must couple two cells of one level"
    chain = _Pair(design, config)
    for earlier, _later in pairs[:4]:
        load = design.loads[earlier]
        edited = _with_loads(design, **{earlier: {"c_fixed": 1.5 * load.c_fixed}})
        _assert_matches_cold(chain.whatif(edited), edited, config)


@pytest.mark.parametrize("config", ONE_STEP_CONFIGS, ids=CONFIG_IDS)
def test_drop_coupling_inside_one_level(config):
    design = _design("gen:s35932")
    pairs = _same_level_pairs(design)
    chain = _Pair(design, config)
    for earlier, later in pairs[:4]:
        edit = {"action": "drop_coupling", "net": earlier, "neighbour": later}
        edited, _ = apply_edit(design, edit)
        _assert_matches_cold(chain.whatif(edited), edited, config)


@pytest.mark.parametrize("mode", SINGLE_PASS_MODES, ids=lambda m: m.value)
def test_sink_elmore_only_edit(mode):
    """The driver's load is unchanged, so its events are too; only its
    readers see the moved wire delays."""
    design = _design("gen:s35932")
    config = StaConfig(mode=mode)
    chain = _Pair(design, config)
    nets = sorted(
        name
        for name, load in design.loads.items()
        if design.circuit.nets[name].driver_cell() is not None
        and any(delay > 0.0 for delay in load.sink_elmore.values())
    )
    for net in nets[:3]:
        elmore = {
            term: 3.0 * delay for term, delay in design.loads[net].sink_elmore.items()
        }
        edited = _with_loads(design, **{net: {"sink_elmore": elmore}})
        cold = _assert_matches_cold(chain.whatif(edited), edited, config)
        assert _net_events_hex(cold) != _net_events_hex(chain.result)


def _hand_design(circuit, couplings, c_fixed) -> Design:
    """A placed and routed ``circuit`` with explicit fixed loads and a
    symmetric coupling map over its output nets."""
    design = prepare_design(circuit)
    loads = {}
    for name in design.loads:
        neighbours = {
            other: cap
            for (a, other), cap in couplings.items()
            if a == name
        }
        neighbours.update(
            {a: cap for (a, other), cap in couplings.items() if other == name}
        )
        loads[name] = {"couplings": neighbours}
        if name in c_fixed:
            loads[name]["c_fixed"] = c_fixed[name]
    return _with_loads(design, **loads)


def _winner_coupled(result, net: str) -> bool:
    state = result.final_pass.state
    return any(
        state.provenance[(net, d)].coupled
        for d in ("rise", "fall")
        if (net, d) in state.provenance
    )


@pytest.mark.parametrize("config", ONE_STEP_CONFIGS, ids=CONFIG_IDS)
def test_aggressor_from_an_earlier_level_moves_into_the_window(config):
    """C0 (level 0) slows down until its window overlaps that of D3
    (level 3, behind three inverters).  D3 is no seed and its input is
    unchanged; only its calculated and changed aggressor reaches it."""
    circuit = Circuit("reach")
    circuit.add_input("a")
    circuit.add_input("b")
    previous = "b"
    for i in range(3):
        circuit.add_cell("INV_X1", f"B{i}", {"A": previous, "Y": f"nb{i}"})
        previous = f"nb{i}"
    circuit.add_cell("INV_X1", "C0", {"A": "a", "Y": "nc"})
    circuit.add_cell("INV_X1", "D3", {"A": previous, "Y": "nd"})
    circuit.add_output("oc", net_name="nc")
    circuit.add_output("od", net_name="nd")
    base = _hand_design(circuit, {("nc", "nd"): 6e-15}, {"nc": 2e-15})
    edited = _with_loads(base, nc={"c_fixed": 60e-15})
    chain = _Pair(base, config)
    cold = _assert_matches_cold(chain.whatif(edited), edited, config)
    assert not _winner_coupled(chain.result, "nd")
    assert _winner_coupled(cold, "nd")


@pytest.mark.parametrize("config", ONE_STEP_CONFIGS, ids=CONFIG_IDS)
def test_same_level_neighbour_gains_a_live_arc(config):
    """D1 reads a net that is undriven in the base and a primary input
    in the edit, with every id unchanged.  In the base D1 has no live
    arc, so its net counts as calculated (and quiet) before C1, its
    earlier-ordered neighbour in level 0, decides; in the edit D1 is
    live and decides after C1, so C1 must count it as switching."""

    def build(u_is_input: bool) -> Circuit:
        circuit = Circuit("flip")
        circuit.add_input("a")
        circuit.add_cell("INV_X1", "C1", {"A": "a", "Y": "nc"})
        circuit.add_cell("INV_X1", "D1", {"A": "u", "Y": "nd"})
        circuit.add_output("oc", net_name="nc")
        circuit.add_output("od", net_name="nd")
        if u_is_input:
            circuit.add_input("u")
        return circuit

    couplings = {("nc", "nd"): 6e-15}
    base = _hand_design(build(False), couplings, {})
    edited = Design(
        circuit=build(True),
        placement=base.placement,
        routing=base.routing,
        extraction=base.extraction,
        process=base.process,
        technology=base.technology,
        loads=dict(base.loads),
    )
    assert list(edited.circuit.nets) == list(base.circuit.nets)
    chain = _Pair(base, config)
    cold = _assert_matches_cold(chain.whatif(edited), edited, config)
    assert not _winner_coupled(chain.result, "nc")
    assert _winner_coupled(cold, "nc")


def test_cone_walk_carries_what_the_edit_cannot_reach():
    """The oracle is not vacuous: a warm drop_coupling (and an upsize,
    whose cloned circuit numbers some nets differently) carries most
    arcs, and its carried-arc counter says so; a cold pass and an
    iterative what-if walk every cell."""
    design = _design("gen:s35932")
    config = StaConfig(mode=AnalysisMode.ONE_STEP)
    chain = _Chain(design, config)
    assert chain.result.final_pass.carried_arcs == 0
    net = max(design.loads, key=lambda name: len(design.loads[name].couplings))
    neighbour = max(design.loads[net].couplings, key=design.loads[net].couplings.get)
    upsizable = sorted(
        name
        for name, n in design.circuit.nets.items()
        if n.driver_cell() is not None
        and not n.driver_cell().is_sequential
        and n.driver_cell().ctype.name.endswith("_X1")
    )
    for edit in (
        {"action": "drop_coupling", "net": net, "neighbour": neighbour},
        {"action": "upsize", "nets": upsizable[:1]},
    ):
        edited, _ = apply_edit(design, edit)
        final = chain.whatif(edited).final_pass
        assert 0 < final.carried_arcs < final.arcs_processed
        assert final.walked_cells < len(chain.sta.compiled_design().cells)
        counters = chain.whatif(edited).telemetry.metrics["counters"]
        assert counters["propagation.carried_arcs"] == final.carried_arcs
    iterative = _Chain(design, StaConfig(mode=AnalysisMode.ITERATIVE))
    edited, _ = apply_edit(design, {"action": "drop_coupling", "net": net, "neighbour": neighbour})
    result = iterative.whatif(edited)
    assert all(r.reused_arcs for r in result.history[:1])
    assert result.final_pass.carried_arcs == 0
