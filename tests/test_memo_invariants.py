"""The invariants the pass's one-record-per-arc bookkeeping rests on.

* The memo keeps only what a solve consumes and returns, so the base
  step reuses a valid windowed entry without asking whether it holds
  its results: after every pass, every valid windowed entry holds its
  best-case result, and under OVERLAP its all-active one.
* A pass's arc counts are tallies of the ledger rows it appended: one
  row per live arc, walked or carried, so
  ``arcs_processed == provenance_rows == dirty_arcs + reused_arcs`` and
  ``reused_arcs`` is the pass's "memo" rows.

Every pass of cold runs in all modes, of iterative runs under QUIET,
under OVERLAP and with Esperance, and of warm what-if chains of all four
edit actions is checked.
"""

from __future__ import annotations

import functools

import pytest

from repro.circuit import resolve_circuit
from repro.core.analyzer import CrosstalkSTA
from repro.core.modes import AnalysisMode, StaConfig, WindowCheck
from repro.core.propagation import Propagator
from repro.flow import EDIT_ACTIONS, apply_edit, prepare_design


@functools.lru_cache(maxsize=None)
def _design(spec: str):
    return prepare_design(resolve_circuit(spec, 0.01))


def _check_pass(propagator: Propagator, result) -> None:
    windowed = propagator._s_windowed & propagator._m_valid
    overlap = propagator.config.window_check is WindowCheck.OVERLAP
    for a in windowed.nonzero()[0].tolist():
        assert propagator._m_best[a] is not None, a
        if overlap:
            assert propagator._m_worst[a] is not None, a
    assert result.arcs_processed == result.provenance_rows
    assert result.arcs_processed == result.dirty_arcs + result.reused_arcs
    payload = propagator.ledger.to_payload()
    rows = [
        origin
        for origin, index in zip(payload["origin"], payload["pass_index"])
        if index == propagator._pass_count
    ]
    assert len(rows) == result.provenance_rows
    assert result.reused_arcs == rows.count("memo")
    assert result.carried_arcs <= result.reused_arcs


@pytest.fixture
def checked(monkeypatch):
    """Check every pass the test runs; the list of checked passes."""
    passes = []
    run_pass = Propagator.run_pass

    def checked_run_pass(self, *args, **kwargs):
        result = run_pass(self, *args, **kwargs)
        _check_pass(self, result)
        passes.append(result)
        return result

    monkeypatch.setattr(Propagator, "run_pass", checked_run_pass)
    return passes


@pytest.mark.parametrize("check", list(WindowCheck), ids=lambda c: c.value)
@pytest.mark.parametrize("mode", list(AnalysisMode), ids=lambda m: m.value)
def test_cold_runs(checked, s27_design, small_design, mode, check):
    for design in (s27_design, small_design):
        CrosstalkSTA(design, StaConfig(mode=mode, window_check=check)).run()
    assert len(checked) >= 2


@pytest.mark.parametrize(
    "config",
    [
        StaConfig(mode=AnalysisMode.ITERATIVE),
        StaConfig(mode=AnalysisMode.ITERATIVE, window_check=WindowCheck.OVERLAP),
        StaConfig(mode=AnalysisMode.ITERATIVE, esperance=True),
        StaConfig(
            mode=AnalysisMode.ITERATIVE,
            esperance=True,
            window_check=WindowCheck.OVERLAP,
        ),
    ],
    ids=["quiet", "overlap", "esperance", "esperance-overlap"],
)
def test_iterative_runs(checked, small_design, config):
    result = CrosstalkSTA(small_design, config).run()
    assert result.passes >= 2
    assert any(r.reused_arcs for r in checked[1:]), "later passes reuse the memo"


def _edit(design, action: str) -> dict:
    """An ``action`` edit of ``design``'s most coupled nets."""
    loads = design.loads
    coupled = sorted(
        (name for name, load in loads.items() if load.couplings),
        key=lambda name: (-sum(loads[name].couplings.values()), name),
    )
    if action == "respace":
        return {"action": action, "nets": coupled[:2]}
    if action == "upsize":
        driven = [
            name for name in coupled if design.circuit.nets[name].driver_cell()
        ]
        return {"action": action, "nets": driven[:2]}
    net = coupled[0]
    edit = {"action": action, "net": net, "neighbour": sorted(loads[net].couplings)[0]}
    if action == "set_coupling":
        edit["cap"] = 2e-15
    return edit


WARM_CONFIGS = [
    StaConfig(mode=mode, window_check=check)
    for mode in AnalysisMode
    for check in WindowCheck
    if mode.is_window_based or check is WindowCheck.QUIET
]


@pytest.mark.parametrize(
    "config",
    WARM_CONFIGS,
    ids=[f"{c.mode.value}-{c.window_check.value}" for c in WARM_CONFIGS],
)
def test_warm_whatif_chains(checked, config):
    """Each what-if warm-starts from the last one, as a session that
    commits every edit does."""
    design = _design("gen:s35932")
    sta = CrosstalkSTA(design, config, keep_propagators=True)
    sta.run()
    cold_passes = len(checked)
    for action in EDIT_ACTIONS:
        design, _ = apply_edit(design, _edit(design, action))
        warm = CrosstalkSTA(
            design, config, calculator=sta.calculator, keep_propagators=True
        )
        warm.warm_start_from(sta)
        warm.run()
        sta = warm
    warm_passes = checked[cold_passes:]
    assert all(r.reused_arcs for r in warm_passes)
    if config.mode is not AnalysisMode.ITERATIVE:
        assert any(r.carried_arcs for r in warm_passes), "the chain carries cells"
