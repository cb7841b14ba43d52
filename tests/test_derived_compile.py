"""A what-if's compiled design, derived from the session's.

Coupling edits and respace keep the design's circuit, so a warm what-if
shares the session's compiled structure (id spaces, levels, cells, arc
table and index) and recomputes only the load columns.  The oracle: the
derived design equals ``compile_design`` of the edited design field by
field, arrays bitwise with their dtypes.  An upsize builds a new
circuit and compiles in full.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.analyzer import CrosstalkSTA
from repro.core.columnar import CompiledDesign, compile_design
from repro.core.modes import AnalysisMode, StaConfig
from repro.flow import apply_edit
from repro.obs import Observability
from repro.service.session import Session
from tests.golden.make_golden import build_design

CONFIG = StaConfig(mode=AnalysisMode.ONE_STEP)

# The fields that depend on the net loads; everything else comes from
# the circuit and is shared with the source compilation.
LOAD_FIELDS = {
    "net_c_fixed",
    "net_cc_total",
    "coup_indptr",
    "coup_net",
    "coup_cap",
    "arc_elmore",
    "arc_n_coup",
}


def assert_same_compiled(got: CompiledDesign, want: CompiledDesign) -> None:
    assert sorted(vars(got)) == sorted(vars(want))
    for name, value in vars(want).items():
        if name in ("design", "compile_seconds"):
            continue
        mine = getattr(got, name)
        if isinstance(value, np.ndarray):
            assert mine.dtype == value.dtype, name
            assert mine.shape == value.shape, name
            assert mine.tobytes() == value.tobytes(), name
        elif name == "levels":
            assert [[c.name for c in lv] for lv in mine] == [
                [c.name for c in lv] for lv in value
            ]
        elif name == "cells":
            assert [c.name for c in mine] == [c.name for c in value]
        else:
            assert mine == value, name


def _edits(design):
    """One edit of each circuit-keeping action on the most-coupled net."""
    net = max(design.loads, key=lambda n: design.loads[n].c_coupling_total)
    couplings = design.loads[net].couplings
    neighbour = max(couplings, key=couplings.get)
    return {
        "drop_coupling": {"action": "drop_coupling", "net": net, "neighbour": neighbour},
        "set_coupling": {
            "action": "set_coupling",
            "net": net,
            "neighbour": neighbour,
            "cap": 2.5 * couplings[neighbour],
        },
        "respace": {"action": "respace", "nets": [net], "guard_tracks": 1},
    }


def _warm(design, source: CrosstalkSTA) -> CrosstalkSTA:
    sta = CrosstalkSTA(
        design, CONFIG, calculator=source.calculator, keep_propagators=True
    )
    sta.warm_start_from(source)
    return sta


@pytest.mark.parametrize("design_name", ["s27", "small", "s35932"])
@pytest.mark.parametrize("action", ["drop_coupling", "set_coupling", "respace"])
def test_derived_equals_a_full_compile(design_name, action):
    design = build_design(design_name)
    source = CrosstalkSTA(design, CONFIG, keep_propagators=True)
    source.run()
    edited, _ = apply_edit(design, _edits(design)[action])
    assert edited.circuit is design.circuit
    warm = _warm(edited, source)
    derived = warm.compiled_design()
    base = source.compiled_design()
    assert_same_compiled(derived, compile_design(edited))
    assert derived.design is edited
    for name, value in vars(base).items():
        if name not in LOAD_FIELDS | {"design", "compile_seconds"}:
            assert getattr(derived, name) is value, name
    assert np.array_equal(derived.net_map(base), np.arange(base.n_nets))
    # And the warm analysis over it is the cold one.
    cold = CrosstalkSTA(edited, CONFIG).run()
    assert warm.run().arrival_map() == cold.arrival_map()


def test_upsize_compiles_in_full(small_design):
    source = CrosstalkSTA(small_design, CONFIG, keep_propagators=True)
    source.run()
    net = max(
        small_design.loads, key=lambda n: small_design.loads[n].c_coupling_total
    )
    edited, _ = apply_edit(small_design, {"action": "upsize", "nets": [net]})
    derived = _warm(edited, source).compiled_design()
    assert derived.cells is not source.compiled_design().cells
    assert_same_compiled(derived, compile_design(edited))


def test_committed_chain_keeps_deriving(small_design):
    """A session committing a chain of edits: after each, the session's
    compiled design equals a full compile of its design, and a
    circuit-keeping edit shares the previous compilation's structure."""
    session = Session(
        session_id="t",
        spec="small",
        design=small_design,
        config=StaConfig(mode=AnalysisMode.ONE_STEP, clock_period=2e-9),
        obs=Observability.disabled(),
    )
    session.analyze()
    design = small_design
    edits = list(_edits(design).values())
    net = edits[0]["net"]
    chain = [
        edits[0],
        {"action": "respace", "nets": [net], "guard_tracks": 2},
        {"action": "upsize", "nets": [net]},
        edits[1],
        {"action": "drop_coupling", "net": edits[1]["neighbour"], "neighbour": net},
    ]
    for edit in chain:
        before = session.sta.compiled_design()
        payload = session.whatif(edit, commit=True)
        assert payload["committed"]
        after = session.sta.compiled_design()
        assert_same_compiled(after, compile_design(session.design))
        shared = after.cells is before.cells
        assert shared == (edit["action"] != "upsize"), edit
        cold = CrosstalkSTA(session.design, session.config).run()
        assert payload["after"]["longest_delay_hex"] == cold.longest_delay.hex()
