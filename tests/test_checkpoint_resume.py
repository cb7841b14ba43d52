"""Iterative runs resumed from a checkpoint partway through.

* Committed checkpoints: ``tests/golden/checkpoints/`` holds format-2
  checkpoints of s27's iterative analysis written after pass 1 (see
  ``tests/golden/make_checkpoints.py``).  A copy of each is resumed and
  compared, field by field, with the digest recorded when the file was
  written -- so checkpoints already on disk keep resuming to the same
  numbers, provenance and explain payload.
* Round trip: a pass state encoded and decoded again equals the original
  column for column.
* Live interruptions: ``small`` with Esperance + OVERLAP runs three
  passes.  Interrupted after pass 1 or pass 2 and resumed, it must give
  the uninterrupted run's delays, arrivals and slacks.  Work counters and
  ledger origins legitimately differ (the delta-driven memo is not
  checkpointed, so the resumed pass re-solves what it would have reused),
  and are not compared.
"""

from __future__ import annotations

import json
import shutil

import numpy as np
import pytest

from repro.core.analyzer import CrosstalkSTA
from repro.core.checkpoint import _decode_pass, _encode_pass
from repro.core.modes import AnalysisMode, StaConfig, WindowCheck
from tests.golden.make_checkpoints import (
    CHECKPOINT_DIR,
    FIXTURES,
    RESUMED_PATH,
    config_for,
    interrupt,
    resumed_digest,
)
from tests.golden.make_golden import build_design, digest


def _golden() -> dict:
    return json.loads(RESUMED_PATH.read_text())["entries"]


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_committed_checkpoint_resumes_to_golden(name, tmp_path):
    design = build_design("s27")
    work = tmp_path / f"{name}.json"
    shutil.copyfile(CHECKPOINT_DIR / f"{name}.json", work)
    resumed = CrosstalkSTA(design, config_for(name, str(work))).run()
    fresh = CrosstalkSTA(design, config_for(name)).run()
    # It really resumed: pass 1 came from the file, not from solves.
    assert resumed.cache_stats["evaluations"] < fresh.cache_stats["evaluations"]
    got = resumed_digest(design, resumed)
    want = _golden()[name]
    assert sorted(got) == sorted(want)
    assert [
        f"{field}: {got[field]!r} != {want[field]!r}"
        for field in sorted(want)
        if got[field] != want[field]
    ] == []


LIVE_CONFIG = dict(
    mode=AnalysisMode.ITERATIVE,
    window_check=WindowCheck.OVERLAP,
    esperance=True,
)


@pytest.fixture(scope="module")
def small_uninterrupted():
    design = build_design("small")
    result = CrosstalkSTA(design, StaConfig(**LIVE_CONFIG)).run()
    assert result.passes == 3
    return digest(design, result)


@pytest.mark.parametrize("passes", [1, 2])
def test_small_resumes_like_uninterrupted(passes, small_uninterrupted, tmp_path):
    design = build_design("small")
    config = StaConfig(**LIVE_CONFIG, checkpoint=str(tmp_path / "ck.json"))
    interrupt(design, config, passes)
    got = digest(design, CrosstalkSTA(design, config).run())
    want = small_uninterrupted
    for field in ("longest_delay", "critical", "arrivals_sha256", "slack"):
        assert got[field] == want[field], field
    assert [p["delay"] for p in got["passes"]] == [
        p["delay"] for p in want["passes"]
    ]


@pytest.mark.parametrize("design_name", ["s27", "small"])
def test_pass_state_round_trips_through_checkpoint(design_name):
    """Every column a resumed pass reads comes back bit for bit; each
    winner's arc id is recovered from its stored provenance (flip-flop
    winners included)."""
    design = build_design(design_name)
    sta = CrosstalkSTA(design, StaConfig(**LIVE_CONFIG))
    final = sta.run().final_pass
    raw = json.loads(json.dumps(_encode_pass(final)))
    decoded = _decode_pass(raw, sta.compiled_design())
    state, back = final.state, decoded.state
    winners = state.win_arc[state.win_arc >= 0]
    assert state.compiled.arc_is_ff[winners].any(), "no flip-flop winner"
    for column in (
        "present",
        "valid",
        "processed_mask",
        "win_arc",
        "win_prov_dir",
        "win_coupled",
        "aprov_row",
    ):
        np.testing.assert_array_equal(getattr(back, column), getattr(state, column))
    for column in ("ev_tc", "ev_tr", "ev_te", "ev_tl"):
        np.testing.assert_array_equal(
            np.where(back.valid, getattr(back, column), 0.0),
            np.where(state.valid, getattr(state, column), 0.0),
        )
