"""The propagation path against the committed golden digests.

``tests/golden/propagation.json`` holds ``float.hex()`` fingerprints of
every design x variant the suite pins (see ``tests/golden/make_golden.py``
for what an entry contains and how to regenerate it).  Any change to a
delay, a pass's work counters, the provenance ledger or the slack sweep
shows here as a digest mismatch.  ``tests/golden/minpath.json`` pins the
min-delay (hold) analysis the same way, per design x min mode.
"""

from __future__ import annotations

import pytest

from tests.golden.make_golden import (
    MIN_GOLDEN_PATH,
    build_design,
    digest,
    load_golden,
    min_digest,
    mismatches,
    run_min_mode,
    run_variant,
)


@pytest.mark.parametrize("key", sorted(load_golden()))
def test_matches_golden(key):
    design_name, variant = key.split("/", 1)
    design = build_design(design_name)
    got = digest(design, run_variant(design, variant))
    assert mismatches(key, got) == []


@pytest.mark.parametrize("key", sorted(load_golden(MIN_GOLDEN_PATH)))
def test_min_matches_golden(key):
    design_name, mode = key.split("/", 1)
    got = min_digest(run_min_mode(build_design(design_name), mode))
    assert mismatches(key, got, path=MIN_GOLDEN_PATH) == []
