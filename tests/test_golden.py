"""The propagation path against the committed golden digests.

``tests/golden/propagation.json`` holds ``float.hex()`` fingerprints of
every design x variant the suite pins (see ``tests/golden/make_golden.py``
for what an entry contains and how to regenerate it).  Any change to a
delay, a pass's work counters, the provenance ledger or the slack sweep
shows here as a digest mismatch.
"""

from __future__ import annotations

import pytest

from tests.golden.make_golden import (
    build_design,
    digest,
    load_golden,
    mismatches,
    run_variant,
)


@pytest.mark.parametrize("key", sorted(load_golden()))
def test_matches_golden(key):
    design_name, variant = key.split("/", 1)
    design = build_design(design_name)
    got = digest(design, run_variant(design, variant))
    assert mismatches(key, got) == []
