"""The propagation path against the committed golden digests.

``tests/golden/propagation.json`` holds ``float.hex()`` fingerprints of
every design x variant the suite pins (see ``tests/golden/make_golden.py``
for what an entry contains and how to regenerate it).  Any change to a
delay, a pass's work counters, the provenance ledger or the slack sweep
shows here as a digest mismatch.  ``tests/golden/minpath.json`` pins the
min-delay (hold) analysis the same way, per design x min mode, and
``tests/golden/routing.json`` pins the wire geometry of the full route
and of a shield respace, per routing design.
"""

from __future__ import annotations

import pytest

from tests.golden.make_golden import (
    MIN_GOLDEN_PATH,
    ROUTING_GOLDEN_PATH,
    build_design,
    digest,
    load_golden,
    min_digest,
    mismatches,
    routing_digest,
    run_min_mode,
    run_routing,
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


@pytest.mark.parametrize("key", sorted(load_golden(ROUTING_GOLDEN_PATH)))
def test_routing_matches_golden(key):
    design_name, routing = key.split("/", 1)
    got = routing_digest(run_routing(build_design(design_name), routing))
    assert mismatches(key, got, path=ROUTING_GOLDEN_PATH) == []
