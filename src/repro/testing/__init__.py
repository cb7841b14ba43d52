"""Deterministic fault-injection utilities for robustness testing."""

from repro.testing.faults import (
    corrupt_file,
    corrupt_handoff,
    drop_links,
    hang_shard,
    interrupt_after_pass,
    kill_shard,
    newton_failures,
)

__all__ = [
    "corrupt_file",
    "corrupt_handoff",
    "drop_links",
    "hang_shard",
    "interrupt_after_pass",
    "kill_shard",
    "newton_failures",
]
