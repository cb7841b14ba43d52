"""Deterministic fault injection for the analysis runtime.

Each injector forces one failure mode the runtime claims to survive --
Newton divergence, cache corruption, mid-run interrupts, shard death
and partitions -- in a way that is reproducible from a seed, so robustness
tests assert exact outcomes instead of racing real faults.

All injectors are context managers (or small factories) with no global
state left behind: monkey-patched solver methods are restored on exit
and fault specs armed on a router are cleared.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from typing import Callable, Iterable

from repro.core.propagation import PassResult
from repro.errors import AnalysisInterrupted
from repro.waveform.batchstage import BatchStageSolver
from repro.waveform.stage import StageSolver, StageSolverError


@contextmanager
def newton_failures(rate: float = 1.0, seed: int = 0):
    """Make a deterministic fraction of stage solves fail.

    The scalar solver and the batch entry point (``solve_many_compact``,
    which the calculator's batched path calls) are patched: each call
    draws from one seeded stream and raises
    :class:`StageSolverError` (the taxonomy's ``SolverError``) with
    probability ``rate``.  Because the analysis evaluates arcs in a
    deterministic order, a given ``(rate, seed)`` always fails the same
    arcs.
    """
    rng = random.Random(seed)
    messages = {
        (StageSolver, "solve"): "injected Newton failure",
        (BatchStageSolver, "solve_many_compact"): "injected Newton failure (batch)",
    }
    saved = {target: getattr(*target) for target in messages}

    def failing(original, message):
        def call(self, *args, **kwargs):
            if rng.random() < rate:
                raise StageSolverError(message)
            return original(self, *args, **kwargs)

        return call

    for (owner, name), message in messages.items():
        setattr(owner, name, failing(saved[owner, name], message))
    try:
        yield
    finally:
        for (owner, name), original in saved.items():
            setattr(owner, name, original)


def corrupt_file(path: str, mode: str = "truncate", seed: int = 0) -> None:
    """Corrupt an on-disk artifact the way real corruption looks.

    ``truncate`` keeps a prefix (a torn write); ``bitflip`` flips one
    deterministically chosen bit in place (bit rot).  Both leave the
    file present so loaders must *detect* the damage rather than miss
    the file.
    """
    with open(path, "rb") as handle:
        blob = bytearray(handle.read())
    if not blob:
        raise ValueError(f"cannot corrupt empty file {path!r}")
    rng = random.Random(seed)
    if mode == "truncate":
        keep = max(1, len(blob) // 2)
        blob = blob[:keep]
    elif mode == "bitflip":
        index = rng.randrange(len(blob))
        blob[index] ^= 1 << rng.randrange(8)
    else:
        raise ValueError(f"unknown corruption mode {mode!r}")
    with open(path, "wb") as handle:
        handle.write(bytes(blob))


# -- fleet fault specs (see repro.service.fleet / .router) ------------------


def kill_shard(fleet, index: int) -> None:
    """SIGKILL one shard process: what an OOM kill or segfault looks
    like.  The supervisor detects the death, the router fails the
    shard's sessions over on first touch."""
    fleet.kill(index)


@contextmanager
def hang_shard(fleet, index: int):
    """SIGSTOP one shard for the duration of the block: the process
    stays alive to the OS but answers nothing, which must trip the
    probe-deadline path (not the process-death path).  Resumed on exit
    so a later supervisor kill, if one happened, finds a stoppable
    process either way."""
    fleet.pause(index)
    try:
        yield
    finally:
        fleet.resume(index)


@contextmanager
def drop_links(router, indices: Iterable[int]):
    """Simulate a router<->shard network partition: calls on the named
    shards' links raise ``ShardLinkDown`` without touching the socket,
    so the shard itself stays healthy (and its warm state survives for
    the post-partition 404-replay path to find missing)."""
    indices = list(indices)
    dropped = []
    for index in indices:
        link = router.links.get(index)
        if link is not None:
            link.dropped = True
            dropped.append(link)
    try:
        yield
    finally:
        for link in dropped:
            link.dropped = False


@contextmanager
def corrupt_handoff(router, mode: str = "bitflip", times: int = 1):
    """Arm mid-handoff corruption on the router: the next ``times``
    encoded failover payloads are damaged in flight (``bitflip`` breaks
    the checksum, ``truncate`` drops the edit log), forcing the
    receiving shard's CheckpointError rejection and the router's
    re-encode retry."""
    if mode not in ("bitflip", "truncate"):
        raise ValueError(f"unknown handoff corruption mode {mode!r}")
    router.handoff_fault = {"mode": mode, "times": times}
    try:
        yield
    finally:
        router.handoff_fault = None


def interrupt_after_pass(passes: int) -> Callable[[int, PassResult], None]:
    """An ``after_pass`` hook that raises :class:`AnalysisInterrupted`
    once ``passes`` passes have completed (and been checkpointed)."""

    def hook(index: int, result: PassResult) -> None:
        if index >= passes:
            raise AnalysisInterrupted(
                f"injected interrupt after pass {index}", passes_completed=index
            )

    return hook
