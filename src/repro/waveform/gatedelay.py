"""Per-arc gate delay calculation with caching.

Wraps the stage solvers into the operation the STA performs on every
timing arc: given the switching input's ramp event, the cell/pin, and the
victim output's coupling situation, produce the output ramp event.

Results are cached on a *canonicalized* quantized key: instead of the
(cell, pin) name pair, the key carries the arc's **stage signature** --
an interned token of the collapsed pull-up/pull-down device parameters
the stage solver actually integrates (see :func:`_stage_params`).  Two
arcs through differently named cells or pins that collapse to the same
devices are electrically the same integration, so they share one cache
entry and one Newton solve; the token is a content hash of the device
parameters, which makes it stable across runs and safe to persist.  The
remaining key fields are the input direction and the quantized slew /
passive load / active-coupling configuration.  Quantization rounds the
load and slew *up* (slower, later -- conservative for the delay bound);
signature sharing itself is exact, not approximate: equal collapsed
devices build bit-identical stage tables, so the shared result equals
what a per-(cell, pin) solve would have produced.  The small
non-conservative error quantization leaves on the early-activity marker
is covered by the STA's comparison guard band (``StaConfig.guard``).

Two solvers fill the cache, chosen per batch by size alone
(:meth:`GateDelayCalculator.prime_keys`):

* the vectorized :class:`~repro.waveform.batchstage.BatchStageSolver`
  integrates all distinct situations of a batch of at least
  ``MIN_BATCH`` simultaneously, in-process;
* the scalar :class:`~repro.waveform.stage.StageSolver` solves smaller
  batches, keys resolved without priming, degraded arcs and the batch
  solver's fallback, one arc at a time.

Both integrate the same stage tables with the same numerics, so a key's
result does not depend on which solver (or which batch) produced it.

The cache can persist across runs (:meth:`save_cache_file` /
:meth:`load_cache_file`): a JSON file keyed by a fingerprint of the
process, the cell library's collapsed stage devices and the solver
settings, so the iterative mode's repeat passes and repeated benchmark
invocations skip Newton entirely.

Fault tolerance: because every result of the analysis is an *upper
bound* on the true last event (paper, Section 3), the correct response
to a numerical failure is a coarser-but-still-safe bound, not a crash.
When both Newton and its bisection fallback fail on an arc, the
calculator substitutes a conservative ramp bound (see
:meth:`GateDelayCalculator._conservative_arc`), counts it under
``solver.degraded_arcs`` and annotates it in
:attr:`GateDelayCalculator.degraded`; ``strict=True`` restores the
fail-fast behaviour.  A failed vectorized batch falls back to per-arc
scalar solves, so only the sick arcs degrade, and persistent cache
files are checksummed -- corrupt ones are quarantined to
``<path>.bad`` and rebuilt.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import math
import os
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.circuit.library import CellType
from repro.devices.params import ProcessParams, default_process
from repro.devices.tables import StageTable
from repro.errors import CacheError, InputError, SolverError
from repro.obs.metrics import NEWTON_ITER_BUCKETS, MetricsRegistry
from repro.waveform.batchstage import BatchArcSpec, BatchStageSolver
from repro.waveform.coupling import CouplingLoad
from repro.waveform.pwl import RISING, opposite
from repro.waveform.ramp import RampEvent
from repro.waveform.stage import (
    MAX_EXTENSIONS,
    SETTLE_FRACTION,
    STEPS_PER_PHASE,
    InputRamp,
    StageResult,
    StageSolver,
)

logger = logging.getLogger("repro.waveform.gatedelay")

# Format 2 added the content checksum over the arc table; format 3
# replaced the (cell, pin) key prefix with the canonical stage signature.
CACHE_FORMAT = 3

# Below this many distinct situations a batched solve does not amortize
# its setup; fall through to the scalar reference path.
MIN_BATCH = 4


@dataclass(frozen=True)
class ArcResult:
    """Stage response in the input-ramp-start time frame (t_start = 0)."""

    direction: str
    t_cross: float
    transition: float
    t_early: float
    t_late: float
    coupled: bool

    def to_event(self, t_start: float) -> RampEvent:
        """Materialise as an absolute-time ramp event."""
        return RampEvent(
            direction=self.direction,
            t_cross=t_start + self.t_cross,
            transition=self.transition,
            t_early=t_start + self.t_early,
            t_late=t_start + self.t_late,
        )


@dataclass(frozen=True)
class ArcRequest:
    """One arc situation before quantization into its cache key."""

    ctype: CellType
    pin: str
    input_direction: str
    input_transition: float
    load: CouplingLoad
    aiding: bool = False
    quantize_down: bool = False


def _stage_params(ctype: CellType, pin: str, process: ProcessParams):
    """Collapsed (pull-up, pull-down) device parameter tuples for an arc,
    or ``None`` per side -- the electrical identity of a stage table."""
    pull_up, pull_down = ctype.topology.equivalent_stage(pin, process)
    pu = dataclasses.astuple(pull_up.params) if pull_up is not None else None
    pd = dataclasses.astuple(pull_down.params) if pull_down is not None else None
    return pu, pd


def _signature_token(params: tuple) -> str:
    """Stable content token of one collapsed-stage electrical identity.

    Hashing the device parameter tuples (via their JSON float reprs,
    which are round-trip exact) gives a token that is identical across
    processes and runs, so canonical cache keys survive persistence.
    """
    blob = json.dumps(params, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def library_fingerprint(
    process: ProcessParams,
    cell_types: Iterable[CellType],
    transition_grid: float,
    cap_grid: float,
    table_points: int,
) -> str:
    """Hash of everything that determines an arc result.

    Two runs with equal fingerprints may share cached arcs: the process
    constants, the collapsed stage devices of every (cell, pin), the
    quantization grids, the table resolution and the solver settings.
    """
    cells = {}
    for ctype in sorted({c.name: c for c in cell_types}.values(), key=lambda c: c.name):
        pins = {}
        for pin in dict.fromkeys(list(ctype.inputs) + ["A"]):
            try:
                pu, pd = _stage_params(ctype, pin, process)
            except (KeyError, ValueError):
                continue
            if pu is None and pd is None:
                continue
            pins[pin] = [pu, pd]
        cells[ctype.name] = pins
    payload = {
        "process": dataclasses.asdict(process),
        "transition_grid": transition_grid,
        "cap_grid": cap_grid,
        "table_points": table_points,
        "solver": {
            "steps_per_phase": STEPS_PER_PHASE,
            "settle_fraction": SETTLE_FRACTION,
            "max_extensions": MAX_EXTENSIONS,
        },
        "cells": cells,
    }
    blob = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


class GateDelayCalculator:
    """Caching transistor-level delay engine for library-cell arcs."""

    def __init__(
        self,
        process: ProcessParams | None = None,
        transition_grid: float = 2e-12,
        cap_grid: float = 0.2e-15,
        table_points: int = 121,
        metrics: MetricsRegistry | None = None,
        strict: bool = False,
    ):
        self.process = process if process is not None else default_process()
        self.transition_grid = transition_grid
        self.cap_grid = cap_grid
        self.table_points = table_points
        # Fault-tolerance policy: ``strict`` restores fail-fast solves and
        # turns corrupt-cache quarantine into a CacheError.
        self.strict = strict
        # Per-arc degradation annotations (dicts; surfaced on StaResult).
        self.degraded: list[dict] = []
        # Canonical stage signatures: (cell, pin) -> token, token -> the
        # collapsed device parameters, a representative (cell, pin) for
        # diagnostics, and the per-signature Newton cost
        # [solves, total_iterations] (read by per-layer benchmarks).
        self._sig_of: dict[tuple[str, str], str] = {}
        self._sig_params: dict[str, tuple] = {}
        self._sig_rep: dict[str, tuple[CellType, str]] = {}
        self._sig_cost: dict[str, list] = {}
        # Stage tables / solvers are keyed by signature token, so aliased
        # (cell, pin) pairs share one table build as well as one cache row.
        self._stage_tables: dict[str, StageTable] = {}
        self._solvers: dict[str, StageSolver] = {}
        self._arc_cache: dict[tuple, ArcResult] = {}
        # Keys adopted from a persistent cache file: hits on them are
        # persisted-cache reuse, everything else is in-run deduplication.
        self._persisted_keys: set[tuple] = set()
        self._batch_solver: BatchStageSolver | None = None
        self._table_order: list[str] = []
        # All statistics live in a metrics registry (one per analysis run,
        # shared with the propagator when the analyzer constructs us); the
        # instruments are resolved once so the hot path pays one method
        # call per event.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._c_evaluations = self.metrics.counter("arc_cache.evaluations")
        self._c_cache_hits = self.metrics.counter("arc_cache.hits")
        # Hit taxonomy: a hit is either in-run deduplication (the same
        # canonical situation requested again, possibly through a
        # different cell/pin) or reuse of an entry loaded from disk.
        self._c_dedup_hits = self.metrics.counter("arc_cache.dedup_hits")
        self._c_persisted_hits = self.metrics.counter("arc_cache.persisted_hits")
        self._g_signatures = self.metrics.gauge("arc_cache.signatures")
        self._c_sig_aliases = self.metrics.counter("arc_cache.signature_aliases")
        self._c_batched = self.metrics.counter("arc_cache.batched_solves")
        self._c_persisted = self.metrics.counter("arc_cache.persisted_loads")
        self._c_stale = self.metrics.counter("arc_cache.stale_rejects")
        self._h_newton = self.metrics.histogram(
            "newton.iterations_per_arc", boundaries=NEWTON_ITER_BUCKETS
        )
        self._c_bisect = self.metrics.counter("newton.bisection_fallbacks")
        self._c_degraded = self.metrics.counter("solver.degraded_arcs")
        self._c_batch_fallbacks = self.metrics.counter("engine.batch_fallbacks")
        self._c_cache_quarantined = self.metrics.counter("arc_cache.quarantined")
        # Provenance surfaces: every compute_arc_relative call reports
        # where its result came from (``last_origin``, one of
        # repro.core.provenance.ORIGINS -- string literals here to keep
        # waveform/ free of core/ imports) and the signature token it
        # resolved through (``last_signature``).  ``_fresh_keys`` holds
        # keys solved by prime_keys whose first consumer has not yet
        # claimed them as "fresh"; ``_degraded_keys`` marks conservative
        # substitute bounds.
        self.last_origin = "fresh"
        self.last_signature = ""
        self._fresh_keys: set[tuple] = set()
        self._degraded_keys: set[tuple] = set()
        # Set while prefetch_keys primes predicted keys (see there).
        self._speculative = False

    # -- statistics properties (registry-backed, kept for compatibility) ----

    @property
    def evaluations(self) -> int:
        return self._c_evaluations.value

    @property
    def cache_hits(self) -> int:
        return self._c_cache_hits.value

    @property
    def dedup_hits(self) -> int:
        return self._c_dedup_hits.value

    @property
    def persisted_hits(self) -> int:
        return self._c_persisted_hits.value

    @property
    def batched_solves(self) -> int:
        return self._c_batched.value

    @property
    def persisted_loads(self) -> int:
        return self._c_persisted.value

    # -- stage machinery ----------------------------------------------------

    def signature(self, ctype: CellType, pin: str) -> str:
        """The canonical stage-signature token of one (cell, pin) arc.

        Interns the collapsed device parameters: the first (cell, pin)
        collapsing to a given stage registers the signature; later pairs
        that collapse to the same devices become aliases (counted under
        ``arc_cache.signature_aliases``) and share the first pair's
        table, solver and cache rows.
        """
        key = (ctype.name, pin)
        token = self._sig_of.get(key)
        if token is None:
            params = _stage_params(ctype, pin, self.process)
            if params == (None, None):
                raise InputError(
                    f"{ctype.name} has no transistor gated by pin {pin!r}"
                )
            token = _signature_token(params)
            self._sig_of[key] = token
            if token in self._sig_params:
                self._c_sig_aliases.inc()
            else:
                self._sig_params[token] = params
                self._sig_rep[token] = (ctype, pin)
                self._g_signatures.set(len(self._sig_params))
        return token

    def solver_for(self, ctype: CellType, pin: str) -> StageSolver:
        return self._solver_for_token(self.signature(ctype, pin))

    def _solver_for_token(self, token: str) -> StageSolver:
        from repro.devices.mosfet import Mosfet, MosfetParams

        solver = self._solvers.get(token)
        if solver is None:
            pu, pd = self._sig_params[token]
            pull_up = Mosfet(MosfetParams(*pu), self.process) if pu is not None else None
            pull_down = (
                Mosfet(MosfetParams(*pd), self.process) if pd is not None else None
            )
            table = StageTable(
                pull_up, pull_down, process=self.process, points=self.table_points
            )
            self._stage_tables[token] = table
            self._table_order.append(token)
            solver = StageSolver(table, self.process)
            self._solvers[token] = solver
        return solver

    def _batch_solver_current(self) -> BatchStageSolver:
        """The batch solver over all known stage tables, rebuilt when new
        tables appeared since the last build."""
        if self._batch_solver is None or len(self._batch_solver.tables) != len(
            self._table_order
        ):
            self._batch_solver = BatchStageSolver(
                [self._stage_tables[key] for key in self._table_order],
                self.process,
                metrics=self.metrics,
            )
        return self._batch_solver

    # -- quantization --------------------------------------------------------

    def _q_time(self, value: float, down: bool = False) -> float:
        rounder = math.floor if down else math.ceil
        return rounder(max(value, 1e-13) / self.transition_grid) * self.transition_grid

    def _q_cap(self, value: float, down: bool = False) -> float:
        rounder = math.floor if down else math.ceil
        return rounder(max(value, 0.0) / self.cap_grid) * self.cap_grid

    def _quantized_key(self, request: ArcRequest) -> tuple:
        """The canonical cache key of a request: the interned stage
        signature plus the quantized slew and loads.

        The per-request path of :meth:`compute_arc_relative`; the
        propagator computes the same keys in bulk (see
        :meth:`resolve_key`).
        """
        down = request.quantize_down
        tt = self._q_time(request.input_transition, down=down)
        c_passive = self._q_cap(
            request.load.c_ground + request.load.c_couple_passive, down=down
        )
        # Active coupling is a *helping* jump in min-delay contexts: round
        # it up there (more help -> faster -> safe lower bound).
        c_active = self._q_cap(
            request.load.c_couple_active, down=down and not request.aiding
        )
        if down and c_passive + c_active <= 0.0:
            c_passive = self.cap_grid  # keep the stage integrable
        return (
            self.signature(request.ctype, request.pin),
            request.input_direction,
            tt,
            c_passive,
            c_active,
            request.aiding,
        )

    # -- the arc operation ----------------------------------------------------

    def compute_arc(
        self,
        ctype: CellType,
        pin: str,
        input_event: RampEvent,
        load: CouplingLoad,
        aiding: bool = False,
    ) -> RampEvent:
        """Output ramp event at the cell's output pin (wire delay excluded).

        The cell is negative unate (static single-stage CMOS): the output
        direction is the opposite of ``input_event.direction``.
        """
        result = self.compute_arc_relative(
            ctype, pin, input_event.direction, input_event.transition, load, aiding
        )
        t_start = input_event.t_cross - 0.5 * input_event.transition
        return result.to_event(t_start)

    def compute_arc_relative(
        self,
        ctype: CellType,
        pin: str,
        input_direction: str,
        input_transition: float,
        load: CouplingLoad,
        aiding: bool = False,
        quantize_down: bool = False,
    ) -> ArcResult:
        """The cached, time-origin-free arc calculation.

        ``aiding=True`` applies the mirrored same-direction coupling model
        (helping jump) used by min-delay analysis.  ``quantize_down``
        rounds the cache key's load and slew *down* instead of up -- the
        conservative direction for a min-delay (lower) bound, where the
        modelled arc must never be slower than reality.  Either way the
        quantized key is resolved by :meth:`resolve_key`.
        """
        request = ArcRequest(
            ctype, pin, input_direction, input_transition, load, aiding, quantize_down
        )
        return self.resolve_key(self._quantized_key(request))

    def resolve_key(self, key: tuple, force_exact: bool = False) -> ArcResult:
        """Resolve one *pre-quantized* canonical key.

        The propagator computes quantized keys in bulk (vectorized ceil
        over a level slab) and resolves them here, skipping the per-arc
        :class:`ArcRequest` construction; the cache-probe / solve logic
        and every counter are shared with :meth:`compute_arc_relative`.
        A miss is solved on its own by the scalar solver.

        ``force_exact`` is accepted and ignored: every miss is an exact
        Newton solve.  It stays because callers that wrap this method
        (the benchmark's tracing calculator) still forward it.
        """
        self.last_signature = key[0]
        cached = self._arc_cache.get(key)
        if cached is not None:
            self._record_hit(key)
            return cached
        arc = self._solve_key(key)
        self._arc_cache[key] = arc
        self.last_origin = "degraded" if key in self._degraded_keys else "fresh"
        return arc

    def _record_hit(self, key: tuple) -> None:
        self._c_cache_hits.inc()
        if key in self._persisted_keys:
            self._c_persisted_hits.inc()
            origin = "persisted"
        else:
            self._c_dedup_hits.inc()
            # The first consumer of a prime_keys batch solve is the arc
            # that *caused* the solve: report it as fresh, not dedup.
            if key in self._fresh_keys:
                self._fresh_keys.discard(key)
                origin = "fresh"
            else:
                origin = "dedup"
        if key in self._degraded_keys:
            origin = "degraded"
        self.last_origin = origin

    def _observe_cost(self, token: str, iterations: int) -> None:
        """Feed one solved arc's Newton iteration count into the
        per-signature cost totals (:attr:`_sig_cost`)."""
        stats = self._sig_cost.get(token)
        if stats is None:
            self._sig_cost[token] = [1, iterations]
        else:
            stats[0] += 1
            stats[1] += iterations

    def _solve_key(self, key: tuple) -> ArcResult:
        """Scalar (reference) solve of one canonical arc situation."""
        token, input_direction, tt, c_passive, c_active, aiding = key
        self._c_evaluations.inc()
        solver = self._solver_for_token(token)
        try:
            stage_result = solver.solve(
                InputRamp(direction=input_direction, t_start=0.0, transition=tt),
                CouplingLoad(
                    c_ground=c_passive,
                    c_couple_active=c_active,
                    c_couple_passive=0.0,
                ),
                aiding=aiding,
            )
        except SolverError as exc:
            return self._degrade_key(key, exc)
        self._h_newton.observe(stage_result.newton_iterations)
        self._observe_cost(token, stage_result.newton_iterations)
        if stage_result.newton_bisections:
            self._c_bisect.inc(stage_result.newton_bisections)
        return self._to_arc(stage_result)

    def _degrade_key(self, key: tuple, exc: SolverError) -> ArcResult:
        """Substitute a conservative bound for an arc whose solve failed.

        Strict mode re-raises instead (the pre-degradation fail-fast
        behaviour); otherwise the substitution is counted under
        ``solver.degraded_arcs`` and annotated in :attr:`degraded`.
        """
        if self.strict:
            raise exc
        arc = self._conservative_arc(key)
        self._c_degraded.inc()
        self._degraded_keys.add(key)
        token, direction, tt, c_passive, c_active, aiding = key
        rep = self._sig_rep.get(token)
        name, pin = (rep[0].name, rep[1]) if rep is not None else (token, "?")
        self.degraded.append(
            {
                "cell": name,
                "pin": pin,
                "signature": token,
                "input_direction": direction,
                "input_transition": tt,
                "c_passive": c_passive,
                "c_active": c_active,
                "aiding": bool(aiding),
                "bound": arc.t_late,
                "reason": f"{type(exc).__name__}: {exc}",
            }
        )
        logger.warning(
            "arc %s/%s (%s) failed to solve (%s); substituting conservative "
            "ramp bound t_late=%.3e s",
            name,
            pin,
            direction,
            exc,
            arc.t_late,
        )
        return arc

    # Voltage margin beyond the rails the bound's traversal allows for
    # (coupling overshoot); matches the stage tables' grid margin.
    _BOUND_MARGIN = 0.3
    # Drive floor when even the table minimum is unusable (amperes).  At
    # femtofarad-scale loads this puts the bound around tens of
    # nanoseconds -- orders of magnitude above any real stage delay.
    _BOUND_CURRENT_FLOOR = 1e-7

    def _conservative_arc(self, key: tuple) -> ArcResult:
        """A provably conservative ramp response for one arc situation.

        Models the stage as charging its total load through the *weakest*
        drive current found anywhere along the output traversal once the
        input has settled::

            T = C_total * span / I_min

        The true output (a) starts moving no later than the assumed
        start (input fully settled at ``tt``) and (b) moves at every
        voltage at least as fast as ``I_min / C_total``, so ``tt + T``
        can only overestimate the late crossing.  Opposing active
        coupling may additionally yank the victim back by at most the
        full span once (divider drop + recovery), covered by a second
        ``T``.  The early marker is pinned to the input ramp start (time
        0): the output cannot move before its cause.  The transition
        upper bound follows from the thresholds: both slew markers lie
        inside ``[0, t_late]`` and the slew is the marker gap over 0.8.
        """
        token, input_direction, tt, c_passive, c_active, aiding = key
        vdd = self.process.vdd
        out_direction = opposite(input_direction)
        margin = self._BOUND_MARGIN
        span = vdd + margin - self.process.v_th_model
        c_total = max(c_passive + c_active, self.cap_grid)

        i_min = 0.0
        table = self._stage_tables.get(token)
        if table is not None:
            vin_final = vdd if input_direction == RISING else 0.0
            if out_direction == RISING:
                v_path = np.linspace(-margin, vdd - self.process.v_th_model, 97)
            else:
                v_path = np.linspace(self.process.v_th_model, vdd + margin, 97)
            currents = np.abs(
                table.current_array(np.full_like(v_path, vin_final), v_path)
            )
            if np.isfinite(currents).all():
                i_min = float(currents.min())
        if not i_min > 0.0:
            i_min = self._BOUND_CURRENT_FLOOR

        t_traverse = c_total * span / i_min
        recovery = t_traverse if c_active > 0.0 else 0.0
        t_late = tt + t_traverse + recovery
        return ArcResult(
            direction=out_direction,
            t_cross=t_late,
            transition=1.25 * t_late,
            t_early=0.0,
            t_late=t_late,
            coupled=c_active > 0.0,
        )

    @staticmethod
    def _to_arc(stage_result: StageResult) -> ArcResult:
        return ArcResult(
            direction=stage_result.direction,
            t_cross=stage_result.t_cross,
            transition=stage_result.transition,
            t_early=stage_result.t_early,
            t_late=stage_result.t_late,
            coupled=stage_result.coupled,
        )

    # -- batched priming ------------------------------------------------------

    def prime_keys(self, keys: Sequence[tuple]) -> int:
        """Ensure every *pre-quantized* key is cached; returns the number
        of situations actually solved.

        Deduplicates the keys (first-seen order), then solves the
        distinct misses (see :meth:`_solve_misses`).
        """
        misses: list[tuple] = []
        seen: set[tuple] = set()
        for key in keys:
            if key in self._arc_cache or key in seen:
                continue
            seen.add(key)
            misses.append(key)
        return self._solve_misses(misses)

    def prefetch_keys(self, keys: Sequence[tuple]) -> int:
        """Speculatively solve keys a caller only predicts it will
        resolve: :meth:`prime_keys` under another failure policy.

        A key's batched result does not depend on the rest of its batch,
        so a right prediction is a plain cache hit later and a wrong one
        a wasted solve.  If the batch raises, nothing is cached, degraded
        or counted as a fallback; the keys' real consumers solve them as
        usual.  Batches below ``MIN_BATCH`` are left to the consumers.
        Returns the number of keys solved.
        """
        self._speculative = True
        try:
            return self.prime_keys(keys)
        finally:
            self._speculative = False

    def _solve_misses(self, misses: list[tuple]) -> int:
        """Solve the deduplicated cache misses.

        The one place the solver is chosen, by batch size alone: below
        ``MIN_BATCH`` a vectorized solve does not amortize its setup and
        the scalar solver takes each key; larger batches go to one
        vectorized integration.
        """
        if not misses:
            return 0
        if self._speculative:
            if len(misses) < MIN_BATCH:
                return 0
            try:
                self._batch_solve(misses)
            except SolverError as exc:
                logger.debug(
                    "speculative batch of %d arcs failed (%s); leaving them "
                    "to their consumers",
                    len(misses),
                    exc,
                )
                return 0
        elif len(misses) < MIN_BATCH:
            for key in misses:
                self._arc_cache[key] = self._solve_key(key)
        else:
            self._solve_keys_batched(misses)
        self._fresh_keys.update(misses)
        return len(misses)

    def _solve_keys_batched(self, misses: list[tuple]) -> None:
        """One vectorized integration over all missing situations."""
        try:
            self._batch_solve(misses)
        except SolverError as exc:
            if self.strict:
                raise
            self._c_batch_fallbacks.inc()
            logger.warning(
                "batched solve of %d arcs failed (%s); falling back to "
                "per-arc scalar solves",
                len(misses),
                exc,
            )
            for key in misses:
                self._arc_cache[key] = self._solve_key(key)

    def _batch_solve(self, misses: list[tuple]) -> None:
        """Solve ``misses`` in one lockstep integration and cache them;
        raises :class:`SolverError` with nothing cached."""
        # Materialise tables first so the bank covers every signature.
        for key in misses:
            self._solver_for_token(key[0])
        solver = self._batch_solver_current()
        index_of = {token: i for i, token in enumerate(self._table_order)}
        specs = [
            BatchArcSpec(
                table_index=index_of[token],
                input_direction=direction,
                transition=tt,
                load=CouplingLoad(c_ground=c_passive, c_couple_active=c_active),
                aiding=aiding,
            )
            for (token, direction, tt, c_passive, c_active, aiding) in misses
        ]
        results = solver.solve_many_compact(specs)
        directions = results.directions
        t_cross = results.t_cross
        transition = results.transition
        t_early = results.t_early
        t_late = results.t_late
        coupled = results.coupled
        iterations = results.newton_iterations
        for j, key in enumerate(misses):
            arc = ArcResult(
                direction=directions[j],
                t_cross=float(t_cross[j]),
                transition=float(transition[j]),
                t_early=float(t_early[j]),
                t_late=float(t_late[j]),
                coupled=bool(coupled[j]),
            )
            self._arc_cache[key] = arc
            self._observe_cost(key[0], int(iterations[j]))
        self._c_evaluations.inc(len(misses))
        self._c_batched.inc(len(misses))

    def solve_stage_raw(
        self,
        ctype: CellType,
        pin: str,
        input_ramp: InputRamp,
        load: CouplingLoad,
    ) -> StageResult:
        """Uncached full-waveform stage solve (diagnostics, validation)."""
        return self.solver_for(ctype, pin).solve(input_ramp, load)

    # -- persistence ----------------------------------------------------------

    def fingerprint(self, cell_types: Iterable[CellType]) -> str:
        """The compatibility fingerprint of this calculator's results."""
        return library_fingerprint(
            self.process,
            cell_types,
            self.transition_grid,
            self.cap_grid,
            self.table_points,
        )

    def save_cache_file(self, path: str, cell_types: Iterable[CellType]) -> int:
        """Write the arc cache as JSON keyed by the library fingerprint.

        Returns the number of entries written.  The write is atomic
        (temp file + rename) so concurrent runs never read a torn file,
        and the arc table carries a content checksum so silent corruption
        (bit rot, partial copies) is caught at load time.
        """
        arcs = [
            [list(key), [r.direction, r.t_cross, r.transition, r.t_early, r.t_late, r.coupled]]
            for key, r in self._arc_cache.items()
        ]
        body = json.dumps(arcs, sort_keys=True)
        payload = {
            "format": CACHE_FORMAT,
            "fingerprint": self.fingerprint(cell_types),
            "checksum": hashlib.sha256(body.encode()).hexdigest(),
            "arcs": arcs,
        }
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w") as handle:
            json.dump(payload, handle)
        os.replace(tmp, path)
        return len(self._arc_cache)

    def _quarantine_cache(self, path: str, reason: str) -> int:
        """Move a corrupt cache file aside so the rebuild cannot re-read
        it; strict mode raises a :class:`CacheError` instead of rebuilding."""
        self._c_cache_quarantined.inc()
        quarantined = f"{path}.bad"
        try:
            os.replace(path, quarantined)
            where = f"quarantined to {quarantined}"
        except OSError:
            where = "could not be quarantined"
        logger.warning(
            "arc cache %s is corrupt (%s); %s, rebuilding from scratch",
            path,
            reason,
            where,
        )
        if self.strict:
            raise CacheError(f"arc cache {path} is corrupt: {reason}")
        return 0

    def load_cache_file(self, path: str, cell_types: Iterable[CellType]) -> int:
        """Load a persistent arc cache if it matches this configuration.

        Silently ignores missing, unreadable, wrong-format or
        stale-fingerprint files (a cold start is always safe).  Corrupt
        files -- unparseable, checksum mismatch, malformed or non-finite
        arc entries -- are additionally quarantined to ``<path>.bad``.
        Returns the number of entries adopted.
        """
        try:
            with open(path) as handle:
                payload = json.load(handle)
        except OSError:
            return 0
        except ValueError:
            return self._quarantine_cache(path, "not valid JSON")
        if not isinstance(payload, dict) or payload.get("format") != CACHE_FORMAT:
            self._c_stale.inc()
            logger.warning("arc cache %s has an unknown format; ignoring", path)
            return 0
        if payload.get("fingerprint") != self.fingerprint(cell_types):
            self._c_stale.inc()
            logger.warning(
                "arc cache %s was built for a different configuration; ignoring", path
            )
            return 0
        arcs = payload.get("arcs", [])
        body = json.dumps(arcs, sort_keys=True)
        if hashlib.sha256(body.encode()).hexdigest() != payload.get("checksum"):
            return self._quarantine_cache(path, "content checksum mismatch")
        entries: list[tuple[tuple, ArcResult]] = []
        try:
            for raw_key, fields in arcs:
                token, direction, tt, c_passive, c_active, aiding = raw_key
                if not isinstance(token, str):
                    raise ValueError("non-string signature token")
                out_direction, t_cross, transition, t_early, t_late, coupled = fields
                numbers = (tt, c_passive, c_active, t_cross, transition, t_early, t_late)
                if not all(
                    isinstance(v, (int, float)) and math.isfinite(v) for v in numbers
                ):
                    raise ValueError("non-finite arc entry")
                entries.append(
                    (
                        (token, direction, tt, c_passive, c_active, bool(aiding)),
                        ArcResult(
                            out_direction,
                            t_cross,
                            transition,
                            t_early,
                            t_late,
                            bool(coupled),
                        ),
                    )
                )
        except (TypeError, ValueError):
            return self._quarantine_cache(path, "malformed arc entries")
        loaded = 0
        for key, arc in entries:
            if key in self._arc_cache:
                continue
            self._arc_cache[key] = arc
            self._persisted_keys.add(key)
            loaded += 1
        self._c_persisted.inc(loaded)
        return loaded

    # -- statistics -----------------------------------------------------------

    def cache_stats(self) -> dict:
        lookups = self.evaluations + self.cache_hits
        return {
            "evaluations": self.evaluations,
            "cache_hits": self.cache_hits,
            "hit_rate": self.cache_hits / lookups if lookups else 0.0,
            "dedup_hits": self._c_dedup_hits.value,
            "persisted_hits": self._c_persisted_hits.value,
            "cached_arcs": len(self._arc_cache),
            "stage_tables": len(self._stage_tables),
            "signatures": len(self._sig_params),
            "signature_aliases": self._c_sig_aliases.value,
            "batched_solves": self.batched_solves,
            "persisted_loads": self.persisted_loads,
            "stale_rejects": self._c_stale.value,
            "quarantined": self._c_cache_quarantined.value,
            "newton_iterations": self._h_newton.total,
            "newton_bisections": self._c_bisect.value,
            "degraded_arcs": self._c_degraded.value,
        }

    def reset_counters(self) -> None:
        self._c_evaluations.reset()
        self._c_cache_hits.reset()
        self._c_dedup_hits.reset()
        self._c_persisted_hits.reset()
        self._c_batched.reset()
