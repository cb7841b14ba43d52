"""Analysis modes and configuration of the crosstalk-aware STA.

The five modes are exactly the rows of the paper's result tables
(Section 6):

1. **BEST_CASE** -- coupling capacitances grounded at their original
   value: coupling ignored entirely.  A comparison value only.
2. **STATIC_DOUBLED** -- grounded with doubled value: the classical
   passive approach.  Assumes permanent coupling but misses the active
   nature of the effect ("This assumption is wrong!", Section 6).
3. **WORST_CASE** -- every coupling capacitance couples according to the
   active model at all times.
4. **ONE_STEP** -- Section 5.1: couple only where the aggressor's
   opposite-direction activity window can overlap the victim's earliest
   activity; one extra best-case waveform calculation per arc; BFS stays
   linear.
5. **ITERATIVE** -- Section 5.2: one-step repeated with stored quiescent
   times until the longest-path delay stops improving.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.errors import InputError


class AnalysisMode(Enum):
    """The paper's five coupling treatments."""

    BEST_CASE = "best_case"
    STATIC_DOUBLED = "static_doubled"
    WORST_CASE = "worst_case"
    ONE_STEP = "one_step"
    ITERATIVE = "iterative"

    @property
    def is_window_based(self) -> bool:
        """Modes that consult aggressor timing windows."""
        return self in (AnalysisMode.ONE_STEP, AnalysisMode.ITERATIVE)


class WindowCheck(Enum):
    """Aggressor-activity test of the window-based modes.

    ``QUIET``: the paper's test -- couple unless the aggressor's
    opposite-direction quiescent time precedes the victim's earliest
    activity.  ``OVERLAP``: additionally ground aggressors whose activity
    cannot *start* before the victim's worst-case completion (two-sided
    window intersection; tighter, one extra calculation per arc).
    """

    QUIET = "quiet"
    OVERLAP = "overlap"


# Longest-path improvement below which the iterative passes stop
# (seconds).
CONVERGENCE_TOLERANCE = 1e-12
# Esperance: slack threshold, as a fraction of the longest-path delay,
# below which a net counts as "on a long path".
ESPERANCE_SLACK = 0.15
# Factor on the Elmore delay added linearly to the transition time at a
# sink (wire slew degradation; linear addition upper-bounds the
# RC-filtered sink slew, unlike the quadrature PERI form).
SLEW_DEGRADATION_FACTOR = 2.2


@dataclass(frozen=True)
class StaConfig:
    """Tunable parameters of an analysis run.

    Attributes
    ----------
    mode:
        Coupling treatment (see :class:`AnalysisMode`).
    input_transition:
        Ramp time assumed at primary inputs (seconds).
    guard:
        Guard band for the window comparison ``t_a > t_bcs`` of the
        one-step algorithm, absorbing cache-quantization error on the
        conservative side.
    max_iterations:
        Pass budget of the iterative mode (including the first two).
    esperance:
        Iterative mode only: recompute only nets on long paths
        (the Esperance speed-up of Benkoski et al. [11]).
    window_check:
        How the one-step/iterative modes decide whether an aggressor can
        couple.  ``QUIET`` is the paper's one-sided test (aggressor quiet
        before the victim's earliest activity -> grounded).  ``OVERLAP``
        is a tighter two-sided extension: an aggressor whose activity can
        only *begin* after the victim has certainly completed is also
        grounded.  Costs one extra (all-active) waveform calculation per
        arc; still a guaranteed upper bound.
    arc_cache:
        Optional path of a persistent arc-cache file (JSON).  Loaded
        before the first pass when it exists and matches the design's
        process/cell-library fingerprint; rewritten after each run so
        repeated invocations skip the Newton integrations entirely.
    strict:
        Fail fast on internal faults instead of degrading gracefully: a
        failed arc solve raises instead of substituting a conservative
        bound, and a corrupt arc cache raises instead of being
        quarantined and rebuilt.
    max_degraded:
        Budget of degraded (conservatively bounded) arcs a non-strict
        run may accumulate before it is rejected; ``None`` means
        unlimited.
    checkpoint:
        Optional path of an iterative-mode checkpoint file.  State is
        persisted after every pass; when the file already holds passes
        for this exact analysis, the run resumes from them
        (bit-identical to an uninterrupted run).
    clock_period:
        Optional clock period (seconds).  When set, every run
        additionally performs the backward required-time pass
        (:mod:`repro.core.slack`): endpoint setup checks, per-net and
        per-arc slack, and the ``slack`` block on the result.  ``None``
        (the default) skips constraint checking entirely -- arrival
        times are unchanged either way.
    setup_time:
        Setup requirement of flip-flop data inputs (seconds); only
        consulted when ``clock_period`` is set.
    hold_time:
        Hold requirement of flip-flop data inputs (seconds), checked by
        ``check_hold`` against a min-delay analysis.
    """

    mode: AnalysisMode = AnalysisMode.ITERATIVE
    input_transition: float = 100e-12
    guard: float = 5e-12
    max_iterations: int = 10
    esperance: bool = False
    window_check: "WindowCheck" = None  # type: ignore[assignment]
    arc_cache: str | None = None
    strict: bool = False
    max_degraded: int | None = None
    checkpoint: str | None = None
    # Timing constraints.  Deliberately NOT part of the checkpoint
    # fingerprint: they only drive the backward slack pass and the
    # setup/hold verdicts, never the forward pass sequence, so a
    # checkpoint stays resumable across constraint changes.
    clock_period: float | None = None
    setup_time: float = 100e-12
    hold_time: float = 50e-12

    def __post_init__(self) -> None:
        if self.window_check is None:
            object.__setattr__(self, "window_check", WindowCheck.QUIET)
        if self.max_degraded is not None and self.max_degraded < 0:
            raise InputError("max_degraded must be non-negative")
        if self.clock_period is not None and self.clock_period <= 0:
            raise InputError("clock_period must be positive")
        if self.setup_time < 0:
            raise InputError("setup_time must be non-negative")
        if self.hold_time < 0:
            raise InputError("hold_time must be non-negative")

    def with_mode(self, mode: AnalysisMode) -> "StaConfig":
        from dataclasses import replace

        return replace(self, mode=mode)
