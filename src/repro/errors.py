"""Shared exception taxonomy of the analysis runtime.

The paper's core guarantee (Section 4) is that every pass yields a
conservative upper bound on each net's last-event time.  The right
response to a localized failure is therefore *graceful degradation to a
coarser-but-still-safe bound*, not a crash -- but degrading silently
would hide real problems, so every fault is classified, counted, and
(under ``StaConfig.strict``) re-raised with a type callers can dispatch
on:

``ReproError``
    Base of everything this package raises deliberately.
``InputError``
    The user's input is at fault (malformed netlist, non-finite device
    table, bad configuration).  Subclasses :class:`ValueError` so
    pre-taxonomy callers that caught ``ValueError`` keep working.
``SolverError``
    A numerical solver failed (Newton divergence, missing bisection
    bracket, non-settling integration).  Recoverable by substituting a
    conservative delay bound for the affected arc.
``EngineError``
    The evaluation machinery failed (internal phase errors, a mode or
    state the propagation cannot serve).
``CacheError``
    A persistent artifact (arc cache, checkpoint) is corrupt.
    Recoverable by quarantining the file and rebuilding.
``CheckpointError``
    A checkpoint file cannot be written or resumed from.
``DegradationBudgetError``
    More arcs were degraded than ``--max-degraded`` allows; the run is
    still conservative but no longer trustworthy enough to report.
``AnalysisInterrupted``
    A cooperative mid-run interrupt (fault injection, shutdown hooks);
    the checkpoint written before the interrupt allows bit-identical
    resumption.

The CLI maps the taxonomy onto a fixed exit-code vocabulary (see
``docs/ROBUSTNESS.md``): 0 ok, 2 input error, 3 degraded-over-budget,
4 internal fault.
"""

from __future__ import annotations

# CLI exit-code taxonomy (documented in docs/ROBUSTNESS.md).
EXIT_OK = 0
EXIT_INPUT_ERROR = 2
EXIT_DEGRADED_OVER_BUDGET = 3
EXIT_INTERNAL_FAULT = 4


class ReproError(Exception):
    """Base class of every deliberate failure in this package."""


class InputError(ReproError, ValueError):
    """The caller's input is invalid (netlist, tables, configuration)."""


class SolverError(ReproError, RuntimeError):
    """A numerical solver failed to produce a result."""


class EngineError(ReproError, RuntimeError):
    """The evaluation machinery (batches, phases) failed."""


class CacheError(ReproError, RuntimeError):
    """A persistent cache artifact is corrupt or unusable."""


class CheckpointError(ReproError, RuntimeError):
    """A checkpoint file cannot be written, read, or resumed from."""


class DegradationBudgetError(ReproError):
    """The run degraded more arcs than the configured budget allows.

    The attached ``result`` (when set) is still a valid conservative
    bound -- the error says "too much of it came from the coarse
    fallback to be worth reporting", not "the analysis is wrong".
    """

    def __init__(self, degraded: int, budget: int, result=None):
        super().__init__(
            f"{degraded} arcs degraded to the conservative fallback, "
            f"exceeding the budget of {budget}"
        )
        self.degraded = degraded
        self.budget = budget
        self.result = result


class AnalysisInterrupted(ReproError):
    """A cooperative interrupt stopped the run between passes."""

    def __init__(self, message: str, passes_completed: int = 0):
        super().__init__(message)
        self.passes_completed = passes_completed
