"""Damped scalar Newton iteration.

The waveform engine solves one implicit (backward-Euler) equation per time
step.  The paper uses "the classical Newton approximation instead of the
successive chord method proposed in [TETA]" and reports no convergence
problems thanks to finely discretised tables.  We add light damping and a
bisection fallback so the solver is robust even on coarse tables, without
changing behaviour on well-conditioned problems.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import SolverError


class NewtonError(SolverError):
    """Raised when the iteration fails to converge."""


@dataclass
class NewtonResult:
    """Outcome of a Newton solve."""

    root: float
    iterations: int
    residual: float
    used_bisection: bool = False


def solve_newton(
    func: Callable[[float], tuple[float, float]],
    x0: float,
    tol: float = 1e-9,
    max_iter: int = 50,
    lo: float | None = None,
    hi: float | None = None,
) -> NewtonResult:
    """Solve ``f(x) = 0`` for scalar ``x``.

    Parameters
    ----------
    func:
        Returns ``(f(x), f'(x))``.
    x0:
        Initial guess.
    tol:
        Convergence tolerance on ``|x_new - x|``.
    max_iter:
        Iteration budget before falling back to bisection (which requires
        ``lo``/``hi`` to bracket a root).
    lo, hi:
        Optional clamping interval; iterates are kept inside it.
    """
    x = x0
    f, df = func(x)
    for iteration in range(1, max_iter + 1):
        if df == 0.0:
            break
        step = f / df
        # Damping: never move more than half the bracket in one step.
        if lo is not None and hi is not None:
            max_step = 0.5 * (hi - lo)
            if step > max_step:
                step = max_step
            elif step < -max_step:
                step = -max_step
        x_new = x - step
        if lo is not None and x_new < lo:
            x_new = lo
        if hi is not None and x_new > hi:
            x_new = hi
        if abs(x_new - x) <= tol:
            f_new, _ = func(x_new)
            return NewtonResult(root=x_new, iterations=iteration, residual=abs(f_new))
        x = x_new
        f, df = func(x)

    if lo is None or hi is None:
        raise NewtonError(
            f"Newton failed to converge after {max_iter} iterations "
            f"(last x={x!r}, f={f!r})"
        )
    return _bisect(func, lo, hi, tol, max_iter)


@dataclass
class BatchNewtonResult:
    """Outcome of a batched Newton solve (one entry per element)."""

    roots: np.ndarray
    iterations: np.ndarray
    used_bisection: np.ndarray

    @property
    def total_iterations(self) -> int:
        return int(self.iterations.sum())

    @property
    def bisection_count(self) -> int:
        """Elements that fell back to bisection (convergence failures of
        the Newton update, fed to the ``newton.bisection_fallbacks``
        metric by the stage solvers)."""
        return int(self.used_bisection.sum())


def solve_newton_many(
    func: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    x0: np.ndarray,
    tol: float = 1e-9,
    max_iter: int = 50,
    lo: float | None = None,
    hi: float | None = None,
) -> BatchNewtonResult:
    """Solve ``f_i(x_i) = 0`` for a batch of independent scalar problems.

    The vectorized generalization of :func:`solve_newton`: one damped
    Newton update per iteration over the whole batch, per-element
    convergence masks (converged elements freeze), and a per-element
    bisection fallback for elements that hit a zero derivative or exhaust
    the iteration budget.  The update arithmetic matches the scalar
    solver step for step, so a batch of size one reproduces
    :func:`solve_newton` bit for bit on well-conditioned problems.

    ``func`` evaluates all elements at once and returns ``(f, df)``
    arrays; ``lo``/``hi`` are shared scalar bounds.
    """
    x = np.asarray(x0, dtype=float).copy()
    n = x.size
    roots = x.copy()
    iterations = np.zeros(n, dtype=int)
    converged = np.zeros(n, dtype=bool)
    needs_fallback = np.zeros(n, dtype=bool)
    bounded = lo is not None and hi is not None
    max_step = 0.5 * (hi - lo) if bounded else None

    f, df = func(x)
    # Scratch buffers reused across iterations: lanes outside ``active``
    # may hold stale values, but every read below is masked by ``active``
    # (or a subset of it), so stale lanes never reach a result.
    step = np.zeros_like(x)
    x_new = np.empty_like(x)
    active = np.empty(n, dtype=bool)
    flat = np.empty(n, dtype=bool)
    conv_now = np.empty(n, dtype=bool)
    advance = np.empty(n, dtype=bool)
    for iteration in range(1, max_iter + 1):
        np.logical_or(converged, needs_fallback, out=active)
        np.logical_not(active, out=active)
        if not active.any():
            break
        np.equal(df, 0.0, out=flat)
        flat &= active
        if flat.any():
            needs_fallback |= flat
            active &= ~flat
            if not active.any():
                break
        np.divide(f, df, out=step, where=active)
        if max_step is not None:
            np.maximum(step, -max_step, out=step)
            np.minimum(step, max_step, out=step)
        np.subtract(x, step, out=x_new)
        if lo is not None:
            np.maximum(x_new, lo, out=x_new)
        if hi is not None:
            np.minimum(x_new, hi, out=x_new)
        np.subtract(x_new, x, out=step)
        np.abs(step, out=step)
        np.less_equal(step, tol, out=conv_now)
        conv_now &= active
        if conv_now.any():
            roots[conv_now] = x_new[conv_now]
            iterations[conv_now] = iteration
            converged |= conv_now
        np.logical_not(conv_now, out=advance)
        advance &= active
        if not advance.any():
            continue
        np.copyto(x, x_new, where=advance)
        f, df = func(x)

    pending = ~converged
    if pending.any():
        if not bounded:
            idx = int(np.nonzero(pending)[0][0])
            raise NewtonError(
                f"batched Newton failed to converge after {max_iter} iterations "
                f"(element {idx}, last x={x[idx]!r})"
            )
        _bisect_many(func, x, roots, iterations, pending, lo, hi, tol, max_iter)
    return BatchNewtonResult(
        roots=roots, iterations=iterations, used_bisection=pending
    )


def _bisect_many(
    func: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    x: np.ndarray,
    roots: np.ndarray,
    iterations: np.ndarray,
    pending: np.ndarray,
    lo: float,
    hi: float,
    tol: float,
    start_iter: int,
) -> None:
    """Vectorized bisection over the ``pending`` elements (in place)."""
    idx = np.nonzero(pending)[0]
    lo_v = np.full(idx.size, float(lo))
    hi_v = np.full(idx.size, float(hi))
    probe = x.copy()
    probe[idx] = lo_v
    f_lo = func(probe)[0][idx]
    probe[idx] = hi_v
    f_hi = func(probe)[0][idx]
    bad = f_lo * f_hi > 0.0
    if bad.any():
        i = int(idx[np.nonzero(bad)[0][0]])
        raise NewtonError(
            f"bisection fallback has no bracket for element {i}: "
            f"f({lo})={f_lo[np.nonzero(bad)[0][0]]}, "
            f"f({hi})={f_hi[np.nonzero(bad)[0][0]]}"
        )
    count = start_iter
    while (hi_v - lo_v > tol).any() and count <= start_iter + 200:
        count += 1
        mid = 0.5 * (lo_v + hi_v)
        probe[idx] = mid
        f_mid = func(probe)[0][idx]
        go_lo = f_lo * f_mid < 0.0
        hi_v = np.where(go_lo, mid, hi_v)
        keep_hi = ~go_lo
        lo_v = np.where(keep_hi, mid, lo_v)
        f_lo = np.where(keep_hi, f_mid, f_lo)
    roots[idx] = 0.5 * (lo_v + hi_v)
    iterations[idx] = count


def _bisect(
    func: Callable[[float], tuple[float, float]],
    lo: float,
    hi: float,
    tol: float,
    start_iter: int,
) -> NewtonResult:
    f_lo, _ = func(lo)
    f_hi, _ = func(hi)
    if f_lo == 0.0:
        return NewtonResult(root=lo, iterations=start_iter, residual=0.0, used_bisection=True)
    if f_hi == 0.0:
        return NewtonResult(root=hi, iterations=start_iter, residual=0.0, used_bisection=True)
    if f_lo * f_hi > 0.0:
        raise NewtonError(
            f"bisection fallback has no bracket: f({lo})={f_lo}, f({hi})={f_hi}"
        )
    iterations = start_iter
    while hi - lo > tol:
        iterations += 1
        mid = 0.5 * (lo + hi)
        f_mid, _ = func(mid)
        if f_mid == 0.0:
            return NewtonResult(root=mid, iterations=iterations, residual=0.0, used_bisection=True)
        if f_lo * f_mid < 0.0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
        if iterations > 200:
            break
    root = 0.5 * (lo + hi)
    f_root, _ = func(root)
    return NewtonResult(root=root, iterations=iterations, residual=abs(f_root), used_bisection=True)
