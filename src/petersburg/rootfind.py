"""Scalar root finding on a bracket: bisection with a final secant polish,
and Newton steps safeguarded by bisection.

Both converge unconditionally once a sign change is bracketed.  Bisection
needs only f, and serves the closed-form equations, whose evaluations are
cheap; the safeguarded Newton method serves equations that give f' with f
at little extra cost, and takes a few evaluations where bisection takes
dozens.
"""

from __future__ import annotations

import math
from typing import Callable

from .errors import SolverError

_MAX_ITER = 200
_NEWTON_RTOL = 1e-10


def bisect_root(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    *,
    xtol: float = 1e-12,
) -> tuple[float, int]:
    """Find x in [lo, hi] with f(x) = 0, given f(lo) and f(hi) of opposite sign.

    Bisects until the bracket width falls below ``xtol`` (at most
    ``_MAX_ITER`` steps), then applies a single secant step inside the final
    bracket.  Returns ``(root, iterations)``.

    Raises SolverError if the initial bracket does not straddle a sign change.
    """
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo, 0
    if fhi == 0.0:
        return hi, 0
    if flo * fhi > 0.0:
        raise SolverError(f"no sign change on [{lo}, {hi}]: f(lo)={flo}, f(hi)={fhi}")

    iterations = 0
    while hi - lo > xtol and iterations < _MAX_ITER:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break  # bracket at floating-point resolution
        fmid = f(mid)
        iterations += 1
        if fmid == 0.0:
            return mid, iterations
        if flo * fmid < 0.0:
            hi, fhi = mid, fmid
        else:
            lo, flo = mid, fmid

    root = 0.5 * (lo + hi)
    if fhi != flo:
        candidate = lo - flo * (hi - lo) / (fhi - flo)
        if lo <= candidate <= hi:
            root = candidate
            iterations += 1
    return root, iterations


def rtsafe(
    fdf: Callable[[float], tuple[float, float]],
    lo: float,
    hi: float,
    start: tuple[float, float, float],
) -> tuple[float, float]:
    """Find x in [lo, hi] with f(x) = 0, given f(lo) <= 0 <= f(hi), by Newton
    steps safeguarded by bisection (Numerical Recipes 9.4, ``rtsafe``).

    ``fdf(x)`` returns (f(x), f'(x)), and ``start`` is (x, f(x), f'(x)) at a
    point of [lo, hi] already evaluated.  Where a Newton step would leave the
    bracket, would not halve the step before last, or cannot be taken (f
    infinite, f' zero or nan), the bracket is bisected instead.  Stops at the
    point a Newton step shorter than 1e-10 |x| reaches (quadratic
    convergence puts it within rounding of the root), at a zero of f,
    or where the next step would not move x.  Returns ``(root, f(root))``.
    """
    x, fx, dfx = start
    dx_old = dx = hi - lo
    for _ in range(_MAX_ITER):
        if fx == 0.0:
            break
        step = fx / dfx if dfx and math.isfinite(fx) else math.nan
        newton = lo <= x - step <= hi and abs(2.0 * step) <= abs(dx_old)
        dx_old, dx = dx, step if newton else 0.5 * (hi - lo)
        x_next = x - dx if newton else lo + dx
        if x_next == x or (not newton and x_next in (lo, hi)):
            break  # at floating-point resolution
        x = x_next
        fx, dfx = fdf(x)
        if newton and abs(dx) <= _NEWTON_RTOL * abs(x):
            break
        if fx < 0.0:
            lo = x
        else:
            hi = x
    return x, fx
