"""Scalar root finding on a bracket: Newton steps safeguarded by bisection.

Both equations the package solves numerically give f' with f at little
extra cost: the log-prior optimum's y e^y = target, and the calibration's
b = sigma(-b), whose posterior moments carry f'.  So one method serves
both, and converges unconditionally once the caller brackets a sign change.
"""

from __future__ import annotations

import math
from typing import Callable

_MAX_ITER = 200
_NEWTON_RTOL = 1e-10


# perfbench/tracing.py (TARGETS) and test_wrappers_restore_the_original_functions find this by name
def bisect_root(
    fdf: Callable[[float], tuple[float, float]],
    lo: float,
    hi: float,
    start: tuple[float, float, float] | None = None,
) -> tuple[float, float]:
    """Find x in [lo, hi] with f(x) = 0, given f(lo) <= 0 <= f(hi), by Newton
    steps safeguarded by bisection (Numerical Recipes 9.4, ``rtsafe``).

    ``fdf(x)`` returns (f(x), f'(x)), and ``start`` is (x, f(x), f'(x)) at a
    point of [lo, hi] already evaluated; without it the search starts at
    ``hi``.  Where a Newton step would leave the bracket, would not halve
    the step before last, or cannot be taken (f infinite, f' zero or nan),
    the bracket is bisected instead.  Stops at the point a Newton step
    shorter than 1e-10 |x| reaches (quadratic convergence puts it within
    rounding of the root), at a zero of f, or where the next step would not
    move x.  Returns ``(root, f(root))``.
    """
    x, fx, dfx = start if start is not None else (hi, *fdf(hi))
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
