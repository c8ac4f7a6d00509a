"""Scalar root finding: bracketed bisection with a final secant polish.

Bisection is deliberately preferred over faster methods: every equation
solved in this package is continuous and strictly monotone on its bracket,
so bisection converges unconditionally and reproducibly.
"""

from __future__ import annotations

from typing import Callable

from .errors import SolverError

_MAX_ITER = 200


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
