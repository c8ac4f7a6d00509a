"""Disbelief-parameter calibration from the uncertainty level of a family.

The magnitude of the disbelief parameter is matched to the standard
deviation of the expected utility under the very distribution it induces,
|beta| = sigma(-|beta|), solved by safeguarded Newton steps on posterior
moments.  For the coin-toss family (U_n = n, luce prior) the moments are
closed and the condition reads sqrt(2) |beta| sinh(|beta|/2) = 1, whose
unique positive root is 1.15686...
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import CalibrationError, DomainError, TruncationError
from .lotteries import ExpectedUtilitySeq, bernoulli_utilities
from .posteriors import TruncationPolicy, has_declared_moments, posterior_moments
# held by name only: perfbench/tests/test_perfbench.py checks that its tracer
# patches ``posterior`` in every module holding it, this one included
from .posteriors import posterior  # noqa: F401
from .priors import PriorSpec
from .rootfind import rtsafe

_BRACKET_LO = 1e-6
_BRACKET_HI = 50.0
_GRID_MAX_INDEX = 20_000


@dataclass(frozen=True)
class CalibrationResult:
    """Root of the calibration equation.

    ``residual`` is the defining equation's value at ``abs_beta``;
    ``evaluations`` counts its evaluations, the bracket search included;
    ``bracket`` is the sign change the root was refined in; ``method``
    names the route taken.
    """

    abs_beta: float
    residual: float
    evaluations: int
    bracket: tuple[float, float]
    method: str

    def __post_init__(self) -> None:
        if self.abs_beta <= 0.0:
            raise DomainError("calibrated |beta| must be positive")
        if not math.isfinite(self.residual):
            raise DomainError("calibration residual must be finite")


def calibrate_bernoulli_disbelief() -> CalibrationResult:
    """The calibration of the coin-toss family under the luce prior, on its
    declared closed moments."""
    return calibrate_disbelief_general(bernoulli_utilities(), PriorSpec.luce())


def _f_df(b: float, var: float, kappa3: float) -> tuple[float, float]:
    """f(b) = b - sigma and f'(b) = 1 + kappa3/(2 sigma) from the moments
    at beta = -b; a variance past binary64 counts as sigma = +inf."""
    sigma = math.sqrt(max(var, 0.0)) if math.isfinite(var) else math.inf
    return b - sigma, 1.0 + kappa3 / (2.0 * sigma) if sigma else math.nan


def calibrate_disbelief_general(
    utilities: ExpectedUtilitySeq,
    prior: PriorSpec,
    policy: TruncationPolicy | None = None,
) -> CalibrationResult:
    """Solve |beta| = sigma(-|beta|), the standard deviation of the expected
    utility under the induced distribution, as the smallest root of
    f(b) = b - sigma(-b) on (1e-6, 50].

    Each evaluation is one ``posterior_moments`` pass, which gives f and
    f'(b) = 1 + kappa3/(2 sigma) together, so the root is refined by
    ``rtsafe``.  A truncation failure (the distribution too spread out to
    sum at that b) counts as f = -inf.  The bracket comes from what the
    sequence declares:

    - U_n = n, or moments declared for this prior: f increases, so the
      bracket is found by stepping x4 or /4 from b = 1;
    - any other sequence: the first sign change of f on a 60-point
      geometric grid, with a warning when there are several.  On an
      infinite sequence the grid caps the support at 20,000 terms, so that
      hopeless small-b points fail fast; the refinement uses ``policy``.

    Raises CalibrationError when there is no sign change, e.g. for a
    zero-variance family, or when f jumps across 0 without a root there
    (where the truncation starts to succeed, or where a sign change seen
    under the capped grid does not hold under ``policy``).
    """
    policy = policy if policy is not None else TruncationPolicy()
    evaluations = 0

    def fdf(b: float, pol: TruncationPolicy = policy) -> tuple[float, float]:
        nonlocal evaluations
        evaluations += 1
        try:
            _, var, kappa3 = posterior_moments(prior, utilities, -b, pol)
        except TruncationError:
            return -math.inf, math.nan
        return _f_df(b, var, kappa3)

    if utilities.identity or has_declared_moments(prior, utilities):
        lo, hi, start = _stepped_bracket(fdf)
        how = "stepped x4 from b=1"
    else:
        grid_policy = TruncationPolicy(
            rel_tol=policy.rel_tol, max_index=min(policy.max_index, _GRID_MAX_INDEX)
        )
        grid = np.geomspace(_BRACKET_LO, _BRACKET_HI, 60).tolist()
        lo, hi, start = _grid_bracket([(b, *fdf(b, grid_policy)) for b in grid])
        how = "from a 60-point grid"
    root, residual = rtsafe(fdf, lo, hi, start)
    if not abs(residual) <= 1e-8:
        raise CalibrationError(
            f"b - sigma(-b) is {residual} at the located point {root:.6g}; "
            "no self-consistent root is resolvable under this policy"
        )
    return CalibrationResult(
        abs_beta=root,
        residual=residual,
        evaluations=evaluations,
        bracket=(lo, hi),
        method=f"rtsafe on b-sigma(-b) in a bracket {how}",
    )


def _stepped_bracket(fdf) -> tuple[float, float, tuple[float, float, float]]:
    """A sign change of an increasing f: from b = 1, steps x4 while f < 0,
    or /4 while f > 0, within (1e-6, 50].  Returns (lo, hi, start), start
    the end with the smaller |f|, as (b, f, f')."""
    prev = point = (1.0, *fdf(1.0))
    up = point[1] < 0.0
    while point[1] != 0.0 and (point[1] < 0.0) == up:
        b = min(4.0 * point[0], _BRACKET_HI) if up else max(point[0] / 4.0, _BRACKET_LO)
        if b == point[0]:
            raise CalibrationError(
                f"b - sigma(-b) has no sign change on ({_BRACKET_LO}, {_BRACKET_HI}]"
            )
        prev, point = point, (b, *fdf(b))
    lo, hi = sorted((prev[0], point[0]))
    return lo, hi, min(prev, point, key=lambda p: abs(p[1]))


def _grid_bracket(points) -> tuple[float, float, tuple[float, float, float]]:
    """The first sign change of f over the grid's (b, f, f') points, and
    the end with the smaller |f|; warns when f changes sign more than once."""
    values = [p[1] for p in points]
    brackets = [
        k for k in range(len(points) - 1)
        if values[k] <= 0.0 <= values[k + 1] and values[k + 1] > values[k]
    ]
    if not brackets:
        raise CalibrationError(
            f"b - sigma(-b) has no sign change on ({_BRACKET_LO}, {_BRACKET_HI}]"
        )
    if sum(v * w < 0.0 for v, w in zip(values, values[1:])) > 1:
        warnings.warn(
            "multiple calibration roots detected; returning the smallest",
            stacklevel=3,
        )
    k = brackets[0]
    return points[k][0], points[k + 1][0], min(points[k], points[k + 1], key=lambda p: abs(p[1]))
