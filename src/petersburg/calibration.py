"""Disbelief-parameter calibration from the uncertainty level of a family.

The magnitude of the disbelief parameter is matched to the standard
deviation of the expected utility under the very distribution it induces,
|beta| = sigma(-|beta|).  For the coin-toss family (U_n = n, luce prior) the
self-consistency condition reduces to the closed transcendental equation

    sqrt(2) * |beta| * sinh(|beta|/2) = 1,

whose unique positive root is 1.1567...; the general route solves the fixed
point numerically through posterior moments.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import CalibrationError, DomainError, SolverError, TruncationError
from .lotteries import ExpectedUtilitySeq
from .posteriors import TruncationPolicy, global_mean, posterior
from .priors import PriorSpec
from .rootfind import bisect_root

_BRACKET_LO = 1e-6
_BRACKET_HI = 50.0


@dataclass(frozen=True)
class CalibrationResult:
    """Root of the calibration equation.

    ``residual`` is the defining equation's value at ``abs_beta``;
    ``method`` names the route taken.
    """

    abs_beta: float
    residual: float
    iterations: int
    method: str

    def __post_init__(self) -> None:
        if self.abs_beta <= 0.0:
            raise DomainError("calibrated |beta| must be positive")
        if not math.isfinite(self.residual):
            raise DomainError("calibration residual must be finite")


def bernoulli_variance_closed(abs_beta: float) -> float:
    """Closed-form variance of the index under probs proportional to
    n exp(-|beta| n): 1 / (2 sinh^2(|beta|/2))."""
    if abs_beta <= 0.0:
        raise DomainError(f"|beta| must be positive, got {abs_beta}")
    s = math.sinh(abs_beta / 2.0)
    return 1.0 / (2.0 * s * s)


def calibrate_bernoulli_disbelief() -> CalibrationResult:
    """Solve sqrt(2) |beta| sinh(|beta|/2) = 1 for the coin-toss family.

    The left side vanishes at 0+ and increases strictly, so the root is
    unique and bracketed analytically.
    """
    f = lambda b: math.sqrt(2.0) * b * math.sinh(b / 2.0) - 1.0
    root, iterations = bisect_root(f, _BRACKET_LO, _BRACKET_HI, xtol=1e-12)
    return CalibrationResult(
        abs_beta=root,
        residual=f(root),
        iterations=iterations,
        method="bisection+secant on sqrt(2)*b*sinh(b/2)-1",
    )


def _posterior_sigma(
    utilities: ExpectedUtilitySeq,
    prior: PriorSpec,
    b: float,
    policy: TruncationPolicy,
) -> float:
    dist = posterior(prior, utilities, -b, policy)
    mean = global_mean(dist)
    # a variance past binary64 counts as sigma = +inf, like a truncation failure
    with np.errstate(over="ignore", invalid="ignore"):
        var = float(np.dot(dist.probs, (dist.utilities - mean) ** 2))
    return math.sqrt(max(var, 0.0)) if math.isfinite(var) else math.inf


def calibrate_disbelief_general(
    utilities: ExpectedUtilitySeq,
    prior: PriorSpec,
    policy: TruncationPolicy | None = None,
) -> CalibrationResult:
    """Solve |beta| = sigma(-|beta|), the standard deviation of the expected
    utility under the induced distribution, as a root of f(b) = b - sigma(-b).

    Scans (1e-6, 50] for a sign change and bisects within it.  A truncation
    failure (the distribution too spread out to sum at that b) is treated as
    sigma = +inf, i.e. f < 0; the scan additionally caps the support probe so
    that hopeless small-b points fail fast, while the bisection inside the
    bracket uses the caller's policy.  Raises CalibrationError when no sign
    change exists, e.g. for a zero-variance family.
    """
    policy = policy if policy is not None else TruncationPolicy()
    scan_policy = TruncationPolicy(
        rel_tol=policy.rel_tol, max_index=min(policy.max_index, 20_000)
    )

    def f(b: float, pol: TruncationPolicy = policy) -> float:
        try:
            return b - _posterior_sigma(utilities, prior, b, pol)
        except TruncationError:
            return -math.inf

    grid = np.geomspace(_BRACKET_LO, _BRACKET_HI, 60)
    values = [f(float(b), scan_policy) for b in grid]
    brackets = [
        (float(grid[k]), float(grid[k + 1]))
        for k in range(len(grid) - 1)
        if values[k] <= 0.0 <= values[k + 1] and values[k + 1] > values[k]
    ]
    if not brackets:
        raise CalibrationError(
            f"b - sigma(-b) has no sign change on ({_BRACKET_LO}, {_BRACKET_HI}]"
        )
    if sum(v * w < 0.0 for v, w in zip(values, values[1:])) > 1:
        warnings.warn(
            "multiple calibration roots detected; returning the smallest",
            stacklevel=2,
        )

    lo, hi = brackets[0]
    try:
        root, iterations = bisect_root(f, lo, hi, xtol=1e-12)
    except SolverError as exc:
        raise CalibrationError(
            f"sign change of b - sigma(-b) seen on [{lo:.4g}, {hi:.4g}] under "
            "the capped scan did not persist under the full policy; this "
            "family's uncertainty is not resolvable at the requested "
            "truncation tolerance"
        ) from exc
    residual = f(root)
    if not math.isfinite(residual) or abs(residual) > 1e-8:
        # the "sign change" sat on a computability boundary (sigma jumping
        # from unresolvable to resolvable), not on a true fixed point
        raise CalibrationError(
            f"b - sigma(-b) is {residual} at the located point {root:.6g}; "
            "no self-consistent root is resolvable under this policy"
        )
    return CalibrationResult(
        abs_beta=root,
        residual=residual,
        iterations=iterations + len(grid),
        method="bisection+secant on b-sigma(-b)",
    )
