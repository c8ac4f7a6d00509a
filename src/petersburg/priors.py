"""Trial prior families over lotteries and their continuous optima.

Each family assigns an unnormalized weight to a lottery as a function of its
expected utility U:

  luce    U for U >= 0, and 1/|U| for U < 0
  power   U**alpha                      (alpha > 0, U >= 0)
  log     ln(1 + U/U0)                  (U0 > 0, U >= 0)
  logit   exp(V(U)), V(U) = b*U**gamma + c   (b > 0, 0 < gamma < 1, U >= 0)

Combined with a disbelief factor exp(beta*U), beta < 0, each family has a
unique interior maximizer in U, returned by ``continuous_optimum``: each log
weight is concave on U > 0 (ln U, alpha ln U, ln ln(1 + U/U0), b U**gamma + c),
so the stationary point of log weight + beta*U is its maximum; the
posterior's ``majorant`` tail certificate rests on the same fact.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SignError
from .rootfind import bisect_root


# the parameters each kind reads, with their defaults (None: required); it
# takes no other
_PARAMETERS = {
    "luce": {},
    "power": {"alpha": None},
    "log": {"u0": 1.0},
    "logit": {"b": None, "c": 0.0, "gamma": 0.5},
}
PRIOR_KINDS = tuple(_PARAMETERS)


@dataclass(frozen=True)
class PriorSpec:
    """Descriptor of a prior-weight family of one of PRIOR_KINDS.  Power needs
    ``alpha`` and logit ``b``; a parameter left None takes its default,
    ``u0`` = 1 for log, and ``c`` = 0 and ``gamma`` = 0.5 for logit.  A
    parameter the kind does not read must be left None."""

    kind: str
    alpha: float | None = None
    u0: float | None = None
    b: float | None = None
    c: float | None = None
    gamma: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in PRIOR_KINDS:
            raise DomainError(f"unknown prior kind {self.kind!r}")
        reads = _PARAMETERS[self.kind]
        for name in ("alpha", "u0", "b", "c", "gamma"):
            if getattr(self, name) is None:
                object.__setattr__(self, name, reads.get(name))
            elif name not in reads:
                raise DomainError(f"{self.kind} prior takes no {name}")
        if self.kind == "power" and (self.alpha is None or self.alpha <= 0.0):
            raise DomainError("power prior needs alpha > 0")
        if self.kind == "log" and self.u0 <= 0.0:
            raise DomainError("log prior needs u0 > 0")
        if self.kind == "logit":
            if self.b is None or self.b <= 0.0:
                raise DomainError("logit prior needs b > 0")
            if not 0.0 < self.gamma < 1.0:
                raise DomainError("logit prior needs gamma in (0, 1)")


def log_attribute_weights(prior: PriorSpec, u: np.ndarray) -> np.ndarray:
    """ln of the unnormalized prior weight of each utility in ``u``, by the
    laws in the module docstring; -inf where the weight is 0.  The posterior
    machinery works with these logs so that exp(beta*U) never under- or
    overflows.

    Each weight is strictly increasing in u on u > 0.  The luce family is
    discontinuous across u = 0: the weight grows without bound as u -> 0-
    but vanishes as u -> 0+; exactly u = 0 takes the identity branch and
    weighs 0.  Raises DomainError for a negative utility under any family
    but luce.
    """
    lowest = np.minimum.reduce(u, axis=None, initial=math.inf)
    if prior.kind != "luce" and lowest < 0.0:
        raise DomainError(
            f"{prior.kind} prior is defined for nonnegative utilities, "
            f"got {lowest}"
        )
    if prior.kind == "logit":
        return prior.b * u ** prior.gamma + prior.c
    # a zero utility weighs 0, so ln 0 = -inf is intended, not a warning
    with np.errstate(divide="ignore") if lowest <= 0.0 else nullcontext():
        if prior.kind == "luce" and lowest < 0.0:
            la = np.log(np.abs(u))
            return np.where(u < 0.0, -la, la)
        if prior.kind == "luce":
            return np.log(u)
        if prior.kind == "power":
            return prior.alpha * np.log(u)
        return np.log(np.log1p(u / prior.u0))


def continuous_optimum(prior: PriorSpec, beta: float) -> float:
    """Continuous-utility maximizer of the prior weight times exp(beta*U).

    Closed forms: luce -> 1/|beta|; power(alpha) -> alpha/|beta|;
    logit(b, c, gamma) -> (b*gamma/|beta|)**(1/(1-gamma)).  The log family
    solves y e^y = 1/(|beta|*U0), y = ln(1 + U/U0), by Newton steps on
    f' = (1 + y) e^y from y = ln(1 + 1/(|beta|*U0)), and returns
    U0*expm1(y).  A nonnegative beta is a SignError, and an optimum that is
    0 or not finite a DomainError.
    """
    if beta >= 0.0:
        raise SignError(f"continuous optimum requires beta < 0, got {beta}")
    abs_beta = abs(beta)
    if prior.kind == "luce":
        x_opt = 1.0 / abs_beta
    elif prior.kind == "power":
        x_opt = prior.alpha / abs_beta
    elif prior.kind == "logit":
        try:
            x_opt = (prior.b * prior.gamma / abs_beta) ** (1.0 / (1.0 - prior.gamma))
        except OverflowError:
            x_opt = math.inf
    else:
        # where |beta| U0 underflows to 0 the target, and so the root, is +inf
        target = 1.0 / (abs_beta * prior.u0) if abs_beta * prior.u0 > 0.0 else math.inf

        def fdf(y: float) -> tuple[float, float]:
            e = math.exp(y)
            return y * e - target, (1.0 + y) * e

        y, _ = bisect_root(fdf, 0.0, math.log1p(target))
        x_opt = prior.u0 * math.expm1(y)
    if not 0.0 < x_opt < math.inf:
        raise DomainError(f"{prior.kind} optimum is {x_opt} in binary64 at beta = {beta}")
    return x_opt


def pair_probabilities(
    prior: PriorSpec, u_first, u_second, beta: float
) -> tuple[np.ndarray, np.ndarray]:
    """Choice probabilities over exactly two alternatives, proportional to
    the prior weight times exp(beta*U), computed stably in the log domain;
    elementwise over arrays of pairs.  A pair whose larger log weight is not
    finite is a DomainError."""
    u = np.array([u_first, u_second], dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        lw = log_attribute_weights(prior, u) + beta * u
        top = np.maximum(lw[0], lw[1])
        if not np.isfinite(top).all():
            raise DomainError(f"pair weights leave binary64 at beta = {beta}")
        w = np.exp(lw - top)
    return tuple(w / (w[0] + w[1]))
