"""Trial prior families over lotteries and their continuous optima.

Each family assigns an unnormalized weight to a lottery as a function of its
expected utility U:

  luce    U for U >= 0, and 1/|U| for U < 0
  power   U**alpha                      (alpha > 0, U >= 0)
  log     ln(1 + U/U0)                  (U0 > 0, U >= 0)
  logit   exp(V(U)), V(U) = b*U**gamma + c   (b > 0, 0 < gamma < 1, U >= 0)

Combined with a disbelief factor exp(beta*U), beta < 0, each family has a
unique interior maximizer in U, returned by ``continuous_optimum``.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SolverError
from .rootfind import bisect_root


@dataclass(frozen=True)
class PriorSpec:
    """Descriptor of a prior-weight family.  Build via the classmethods."""

    kind: str
    alpha: float | None = None
    u0: float | None = None
    b: float | None = None
    c: float | None = None
    gamma: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("luce", "power", "log", "logit"):
            raise DomainError(f"unknown prior kind {self.kind!r}")
        if self.kind == "power" and (self.alpha is None or self.alpha <= 0.0):
            raise DomainError("power prior needs alpha > 0")
        if self.kind == "log" and (self.u0 is None or self.u0 <= 0.0):
            raise DomainError("log prior needs u0 > 0")
        if self.kind == "logit":
            if self.b is None or self.b <= 0.0:
                raise DomainError("logit prior needs b > 0")
            if self.gamma is None or not 0.0 < self.gamma < 1.0:
                raise DomainError("logit prior needs gamma in (0, 1)")
            if self.c is None:
                object.__setattr__(self, "c", 0.0)

    @classmethod
    def luce(cls) -> "PriorSpec":
        return cls("luce")

    @classmethod
    def power(cls, alpha: float) -> "PriorSpec":
        return cls("power", alpha=alpha)

    @classmethod
    def log_shape(cls, u0: float = 1.0) -> "PriorSpec":
        return cls("log", u0=u0)

    @classmethod
    def logit(cls, b: float, c: float = 0.0, gamma: float = 0.5) -> "PriorSpec":
        return cls("logit", b=b, c=c, gamma=gamma)

    @classmethod
    def from_json(cls, doc: dict) -> "PriorSpec":
        kind = doc["kind"]
        if kind == "luce":
            return cls.luce()
        if kind == "power":
            return cls.power(float(doc["alpha"]))
        if kind == "log":
            return cls.log_shape(float(doc.get("u0", 1.0)))
        if kind == "logit":
            return cls.logit(
                float(doc["b"]), float(doc.get("c", 0.0)), float(doc["gamma"])
            )
        raise DomainError(f"unknown prior kind {kind!r}")


def attribute_weight(prior: PriorSpec, u: float) -> float:
    """Unnormalized prior weight of a lottery with expected utility ``u``.

    Strictly increasing in u on u > 0 for every family.  The luce family is
    discontinuous across u = 0: the weight grows without bound as u -> 0-
    but vanishes as u -> 0+; exactly u = 0 takes the identity branch and
    weighs 0.
    """
    if prior.kind == "luce":
        return u if u >= 0.0 else 1.0 / abs(u)
    if u < 0.0:
        raise DomainError(
            f"{prior.kind} prior is defined for nonnegative utilities, got {u}"
        )
    if prior.kind == "power":
        return u ** prior.alpha
    if prior.kind == "log":
        return math.log1p(u / prior.u0)
    return math.exp(prior.b * u ** prior.gamma + prior.c)


def log_attribute_weight(prior: PriorSpec, u: float) -> float:
    """ln(attribute_weight); -inf where the weight is 0.  Used by the
    posterior machinery so that exp(beta*U) never under- or overflows."""
    if prior.kind == "luce":
        if u > 0.0:
            return math.log(u)
        if u < 0.0:
            return -math.log(abs(u))
        return -math.inf
    if u < 0.0:
        raise DomainError(
            f"{prior.kind} prior is defined for nonnegative utilities, got {u}"
        )
    if prior.kind == "power":
        return prior.alpha * math.log(u) if u > 0.0 else -math.inf
    if prior.kind == "log":
        w = math.log1p(u / prior.u0)
        return math.log(w) if w > 0.0 else -math.inf
    return prior.b * u ** prior.gamma + prior.c


def log_attribute_weights(prior: PriorSpec, u: np.ndarray) -> np.ndarray:
    """``log_attribute_weight`` over an array of utilities, elementwise.

    Raises DomainError for a negative utility under any family but luce.
    """
    lowest = np.minimum.reduce(u, initial=math.inf)
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


def _second_order_ok(prior: PriorSpec, x: float, beta: float) -> bool:
    """Numerical check that x is a maximum of weight(u)*exp(beta*u):
    phi''(x) - beta^2 phi(x) < 0 via central differences (logit: V''(x) < 0)."""
    h = min(max(1e-5, 1e-5 * abs(x)), 0.5 * x)  # keep x - h inside u > 0
    if prior.kind == "logit":
        v = lambda u: prior.b * u ** prior.gamma + prior.c
        second = (v(x + h) - 2.0 * v(x) + v(x - h)) / (h * h)
        return second < 0.0
    phi = lambda u: attribute_weight(prior, u)
    second = (phi(x + h) - 2.0 * phi(x) + phi(x - h)) / (h * h)
    return second - beta * beta * phi(x) < 0.0


def continuous_optimum(prior: PriorSpec, beta: float) -> float:
    """Continuous-utility maximizer of attribute_weight(U) * exp(beta*U).

    Closed forms: luce -> 1/|beta|; power(alpha) -> alpha/|beta|;
    logit(b, c, gamma) -> (b*gamma/|beta|)**(1/(1-gamma)).  The log family
    solves (1+x) ln(1+x) = 1/(|beta|*U0) for x = U/U0 by bisection and
    returns U0*x.
    """
    if beta >= 0.0:
        raise DomainError(f"continuous optimum requires beta < 0, got {beta}")
    abs_beta = abs(beta)
    if prior.kind == "luce":
        x_opt = 1.0 / abs_beta
    elif prior.kind == "power":
        x_opt = prior.alpha / abs_beta
    elif prior.kind == "logit":
        x_opt = (prior.b * prior.gamma / abs_beta) ** (1.0 / (1.0 - prior.gamma))
    else:
        target = 1.0 / (abs_beta * prior.u0)
        hi = max(10.0, math.exp(target))
        x_star, _ = bisect_root(
            lambda x: (1.0 + x) * math.log1p(x) - target, 0.0, hi, xtol=1e-14
        )
        x_opt = prior.u0 * x_star
    if not _second_order_ok(prior, x_opt, beta):
        raise SolverError(
            f"stationary point {x_opt} of {prior.kind} prior is not a maximum"
        )
    return x_opt


def pair_probabilities(
    prior: PriorSpec, u_first: float, u_second: float, beta: float
) -> tuple[float, float]:
    """Choice probabilities over exactly two alternatives, proportional to
    attribute_weight(U) * exp(beta*U), computed stably in the log domain."""
    lw1 = log_attribute_weight(prior, u_first) + beta * u_first
    lw2 = log_attribute_weight(prior, u_second) + beta * u_second
    m = max(lw1, lw2)
    w1 = math.exp(lw1 - m)
    w2 = math.exp(lw2 - m)
    total = w1 + w2
    return w1 / total, w2 / total
