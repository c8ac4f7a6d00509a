"""Lotteries, utility functions, and expected-utility sequences.

A lottery is a finite list of (payoff, probability) outcomes plus a residual
zero-payoff branch; the coin-toss family pays 2^m with probability 2^-m for
m = 1..n and keeps the leftover 2^-n on the losing branch.

An ``ExpectedUtilitySeq`` holds the expected utilities U_n of a family as an
array function, read in blocks; whether U_n is bounded is declared with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, check_positive_index

PROB_TOL = 1e-12
_LN2 = math.log(2.0)


@dataclass(frozen=True)
class Lottery:
    """A finite gamble: explicit (payoff, probability) outcomes plus a
    residual probability of winning nothing.

    Outcome probabilities and the residual must be nonnegative and sum to 1
    within PROB_TOL.
    """

    outcomes: tuple[tuple[float, float], ...]
    residual_probability: float = 0.0

    def __post_init__(self) -> None:
        total = self.residual_probability
        if self.residual_probability < 0.0:
            raise DomainError("residual probability must be nonnegative")
        for payoff, prob in self.outcomes:
            if prob < 0.0:
                raise DomainError(f"negative outcome probability {prob}")
            total += prob
        if abs(total - 1.0) > PROB_TOL:
            raise DomainError(f"probabilities sum to {total}, expected 1")

    @classmethod
    def from_json(cls, doc: dict) -> "Lottery":
        outcomes = tuple(
            (float(o["payoff"]), float(o["prob"])) for o in doc["outcomes"]
        )
        return cls(outcomes, float(doc.get("residual", 0.0)))


@dataclass(frozen=True)
class UtilitySpec:
    """Descriptor of a utility function applied to lottery payoffs.

    Kinds:
      linear       u(x) = x
      logarithmic  u(x) = ln x            (payoffs must be positive)
      power        u(x) = x**exponent     (exponent > 0)
      geometric    u(x_m) = base**m       (applied by 1-based outcome index)
    """

    kind: str
    exponent: float | None = None
    base: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("linear", "logarithmic", "power", "geometric"):
            raise DomainError(f"unknown utility kind {self.kind!r}")
        if self.kind == "power" and (self.exponent is None or self.exponent <= 0.0):
            raise DomainError("power utility needs a positive exponent")
        if self.kind == "geometric" and (self.base is None or self.base <= 0.0):
            raise DomainError("geometric utility needs a positive base")

    @classmethod
    def linear(cls) -> "UtilitySpec":
        return cls("linear")

    @classmethod
    def logarithmic(cls) -> "UtilitySpec":
        return cls("logarithmic")

    @classmethod
    def power(cls, exponent: float) -> "UtilitySpec":
        return cls("power", exponent=exponent)

    @classmethod
    def geometric(cls, base: float) -> "UtilitySpec":
        return cls("geometric", base=base)

    def value(self, payoff: float, index: int = 1) -> float:
        """Utility of one outcome; ``index`` is its 1-based position.

        Raises DomainError where the utility is undefined or overflows."""
        if self.kind == "linear":
            return payoff
        if self.kind == "logarithmic":
            if payoff <= 0.0:
                raise DomainError(f"logarithmic utility undefined for payoff {payoff}")
            return math.log(payoff)
        if self.kind == "power" and payoff < 0.0:
            raise DomainError(f"power utility undefined for payoff {payoff}")
        try:
            if self.kind == "power":
                return payoff ** self.exponent
            return self.base ** index
        except OverflowError:
            raise DomainError(
                f"{self.kind} utility of payoff {payoff} (outcome {index}) "
                "overflows binary64"
            ) from None

    @classmethod
    def from_json(cls, doc: dict) -> "UtilitySpec":
        return cls(doc["kind"], exponent=doc.get("exponent"), base=doc.get("base"))


def expected_utility(lottery: Lottery, utility: UtilitySpec) -> float:
    """Sum of u(x_m) * p_m over the explicit outcomes.

    The residual zero-payoff branch contributes u(0) * residual when u(0) is
    finite (linear and power utilities, where it is 0) and is excluded
    otherwise: under logarithmic utility a lottery with a residual branch
    has the expected utility of its winning outcomes alone.
    """
    total = 0.0
    for m, (payoff, prob) in enumerate(lottery.outcomes, start=1):
        total += utility.value(payoff, m) * prob
    return total


def geometric_expected_utility(n: float | np.ndarray, *, log_ratio: float) -> float | np.ndarray:
    """U_n = sum_{m<=n} rho^m for an index n or an array of them, with
    rho = exp(log_ratio): the n-toss game's expected utility under a utility
    whose terms u(2^m) 2^-m are rho^m, that is rho = 1 under linear utility,
    2^(e-1) under power e and x/2 under geometric base x.

    Written rho expm1(n ln rho) / expm1(ln rho), which keeps its relative
    accuracy as rho -> 1; a value past binary64 is inf, with no warning.
    """
    if log_ratio == 0.0:
        return np.multiply(n, 1.0)
    with np.errstate(over="ignore"):
        return np.expm1(np.multiply(n, log_ratio)) / math.expm1(log_ratio) * math.exp(log_ratio)


@dataclass(frozen=True)
class GameFamily:
    """An indexed set of lotteries: the coin-toss family when ``lotteries``
    is None, otherwise the finite list of a custom family."""

    lotteries: tuple[Lottery, ...] | None = None

    @classmethod
    def bernoulli(cls) -> "GameFamily":
        return cls()

    @classmethod
    def custom(cls, lotteries: Sequence[Lottery]) -> "GameFamily":
        if not lotteries:
            raise DomainError("custom family needs at least one lottery")
        return cls(tuple(lotteries))

    @classmethod
    def from_json(cls, doc: dict) -> "GameFamily":
        if doc.get("family") == "bernoulli":
            return cls.bernoulli()
        if doc.get("family") == "custom":
            return cls.custom([Lottery.from_json(d) for d in doc["lotteries"]])
        raise DomainError(f"unknown family document {doc!r}")


class ExpectedUtilitySeq:
    """Expected utilities U_n, indexed from 1, read in blocks by ``values``.

    ``fn`` maps a float array of indices to their values in one call.  The
    sequence ends before its first non-finite value, so a family that cannot
    go further returns nan or inf there.  A finite sequence (``size`` given)
    is evaluated and checked once, here, into one read-only array.

    The rest is declared, never inferred from values: ``unbounded`` that U_n
    grows without bound, so that only beta < 0 can normalize a posterior
    (always False for a finite sequence), and ``identity`` that U_n = n for
    every n, which licenses the posterior's certified tail bounds.
    ``luce_moments``, when given, maps beta to the mean, variance and third
    central moment of U_n under the luce posterior (weights U_n exp(beta
    U_n)) over the whole support, so that ``posterior_moments`` need not sum.
    """

    def __init__(
        self,
        fn: Callable[[np.ndarray], np.ndarray],
        *,
        size: int | None = None,
        unbounded: bool = True,
        identity: bool = False,
        luce_moments: Callable[[float], tuple[float, float, float]] | None = None,
    ) -> None:
        self.size = size
        self.unbounded = unbounded and size is None
        self.identity = identity
        self.luce_moments = luce_moments
        self._fn = fn
        self._array = None
        if size is not None:
            check_positive_index(size, "size")
            self._array = np.array(fn(np.arange(1.0, size + 1.0)), dtype=float)
            bad = np.flatnonzero(~np.isfinite(self._array))
            if bad.size:
                raise DomainError(f"expected utility at index {bad[0] + 1} is not finite")
            self._array.flags.writeable = False

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "ExpectedUtilitySeq":
        stored = np.array(values, dtype=float)
        if stored.ndim != 1 or not stored.size:
            raise DomainError("utility sequence needs at least one value")
        # a finite sequence is evaluated once, on indices 1..size
        return cls(lambda n: stored, size=stored.size)

    @classmethod
    def from_family(cls, family: GameFamily, utility: UtilitySpec) -> "ExpectedUtilitySeq":
        """U_n of each lottery of the family under ``utility``, in closed form
        for the coin toss.  A bounded coin-toss family raises DomainError:
        no beta normalizes its posterior."""
        if family.lotteries is not None:
            return cls.from_values(
                [expected_utility(lot, utility) for lot in family.lotteries]
            )
        # U_n sums the terms u(2^m) 2^-m, which are rho^m but under log
        log_ratio = (
            0.0 if utility.kind == "linear"
            else (utility.exponent - 1.0) * _LN2 if utility.kind == "power"
            else math.log(utility.base / 2.0) if utility.kind == "geometric"
            else -math.inf
        )
        if log_ratio < 0.0:
            limit = 2.0 * _LN2 if utility.kind == "logarithmic" else 1.0 / math.expm1(-log_ratio)
            raise DomainError(
                f"{utility.kind} utility bounds the coin-toss expected utilities "
                f"(U_n -> {limit:.12g}): their posterior weights tend to a "
                "positive constant, and no beta normalizes them"
            )
        if log_ratio == 0.0:
            return bernoulli_utilities()
        return cls(lambda n: geometric_expected_utility(n, log_ratio=log_ratio))

    @property
    def finite(self) -> bool:
        return self.size is not None

    def values(self, lo: int, hi: int) -> np.ndarray:
        """U_n for lo <= n < hi as a float array.

        The result stops short where the sequence ends: past a finite
        sequence's size, or before the first non-finite value.  Raises
        DomainError when U_lo itself is missing.
        """
        check_positive_index(lo, "lo")
        if self._array is None:
            u = self._fn(np.arange(lo, hi, dtype=float))
            # one count per block; the first bad index only on failure
            finite = np.isfinite(u)
            if np.count_nonzero(finite) < len(u):
                u = u[: finite.argmin()]
        else:
            u = self._array[lo - 1 : hi - 1]
        if len(u) or hi <= lo:
            return u
        raise DomainError(f"the sequence ends before index {lo}")


def _bernoulli_luce_moments(beta: float) -> tuple[float, float, float]:
    """Mean, variance and third central moment of n under the weights
    n exp(beta n) over all n >= 1: with r = e^beta, (1+r)/(1-r), 2r/(1-r)^2
    and 2r(1+r)/(1-r)^3.  Each division by 1 - r = -expm1(beta) is taken
    alone, so that as beta -> 0- the moments overflow to inf, never to a
    zero divisor."""
    r, one_minus_r = math.exp(beta), -math.expm1(beta)
    var = 2.0 * r / one_minus_r / one_minus_r
    return (1.0 + r) / one_minus_r, var, var * (1.0 + r) / one_minus_r


def bernoulli_utilities() -> ExpectedUtilitySeq:
    """U_n = n: the coin-toss family under linear utility, in closed form,
    with its luce moments declared.

    Evaluating the lottery sum would overflow binary64 payoffs past index
    1023; the closed form is exact for every index.
    """
    return ExpectedUtilitySeq(lambda n: n, identity=True, luce_moments=_bernoulli_luce_moments)
