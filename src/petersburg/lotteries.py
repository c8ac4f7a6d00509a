"""Lotteries, utility functions, and expected-utility sequences.

A lottery is a finite list of (payoff, probability) outcomes plus a residual
zero-payoff branch; the coin-toss family pays 2^m with probability 2^-m for
m = 1..n and keeps the leftover 2^-n on the losing branch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, check_positive_index

PROB_TOL = 1e-12

# float(2**m) is exact for m <= 52 and representable up to m = 1023; beyond
# that the payoff itself overflows binary64.
MAX_TOSS_INDEX = 1023


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

    @property
    def probabilities(self) -> tuple[float, ...]:
        return tuple(p for _, p in self.outcomes)

    def to_json(self) -> dict:
        return {
            "outcomes": [{"payoff": x, "prob": p} for x, p in self.outcomes],
            "residual": self.residual_probability,
        }

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
        if self.kind == "power":
            if self.exponent is None or self.exponent <= 0.0:
                raise DomainError("power utility needs a positive exponent")
        if self.kind == "geometric":
            if self.base is None or self.base <= 0.0:
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
        """Utility of one outcome; ``index`` is its 1-based position."""
        if self.kind == "linear":
            return payoff
        if self.kind == "logarithmic":
            if payoff <= 0.0:
                raise DomainError(
                    f"logarithmic utility undefined for payoff {payoff}"
                )
            return math.log(payoff)
        if self.kind == "power":
            if payoff < 0.0:
                raise DomainError(f"power utility undefined for payoff {payoff}")
            return payoff ** self.exponent
        return self.base ** index

    def to_json(self) -> dict:
        doc: dict = {"kind": self.kind}
        if self.exponent is not None:
            doc["exponent"] = self.exponent
        if self.base is not None:
            doc["base"] = self.base
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "UtilitySpec":
        return cls(
            doc["kind"],
            exponent=doc.get("exponent"),
            base=doc.get("base"),
        )


def bernoulli_lottery(n: int) -> Lottery:
    """The n-toss coin game: pays 2^m with probability 2^-m for m = 1..n,
    and nothing with the residual probability 2^-n."""
    check_positive_index(n, "n")
    if n > MAX_TOSS_INDEX:
        raise DomainError(
            f"payoff 2^{n} exceeds binary64 range (max index {MAX_TOSS_INDEX})"
        )
    outcomes = tuple((float(2 ** m), math.ldexp(1.0, -m)) for m in range(1, n + 1))
    return Lottery(outcomes, residual_probability=math.ldexp(1.0, -n))


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
    # Residual branch: linear/power have u(0) = 0, geometric weighs only the
    # indexed winning branches, and logarithmic (ln 0 undefined) is excluded,
    # so no kind adds mass here.
    return total


def geometric_expected_utility(n: int, x: float) -> tuple[float, bool]:
    """Expected utility of the n-toss game under u(x_m) = x^m:
    x (2^n - x^n) / (2^n (2 - x)), with the x = 2 special case equal to n.

    Returns (value, convergent) where ``convergent`` is True iff the sequence
    has a finite limit as n grows, i.e. iff x < 2.
    """
    check_positive_index(n, "n")
    if x <= 0.0:
        raise DomainError(f"geometric base must be positive, got {x}")
    if x == 2.0:
        return float(n), False
    value = x * (2.0 ** n - x ** n) / (2.0 ** n * (2.0 - x))
    return value, x < 2.0


@dataclass(frozen=True)
class GameFamily:
    """An indexed set of lotteries, generated lazily per index.

    ``size`` is None for unbounded families.  ``lotteries`` holds the
    explicit list for custom families (used for serialization).
    """

    generator: Callable[[int], Lottery]
    label: str
    size: int | None = None
    lotteries: tuple[Lottery, ...] | None = field(default=None, repr=False)

    @classmethod
    def bernoulli(cls) -> "GameFamily":
        return cls(bernoulli_lottery, label="bernoulli")

    @classmethod
    def custom(cls, lotteries: Sequence[Lottery], label: str = "custom") -> "GameFamily":
        if not lotteries:
            raise DomainError("custom family needs at least one lottery")
        stored = tuple(lotteries)

        def gen(n: int) -> Lottery:
            if n < 1 or n > len(stored):
                raise DomainError(f"index {n} outside family of {len(stored)}")
            return stored[n - 1]

        return cls(gen, label=label, size=len(stored), lotteries=stored)

    def lottery(self, n: int) -> Lottery:
        check_positive_index(n, "n")
        return self.generator(n)

    def to_json(self) -> dict:
        if self.label == "bernoulli":
            return {"family": "bernoulli"}
        if self.lotteries is None:
            raise DomainError(
                "only bernoulli or custom families are serializable"
            )
        return {
            "family": "custom",
            "lotteries": [l.to_json() for l in self.lotteries],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "GameFamily":
        if doc.get("family") == "bernoulli":
            return cls.bernoulli()
        if doc.get("family") == "custom":
            return cls.custom([Lottery.from_json(d) for d in doc["lotteries"]])
        raise DomainError(f"unknown family document {doc!r}")


class ExpectedUtilitySeq:
    """Expected utilities U_n, indexed from 1, backed by a function or a
    finite list.  Evaluations are cached.

    ``unbounded`` may be declared by the constructor; when left None it is
    probed heuristically (strict growth across geometrically spaced indices).
    ``array_fn`` optionally maps a float array of indices to their values in
    one call, for ``values``.  ``identity`` declares U_n = n for every n, the
    declaration that licenses the posterior's certified tail bounds.
    """

    def __init__(
        self,
        fn: Callable[[int], float],
        *,
        size: int | None = None,
        unbounded: bool | None = None,
        label: str = "",
        array_fn: Callable[[np.ndarray], np.ndarray] | None = None,
        identity: bool = False,
    ) -> None:
        self._fn = fn
        self.size = size
        self.label = label
        self.identity = identity
        self._array_fn = array_fn
        self._unbounded = False if size is not None else unbounded
        self._cache: dict[int, float] = {}

    @classmethod
    def from_values(cls, values: Sequence[float], label: str = "") -> "ExpectedUtilitySeq":
        stored = [float(v) for v in values]
        if not stored:
            raise DomainError("utility sequence needs at least one value")

        def fn(n: int) -> float:
            return stored[n - 1]

        return cls(fn, size=len(stored), label=label)

    @classmethod
    def from_family(
        cls,
        family: GameFamily,
        utility: UtilitySpec,
        label: str = "",
    ) -> "ExpectedUtilitySeq":
        def fn(n: int) -> float:
            return expected_utility(family.lottery(n), utility)

        return cls(fn, size=family.size, label=label or family.label)

    def __call__(self, n: int) -> float:
        check_positive_index(n, "n")
        if self.size is not None and n > self.size:
            raise DomainError(f"index {n} outside finite family of {self.size}")
        try:
            return self._cache[n]
        except KeyError:
            value = float(self._fn(n))
            if not math.isfinite(value):
                raise DomainError(f"expected utility at index {n} is not finite")
            self._cache[n] = value
            return value

    def values(self, lo: int, hi: int) -> np.ndarray:
        """U_n for lo <= n < hi as a float array.

        Without an array form each index is evaluated through ``__call__``
        with its checks.  The result then stops short at the first index that
        raises DomainError (past a finite family's end, a non-finite value, a
        generator that cannot go further); that error propagates when it is
        U_lo itself.
        """
        check_positive_index(lo, "lo")
        if self._array_fn is not None:
            return self._array_fn(np.arange(lo, hi, dtype=float))
        out = []
        for n in range(lo, hi):
            try:
                out.append(self(n))
            except DomainError:
                if n == lo:
                    raise
                break
        return np.array(out, dtype=float)

    @property
    def finite(self) -> bool:
        return self.size is not None

    def is_unbounded(self, max_index: int = 10 ** 6) -> bool:
        """Declared flag when available, otherwise a growth probe: the
        sequence still strictly increasing across probe points up to
        max_index is treated as unbounded."""
        if self.size is not None:
            return False
        if self._unbounded is not None:
            return self._unbounded
        probes = sorted({2 ** k for k in range(0, 21)} | {max_index})
        probes = [p for p in probes if p <= max_index]
        values = []
        for p in probes:
            try:
                values.append(self(p))
            except DomainError:
                # generator cannot reach this far out (e.g. payoff overflow);
                # judge from the evaluable prefix, or conservatively call the
                # sequence unbounded when even that is too short
                break
        if len(values) < 3:
            self._unbounded = True
            return True
        growing = all(b > a for a, b in zip(values, values[1:]))
        self._unbounded = growing
        return growing


def bernoulli_utilities() -> ExpectedUtilitySeq:
    """U_n = n: the coin-toss family under linear utility, in closed form.

    Evaluating the lottery sum would overflow binary64 payoffs past index
    1023; the closed form is exact for every index.
    """
    return ExpectedUtilitySeq(
        float,
        unbounded=True,
        label="bernoulli-linear",
        array_fn=lambda n: n,
        identity=True,
    )
