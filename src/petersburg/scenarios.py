"""Applied analyses: repeated coin-toss games and martingale roulette.

Repeated games: a run of N coin-toss games has average per-game expected
value U_N = 1 + log2(N); the induced distribution over run lengths has
weights U_N * exp(beta * U_N) and a finite optimum at N = 2^(1/|beta| - 1).
Its normalizer is a 64-term head plus a closed Euler-Maclaurin remainder,
so no array longer than the rows read is built, whatever the support size.

Martingale roulette: betting on near-even odds (win probability p < 1/2)
and doubling after every loss, the expected net value after at most n spins
is U_n = [1 - (2(1-p))^n] * x0, strictly decreasing in n.  At each stage the
gambler weighs exactly two alternatives, stop or continue, with choice
probabilities proportional to |U|^(-1) * exp(beta * U).  The stage table is
one pass: each U_n once, then both probability columns in numpy; a stage
count whose U_(n+1) would leave binary64 is a DomainError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple
import numpy as np

from .errors import DomainError, SignError, SingularAttributeError, check_positive_index
from .lotteries import ExpectedUtilitySeq
from .posteriors import PosteriorDistribution, TruncationPolicy
from .priors import PriorSpec, pair_probabilities

DOUBLE_ZERO_WIN_PROB = 18.0 / 38.0


@dataclass(frozen=True)
class RepeatedGameResult:
    """Optimal run length for repeated games at a given disbelief level.

    ``u_opt`` is the willingness to pay (per game), ``n_opt_continuous`` the
    real-valued optimum 2^(1/|beta| - 1), and ``n_opt`` the better of its two
    neighboring integers (clamped to at least 1).
    """

    beta: float
    u_opt: float
    n_opt_continuous: float
    n_opt: int


class StageChoice(NamedTuple):
    """Stop-or-continue probabilities of the roulette sequence: one stage's
    values, or the columns of a run of stages.

    Utilities are in units of the initial bid; both are negative, with the
    continuation strictly worse.
    """

    stage: int
    u_stop: float
    u_continue: float
    p_stop: float
    p_continue: float


def repeated_game_value(n: int) -> float:
    """Average per-game expected value of a run of n games: 1 + log2(n)."""
    check_positive_index(n, "n")
    return 1.0 + math.log2(n)


def repeated_game_utilities() -> ExpectedUtilitySeq:
    """U_N = 1 + log2(N) for N = 1, 2, ..., declared unbounded."""
    return ExpectedUtilitySeq(lambda n: 1.0 + np.log2(n))


_Q = 1.0 / math.log(2.0)
_LOWEST_BETA = math.log(math.ulp(0.0))  # e^beta is 0 in binary64 below it
_HEAD = 64
# weights of f^(j)(m) - f^(j)(64), j = 0..7, in the Euler-Maclaurin remainder:
# 1/2, then B_2k/(2k)! at j = 2k - 1 for k = 1..4
_EULER_MACLAURIN = (0.5, 1 / 12, 0.0, -1 / 720, 0.0, 1 / 30240, 0.0, -1 / 1209600)
# k/(k+1)! for k = 20..1, the series of h(z) = (1 + (z - 1) e^z)/z^2 in z^(k-1)
_H_SERIES = tuple(k / math.factorial(k + 1) for k in range(20, 0, -1))


def _primitive(x: float, t: float) -> float:
    """x^t (1 + q ln x - q/t)/t, q = 1/ln 2: an antiderivative of
    (1 + log2 x) x^(t-1), t != 0."""
    return x ** t * (1.0 + _Q * math.log(x) - _Q / t) / t


def _run_length_weights(stop: int, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """U_N = 1 + log2 N and the weights U_N exp(beta U_N) for N = 1..stop."""
    u = 1.0 + np.log2(np.arange(1, stop + 1, dtype=float))
    return u, u * np.exp(beta * u)


def _run_length_sum(m: int, beta: float) -> float:
    """sum_{N=1}^{m} U_N exp(beta U_N), to a few units in the last place.

    Past an exact head of 64 terms, the Euler-Maclaurin remainder (DLMF
    2.10.1) of f(x) = e^beta (p + q ln x) x^e, with p = 1, q = 1/ln 2 and
    e = beta/ln 2: the integral in closed form and four Bernoulli
    corrections, the derivatives from (p + q ln x) x^e -> ((pe + q) +
    qe ln x) x^(e-1).
    """
    head = float(_run_length_weights(min(m, _HEAD), beta)[1].sum())
    if m <= _HEAD:
        return head
    a, p, q, big_l = float(_HEAD), 1.0, _Q, math.log(m / _HEAD)
    t, ln_a, ln_m = 1.0 + beta * q, math.log(a), math.log(m)  # t = e + 1
    z = t * big_l  # crosses 0 at beta = -ln 2
    if abs(z) < 1.0:
        # with x = a e^y the integral is a^t L ((p + q ln a) expm1(z)/z +
        # q L h(z)); h(z) = (1 + (z - 1) e^z)/z^2 cancels near 0, so it is
        # summed as its series
        h = float(np.polyval(_H_SERIES, z))
        em = math.expm1(z) / z if z else 1.0
        rest = a ** t * big_l * ((p + q * ln_a) * em + q * big_l * h)
    else:  # the primitive's ends are a factor e^z apart
        rest = _primitive(m, t) - _primitive(a, t)
    e = t - 1.0
    for weight in _EULER_MACLAURIN:
        rest += weight * ((p + q * ln_m) * m ** e - (p + q * ln_a) * a ** e)
        p, q, e = p * e + q, q * e, e - 1.0
    return head + math.exp(beta) * rest


@dataclass(frozen=True)
class RunLengthPosterior:
    """The run-length distribution over 1..n_trunc, held as its normalizer;
    rows are built when read.  ``tail_bound`` is the integral remainder past
    n_trunc relative to the normalizer, infinite for beta >= -ln 2."""

    beta: float
    n_trunc: int
    tail_bound: float
    normalizer: float
    tail_rule = "integral"  # a class constant, not a field
    meta = PosteriorDistribution.meta

    def columns(self, stop: int) -> tuple[range, np.ndarray, np.ndarray]:
        """Rows 1..min(stop, n_trunc) as columns (N, U_N, prob)."""
        stop = max(0, min(stop, self.n_trunc))
        u, weights = _run_length_weights(stop, self.beta)
        return range(1, stop + 1), u, weights / self.normalizer


def repeated_game_posterior(
    beta: float, policy: TruncationPolicy | None = None
) -> RunLengthPosterior:
    """Distribution over run lengths N >= 1 with weights U_N exp(beta U_N),
    normalized over the truncated support.

    The support is the first of 1024, 2048, ... (capped at ``max_index``)
    whose integral remainder is within ``rel_tol`` of the sum over it.
    The weights decay only polynomially (and the full series diverges for
    beta >= -ln 2), so ``rel_tol`` is often unreachable; the support then
    extends to ``max_index`` and ``tail_bound`` records the honest
    remainder, infinite in the divergent regime.
    """
    if beta >= 0.0:
        raise SignError(
            f"run-length values are unbounded; beta must be negative, got {beta}"
        )
    if beta < _LOWEST_BETA:  # every weight, and so the normalizer, would be 0
        raise DomainError(f"run-length weights underflow below beta = {_LOWEST_BETA:.6g}")
    policy = policy if policy is not None else TruncationPolicy()

    t = 1.0 + beta * _Q  # 1 - s, s = |beta|/ln 2; the series diverges for s <= 1
    m = min(1024, policy.max_index)
    while True:
        total = _run_length_sum(m, beta)
        # the terms decrease past m, so their integral over (m, inf) bounds them
        tail = -math.exp(beta) * _primitive(m, t) if t < 0.0 else math.inf
        if tail <= policy.rel_tol * total or m >= policy.max_index:
            break
        m = min(2 * m, policy.max_index)

    return RunLengthPosterior(
        beta=beta,
        n_trunc=m,
        tail_bound=tail / total,
        normalizer=total,
    )


def repeated_optimal(beta: float) -> RepeatedGameResult:
    """Willingness to pay 1/|beta| and the optimal number of repeated games.

    The integer optimum is whichever neighbor of 2^(1/|beta| - 1) carries the
    larger weight (1 + log2 N) exp(beta (1 + log2 N)); ties break to the
    smaller N and the result is clamped to at least 1.
    """
    if beta >= 0.0:
        raise SignError(f"repeated games require beta < 0, got {beta}")
    u_opt = -1.0 / beta
    try:
        n_continuous = 2.0 ** (u_opt - 1.0)
    except OverflowError:
        raise DomainError(
            f"optimal game count N* = 2^(1/|beta| - 1) overflows binary64 at "
            f"beta = {beta}; |beta| must be above 1/1025"
        ) from None

    def weight(n: int) -> float:
        u = repeated_game_value(n)
        return u * math.exp(beta * u)

    low = max(1, math.floor(n_continuous))
    high = low + 1
    n_opt = low if weight(low) >= weight(high) else high
    return RepeatedGameResult(beta, u_opt, n_continuous, n_opt)


def _check_roulette_args(n: int, x0: float, p_win: float, ahead: int = 0) -> float:
    """r = 2(1 - p_win), once n, x0 and p_win are checked and x0 * r^(n + ahead)
    is finite; otherwise a DomainError that names the largest n that runs."""
    check_positive_index(n, "n")
    if not 0.0 < x0 < math.inf:
        raise DomainError(f"initial bid must be positive and finite, got {x0}")
    if not 0.0 < p_win < 1.0:
        raise DomainError(f"win probability must be in (0, 1), got {p_win}")
    r = 2.0 * (1.0 - p_win)
    # r^k and x0 r^k stay below 2^1024 while k < (1024 - max(log2 x0, 0)) / log2 r
    k = math.ceil((1024.0 - max(math.log2(x0), 0.0)) / math.log2(r)) - 1 if r > 1.0 else math.inf
    if n + ahead > k:
        raise DomainError(
            f"x0 * (2(1-p))^k leaves binary64 past k = {k}; "
            f"at most {max(k - ahead, 0)} stages run, got {n}"
        )
    return r


def roulette_expected_value(
    n: int, x0: float = 1.0, p_win: float = DOUBLE_ZERO_WIN_PROB
) -> float:
    """Expected net value of the doubling strategy at stage n:
    [1 - (2(1-p))^n] * x0."""
    r = _check_roulette_args(n, x0, p_win)
    return (1.0 - r ** n) * x0


def _roulette_stages(first: int, last: int, beta: float, x0: float, p_win: float) -> StageChoice:
    """Stage choices first..last as columns; each stage value is the scalar
    power (1 - r**k) * x0, once (numpy's differs by an ulp, which 1 - r^k magnifies)."""
    r = _check_roulette_args(last, x0, p_win, ahead=1)
    if r == 1.0:
        raise SingularAttributeError("inverse weight |U|^-1 is singular at the fair wheel's U = 0")
    if r < 1.0:
        raise DomainError(f"stage values are positive unless p_win < 1/2, got {p_win}")
    values = [(1.0 - r ** k) * x0 for k in range(first, last + 2)]
    p_stop, p_continue = pair_probabilities(PriorSpec.luce(), values[:-1], values[1:], beta)
    return StageChoice(range(first, last + 1), values[:-1], values[1:], p_stop, p_continue)


def roulette_stage_choice(
    n: int,
    beta: float = 0.0,
    x0: float = 1.0,
    p_win: float = DOUBLE_ZERO_WIN_PROB,
) -> StageChoice:
    """Stop-or-continue choice after the n-th spin: row n of ``roulette_sequence``.

    Both alternatives have negative expected values, so weights are
    |U|^(-1) * exp(beta * U), normalized over the pair.  ``beta`` defaults to
    0 (neutral beliefs), where the pair reduces to |U_{n+1}| : |U_n| odds
    independent of the bid size.
    """
    return StageChoice._make(column[0] for column in _roulette_stages(n, n, beta, x0, p_win))


def roulette_sequence(
    n_stages: int,
    beta: float = 0.0,
    x0: float = 1.0,
    p_win: float = DOUBLE_ZERO_WIN_PROB,
) -> StageChoice:
    """Stage choices for stages 1..n_stages as five columns: the stages (a
    range), the stage values (lists) and the probabilities (arrays)."""
    check_positive_index(n_stages, "n_stages")
    return _roulette_stages(1, n_stages, beta, x0, p_win)
