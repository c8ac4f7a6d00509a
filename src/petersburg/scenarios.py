"""Applied analyses: repeated coin-toss games and martingale roulette.

Repeated games: a run of N coin-toss games has average per-game expected
value U_N = 1 + log2(N); the induced distribution over run lengths has
weights U_N * exp(beta * U_N) and a finite optimum at N = 2^(1/|beta| - 1).
Its normalizer is a 64-term head plus a closed Euler-Maclaurin remainder,
so no array longer than the rows read is built, whatever the support size;
the same kernel, with U_N^k and U_N (U_N - mean)^k in place of U_N, gives
the moments over all N that calibration reads.

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

from .errors import DomainError, SingularAttributeError, TruncationError, check_positive_index
from .lotteries import ExpectedUtilitySeq
from .posteriors import PosteriorDistribution, TruncationPolicy, check_sign, integer_bracket
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
    """Stop-or-continue probabilities of the roulette sequence, as the
    columns of a run of stages.

    Utilities are in units of the initial bid; both are negative, with the
    continuation strictly worse.
    """

    stage: range
    u_stop: list[float]
    u_continue: list[float]
    p_stop: np.ndarray
    p_continue: np.ndarray


def _run_length_values(n: float | np.ndarray) -> float | np.ndarray:
    """Average per-game expected value U_N = 1 + log2(N) of a run of N games,
    elementwise.  N is a float: an optimum N* can be an int past 2^64, which
    np.log2 refuses."""
    return 1.0 + np.log2(n)


def repeated_game_utilities() -> ExpectedUtilitySeq:
    """U_N = 1 + log2(N) for N = 1, 2, ..., declared unbounded, with its
    luce moments in closed form."""
    return ExpectedUtilitySeq(_run_length_values, luce_moments=_run_length_moments)


_Q = 1.0 / math.log(2.0)
_LOWEST_BETA = math.log(math.ulp(0.0))  # e^beta is 0 in binary64 below it
_HEAD = 64
# weights of f^(j)(m) - f^(j)(64), j = 0..7, in the Euler-Maclaurin remainder:
# 1/2, then B_2k/(2k)! at j = 2k - 1 for k = 1..4
_EULER_MACLAURIN = (0.5, 1 / 12, 0.0, -1 / 720, 0.0, 1 / 30240, 0.0, -1 / 1209600)
_U = (0.0, 1.0)  # P(U) = U, whose sum is the normalizer


def _horner(c: list[float], y: float) -> float:
    """The polynomial with coefficients ``c``, lowest degree first, at y."""
    value = c[-1]
    for coeff in c[-2::-1]:
        value = value * y + coeff
    return value


def _taylor(c: list[float], y: float) -> list[float]:
    """P^(j)(y)/j! for j = 0..deg P, P with coefficients ``c``, by repeated
    synthetic division."""
    c, out = list(c), []
    while c:
        for i in range(len(c) - 2, -1, -1):
            c[i] += c[i + 1] * y
        out.append(c.pop(0))
    return out


def _primitive(c: list[float], x: float, t: float) -> float:
    """x^t sum_j (-1)^j P^(j)(ln x)/t^(j+1), P with coefficients ``c`` in
    ln x: an antiderivative of P(ln x) x^(t-1), t != 0."""
    inner = 0.0
    for j, bj in reversed(list(enumerate(_taylor(c, math.log(x))))):
        inner = math.factorial(j) * bj - inner / t
    return x ** t * inner / t


def _run_length_sum(
    m: float, beta: float, poly: tuple[float, ...] = _U, shift: float = 0.0
) -> float:
    """sum_{N=1}^{m} P(U_N - shift) exp(beta U_N), U_N = 1 + log2 N, for
    the polynomial P with coefficients ``poly`` (lowest degree first), to a
    few units in the last place; m is a count, or inf for the whole series,
    which is inf unless beta < -ln 2.  A shift near the mean keeps the
    terms of a central moment from cancelling.

    Past an exact head of 64 terms, the Euler-Maclaurin remainder (DLMF
    2.10.1) of f(x) = e^beta P(1 - shift + q ln x) x^e, with q = 1/ln 2 and
    e = beta/ln 2: the integral in closed form and four Bernoulli
    corrections.  Written as c(ln x) x^e, c a polynomial, the integral's
    primitive is x^t sum_j (-1)^j c^(j)(ln x)/t^(j+1), t = e + 1, and the
    derivatives follow c -> c' + e c.
    """
    if beta < _LOWEST_BETA:  # every weight, and so the sum, would be 0
        raise DomainError(f"run-length weights underflow below beta = {_LOWEST_BETA:.6g}")
    u = _run_length_values(np.arange(1, min(m, _HEAD) + 1, dtype=float))
    head = float((np.polyval(poly[::-1], u - shift) * np.exp(beta * u)).sum())
    if m <= _HEAD:
        return head
    c, p = [poly[-1]], 1.0 - shift  # c(y) = P(p + q y), by Horner's rule on polynomials
    for coeff in poly[-2::-1]:
        c = [coeff + p * c[0], *(p * c[i] + _Q * c[i - 1] for i in range(1, len(c))), _Q * c[-1]]
    a, ln_a, t = float(_HEAD), math.log(_HEAD), 1.0 + beta * _Q
    if m == math.inf:
        if t >= 0.0:
            return math.inf
        rest = -_primitive(c, a, t)  # the primitive vanishes at infinity
    else:
        big_l = math.log(m / _HEAD)
        z = t * big_l  # crosses 0 at beta = -ln 2
        if abs(z) < 1.0:
            # with x = a e^(L v) the integral is a^t L sum_j b_j L^j g_j(z),
            # b_j = c^(j)(ln a)/j! and g_j(z) = int_0^1 v^j e^(z v) dv; the
            # closed g_j cancel near z = 0, so past g_0 they are summed as
            # their series sum_k z^k / (k! (j + k + 1))
            rest = 0.0
            for j, bj in enumerate(_taylor(c, ln_a)):
                if j:
                    series = [1 / (math.factorial(k) * (j + k + 1)) for k in range(19, -1, -1)]
                    g = float(np.polyval(series, z))
                else:
                    g = math.expm1(z) / z if z else 1.0
                rest += bj * big_l ** j * g
            rest *= a ** t * big_l
        else:  # the primitive's ends are a factor e^z apart
            rest = _primitive(c, m, t) - _primitive(c, a, t)
    e = t - 1.0
    for weight in _EULER_MACLAURIN:
        at_m = _horner(c, math.log(m)) * m ** e if m < math.inf else 0.0
        rest += weight * (at_m - _horner(c, ln_a) * a ** e)
        c = [c[i] * e + (i + 1) * c[i + 1] for i in range(len(c) - 1)] + [c[-1] * e]
        e -= 1.0
    return head + math.exp(beta) * rest


def _run_length_moments(beta: float) -> tuple[float, float, float]:
    """Mean, variance and third central moment of U_N under the weights
    U_N exp(beta U_N) over all N >= 1: S_1/S_0 from the sums S_k of
    U_N^(k+1) exp(beta U_N), then the sums of U_N (U_N - mean)^k
    exp(beta U_N), k = 2, 3, which do not cancel as S_2/S_0 - mean^2 does."""
    s0 = _run_length_sum(math.inf, beta)
    if s0 == math.inf:
        raise TruncationError(f"the run-length series diverges at beta = {beta} >= -ln 2")
    mean = _run_length_sum(math.inf, beta, (0.0, 0.0, 1.0)) / s0
    # U (U - mean)^k = (V + mean) V^k in V = U - mean
    var, kappa3 = (
        _run_length_sum(math.inf, beta, (0.0,) * k + (mean, 1.0), mean) / s0 for k in (2, 3)
    )
    return mean, var, kappa3


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
        u = _run_length_values(np.arange(1, stop + 1, dtype=float))
        return range(1, stop + 1), u, u * np.exp(self.beta * u) / self.normalizer


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
    check_sign(repeated_game_utilities(), beta)
    policy = policy if policy is not None else TruncationPolicy()

    t = 1.0 + beta * _Q  # 1 - s, s = |beta|/ln 2; the series diverges for s <= 1
    # the terms are positive, so the sum at max_index bounds the sum at every
    # m: a stop is summed only where its tail passes against this cap, with
    # a margin far above the kernel's few-ulp error
    cap = _run_length_sum(policy.max_index, beta)
    m = min(1024, policy.max_index)
    while True:
        # the terms decrease past m, so their integral over (m, inf) bounds them
        tail = -math.exp(beta) * _primitive([1.0, _Q], m, t) if t < 0.0 else math.inf
        if m >= policy.max_index:
            total = cap
            break
        if tail <= policy.rel_tol * cap * (1.0 + 1e-12):
            total = _run_length_sum(m, beta)
            if tail <= policy.rel_tol * total:
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
    check_sign(repeated_game_utilities(), beta)
    u_opt = -1.0 / beta
    try:
        n_continuous = 2.0 ** (u_opt - 1.0)
    except OverflowError:
        raise DomainError(
            f"optimal game count N* = 2^(1/|beta| - 1) overflows binary64 at "
            f"beta = {beta}; |beta| must be above 1/1025"
        ) from None

    def weight(n: int) -> float:
        u = _run_length_values(float(n))
        return u * math.exp(beta * u)

    low, high = integer_bracket(n_continuous)
    n_opt = low if weight(low) >= weight(high) else high
    return RepeatedGameResult(beta, u_opt, n_continuous, n_opt)


def _check_roulette_args(n_stages: int, x0: float, p_win: float, ahead: int = 0) -> float:
    """r = 2(1 - p_win), once the arguments are checked and x0 * r^(n_stages +
    ahead) is finite; otherwise a DomainError naming the most stages that run."""
    check_positive_index(n_stages, "n_stages")
    if not 0.0 < x0 < math.inf:
        raise DomainError(f"initial bid must be positive and finite, got {x0}")
    if not 0.0 < p_win < 1.0:
        raise DomainError(f"win probability must be in (0, 1), got {p_win}")
    r = 2.0 * (1.0 - p_win)
    # r^k and x0 r^k stay below 2^1024 while k < (1024 - max(log2 x0, 0)) / log2 r
    k = math.ceil((1024.0 - max(math.log2(x0), 0.0)) / math.log2(r)) - 1 if r > 1.0 else math.inf
    if n_stages + ahead > k:
        raise DomainError(
            f"x0 * (2(1-p))^k leaves binary64 past k = {k}; "
            f"at most {max(k - ahead, 0)} stages run, got {n_stages}"
        )
    return r


def roulette_sequence(
    n_stages: int,
    beta: float = 0.0,
    x0: float = 1.0,
    p_win: float = DOUBLE_ZERO_WIN_PROB,
) -> StageChoice:
    """Stop-or-continue choices after spins 1..n_stages as five columns: the
    stages (a range), the stage values (lists) and the probabilities (arrays).

    Both alternatives have negative expected values, so weights are
    |U|^(-1) * exp(beta * U), normalized over the pair.  ``beta`` defaults to
    0 (neutral beliefs), where the pair reduces to |U_{n+1}| : |U_n| odds
    independent of the bid size.  Each stage value is the scalar power
    (1 - r**k) * x0, once (numpy's differs by an ulp, which 1 - r^k magnifies).
    """
    r = _check_roulette_args(n_stages, x0, p_win, ahead=1)
    if r == 1.0:
        raise SingularAttributeError("inverse weight |U|^-1 is singular at the fair wheel's U = 0")
    if r < 1.0:
        raise DomainError(f"stage values are positive unless p_win < 1/2, got {p_win}")
    values = [(1.0 - r ** k) * x0 for k in range(1, n_stages + 2)]
    p_stop, p_continue = pair_probabilities(PriorSpec.luce(), values[:-1], values[1:], beta)
    return StageChoice(range(1, n_stages + 1), values[:-1], values[1:], p_stop, p_continue)
