"""Applied analyses: repeated coin-toss games and martingale roulette.

Repeated games: a run of N coin-toss games has average per-game expected
value U_N = 1 + log2(N); the induced distribution over run lengths has
weights U_N * exp(beta * U_N) and a finite optimum at N = 2^(1/|beta| - 1).

Martingale roulette: betting on near-even odds (win probability p < 1/2)
and doubling after every loss, the expected net value after at most n spins
is U_n = [1 - (2(1-p))^n] * x0, strictly decreasing in n.  At each stage the
gambler weighs exactly two alternatives, stop or continue, with choice
probabilities proportional to |U|^(-1) * exp(beta * U).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


@dataclass(frozen=True)
class StageChoice:
    """Stop-or-continue probabilities at one stage of the roulette sequence.

    Utilities are in units of the initial bid; both are negative, with the
    continuation strictly worse.
    """

    stage: int
    u_stop: float
    u_continue: float
    p_stop: float
    p_continue: float

    def __post_init__(self) -> None:
        if abs(self.p_stop + self.p_continue - 1.0) > 1e-12:
            raise DomainError("stage probabilities must sum to 1")
        if not self.u_continue < self.u_stop < 0.0:
            raise DomainError(
                "stage utilities must satisfy u_continue < u_stop < 0"
            )


def repeated_game_value(n: int) -> float:
    """Average per-game expected value of a run of n games: 1 + log2(n)."""
    check_positive_index(n, "n")
    return 1.0 + math.log2(n)


def repeated_game_utilities() -> ExpectedUtilitySeq:
    """U_N = 1 + log2(N) for N = 1, 2, ..., declared unbounded."""
    return ExpectedUtilitySeq(lambda n: 1.0 + np.log2(n))


def _repeated_tail_bound(m: int, beta: float) -> float:
    """Integral bound on sum_{N>m} (1+log2 N) exp(beta (1+log2 N)).

    The terms decay like N^(-s) log N with s = |beta|/ln 2; the sum diverges
    for s <= 1 and the bound is then infinite.
    """
    s = abs(beta) / math.log(2.0)
    if s <= 1.0:
        return math.inf
    head = math.exp(beta) * m ** (1.0 - s)
    log_part = (math.log(m) / (s - 1.0) + 1.0 / (s - 1.0) ** 2) / math.log(2.0)
    return head * (1.0 / (s - 1.0) + log_part)


def repeated_game_posterior(
    beta: float, policy: TruncationPolicy | None = None
) -> PosteriorDistribution:
    """Distribution over run lengths N >= 1 with weights U_N exp(beta U_N),
    normalized over the truncated support.

    The weights decay only polynomially (and the full series diverges for
    beta >= -ln 2), so the stated ``rel_tol`` is often unreachable; the
    support then extends to ``max_index`` and ``tail_bound`` records the
    honest remainder, infinite in the divergent regime.
    """
    if beta >= 0.0:
        raise SignError(
            f"run-length values are unbounded; beta must be negative, got {beta}"
        )
    policy = policy if policy is not None else TruncationPolicy()

    m = min(1024, policy.max_index)
    while True:
        n = np.arange(1, m + 1, dtype=float)
        u = 1.0 + np.log2(n)
        weights = u * np.exp(beta * u)
        total = float(weights.sum())
        tail = _repeated_tail_bound(m, beta)
        if tail <= policy.rel_tol * total or m >= policy.max_index:
            break
        m = min(2 * m, policy.max_index)

    tail_fraction = tail / total if math.isfinite(tail) else math.inf
    return PosteriorDistribution(
        probs=weights / total,
        utilities=u,
        beta=beta,
        n_trunc=m,
        tail_bound=tail_fraction,
        tail_rule="integral",
    )


def repeated_optimal(beta: float) -> RepeatedGameResult:
    """Willingness to pay 1/|beta| and the optimal number of repeated games.

    The integer optimum is whichever neighbor of 2^(1/|beta| - 1) carries the
    larger weight (1 + log2 N) exp(beta (1 + log2 N)); ties break to the
    smaller N and the result is clamped to at least 1.
    """
    if beta >= 0.0:
        raise SignError(f"repeated games require beta < 0, got {beta}")
    abs_beta = abs(beta)
    u_opt = 1.0 / abs_beta
    n_continuous = 2.0 ** (u_opt - 1.0)

    def weight(n: int) -> float:
        u = repeated_game_value(n)
        return u * math.exp(beta * u)

    low = max(1, math.floor(n_continuous))
    high = low + 1
    n_opt = low if weight(low) >= weight(high) else high
    return RepeatedGameResult(
        beta=beta, u_opt=u_opt, n_opt_continuous=n_continuous, n_opt=n_opt
    )


def _check_roulette_args(n: int, x0: float, p_win: float) -> None:
    check_positive_index(n, "n")
    if x0 <= 0.0:
        raise DomainError(f"initial bid must be positive, got {x0}")
    if not 0.0 < p_win < 1.0:
        raise DomainError(f"win probability must be in (0, 1), got {p_win}")


def roulette_expected_value(
    n: int, x0: float = 1.0, p_win: float = DOUBLE_ZERO_WIN_PROB
) -> float:
    """Expected net value of the doubling strategy at stage n:
    [1 - (2(1-p))^n] * x0."""
    _check_roulette_args(n, x0, p_win)
    return (1.0 - (2.0 * (1.0 - p_win)) ** n) * x0


def roulette_asymptotic_value(n: int, x0: float = 1.0) -> float:
    """Large-n approximation -(20/19)^n * x0 for the double-zero wheel.

    Within 2% of the exact value for n >= 80; badly off for small n."""
    _check_roulette_args(n, x0, DOUBLE_ZERO_WIN_PROB)
    return -((20.0 / 19.0) ** n) * x0


def roulette_stage_choice(
    n: int,
    beta: float = 0.0,
    x0: float = 1.0,
    p_win: float = DOUBLE_ZERO_WIN_PROB,
) -> StageChoice:
    """Stop-or-continue choice after the n-th spin.

    Both alternatives have negative expected values, so weights are
    |U|^(-1) * exp(beta * U), normalized over the pair.  ``beta`` defaults to
    0 (neutral beliefs), where the pair reduces to |U_{n+1}| : |U_n| odds
    independent of the bid size.
    """
    u_stop = roulette_expected_value(n, x0, p_win)
    u_continue = roulette_expected_value(n + 1, x0, p_win)
    for u in (u_stop, u_continue):
        if u == 0.0:
            raise SingularAttributeError(
                "inverse-attribute weight is singular at expected value 0 "
                "(fair wheel, p_win = 1/2)"
            )
        if u > 0.0:
            raise DomainError(
                f"stage expected value {u} is positive; the stop/continue rule "
                "applies to losing sequences (p_win < 1/2)"
            )
    p_stop, p_continue = pair_probabilities(
        PriorSpec.luce(), u_stop, u_continue, beta
    )
    return StageChoice(
        stage=n,
        u_stop=u_stop,
        u_continue=u_continue,
        p_stop=p_stop,
        p_continue=p_continue,
    )


def roulette_sequence(
    n_stages: int,
    beta: float = 0.0,
    x0: float = 1.0,
    p_win: float = DOUBLE_ZERO_WIN_PROB,
) -> list[StageChoice]:
    """Stage choices for stages 1..n_stages."""
    return [
        roulette_stage_choice(n, beta, x0, p_win) for n in range(1, n_stages + 1)
    ]
