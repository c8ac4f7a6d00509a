"""Normalized probability distributions over lottery families.

The distribution over lotteries with expected utilities U_n has weights
w(U_n) * exp(beta * U_n), normalized over the support, where w is the prior
weight whose log ``priors.log_attribute_weights`` gives.
For unbounded utility families the normalizing series converges only for
beta < 0, and a finite implementation must truncate it: construction
evaluates the log-domain weights of a prefix 1..m, doubling m until a rule
fires inside it, and stops at the first index n >= 4 where a bound on the
omitted tail mass drops below ``rel_tol`` times the accumulated sum.  The
first m is sized from the prior's optimum, which changes the cost only.

Which certified bound applies is declared by the utility sequence, never
inferred from the terms already evaluated, and so is whether a nonnegative
beta is refused (on a sequence that is not ``ExpectedUtilitySeq.finite``).
``bernoulli_utilities()`` is the only built-in sequence that declares
U_n = n (``ExpectedUtilitySeq.identity``).  The rule that stopped the sum is
recorded in ``PosteriorDistribution.tail_rule``, one of TAIL_RULES:

- ``majorant``: every prior has a log weight concave in u > 0, so on a
  sequence declaring U_n = n every later weight ratio is at most
  q = w_n / w_(n-1) and the tail is at most w_n q/(1-q);
- ``heuristic``: on every sequence, a stop after 50 consecutive terms each
  below rel_tol times the accumulated sum.  On U_n = n it fires before the
  certificate at small |beta|, and the tail is still the majorant's at the
  stop (inf if the weights still rise there).  On an undeclared sequence
  50 times the last term is recorded, which is not a bound: a sequence
  that rises again later can hide any mass past the stop.
- ``finite``: a finite family needs no truncation;
- ``integral``: ``scenarios.repeated_game_posterior`` bounds the tail of
  its run lengths by an integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, SignError, TruncationError, check_positive_index
from .lotteries import ExpectedUtilitySeq
from .priors import PriorSpec, continuous_optimum, log_attribute_weights

_SMALL_TERM_RUN = 50

TAIL_RULES = ("finite", "majorant", "heuristic", "integral")


@dataclass(frozen=True)
class TruncationPolicy:
    """Stopping rule for infinite-support normalizing sums.

    ``rel_tol``, in (0, 1), bounds the omitted tail mass relative to the
    retained sum; ``max_index`` caps the support size before giving up.
    """

    rel_tol: float = 1e-14
    max_index: int = 10 ** 6

    def __post_init__(self) -> None:
        if not 0.0 < self.rel_tol < 1.0:  # at 1 the tail may outweigh the sum kept
            raise DomainError(f"rel_tol must be in (0, 1), got {self.rel_tol}")
        check_positive_index(self.max_index, "max_index")


@dataclass(frozen=True)
class PosteriorDistribution:
    """Normalized probabilities over lottery indices 1..n_trunc.

    ``tail_bound`` is the probability mass discarded by truncation, as an
    upper bound, relative to the retained (pre-normalization) total; it is 0
    for finite families and may be ``inf`` when the untruncated series
    diverges.  ``tail_rule`` names the rule that stopped the sum, one of
    TAIL_RULES; only a ``heuristic`` stop on an undeclared sequence records
    an estimate, not a bound.
    Instances are immutable and safe to share across threads.
    """

    probs: np.ndarray
    utilities: np.ndarray
    beta: float
    n_trunc: int
    tail_bound: float
    tail_rule: str

    def __post_init__(self) -> None:
        probs = np.asarray(self.probs, dtype=float).copy()
        utils = np.asarray(self.utilities, dtype=float).copy()
        probs.flags.writeable = False
        utils.flags.writeable = False
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "utilities", utils)
        if len(probs) != self.n_trunc or len(utils) != self.n_trunc:
            raise DomainError("probs/utilities length must equal n_trunc")
        if probs.min(initial=0.0) < 0.0 or probs.max(initial=1.0) > 1.0:
            raise DomainError("probabilities must lie in [0, 1]")
        if abs(float(probs.sum()) - 1.0) > 1e-12:
            raise DomainError(f"probabilities sum to {probs.sum()}, expected 1")
        if self.tail_bound < 0.0:
            raise DomainError("tail bound must be nonnegative")
        if self.tail_rule not in TAIL_RULES:
            raise DomainError(f"unknown tail rule {self.tail_rule!r}")

    def prob(self, n: int) -> float:
        self._check_index(n)
        return float(self.probs[n - 1])

    def utility(self, n: int) -> float:
        self._check_index(n)
        return float(self.utilities[n - 1])

    def _check_index(self, n: int) -> None:
        check_positive_index(n, "n")
        if n > self.n_trunc:
            raise DomainError(f"index {n} outside support 1..{self.n_trunc}")

    def meta(self) -> dict:
        """The table's provenance: beta, support size and tail rule."""
        return {
            "beta": self.beta,
            "n_trunc": self.n_trunc,
            "tail_bound": self.tail_bound,
            "tail_rule": self.tail_rule,
        }

    def columns(self, stop: int) -> tuple[range, np.ndarray, np.ndarray]:
        """The first ``stop`` rows (all of them if there are fewer, none if
        ``stop`` < 1) as columns (n, U_n, prob)."""
        stop = max(0, min(stop, self.n_trunc))
        return range(1, stop + 1), self.utilities[:stop], self.probs[:stop]


_TINY = 1e-290  # below this a shifted partial sum may have lost precision


def _first_size(
    prior: PriorSpec,
    utilities: ExpectedUtilitySeq,
    beta: float,
    policy: TruncationPolicy,
) -> int:
    """The first prefix length of ``_stream_truncated``, at least 16 and at
    most ``policy.max_index``: on U_n = n twice the prior's optimum plus 1.2
    decay lengths ln(1/rel_tol)/|beta|, where most sums stop; ``max_index``
    where the optimum leaves binary64; 16 on any other sequence.  It sets
    the cost of the sum, never its stop."""
    guess = 16.0
    if utilities.identity:
        try:
            guess = 2.0 * continuous_optimum(prior, beta) + 1.2 * math.log(policy.rel_tol) / beta
        except DomainError:
            guess = math.inf
    return int(min(max(guess, 16.0), policy.max_index))


def _stream_truncated(
    prior: PriorSpec,
    utilities: ExpectedUtilitySeq,
    beta: float,
    policy: TruncationPolicy,
) -> tuple[np.ndarray, np.ndarray, float, str]:
    """Evaluate log-weights over prefixes 1..m of doubling length until a
    tail rule stops the sum inside one.

    Returns (log_weights, utility_values, tail_fraction, tail_rule) with the
    tail expressed relative to the retained sum.  The stop is the first
    index n >= 4 where the majorant (on a sequence declaring U_n = n) or the
    small-term heuristic fires, the majorant winning a tie.  Each round
    evaluates its prefix afresh, so the first length, ``_first_size``, moves
    no stop: a prefix ends before its first overflowing weight, which is a
    DomainError only when no rule fires before it.  Raises TruncationError
    when no rule fires by ``policy.max_index`` or before the family ends.
    """
    rel_log = math.log(policy.rel_tol)
    m = _first_size(prior, utilities, beta, policy)
    while True:
        u = utilities.values(m)
        lw = log_attribute_weights(prior, u)
        lw += beta * u
        top = overflow = float(lw.max())  # an overflow is +inf or nan
        if not top < math.inf:  # the prefix ends before its first overflow
            end = int(np.argmin(lw < math.inf))
            overflow, u, lw = float(lw[end]), u[:end], lw[:end]
            if end < 4:  # no rule tests a term before n = 4
                _finite_top(overflow)
            top = float(lw.max())

        # log_sums[i]: log of the sum of the weights through term i
        partial = np.exp(lw - top) if top > -math.inf else np.zeros_like(lw)
        if partial[0] >= _TINY:
            log_sums = np.log(np.cumsum(partial, out=partial))
            log_sums += top
        else:  # every weight is zero, or the shifted sums underflow at first
            log_sums = np.logaddexp.accumulate(lw)
        # no rule is tested before n = 4, nor before any weight is nonzero
        first = max(3, int(np.searchsorted(log_sums, -math.inf, "right")))
        # the rules below work on the tested terms lw[first:]
        tested = lw[first:]
        thresholds = log_sums[first:] + rel_log

        stop, rule = len(tested), None
        if utilities.identity:
            # each prior's log weight is concave on u > 0, so with unit steps
            # every later weight ratio is at most q = w_n / w_(n-1); the tail
            # is at most w_n q/(1-q), which is below the threshold t exactly
            # when q (w_n + t) <= t
            before = lw[first - 1 : -1]
            fires = tested - before + np.logaddexp(tested, thresholds) <= thresholds
            hits = fires.nonzero()[0]
            if hits.size:
                stop, rule = int(hits[0]), "majorant"

        # heuristic: 50 consecutive terms each below rel_tol times the
        # retained sum, tested only where such a run can end before the
        # stop; edges are the terms that break a run
        if stop >= _SMALL_TERM_RUN:
            breaks = (tested > thresholds).nonzero()[0]
            edges = np.concatenate(([-1], breaks, [len(tested)]))
            runs = (np.diff(edges) > _SMALL_TERM_RUN).nonzero()[0]
            if runs.size and edges[runs[0]] + _SMALL_TERM_RUN < stop:
                stop = int(edges[runs[0]]) + _SMALL_TERM_RUN
                rule = "heuristic"

        if rule is not None:
            if utilities.identity:  # the majorant's tail, whichever rule stopped
                lq = float(tested[stop] - before[stop])
                log_tail = math.inf  # q >= 1: the weights still rise
                if lq < 0.0:
                    log_tail = float(tested[stop]) + lq - math.log1p(-math.exp(lq))
            else:
                log_tail = math.log(_SMALL_TERM_RUN) + float(tested[stop])
            tail = math.exp(log_tail - float(log_sums[first + stop]))
            return lw[: first + stop + 1], u[: first + stop + 1], tail, rule
        _finite_top(overflow)  # no rule fired before it
        if len(u) < m:
            raise TruncationError(
                f"family evaluation ended at index {len(u)} before the "
                "tail bound was met"
            )
        if m == policy.max_index:
            raise TruncationError(
                f"tail bound not reached within max_index={policy.max_index} "
                f"(rel_tol={policy.rel_tol}, beta={beta})"
            )
        m = min(2 * m, policy.max_index)


def _finite_top(top: float) -> float:
    """``top``, the largest log weight; DomainError when it is +inf or nan,
    that is when beta * U_n overflowed."""
    if not top < math.inf:
        raise DomainError(f"a posterior log weight is {top}; the weights overflow")
    return top


def check_sign(utilities: ExpectedUtilitySeq, beta: float) -> None:
    """SignError unless beta < 0 on an infinite sequence, where an array
    of beta is a DomainError: each beta has its own support."""
    if not utilities.finite:
        if isinstance(beta, np.ndarray):
            raise DomainError("an array of beta needs a finite sequence")
        if beta >= 0.0:
            raise SignError(f"beta must be negative for unbounded utilities, got {beta}")


def _weights(
    prior: PriorSpec,
    utilities: ExpectedUtilitySeq,
    beta: float | np.ndarray,
    policy: TruncationPolicy,
) -> tuple[np.ndarray, np.ndarray, float, str]:
    """Normalized weights weight(U_n) exp(beta U_n) over the support, with
    the utilities, the tail fraction and its rule; one row per beta of a
    1-D array on a finite sequence.  An overflow (inf or, past an infinite
    log weight, nan) is refused by ``_finite_top``: before the stream's stop,
    and on a finite sequence anywhere, row by row, the first row first."""
    check_sign(utilities, beta)
    with np.errstate(over="ignore", invalid="ignore"):
        if utilities.finite:
            values = utilities.values(utilities.size)
            lw = log_attribute_weights(prior, values) + np.multiply.outer(beta, values)
            for top in np.ravel(lw.max(-1)).tolist():
                if _finite_top(top) == -math.inf:
                    raise DomainError("all prior weights are zero; distribution undefined")
            tail, rule = 0.0, "finite"
        else:  # a stopped stream holds a nonzero weight
            lw, values, tail, rule = _stream_truncated(prior, utilities, beta, policy)
    w = np.exp(lw - lw.max(-1, keepdims=True))
    w /= w.sum(-1, keepdims=True)
    return w, values, tail, rule


def posterior(
    prior: PriorSpec,
    utilities: ExpectedUtilitySeq,
    beta: float,
    policy: TruncationPolicy | None = None,
) -> PosteriorDistribution:
    """Distribution with probs[n] proportional to w(U_n) * exp(beta * U_n),
    w the prior weight.

    Finite families accept any beta; an infinite sequence requires
    beta < 0 (otherwise the normalizing sum diverges and a SignError is
    raised).  At beta = 0 the result is exactly the normalized prior.
    An array of beta is a DomainError (``posterior_moments`` takes an array).
    """
    if np.ndim(beta) > 0:
        raise DomainError("posterior takes one beta; posterior_moments takes an array of beta")
    policy = policy if policy is not None else TruncationPolicy()
    probs, values, tail, rule = _weights(prior, utilities, beta, policy)
    return PosteriorDistribution(
        probs=probs,
        utilities=values,
        beta=beta,
        n_trunc=len(probs),
        tail_bound=tail,
        tail_rule=rule,
    )


class Moments(NamedTuple):
    """Mean, variance and third central moment (kappa_3) of U_n under a
    posterior."""

    mean: float
    var: float
    kappa3: float


def has_declared_moments(prior: PriorSpec, utilities: ExpectedUtilitySeq) -> bool:
    """Whether ``posterior_moments`` takes the sequence's declared
    ``luce_moments`` under this prior instead of summing."""
    return utilities.luce_moments is not None and prior.kind == "luce"


def posterior_moments(
    prior: PriorSpec,
    utilities: ExpectedUtilitySeq,
    beta: float | np.ndarray,
    policy: TruncationPolicy | None = None,
) -> Moments:
    """Moments of U_n under ``posterior(prior, utilities, beta, policy)``,
    in one max-shifted pass over the same log weights, building no
    ``PosteriorDistribution``.  A variance past binary64 is not finite.
    On a finite sequence ``beta`` may be a 1-D array, and each moment is
    then a list, one entry per beta, as the scalar calls give them.

    Where ``has_declared_moments`` holds, the sequence's ``luce_moments``
    are returned instead: they cover the whole support, which ``posterior``
    truncates, so they differ from its moments by the tail it leaves out.
    """
    policy = policy if policy is not None else TruncationPolicy()
    if has_declared_moments(prior, utilities):
        check_sign(utilities, beta)
        return Moments(*utilities.luce_moments(beta))
    w, values, _, _ = _weights(prior, utilities, beta, policy)
    with np.errstate(over="ignore", invalid="ignore"):
        # vecdot takes each row's dot alone, as the scalar call does
        mean = np.vecdot(w, values)
        d = values - mean[..., None]
        wd2 = w * d * d
        moments = mean, wd2.sum(-1), np.vecdot(wd2, d)
    return Moments(*[m.tolist() for m in moments])


def stochastically_optimal(dist: PosteriorDistribution) -> int:
    """Index of the largest probability; ties break to the smallest index."""
    return int(np.argmax(dist.probs)) + 1


def integer_bracket(x_star: float) -> tuple[int, int]:
    """Integer bracket around a continuous optimum x* over indices n >= 1:
    (entier(x*), entier(x*) + 1), clamped below at index 1."""
    low = max(1, math.floor(x_star))
    return low, max(low, math.floor(x_star) + 1)

