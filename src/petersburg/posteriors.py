"""Normalized probability distributions over lottery families.

The distribution over lotteries with expected utilities U_n has weights
w(U_n) * exp(beta * U_n), normalized over the support, where w is the prior
weight whose log ``priors.log_attribute_weights`` gives.
For unbounded utility families the normalizing series converges only for
beta < 0, and a finite implementation must truncate it: construction
evaluates log-domain weights in chunks of growing size and stops at the first
index n >= 4 where a bound on the omitted tail mass drops below ``rel_tol``
times the accumulated sum.

Which certified bound applies is declared by the utility sequence, never
inferred from the terms already evaluated, and so is whether a nonnegative
beta is refused (``ExpectedUtilitySeq.unbounded``).  ``bernoulli_utilities()``
is the only built-in sequence that declares U_n = n
(``ExpectedUtilitySeq.identity``).  The rule that stopped the sum is recorded
in ``PosteriorDistribution.tail_rule``:

- ``majorant``: every prior has a log weight concave in u > 0, so on a
  sequence declaring U_n = n every later weight ratio is at most
  q = w_n / w_(n-1) and the tail is at most w_n q/(1-q);
- ``heuristic``: on every sequence, a stop after 50 consecutive terms each
  below rel_tol times the accumulated sum.  On U_n = n it fires before the
  certificate at small |beta|, and the tail is still the majorant's at the
  stop (inf if the weights still rise there).  On an undeclared sequence
  50 times the last term is recorded, which is not a bound: a sequence
  that rises again later can hide any mass past the stop.
- ``finite``: a finite family needs no truncation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, SignError, TruncationError, check_positive_index
from .lotteries import ExpectedUtilitySeq
from .priors import PriorSpec, log_attribute_weights

_SMALL_TERM_RUN = 50

TAIL_RULES = ("finite", "majorant", "heuristic")


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


_FIRST_CHUNK = 16
_MAX_CHUNK = 1 << 16
_TINY = 1e-290  # below this a shifted partial sum may have lost precision


def _stream_truncated(
    prior: PriorSpec,
    utilities: ExpectedUtilitySeq,
    beta: float,
    policy: TruncationPolicy,
) -> tuple[np.ndarray, np.ndarray, float, str]:
    """Stream log-weights in chunks until a tail rule stops the sum.

    Returns (log_weights, utility_values, tail_fraction, tail_rule) with the
    tail expressed relative to the retained sum.  The stop is the first
    index n >= 4 where the majorant (on a sequence declaring U_n = n) or the
    small-term heuristic fires, the majorant winning a tie.  Raises
    TruncationError when no rule fires by ``policy.max_index`` or the family
    cannot be evaluated that far.
    """
    rel_log = math.log(policy.rel_tol)
    lw_chunks: list[np.ndarray] = []
    u_chunks: list[np.ndarray] = []
    log_sum = -math.inf  # log of the retained sum before this chunk
    prev_lw = math.nan  # log weight of the last retained term
    small_run = 0  # trailing run of small terms before this chunk
    lo, size = 1, _FIRST_CHUNK

    while lo <= policy.max_index:
        try:
            u = utilities.values(lo, min(lo + size, policy.max_index + 1))
        except DomainError as exc:
            if lo == 1:
                raise
            raise TruncationError(
                f"family evaluation ended at index {lo - 1} before the "
                f"tail bound was met ({exc})"
            ) from exc
        m = len(u)
        lw = log_attribute_weights(prior, u)
        lw += beta * u
        top = _finite_top(lw)

        # log_sums[i]: log of the retained sum through this chunk's term i
        if log_sum == -math.inf:  # first chunk, or only zero weights so far
            log_sums = np.logaddexp.accumulate(lw)
        else:
            shift = max(log_sum, top)
            partial = np.exp(lw - shift)
            partial[0] += math.exp(log_sum - shift)
            np.cumsum(partial, out=partial)
            if partial[0] >= _TINY:
                log_sums = np.log(partial)
                log_sums += shift
            else:  # the shifted sums underflowed
                log_sums = np.logaddexp(log_sum, np.logaddexp.accumulate(lw))
        first = max(4 - lo, 0)  # no rule is tested before n = 4
        if log_sums[0] == -math.inf:  # nor before any weight is nonzero
            first = max(first, int(np.searchsorted(log_sums, -math.inf, "right")))
        # the rules below work on the tested terms lw[first:]
        tested = lw[first:]
        thresholds = log_sums[first:] + rel_log

        stop, rule = m, None
        if utilities.identity:
            # each prior's log weight is concave on u > 0, so with unit steps
            # every later weight ratio is at most q = w_n / w_(n-1); the tail
            # is at most w_n q/(1-q), which is below the threshold t exactly
            # when q (w_n + t) <= t
            before = lw[first - 1 : -1] if first else np.append(prev_lw, lw[:-1])
            fires = tested - before + np.logaddexp(tested, thresholds) <= thresholds
            hits = fires.nonzero()[0]
            if hits.size:
                stop, rule = int(hits[0]), "majorant"

        # heuristic: 50 consecutive terms each below rel_tol times the
        # retained sum; edges are the terms that break a run
        if rule is None or _SMALL_TERM_RUN - 1 - small_run < stop:
            breaks = (tested > thresholds).nonzero()[0]
            if breaks.size == len(tested):  # no small term in this chunk
                small_run = 0
            else:
                edges = np.concatenate(([-1 - small_run], breaks, [len(tested)]))
                runs = (np.diff(edges) > _SMALL_TERM_RUN).nonzero()[0]
                if runs.size and edges[runs[0]] + _SMALL_TERM_RUN < stop:
                    stop = int(edges[runs[0]]) + _SMALL_TERM_RUN
                    rule = "heuristic"
                small_run = len(tested) - 1 - int(edges[-2])

        if rule is not None:
            if utilities.identity:  # the majorant's tail, whichever rule stopped
                lq = float(tested[stop] - before[stop])
                log_tail = math.inf  # q >= 1: the weights still rise
                if lq < 0.0:
                    log_tail = float(tested[stop]) + lq - math.log1p(-math.exp(lq))
            else:
                log_tail = math.log(_SMALL_TERM_RUN) + float(tested[stop])
            tail = math.exp(log_tail - float(log_sums[first + stop]))
            lw_chunks.append(lw[: first + stop + 1])
            u_chunks.append(u[: first + stop + 1])
            return np.concatenate(lw_chunks), np.concatenate(u_chunks), tail, rule
        lw_chunks.append(lw)
        u_chunks.append(u)
        log_sum = float(log_sums[-1])
        prev_lw = float(lw[-1])
        lo += m
        size = min(2 * size, _MAX_CHUNK)

    raise TruncationError(
        f"tail bound not reached within max_index={policy.max_index} "
        f"(rel_tol={policy.rel_tol}, beta={beta})"
    )


def _finite_top(log_weights: np.ndarray) -> float:
    """The largest log weight; DomainError when it is +inf or nan, that is
    when beta * U_n overflowed."""
    top = float(log_weights.max())
    if not top < math.inf:
        raise DomainError(f"a posterior log weight is {top}; the weights overflow")
    return top


def check_sign(utilities: ExpectedUtilitySeq, beta: float) -> None:
    """SignError unless beta < 0 on a sequence declared unbounded."""
    if utilities.unbounded and beta >= 0.0:
        raise SignError(f"beta must be negative for unbounded utilities, got {beta}")


def _weights(
    prior: PriorSpec,
    utilities: ExpectedUtilitySeq,
    beta: float,
    policy: TruncationPolicy,
) -> tuple[np.ndarray, np.ndarray, float, str]:
    """Normalized weights weight(U_n) exp(beta U_n) over the support, with
    the utilities, the tail fraction and its rule.  beta * U_n may overflow
    to inf, which ``_finite_top`` then refuses."""
    check_sign(utilities, beta)
    with np.errstate(over="ignore"):
        if utilities.finite:
            values = utilities.values(1, utilities.size + 1)
            lw, tail, rule = log_attribute_weights(prior, values) + beta * values, 0.0, "finite"
        else:
            lw, values, tail, rule = _stream_truncated(prior, utilities, beta, policy)
    top = _finite_top(lw)
    if top == -math.inf:
        raise DomainError("all prior weights are zero; distribution undefined")
    w = np.exp(lw - top)
    w /= w.sum()
    return w, values, tail, rule


def posterior(
    prior: PriorSpec,
    utilities: ExpectedUtilitySeq,
    beta: float,
    policy: TruncationPolicy | None = None,
) -> PosteriorDistribution:
    """Distribution with probs[n] proportional to w(U_n) * exp(beta * U_n),
    w the prior weight.

    Finite families accept any beta; a sequence declared unbounded requires
    beta < 0 (otherwise the normalizing sum diverges and a SignError is
    raised).  At beta = 0 the result is exactly the normalized prior.
    """
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
    beta: float,
    policy: TruncationPolicy | None = None,
) -> Moments:
    """Moments of U_n under ``posterior(prior, utilities, beta, policy)``,
    in one max-shifted pass over the same log weights, building no
    ``PosteriorDistribution``.  A variance past binary64 is not finite.

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
        mean = float(w @ values)
        d = values - mean
        wd2 = w * d * d
        return Moments(mean, float(wd2.sum()), float(wd2 @ d))


def stochastically_optimal(dist: PosteriorDistribution) -> int:
    """Index of the largest probability; ties break to the smallest index."""
    return int(np.argmax(dist.probs)) + 1


def integer_bracket(x_star: float) -> tuple[int, int]:
    """Integer bracket around a continuous optimum x* over indices n >= 1:
    (entier(x*), entier(x*) + 1), clamped below at index 1."""
    low = max(1, math.floor(x_star))
    return low, max(low, math.floor(x_star) + 1)

