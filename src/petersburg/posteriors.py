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

- ``exact-geometric``: the luce prior on a sequence declaring U_n = n has the
  exact tail of sum m r^m, r = exp(beta);
- ``majorant``: the power, log and logit priors on such a sequence have a
  log weight concave in u > 0, so every later weight ratio is at most
  q = exp(la(n) - la(n-1) + beta) and the tail is at most w_n q/(1-q);
- ``heuristic``: on every sequence, a stop after 50 consecutive terms each
  below rel_tol times the accumulated sum, recording 50 times the last term
  as the bound.  It is not a bound: a sequence that rises again later can
  hide any mass past the stop.  On a declared sequence it fires when it
  comes before the certificate, which happens for small |beta|.
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

TAIL_RULES = ("finite", "exact-geometric", "majorant", "heuristic")


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
        if self.max_index < 1:
            raise DomainError("max_index must be at least 1")


@dataclass(frozen=True)
class PosteriorDistribution:
    """Normalized probabilities over lottery indices 1..n_trunc.

    ``tail_bound`` is the probability mass discarded by truncation, as an
    upper bound, relative to the retained (pre-normalization) total; it is 0
    for finite families and may be ``inf`` when the untruncated series
    diverges.  ``tail_rule`` names the rule behind it, one of TAIL_RULES;
    under ``heuristic`` the figure is an estimate, not a bound.
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
    index n >= 4 where the sequence's declared certificate or the small-term
    heuristic fires, the certificate winning a tie.  Raises TruncationError
    when no rule fires by ``policy.max_index`` or the family cannot be
    evaluated that far.
    """
    rel_log = math.log(policy.rel_tol)
    if utilities.identity and prior.kind == "luce" and beta < 0.0:
        certificate = "exact-geometric"
        one_minus_r = -math.expm1(beta)
        log_scale = beta - 2.0 * math.log(one_minus_r)
    elif utilities.identity and prior.kind != "luce":
        certificate = "majorant"
    else:
        certificate = None
    lw_chunks: list[np.ndarray] = []
    u_chunks: list[np.ndarray] = []
    log_sum = -math.inf  # log of the retained sum before this chunk
    prev_la = prev_lw = math.nan  # log weights of the last retained term
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
        la = log_attribute_weights(prior, u)
        lw = beta * u
        lw += la
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
        if certificate == "exact-geometric":
            # exact tail of sum_{k>n} k r^k: r^(n+1) (1 + n(1-r)) / (1-r)^2
            n = u[first:]
            log_tail = beta * n
            log_tail += np.log1p(n * one_minus_r)
            log_tail += log_scale
            fires = log_tail <= thresholds
        elif certificate == "majorant":
            # each prior's log weight is concave on u > 0, so with unit steps
            # every later weight ratio is at most q = exp(la(n) - la(n-1) +
            # beta) = w_n / w_(n-1); the tail is at most w_n q/(1-q), which
            # is below the threshold t exactly when q (w_n + t) <= t
            before = lw[first - 1 : -1] if first else np.append(prev_lw, lw[:-1])
            fires = tested - before + np.logaddexp(tested, thresholds) <= thresholds
        if certificate is not None:
            hits = fires.nonzero()[0]
            if hits.size:
                stop, rule = int(hits[0]), certificate

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
            if rule == "heuristic":
                log_tail = math.log(_SMALL_TERM_RUN) + float(tested[stop])
            elif rule == "majorant":
                at = first + stop
                lq = float(la[at]) - (float(la[at - 1]) if at else prev_la) + beta
                log_tail = float(tested[stop]) + lq - math.log1p(-math.exp(lq))
            else:
                log_tail = float(log_tail[stop])
            tail = math.exp(log_tail - float(log_sums[first + stop]))
            lw, u = lw[: first + stop + 1], u[: first + stop + 1]
            if lw_chunks:
                lw = np.concatenate(lw_chunks + [lw])
                u = np.concatenate(u_chunks + [u])
            return lw, u, tail, rule
        lw_chunks.append(lw)
        u_chunks.append(u)
        log_sum = float(log_sums[-1])
        prev_la, prev_lw = float(la[-1]), float(lw[-1])
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


def _check_sign(utilities: ExpectedUtilitySeq, beta: float) -> None:
    """SignError unless beta < 0 on a sequence declared unbounded."""
    if utilities.unbounded and beta >= 0.0:
        raise SignError(f"beta must be negative for unbounded utilities, got {beta}")


def _log_weights(
    prior: PriorSpec,
    utilities: ExpectedUtilitySeq,
    beta: float,
    policy: TruncationPolicy,
) -> tuple[np.ndarray, np.ndarray, float, str]:
    """Log weights log(weight(U_n)) + beta U_n over the support, with the
    utilities, the tail fraction and its rule.  beta * U_n may overflow to
    inf, which ``_finite_top`` then refuses."""
    _check_sign(utilities, beta)
    with np.errstate(over="ignore"):
        if utilities.finite:
            values = utilities.values(1, utilities.size + 1)
            return log_attribute_weights(prior, values) + beta * values, values, 0.0, "finite"
        return _stream_truncated(prior, utilities, beta, policy)


def _nonzero_top(log_weights: np.ndarray) -> float:
    top = _finite_top(log_weights)
    if top == -math.inf:
        raise DomainError("all prior weights are zero; distribution undefined")
    return top


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
    log_weights, values, tail, rule = _log_weights(prior, utilities, beta, policy)
    probs = np.exp(log_weights - _nonzero_top(log_weights))
    probs /= probs.sum()
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
        _check_sign(utilities, beta)
        return Moments(*utilities.luce_moments(beta))
    log_weights, values, _, _ = _log_weights(prior, utilities, beta, policy)
    w = np.exp(log_weights - _nonzero_top(log_weights))
    w /= w.sum()
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(w @ values)
        d = values - mean
        wd2 = w * d * d
        return Moments(mean, float(wd2.sum()), float(wd2 @ d))


def bernoulli_partition_closed(beta: float) -> float:
    """Closed form of sum_{n>=1} n exp(beta n) for beta < 0:
    1 / (4 sinh^2(|beta|/2))."""
    if beta >= 0.0:
        raise SignError(f"partition sum diverges for beta >= 0, got {beta}")
    s = math.sinh(abs(beta) / 2.0)
    return 1.0 / (4.0 * s * s)


def stochastically_optimal(dist: PosteriorDistribution) -> int:
    """Index of the largest probability; ties break to the smallest index."""
    return int(np.argmax(dist.probs)) + 1


def integer_bracket(x_star: float) -> tuple[int, int]:
    """Integer bracket around a continuous optimum x* for a family with
    U_n = n: (entier(x*), entier(x*) + 1), clamped below at index 1."""
    low = max(1, math.floor(x_star))
    return low, max(low, math.floor(x_star) + 1)

