"""The truncation engine, which evaluates whole prefixes in rounds of
doubling length, against the per-term loop it replaced and at every first
prefix length; the array prior log weight against the scalar one, declared
tail certificates, and high-precision oracles for the coin-toss family."""

import json
import math

import numpy as np
import pytest

from petersburg import (
    DomainError,
    ExpectedUtilitySeq,
    PosteriorDistribution,
    PriorSpec,
    TruncationError,
    TruncationPolicy,
    bernoulli_utilities,
    posterior,
    repeated_game_utilities,
)
from petersburg import posteriors
from petersburg.cli import main
from petersburg.posteriors import _stream_truncated
from petersburg.priors import log_attribute_weights

PRIORS = [
    PriorSpec("luce"),
    PriorSpec("power", alpha=2.0),
    PriorSpec("log", u0=1.0),
    PriorSpec("logit", b=1.0, c=0.0, gamma=0.5),
]
BETAS = [-3.0, -1.0, -0.3, -0.05, -0.01, -0.003, -0.001]


def _document(prior):
    """The prior's config document: its kind and set parameters."""
    return {k: v for k, v in vars(prior).items() if v is not None}


def log_attribute_weight(prior, u):
    """The prior's log weight at one utility, one branch per family, kept as
    the per-term reference for the array law; -inf where the weight is 0."""
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


def reference_stream(prior, utilities, beta, policy):
    """The per-term loop the engine replaced, kept as the reference.

    It infers the geometric majorant from the evaluated prefix, which is
    only sound on sequences with U_n = n; the comparisons below use it on
    the built-in sequences, where it agrees with the declared rule.  Where
    it inferred the majorant, a heuristic stop reports the majorant's tail,
    inf while the weights still rise.
    """
    rel_log = math.log(policy.rel_tol)
    log_weights, values = [], []
    run_max, run_sum = -math.inf, 0.0
    monotone = incs_nondecreasing = ratios_nonincreasing = True
    prev_u = prev_la = prev_lw = prev_inc = prev_ratio = None
    small_run = 0
    head = np.empty(0)
    for n in range(1, policy.max_index + 1):
        if n > len(head):  # read the prefix through 2n, once per doubling
            head = utilities.values(2 * n)
            if n > len(head):
                raise TruncationError(f"family ended at {n - 1}")
        u = float(head[n - 1])
        la = log_attribute_weight(prior, u)
        lw = la + beta * u
        log_weights.append(lw)
        values.append(u)
        if lw != -math.inf:
            if lw > run_max:
                run_sum = run_sum * math.exp(run_max - lw) + 1.0
                run_max = lw
            else:
                run_sum += math.exp(lw - run_max)
        if prev_u is not None:
            inc = u - prev_u
            monotone = monotone and inc > 0.0
            if prev_inc is not None and inc < prev_inc - 1e-15:
                incs_nondecreasing = False
            prev_inc = inc
            ratio = la - prev_la
            if prev_ratio is not None and not ratio <= prev_ratio + 1e-12:
                ratios_nonincreasing = False
            prev_ratio = ratio
            # q = w_n / w_(n-1) from the weights summed: near the stops at
            # small |beta|, log q ~ -1e-3 and another rounding of it moves
            # the tail by ~1e-12
            log_q = lw - prev_lw
        prev_u, prev_la, prev_lw = u, la, lw
        if run_sum <= 0.0 or n < 4:
            continue
        log_sum = run_max + math.log(run_sum)
        log_tail = None
        if (monotone and incs_nondecreasing and ratios_nonincreasing
              and prev_inc is not None and prev_inc > 0.0
              and prev_ratio is not None and math.isfinite(prev_ratio)):
            log_tail = math.inf
            if log_q < 0.0:
                log_tail = lw + log_q - math.log1p(-math.exp(log_q))
        if log_tail is not None and log_tail <= rel_log + log_sum:
            return log_weights, values, math.exp(log_tail - log_sum)
        if lw <= rel_log + log_sum:
            small_run += 1
            if small_run >= 50:
                if log_tail is None:
                    log_tail = math.log(50) + lw
                return log_weights, values, math.exp(log_tail - log_sum)
        else:
            small_run = 0
    raise TruncationError(f"tail bound not reached within {policy.max_index}")


def _outcome(stream, prior, utilities, beta, policy):
    try:
        return stream(prior, utilities, beta, policy)
    except TruncationError:
        return None


class TestEngineMatchesReferenceLoop:
    # max_index bounds the reference loop's cost; the run-length family
    # mostly runs out of it, which both sides must report the same way
    @pytest.mark.parametrize("make_seq, max_index", [
        (bernoulli_utilities, 60_000),
        (repeated_game_utilities, 5_000),
    ])
    @pytest.mark.parametrize("prior", PRIORS, ids=lambda p: p.kind)
    def test_same_stop_tail_and_probabilities(self, make_seq, max_index, prior):
        policy = TruncationPolicy(max_index=max_index)
        for beta in BETAS:
            ref = _outcome(reference_stream, prior, make_seq(), beta, policy)
            got = _outcome(_stream_truncated, prior, make_seq(), beta, policy)
            if ref is None:
                assert got is None, beta
                continue
            assert got is not None, beta
            ref_lw, ref_u, ref_tail = ref
            lw, u, tail, rule = got
            assert len(lw) == len(ref_lw), beta
            np.testing.assert_allclose(u, ref_u, rtol=1e-15)
            np.testing.assert_allclose(tail, ref_tail, rtol=1e-12)
            ref_p = np.exp(np.asarray(ref_lw) - max(ref_lw))
            p = np.exp(lw - lw.max())
            np.testing.assert_allclose(p / p.sum(), ref_p / ref_p.sum(), rtol=1e-13)

    @pytest.mark.parametrize("prior, beta, n_trunc, rule", [
        # no rule is tested before the fourth term
        (PriorSpec("luce"), -30.0, 4, "majorant"),
        (PriorSpec("power", alpha=2.0), -30.0, 4, "majorant"),
        # stops just inside the first prefix, sized from the optimum: 17 of
        # 19 terms at beta = -2, 49 of 56 at -0.7
        (PriorSpec("power", alpha=0.5), -2.0, 17, "majorant"),
        (PriorSpec("power", alpha=0.5), -0.7, 49, "majorant"),
        # both rules fire at n = 606; the certificate wins the tie
        (PriorSpec("luce"), -0.0591, 606, "majorant"),
    ])
    def test_edge_stops(self, prior, beta, n_trunc, rule):
        policy = TruncationPolicy()
        ref_lw, _, ref_tail = reference_stream(prior, bernoulli_utilities(), beta, policy)
        lw, _, tail, got_rule = _stream_truncated(prior, bernoulli_utilities(), beta, policy)
        assert len(lw) == len(ref_lw) == n_trunc
        assert got_rule == rule
        np.testing.assert_allclose(tail, ref_tail, rtol=1e-12)

    def test_stop_after_a_long_run_of_small_terms(self):
        # a stop far past the first 16 terms, after a second round for
        # logit (3,760 terms past a first prefix of 3,184); the tail is the
        # majorant's
        policy = TruncationPolicy()
        for prior, beta in ((PriorSpec("luce"), -0.02), (PriorSpec("logit", b=1.0), -0.02)):
            ref_lw, _, ref_tail = reference_stream(prior, bernoulli_utilities(), beta, policy)
            lw, _, tail, rule = _stream_truncated(prior, bernoulli_utilities(), beta, policy)
            assert len(lw) == len(ref_lw)
            assert rule == "heuristic"
            np.testing.assert_allclose(tail, ref_tail, rtol=1e-12)

    def test_stop_before_a_steep_rise_in_the_same_prefix(self, monkeypatch):
        # 50 small terms end at n = 53, inside a first prefix of 128 terms,
        # whose term at n = 100 outweighs everything before it by ~737 nats:
        # the partial sums shifted by it underflow at the prefix's start, and
        # the log-domain sums take over
        monkeypatch.setattr(posteriors, "_first_size", lambda *args: 128)

        def fn(n):
            return np.where(n <= 3, 1.0, np.where(n != 100, 40.0, -1e-320))

        policy = TruncationPolicy()
        ref_lw, _, ref_tail = reference_stream(
            PriorSpec("luce"), ExpectedUtilitySeq(fn), -1.0, policy
        )
        lw, _, tail, rule = _stream_truncated(
            PriorSpec("luce"), ExpectedUtilitySeq(fn), -1.0, policy
        )
        assert len(lw) == len(ref_lw) == 53
        assert rule == "heuristic"
        np.testing.assert_allclose(tail, ref_tail, rtol=1e-12)

    @pytest.mark.parametrize("zeros", [2, 60])
    def test_leading_zero_weights(self, zeros):
        # U = 0 weighs 0 under luce: no term counts as small, and no rule is
        # tested, until the retained sum is positive
        seq = ExpectedUtilitySeq(lambda n: np.where(n <= zeros, 0.0, 2.0 * n))
        policy = TruncationPolicy()
        ref_lw, _, ref_tail = reference_stream(PriorSpec("luce"), seq, -1.0, policy)
        lw, _, tail, rule = _stream_truncated(PriorSpec("luce"), seq, -1.0, policy)
        assert len(lw) == len(ref_lw)
        np.testing.assert_allclose(tail, ref_tail, rtol=1e-12)

    def test_family_that_ends_before_the_tail_bound(self):
        seq = ExpectedUtilitySeq(lambda n: np.where(n <= 40, 1.0, math.inf))
        with pytest.raises(TruncationError, match="ended at index 40"):
            _stream_truncated(PriorSpec("luce"), seq, -0.5, TruncationPolicy())

    def test_error_at_the_first_index_propagates(self):
        seq = ExpectedUtilitySeq(lambda n: np.full_like(n, math.nan))
        with pytest.raises(DomainError):
            posterior(PriorSpec("luce"), seq, -0.5)

    def test_rule_fires_before_a_later_evaluation_error(self, monkeypatch):
        # the family ends at index 80, inside a first prefix of 128 terms;
        # the heuristic stop comes first, as in the per-term loop
        monkeypatch.setattr(posteriors, "_first_size", lambda *args: 128)

        def fn(n):
            return np.where(n < 80, 1.0 + np.log2(n), math.nan)

        policy = TruncationPolicy(rel_tol=1e-3)
        ref_lw, _, ref_tail = reference_stream(
            PriorSpec("luce"), ExpectedUtilitySeq(fn), -3.0, policy
        )
        lw, _, tail, rule = _stream_truncated(
            PriorSpec("luce"), ExpectedUtilitySeq(fn), -3.0, policy
        )
        assert 49 <= len(lw) == len(ref_lw) < 80
        assert rule == "heuristic"
        np.testing.assert_allclose(tail, ref_tail, rtol=1e-12)


class TestFirstPrefixSize:
    """The first prefix length sets the cost of a sum, never its stop."""

    # (sequence, max_index): max_index bounds the run-length rounds, which
    # mostly run out of it
    SEQUENCES = {
        "identity": (bernoulli_utilities, 10 ** 6),
        "doubled": (lambda: ExpectedUtilitySeq(lambda n: 2.0 * n), 10 ** 6),
        "run-length": (repeated_game_utilities, 5_000),
    }

    @pytest.mark.parametrize("name", SEQUENCES)
    @pytest.mark.parametrize("prior", PRIORS, ids=lambda p: p.kind)
    def test_stops_do_not_depend_on_the_first_prefix(self, monkeypatch, name, prior):
        make_seq, max_index = self.SEQUENCES[name]
        policy = TruncationPolicy(max_index=max_index)
        sized = posteriors._first_size
        for beta in BETAS:
            outcomes = []
            for first in (sized, lambda *args: 1, lambda *args: 16, lambda *args: 256):
                monkeypatch.setattr(posteriors, "_first_size", first)
                outcomes.append(_outcome(_stream_truncated, prior, make_seq(), beta, policy))
            ref = outcomes[0]
            for got in outcomes[1:]:
                assert (got is None) == (ref is None), beta
                if ref is None:
                    continue
                lw, u, tail, rule = got
                assert (len(lw), rule) == (len(ref[0]), ref[3]), beta
                assert np.array_equal(lw, ref[0]) and np.array_equal(u, ref[1]), beta
                np.testing.assert_allclose(tail, ref[2], rtol=1e-14)

    @pytest.mark.parametrize("prior, rounds", zip(PRIORS, (1, 1, 1, 2)),
                             ids=[p.kind for p in PRIORS])
    def test_the_sized_prefix_holds_the_common_stop(self, prior, rounds):
        # on U_n = n the first prefix, sized from the optimum, holds the stop
        # at every beta of the grid; logit's slower decay may take a second
        for beta in BETAS:
            seq, his = bernoulli_utilities(), []
            values = seq.values
            seq.values = lambda m: his.append(m) or values(m)
            posterior(prior, seq, beta)
            assert len(his) <= rounds, (beta, his)

    @staticmethod
    def _overflow_at(at):
        """U = 1 for n <= 3, then 40, but -1e308 at n = ``at``, where beta = -2
        overflows the weight; the heuristic stops at n = 53."""
        return ExpectedUtilitySeq(
            lambda n: np.where(n <= 3, 1.0, np.where(n != at, 40.0, -1e308))
        )

    @pytest.mark.parametrize("first", [1, 16, 64, 128])
    def test_an_overflow_past_the_stop_is_never_reached(self, monkeypatch, first):
        # whatever the first prefix, a prefix that holds n = 60 ends before
        # it, and the rule fires in what is left
        monkeypatch.setattr(posteriors, "_first_size", lambda *args: first)
        dist = posterior(PriorSpec("luce"), self._overflow_at(60), -2.0)
        assert (dist.n_trunc, dist.tail_rule) == (53, "heuristic")

    @pytest.mark.parametrize("first", [1, 16, 64, 128])
    def test_an_overflow_before_the_stop_is_a_domain_error(self, monkeypatch, first):
        monkeypatch.setattr(posteriors, "_first_size", lambda *args: first)
        with pytest.raises(DomainError, match="a posterior log weight is inf; the weights overflow"):
            posterior(PriorSpec("luce"), self._overflow_at(40), -2.0)


class TestDeclaredCertificates:
    def test_rules_on_the_coin_toss_family(self):
        seq = bernoulli_utilities()
        for prior in PRIORS:
            assert posterior(prior, seq, -1.0).tail_rule == "majorant"
        # small |beta|: fifty small terms come before the certificate
        assert posterior(PriorSpec("luce"), seq, -0.001).tail_rule == "heuristic"

    def test_tail_is_inf_while_the_weights_still_rise(self):
        # a large rel_tol stops the sum at n = 126, far below the mode near
        # n = 3,000: no ratio below 1 bounds the terms past the stop
        policy, prior = TruncationPolicy(rel_tol=0.05), PriorSpec("power", alpha=3.0)
        dist = posterior(prior, bernoulli_utilities(), -0.001, policy)
        assert (dist.n_trunc, dist.tail_rule, dist.tail_bound) == (126, "heuristic", math.inf)
        ref = reference_stream(prior, bernoulli_utilities(), -0.001, policy)
        assert (len(ref[0]), ref[2]) == (126, math.inf)

    def test_undeclared_sequences_get_the_heuristic(self):
        doubled = ExpectedUtilitySeq(lambda n: 2.0 * n)
        assert posterior(PriorSpec("luce"), doubled, -1.0).tail_rule == "heuristic"
        dist = posterior(PriorSpec("luce"), repeated_game_utilities(), -6.0)
        assert dist.tail_rule == "heuristic"

    def test_finite_family(self):
        dist = posterior(PriorSpec("luce"), ExpectedUtilitySeq.from_values([1.0, 2.0]), 0.0)
        assert dist.tail_rule == "finite" and dist.tail_bound == 0.0

    def test_plateau_family_never_claims_a_certified_tail(self):
        # U_n = n up to 100 and 1 after: the omitted mass is infinite.
        # Inferring a majorant from the evaluated prefix stopped at n = 36
        # with a bound of 5.5e-15.
        plateau = ExpectedUtilitySeq(lambda n: np.where(n <= 100, n, 1.0))
        try:
            dist = posterior(PriorSpec("power", alpha=1.0), plateau, -1.0)
        except TruncationError:
            return
        assert dist.tail_rule == "heuristic"

    def test_provenance_in_outputs(self, capsys):
        argv = ["distribution", "--prior", "power", "--alpha", "2", "--beta", "-1",
                "--no-timestamp", "--format"]
        assert main([*argv, "json"]) == 0
        assert json.loads(capsys.readouterr().out)["meta"]["tail_rule"] == "majorant"
        assert main([*argv, "csv"]) == 0
        assert "# tail_rule: majorant\n" in capsys.readouterr().out

    def test_unknown_rule_rejected(self):
        with pytest.raises(DomainError):
            PosteriorDistribution(np.ones(1), np.ones(1), 0.0, 1, 0.0, "guess")


class TestArrayLogWeight:
    GRID = np.array([0.0, 1e-300, 1e-8, 0.3, 1.0, 2.5, 17.0, 1e3, 123456.0, 1e12])

    @pytest.mark.parametrize("prior", PRIORS + [
                                 PriorSpec("power", alpha=0.5), PriorSpec("log", u0=0.3),
                                 PriorSpec("logit", b=0.7, c=-0.4, gamma=0.3)],
                             ids=lambda p: repr(_document(p)))
    def test_matches_scalar(self, prior):
        u = self.GRID
        if prior.kind == "luce":
            u = np.concatenate([u, -u[1:]])
        expected = np.array([log_attribute_weight(prior, float(x)) for x in u])
        got = log_attribute_weights(prior, u)
        assert got.shape == expected.shape
        # numpy's and libm's log may differ in the last bit
        np.testing.assert_allclose(got, expected, rtol=4e-16, atol=0.0)
        assert np.array_equal(np.isneginf(got), np.isneginf(expected))

    @pytest.mark.parametrize("prior", PRIORS[1:], ids=lambda p: p.kind)
    def test_negative_utility_rejected(self, prior):
        with pytest.raises(DomainError):
            log_attribute_weights(prior, np.array([1.0, -0.5, 2.0]))


class TestHighPrecisionOracle:
    """Coin-toss luce posteriors against 40-digit sums."""

    @pytest.mark.parametrize("beta", [-1e-3, -0.1, -1.0, -3.0])
    def test_retained_partition(self, beta):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            r = mpmath.exp(beta)
            full = r / (1 - r) ** 2  # sum_{n>=1} n r^n
            dist = posterior(PriorSpec("luce"), bernoulli_utilities(), beta)
            n = dist.n_trunc
            # sum_{k<=n} k r^k in closed form
            retained = r * (1 - (n + 1) * r ** n + n * r ** (n + 1)) / (1 - r) ** 2
            omitted = float((full - retained) / retained)
        # the majorant's bound at every stop, the heuristic's at beta = -1e-3
        # included, where the heuristic's own figure was ~21 times too small
        assert omitted <= dist.tail_bound <= 1.1 * omitted

    def test_certified_stops_bound_the_omitted_mass(self):
        # 25 betas in [-40, -1e-3]: every stop, whichever rule made it,
        # reports at least the omitted mass, and at most 1.1 times it (16/15
        # where the n = 4 floor binds)
        mpmath = pytest.importorskip("mpmath")
        rules = set()
        for beta in (-np.geomspace(1e-3, 40.0, 25)).tolist():
            dist = posterior(PriorSpec("luce"), bernoulli_utilities(), beta)
            rules.add(dist.tail_rule)
            n = dist.n_trunc
            with mpmath.workdps(40):
                r = mpmath.exp(beta)
                # sum_{k>n} k r^k over sum_{k<=n} k r^k, neither by difference
                tail = r ** (n + 1) * (n + 1 - n * r) / (1 - r) ** 2
                retained = mpmath.fsum(k * r ** k for k in range(1, n + 1))
                omitted = float(tail / retained)
            assert omitted <= dist.tail_bound <= 1.1 * omitted, beta
        assert rules == {"majorant", "heuristic"}

    @pytest.mark.parametrize("prior", PRIORS[1:], ids=lambda p: p.kind)
    @pytest.mark.parametrize("beta", [-0.01, -0.03])
    def test_heuristic_stops_report_a_bound_under_every_prior(self, prior, beta):
        # the small-term run stops these sums, and the majorant's figure at
        # the stop is within 1.5% above the omitted mass
        mpmath = pytest.importorskip("mpmath")
        dist = posterior(prior, bernoulli_utilities(), beta)
        assert dist.tail_rule == "heuristic"
        weight = {
            "power": lambda k: k ** prior.alpha,
            "log": lambda k: mpmath.log1p(k / prior.u0),
            "logit": lambda k: mpmath.exp(prior.b * k ** prior.gamma + prior.c),
        }[prior.kind]
        n = dist.n_trunc
        with mpmath.workdps(30):
            b = mpmath.mpf(beta)
            retained = mpmath.fsum(weight(k) * mpmath.exp(b * k) for k in range(1, n + 1))
            tail = mpmath.nsum(lambda k: weight(k) * mpmath.exp(b * k), [n + 1, mpmath.inf])
            omitted = float(tail / retained)
        assert omitted <= dist.tail_bound <= 1.02 * omitted

    @pytest.mark.parametrize("beta", [-1e-3, -0.1, -1.0])
    def test_posterior_variance(self, beta):
        mpmath = pytest.importorskip("mpmath")
        dist = posterior(PriorSpec("luce"), bernoulli_utilities(), beta)
        mean = float(np.dot(dist.probs, dist.utilities))
        var = float(np.dot(dist.probs, (dist.utilities - mean) ** 2))
        closed = bernoulli_utilities().luce_moments(beta)[1]
        with mpmath.workdps(40):
            s = mpmath.sinh(mpmath.mpf(abs(beta)) / 2)
            np.testing.assert_allclose(closed, float(1 / (2 * s * s)), rtol=1e-13)
        # what the truncated support leaves out of the variance: ~6e-12 at
        # the certified stops, ~4e-9 after the heuristic stop at -1e-3
        rtol = 1e-10 if dist.tail_rule == "majorant" else 1e-8
        np.testing.assert_allclose(var, closed, rtol=rtol)
