"""Posterior distributions: closed forms, reductions, optima, and stability."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from petersburg import (
    DomainError,
    ExpectedUtilitySeq,
    PriorSpec,
    SignError,
    TruncationError,
    TruncationPolicy,
    bernoulli_utilities,
    continuous_optimum,
    integer_bracket,
    posterior,
    stochastically_optimal,
)
from petersburg.cli import main

LUCE = PriorSpec.luce()


def run_cli(capsys, *argv) -> str:
    assert main([*argv, "--no-timestamp"]) == 0
    return capsys.readouterr().out


def _series_sum(beta: float, power: int) -> float:
    """Brute-force sum of n**power * exp(beta*n), summed until negligible."""
    n = np.arange(1.0, math.ceil(80.0 / abs(beta)) + 50.0)
    return float(np.sum(n ** power * np.exp(beta * n)))


def _partition(beta: float) -> float:
    """sum_{n>=1} n exp(beta n) as the engine normalizes the coin-toss luce
    posterior: the weight of n = 1 over its probability."""
    return math.exp(beta) / posterior(LUCE, bernoulli_utilities(), beta).prob(1)


class TestPartitionClosedForm:
    def test_value_at_minus_two(self):
        np.testing.assert_allclose(_partition(-2.0), 0.181015, atol=1e-5)

    def test_value_at_minus_one(self):
        np.testing.assert_allclose(_partition(-1.0), 0.92067, atol=1e-4)

    @pytest.mark.parametrize("beta", [-5.0, -2.0, -1.0, -0.5, -0.1])
    def test_matches_series_oracle(self, beta):
        np.testing.assert_allclose(_partition(beta), _series_sum(beta, 1), rtol=1e-12)

    @pytest.mark.parametrize("beta", [0.0, 0.5])
    def test_sign_rule(self, beta):
        with pytest.raises(SignError):
            _partition(beta)


class TestPosteriorConstruction:
    def test_bernoulli_probabilities_match_closed_form(self):
        dist = posterior(LUCE, bernoulli_utilities(), -1.0)
        z = 1.0 / (4.0 * math.sinh(0.5) ** 2)  # sum_n n e^-n
        for n in range(1, 11):
            expected = n * math.exp(-float(n)) / z
            np.testing.assert_allclose(dist.prob(n), expected, rtol=1e-10)
        np.testing.assert_allclose(dist.prob(1), 0.3996, atol=1e-4)

    def test_normalization(self):
        for beta in (-0.2, -1.0, -3.0):
            dist = posterior(LUCE, bernoulli_utilities(), beta)
            assert abs(float(dist.probs.sum()) - 1.0) <= 1e-12

    def test_neutral_belief_returns_normalized_prior(self):
        values = np.array([0.5, 2.0, 1.0, 4.0, 3.0])
        seq = ExpectedUtilitySeq.from_values(values)
        prior_weights = {
            "luce": values,
            "power": values ** 2.0,
            "log": np.log1p(values),
            "logit": np.exp(np.sqrt(values)),
        }
        for prior in (LUCE, PriorSpec.power(2.0), PriorSpec.log_shape(1.0),
                      PriorSpec.logit(1.0, 0.0, 0.5)):
            dist = posterior(prior, seq, 0.0)
            weights = prior_weights[prior.kind]
            np.testing.assert_allclose(
                dist.probs, weights / weights.sum(), rtol=1e-14, atol=1e-16
            )

    def test_tail_bound_small(self):
        dist = posterior(LUCE, bernoulli_utilities(), -1.0)
        assert 0.0 <= dist.tail_bound < 1e-13

    def test_sign_error_for_unbounded_utilities(self):
        for beta in (0.0, 0.5, 2.0):
            with pytest.raises(SignError):
                posterior(LUCE, bernoulli_utilities(), beta)

    def test_truncation_failure(self):
        policy = TruncationPolicy(rel_tol=1e-14, max_index=10)
        with pytest.raises(TruncationError):
            posterior(LUCE, bernoulli_utilities(), -0.1, policy)

    def test_mixed_sign_uses_piecewise_attribute(self):
        seq = ExpectedUtilitySeq.from_values([-2.0, -0.5, 1.0, 3.0])
        beta = -0.25
        dist = posterior(LUCE, seq, beta)
        attrs = np.array([0.5, 2.0, 1.0, 3.0])
        weights = attrs * np.exp(beta * np.array([-2.0, -0.5, 1.0, 3.0]))
        np.testing.assert_allclose(dist.probs, weights / weights.sum(), rtol=1e-12)

    def test_strong_belief_concentrates_on_max(self):
        seq = ExpectedUtilitySeq.from_values([0.5, 1.5, 2.5, 3.5, 4.5])
        dist = posterior(LUCE, seq, 50.0)
        assert dist.prob(5) > 1.0 - 1e-10

    def test_strong_disbelief_concentrates_on_min(self):
        seq = ExpectedUtilitySeq.from_values([0.5, 1.5, 2.5, 3.5, 4.5])
        dist = posterior(LUCE, seq, -50.0)
        assert dist.prob(1) > 1.0 - 1e-10

    def test_log_domain_stability_small_beta(self):
        dist = posterior(LUCE, bernoulli_utilities(), -0.01)
        assert np.all(np.isfinite(dist.probs))
        assert abs(float(dist.probs.sum()) - 1.0) <= 1e-12

    def test_log_domain_stability_wide_support(self):
        dist = posterior(LUCE, bernoulli_utilities(), -0.0004)
        assert dist.n_trunc > 5 * 10 ** 4
        assert np.all(np.isfinite(dist.probs))
        assert abs(float(dist.probs.sum()) - 1.0) <= 1e-12

    def test_all_zero_weights_rejected(self):
        seq = ExpectedUtilitySeq.from_values([0.0, 0.0])
        with pytest.raises(DomainError):
            posterior(LUCE, seq, 0.0)

    @pytest.mark.parametrize("at", [1, 40])  # in the first chunk and a later one
    def test_overflowing_weight_rejected_when_streamed(self, at):
        # beta * U_n = 2e308 overflows to inf; it once normalized to nan
        seq = ExpectedUtilitySeq(
            lambda n: np.where(n == at, 1e308, 1.0 / n), unbounded=False
        )
        with pytest.raises(DomainError, match="overflow"):
            posterior(LUCE, seq, 2.0)

    @pytest.mark.parametrize(
        "prior",
        [PriorSpec.power(2.0), PriorSpec.power(0.5), PriorSpec.logit(1.0, 0.0, 0.5)],
    )
    @pytest.mark.parametrize("beta", [-0.5, -1.5])
    def test_truncated_sums_match_brute_force(self, prior, beta):
        # the majorant stopping rule must not bias the normalization: compare
        # against a long direct summation of the same weights
        dist = posterior(prior, bernoulli_utilities(), beta)
        n = np.arange(1.0, 4000.0)
        if prior.kind == "power":
            attrs = n ** prior.alpha
        else:
            attrs = np.exp(prior.b * np.sqrt(n))
        weights = attrs * np.exp(beta * n)
        expected = weights[: dist.n_trunc] / weights.sum()
        np.testing.assert_allclose(dist.probs, expected, rtol=1e-11)

    @given(
        values=st.lists(
            st.floats(0.1, 10.0), min_size=2, max_size=8, unique=True
        ),
        beta=st.floats(-3.0, 3.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_finite_family_properties(self, values, beta):
        seq = ExpectedUtilitySeq.from_values(values)
        dist = posterior(LUCE, seq, beta)
        assert abs(float(dist.probs.sum()) - 1.0) <= 1e-12
        assert np.all(dist.probs >= 0.0)
        weights = np.array(values) * np.exp(beta * np.array(values))
        np.testing.assert_allclose(
            dist.probs, weights / weights.sum(), rtol=1e-11, atol=1e-15
        )


class TestStochasticOptimum:
    def test_calibrated_disbelief_prefers_first(self):
        dist = posterior(LUCE, bernoulli_utilities(), -1.157)
        assert stochastically_optimal(dist) == 1

    def test_small_disbelief_prefers_ten(self):
        # direct oracle: 9 e^-0.9 = 3.659 < 10 e^-1.0 = 3.679
        dist = posterior(LUCE, bernoulli_utilities(), -0.1)
        assert stochastically_optimal(dist) == 10

    def test_single_lottery_family(self):
        dist = posterior(LUCE, ExpectedUtilitySeq.from_values([7.0]), 0.0)
        assert stochastically_optimal(dist) == 1


def luce_bracket(beta: float) -> tuple[int, int]:
    return integer_bracket(continuous_optimum(LUCE, beta))


class TestOptimalBracket:
    def test_clamped_at_one(self):
        assert luce_bracket(-1.157) == (1, 1)

    def test_exact_entier(self):
        assert luce_bracket(-0.25) == (4, 5)

    def test_discrete_optimum_in_bracket_example(self):
        assert luce_bracket(-0.3) == (3, 4)
        dist = posterior(LUCE, bernoulli_utilities(), -0.3)
        assert stochastically_optimal(dist) == 3

    def test_sign_rule(self):
        with pytest.raises(SignError):
            luce_bracket(0.5)

    def test_containment_sweep(self):
        for k in range(1, 61):
            beta = -0.05 * k
            low, high = luce_bracket(beta)
            n_opt = stochastically_optimal(posterior(LUCE, bernoulli_utilities(), beta))
            assert low <= n_opt <= high, (beta, low, n_opt, high)


class TestCompare:
    # stochastic preference: lottery i is preferred to j when P_i > P_j
    def test_reflexive_indifference(self):
        # equal expected utilities carry equal probabilities
        dist = posterior(LUCE, ExpectedUtilitySeq.from_values([1.0, 2.0, 2.0]), -1.0)
        assert dist.prob(2) == dist.prob(3)

    def test_first_preferred_over_fifth(self):
        dist = posterior(LUCE, bernoulli_utilities(), -1.0)
        assert dist.prob(1) > dist.prob(5)

    def test_neutral_prior_prefers_larger_attribute(self):
        seq = ExpectedUtilitySeq.from_values([1.0, 2.0, 3.0])
        dist = posterior(LUCE, seq, 0.0)
        assert dist.prob(2) > dist.prob(1)
        assert dist.prob(3) > dist.prob(2)

    def test_out_of_range(self):
        dist = posterior(LUCE, ExpectedUtilitySeq.from_values([1.0, 2.0]), 0.0)
        with pytest.raises(DomainError):
            dist.prob(3)


class TestGlobalMean:
    @pytest.mark.parametrize("beta", [-1.0, -2.0])
    def test_hyperbolic_identity(self, beta):
        dist = posterior(LUCE, bernoulli_utilities(), beta)
        expected = 1.0 / math.tanh(abs(beta) / 2.0)
        np.testing.assert_allclose(dist.probs @ dist.utilities, expected, rtol=1e-8)

    @pytest.mark.parametrize("beta", [-1.0, -2.0, -0.5])
    def test_against_series_oracle(self, beta):
        dist = posterior(LUCE, bernoulli_utilities(), beta)
        oracle = _series_sum(beta, 2) / _series_sum(beta, 1)
        np.testing.assert_allclose(dist.probs @ dist.utilities, oracle, rtol=1e-10)

    def test_second_moment_identity(self):
        for beta in (-0.5, -1.0, -2.0):
            dist = posterior(LUCE, bernoulli_utilities(), beta)
            u = dist.probs @ dist.utilities
            second = float(np.dot(dist.probs, dist.utilities ** 2))
            np.testing.assert_allclose(second, 0.5 * (3.0 * u * u - 1.0), rtol=1e-8)

    def test_degenerate_family(self):
        dist = posterior(LUCE, ExpectedUtilitySeq.from_values([7.0]), 0.0)
        assert dist.probs @ dist.utilities == 7.0


class TestSerialization:
    def test_json_shape(self, capsys, tmp_path):
        # two sure payoffs: U_1 = 1, U_2 = 2
        family = tmp_path / "family.json"
        family.write_text(json.dumps({"family": "custom", "lotteries": [
            {"outcomes": [{"payoff": 1.0, "prob": 1.0}]},
            {"outcomes": [{"payoff": 2.0, "prob": 1.0}]},
        ]}))
        out = run_cli(capsys, "distribution", "--game", str(family), "--beta", "0",
                      "--format", "json")
        doc = json.loads(out)
        assert doc["meta"]["n_trunc"] == 2
        assert doc["meta"]["beta"] == 0.0
        assert len(doc["rows"]) == 2
        # the CLI prints 12 significant digits
        np.testing.assert_allclose(doc["rows"][1]["prob"], 2.0 / 3.0, rtol=1e-11)

    def test_csv_contents(self, capsys):
        dist = posterior(LUCE, bernoulli_utilities(), -1.0)
        out = run_cli(capsys, "distribution", "--beta", "-1.0", "--format", "csv")
        lines = out.splitlines()
        assert lines[0].startswith("# beta: -1")
        assert lines[3] == "# tail_rule: majorant"
        assert lines[4] == "n,U_n,prob"
        first = lines[5].split(",")
        assert first[0] == "1" and first[1] == "1"
        np.testing.assert_allclose(float(first[2]), dist.prob(1), rtol=1e-11)

    def test_distribution_is_immutable(self):
        dist = posterior(LUCE, bernoulli_utilities(), -1.0)
        with pytest.raises(ValueError):
            dist.probs[0] = 0.5


class TestTruncationPolicyValidation:
    def test_bad_rel_tol(self):
        with pytest.raises(DomainError):
            TruncationPolicy(rel_tol=0.0)

    @pytest.mark.parametrize("rel_tol", [1.0, 1.5])
    def test_rel_tol_of_one_or_more(self, rel_tol):
        # the tail left out could then outweigh the sum kept
        with pytest.raises(DomainError, match=r"rel_tol must be in \(0, 1\)"):
            TruncationPolicy(rel_tol=rel_tol)

    def test_bad_max_index(self):
        with pytest.raises(DomainError):
            TruncationPolicy(max_index=0)
