"""Lottery construction, expected utilities, and the geometric closed form."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from petersburg import (
    DomainError,
    ExpectedUtilitySeq,
    GameFamily,
    Lottery,
    UtilitySpec,
    bernoulli_lottery,
    bernoulli_utilities,
    expected_utility,
    geometric_expected_utility,
)


class TestBernoulliLottery:
    def test_first_lottery(self):
        lot = bernoulli_lottery(1)
        assert lot.outcomes == ((2.0, 0.5),)
        assert lot.residual_probability == 0.5

    def test_second_lottery(self):
        lot = bernoulli_lottery(2)
        assert lot.outcomes == ((2.0, 0.5), (4.0, 0.25))
        assert lot.residual_probability == 0.25

    def test_probabilities_sum_exactly_to_one(self):
        lot = bernoulli_lottery(10)
        assert sum(lot.probabilities) + lot.residual_probability == 1.0

    @pytest.mark.parametrize("bad", [0, -1, -7])
    def test_invalid_index(self, bad):
        with pytest.raises(DomainError):
            bernoulli_lottery(bad)

    def test_index_beyond_float_range(self):
        with pytest.raises(DomainError):
            bernoulli_lottery(1024)

    def test_family_normalization(self):
        family = GameFamily.bernoulli()
        for n in range(1, 101):
            lot = family.lottery(n)
            total = sum(lot.probabilities) + lot.residual_probability
            assert abs(total - 1.0) <= 1e-12


class TestExpectedUtility:
    def test_linear_equals_toss_count_exactly(self):
        for n in range(1, 51):
            value = expected_utility(bernoulli_lottery(n), UtilitySpec.linear())
            assert value == float(n)

    @pytest.mark.parametrize("n", [1, 3, 10, 40])
    def test_logarithmic_partial_sums(self, n):
        # independent oracle: sum of m*ln(2)/2^m over the winning branches
        oracle = sum(m * math.log(2.0) / 2.0 ** m for m in range(1, n + 1))
        value = expected_utility(bernoulli_lottery(n), UtilitySpec.logarithmic())
        np.testing.assert_allclose(value, oracle, rtol=1e-14)

    def test_logarithmic_limit_is_two_log_two(self):
        value = expected_utility(bernoulli_lottery(60), UtilitySpec.logarithmic())
        np.testing.assert_allclose(value, 2.0 * math.log(2.0), atol=1e-12)

    def test_empty_lottery(self):
        lot = Lottery(outcomes=(), residual_probability=1.0)
        assert expected_utility(lot, UtilitySpec.linear()) == 0.0

    def test_logarithmic_rejects_nonpositive_payoff(self):
        lot = Lottery(((0.0, 0.5), (2.0, 0.5)))
        with pytest.raises(DomainError):
            expected_utility(lot, UtilitySpec.logarithmic())

    def test_logarithmic_residual_excluded(self):
        # the residual branch pays 0, where ln is undefined: it adds nothing
        lot = bernoulli_lottery(3)
        assert lot.residual_probability == 0.125
        winning = sum(m * math.log(2.0) * 2.0 ** -m for m in range(1, 4))
        value = expected_utility(lot, UtilitySpec.logarithmic())
        np.testing.assert_allclose(value, winning, rtol=1e-15)
        full = Lottery(((2.0, 1.0),))
        assert expected_utility(full, UtilitySpec.logarithmic()) == math.log(2.0)

    def test_power_utility(self):
        lot = bernoulli_lottery(2)
        oracle = 2.0 ** 0.5 * 0.5 + 4.0 ** 0.5 * 0.25
        value = expected_utility(lot, UtilitySpec.power(0.5))
        np.testing.assert_allclose(value, oracle, rtol=1e-15)


class TestGeometricExpectedUtility:
    @pytest.mark.parametrize("n", [1, 2, 7, 30])
    def test_base_two_special_case(self, n):
        value, convergent = geometric_expected_utility(n, 2.0)
        assert value == float(n)
        assert not convergent

    def test_base_one(self):
        value, convergent = geometric_expected_utility(3, 1.0)
        np.testing.assert_allclose(value, 0.875, rtol=1e-15)
        assert convergent

    @pytest.mark.parametrize("x", [0.5, 1.5, 3.0])
    def test_against_series_oracle(self, x):
        for n in range(1, 21):
            oracle = sum(x ** m / 2.0 ** m for m in range(1, n + 1))
            value, convergent = geometric_expected_utility(n, x)
            np.testing.assert_allclose(value, oracle, rtol=1e-12)
            assert convergent == (x < 2.0)

    @pytest.mark.parametrize("n", [1, 5, 10, 25])
    def test_limit_toward_base_two(self, n):
        for x in (2.0 - 1e-8, 2.0 + 1e-8):
            value, _ = geometric_expected_utility(n, x)
            np.testing.assert_allclose(value, float(n), rtol=1e-6)

    def test_matches_expected_utility_with_geometric_spec(self):
        for n in range(1, 15):
            via_lottery = expected_utility(
                bernoulli_lottery(n), UtilitySpec.geometric(1.5)
            )
            closed, _ = geometric_expected_utility(n, 1.5)
            np.testing.assert_allclose(via_lottery, closed, rtol=1e-12)

    @pytest.mark.parametrize("x", [0.0, -1.0])
    def test_nonpositive_base_rejected(self, x):
        with pytest.raises(DomainError):
            geometric_expected_utility(3, x)


class TestLotteryValidation:
    def test_unnormalized_rejected(self):
        with pytest.raises(DomainError):
            Lottery(((2.0, 0.5),), residual_probability=0.4)

    def test_negative_probability_rejected(self):
        with pytest.raises(DomainError):
            Lottery(((2.0, -0.1), (4.0, 0.6)), residual_probability=0.5)

    def test_negative_residual_rejected(self):
        with pytest.raises(DomainError):
            Lottery(((2.0, 1.2),), residual_probability=-0.2)

    @given(
        probs=st.lists(st.floats(0.01, 1.0), min_size=1, max_size=6),
        payoffs=st.lists(st.floats(0.1, 100.0), min_size=6, max_size=6),
    )
    @settings(max_examples=100)
    def test_normalized_lotteries_accepted_and_linear_eu_is_dot(self, probs, payoffs):
        total = sum(probs) + 1.0  # leave residual mass
        scaled = [p / total for p in probs]
        residual = 1.0 - sum(scaled)
        lot = Lottery(
            tuple((payoffs[i], scaled[i]) for i in range(len(scaled))),
            residual_probability=residual,
        )
        oracle = sum(x * p for x, p in lot.outcomes)
        np.testing.assert_allclose(
            expected_utility(lot, UtilitySpec.linear()), oracle, rtol=1e-12
        )


class TestUtilitySpecValidation:
    def test_power_needs_positive_exponent(self):
        with pytest.raises(DomainError):
            UtilitySpec.power(0.0)

    def test_geometric_needs_positive_base(self):
        with pytest.raises(DomainError):
            UtilitySpec.geometric(-1.0)

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            UtilitySpec("exotic")


class TestSerialization:
    def test_lottery_round_trip(self):
        lot = bernoulli_lottery(3)
        again = Lottery.from_json(lot.to_json())
        assert again == lot

    def test_bernoulli_family_round_trip(self):
        doc = GameFamily.bernoulli().to_json()
        assert doc == {"family": "bernoulli"}
        family = GameFamily.from_json(doc)
        assert family.lottery(2) == bernoulli_lottery(2)

    def test_custom_family_round_trip(self):
        lots = [bernoulli_lottery(1), bernoulli_lottery(4)]
        family = GameFamily.custom(lots)
        again = GameFamily.from_json(family.to_json())
        assert again.size == 2
        assert again.lottery(2) == lots[1]

    def test_custom_family_bounds(self):
        family = GameFamily.custom([bernoulli_lottery(1)])
        with pytest.raises(DomainError):
            family.lottery(2)

    def test_utility_spec_round_trip(self):
        for spec in (
            UtilitySpec.linear(),
            UtilitySpec.logarithmic(),
            UtilitySpec.power(1.5),
            UtilitySpec.geometric(0.5),
        ):
            assert UtilitySpec.from_json(spec.to_json()) == spec


class TestExpectedUtilitySeq:
    def test_from_values(self):
        seq = ExpectedUtilitySeq.from_values([1.0, 3.0, 2.0])
        assert seq.finite and seq.size == 3
        assert seq(2) == 3.0
        with pytest.raises(DomainError):
            seq(4)
        with pytest.raises(DomainError):
            seq(0)

    def test_from_family_matches_direct_evaluation(self):
        seq = ExpectedUtilitySeq.from_family(
            GameFamily.bernoulli(), UtilitySpec.linear()
        )
        assert [seq(n) for n in range(1, 6)] == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert not seq.finite

    def test_bernoulli_utilities_closed_form(self):
        seq = bernoulli_utilities()
        assert seq(10 ** 6) == 1e6
        assert seq.is_unbounded()

    def test_unbounded_probe(self):
        growing = ExpectedUtilitySeq(lambda n: math.sqrt(n))
        assert growing.is_unbounded(10 ** 4)
        plateau = ExpectedUtilitySeq(lambda n: float(min(n, 100)))
        assert not plateau.is_unbounded(10 ** 4)

    def test_unbounded_probe_uses_evaluable_prefix(self):
        # the coin-toss generator stops at index 1023, but the prefix is
        # enough to classify: linear utilities keep growing, logarithmic
        # ones saturate at 2 ln 2
        linear = ExpectedUtilitySeq.from_family(
            GameFamily.bernoulli(), UtilitySpec.linear()
        )
        assert linear.is_unbounded(10 ** 6)
        logarithmic = ExpectedUtilitySeq.from_family(
            GameFamily.bernoulli(), UtilitySpec.logarithmic()
        )
        assert not logarithmic.is_unbounded(10 ** 6)
