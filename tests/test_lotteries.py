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
    def test_lottery_from_json(self):
        doc = {
            "outcomes": [
                {"payoff": 2.0, "prob": 0.5},
                {"payoff": 4.0, "prob": 0.25},
                {"payoff": 8.0, "prob": 0.125},
            ],
            "residual": 0.125,
        }
        assert Lottery.from_json(doc) == bernoulli_lottery(3)
        sure = Lottery.from_json({"outcomes": [{"payoff": 3, "prob": 1}]})
        assert sure == Lottery(((3.0, 1.0),))

    def test_bernoulli_family_from_json(self):
        family = GameFamily.from_json({"family": "bernoulli"})
        assert family == GameFamily.bernoulli() and family.lotteries is None
        assert family.lottery(2) == bernoulli_lottery(2)
        with pytest.raises(DomainError):
            GameFamily.from_json({"family": "dice"})

    def test_custom_family_from_json(self):
        doc = {
            "family": "custom",
            "lotteries": [
                {"outcomes": [{"payoff": 2.0, "prob": 0.5}], "residual": 0.5},
                {"outcomes": [{"payoff": 1.0, "prob": 1.0}]},
            ],
        }
        family = GameFamily.from_json(doc)
        assert len(family.lotteries) == 2
        assert family.lottery(1) == bernoulli_lottery(1)
        assert family.lottery(2) == Lottery(((1.0, 1.0),))

    def test_custom_family_bounds(self):
        family = GameFamily.custom([bernoulli_lottery(1)])
        with pytest.raises(DomainError):
            family.lottery(2)

    def test_utility_spec_from_json(self):
        for doc, spec in (
            ({"kind": "linear"}, UtilitySpec.linear()),
            ({"kind": "logarithmic"}, UtilitySpec.logarithmic()),
            ({"kind": "power", "exponent": 1.5}, UtilitySpec.power(1.5)),
            ({"kind": "geometric", "base": 0.5}, UtilitySpec.geometric(0.5)),
        ):
            assert UtilitySpec.from_json(doc) == spec


# every utility kind the CLI can name, and whether its coin-toss expected
# utilities are declared unbounded: the terms of U_n are u(2^m) 2^-m
COIN_TOSS_DECLARATIONS = [
    (UtilitySpec.linear(), True),
    (UtilitySpec.logarithmic(), False),  # U_n -> 2 ln 2
    (UtilitySpec.power(0.5), False),
    (UtilitySpec.power(0.99), False),  # terms 2^(-0.01 m)
    (UtilitySpec.power(1.0), True),  # U_n = n
    (UtilitySpec.power(2.0), True),
    (UtilitySpec.geometric(1.5), False),  # terms 0.75^m
    (UtilitySpec.geometric(2.0), True),  # U_n = n
    (UtilitySpec.geometric(3.0), True),
]


class TestExpectedUtilitySeq:
    def test_from_values(self):
        seq = ExpectedUtilitySeq.from_values([1.0, 3.0, 2.0])
        assert seq.finite and seq.size == 3 and not seq.unbounded
        assert seq.values(1, 4).tolist() == [1.0, 3.0, 2.0]
        # stops short past the end, and the array cannot be written
        tail = seq.values(2, 10)
        assert tail.tolist() == [3.0, 2.0] and not tail.flags.writeable
        with pytest.raises(DomainError):
            seq.values(4, 5)
        with pytest.raises(DomainError):
            seq.values(0, 1)

    def test_finite_sequence_is_checked_at_construction(self):
        for bad in ([], [1.0, math.inf], [math.nan]):
            with pytest.raises(DomainError):
                ExpectedUtilitySeq.from_values(bad)
        calls = []
        seq = ExpectedUtilitySeq(lambda n: calls.append(n) or n * n, size=4)
        assert len(calls) == 1 and calls[0].tolist() == [1.0, 2.0, 3.0, 4.0]
        for _ in range(3):
            assert seq.values(2, 4).tolist() == [4.0, 9.0]
        assert len(calls) == 1

    def test_from_family_matches_direct_evaluation(self):
        lots = [bernoulli_lottery(3), Lottery(((5.0, 0.5), (1.0, 0.5)))]
        for utility, _ in COIN_TOSS_DECLARATIONS:
            seq = ExpectedUtilitySeq.from_family(GameFamily.custom(lots), utility)
            assert seq.size == 2
            assert seq.values(1, 3).tolist() == [
                expected_utility(lot, utility) for lot in lots
            ]
        linear = ExpectedUtilitySeq.from_family(
            GameFamily.bernoulli(), UtilitySpec.linear()
        )
        assert linear.values(1, 6).tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert not linear.finite and linear.identity

    def test_bernoulli_utilities_closed_form(self):
        seq = bernoulli_utilities()
        assert seq.values(10 ** 6, 10 ** 6 + 2).tolist() == [1e6, 1e6 + 1]
        assert seq.unbounded and seq.identity

    @pytest.mark.parametrize("utility", [u for u, _ in COIN_TOSS_DECLARATIONS],
                             ids=lambda u: f"{u.kind}-{u.exponent or u.base}")
    def test_coin_toss_values_match_the_lotteries(self, utility):
        seq = ExpectedUtilitySeq.from_family(GameFamily.bernoulli(), utility)
        u = seq.values(1, 2000)
        end = len(u) + 1  # the first index the family does not reach
        for n in (1, 2, 53, 500, 1023):
            if n < end:
                assert u[n - 1] == expected_utility(bernoulli_lottery(n), utility), n
        # the family ends at the first overflow, or past the last payoff;
        # under linear utility the closed form U_n = n goes on
        if utility.kind == "linear":
            assert end == 2000
        elif end <= 1023:
            with pytest.raises(DomainError, match="overflows"):
                expected_utility(bernoulli_lottery(end), utility)
        else:
            assert end == 1024
            with pytest.raises(DomainError):
                seq.values(end, end + 1)

    def test_coin_toss_declarations(self):
        for utility, unbounded in COIN_TOSS_DECLARATIONS:
            seq = ExpectedUtilitySeq.from_family(GameFamily.bernoulli(), utility)
            assert seq.unbounded is unbounded, utility
            assert seq.identity is (utility.kind == "linear"), utility

    def test_values_stop_short_at_a_non_finite_value(self):
        for end in (math.nan, math.inf, -math.inf):
            seq = ExpectedUtilitySeq(lambda n: np.where(n < 5, n, end))
            assert seq.values(2, 10).tolist() == [2.0, 3.0, 4.0]
            assert seq.values(1, 4).tolist() == [1.0, 2.0, 3.0]
            with pytest.raises(DomainError):
                seq.values(5, 10)
        # values near the binary64 limit are finite: no end, no warning
        huge = ExpectedUtilitySeq(lambda n: np.full_like(n, 1e308))
        assert len(huge.values(1, 10)) == 9
