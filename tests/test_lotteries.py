"""Lottery construction, expected utilities, and the geometric closed form."""

import contextlib
import math
import re
import sys
from fractions import Fraction

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
    bernoulli_utilities,
    expected_utility,
    geometric_expected_utility,
    repeated_game_utilities,
)
from petersburg.cli import RunConfig


def bernoulli_lottery(n: int) -> Lottery:
    """The n-toss coin game, the lottery-sum reference for the closed forms:
    pays 2^m with probability 2^-m for m = 1..n, and nothing with the
    residual probability 2^-n."""
    outcomes = tuple((float(2 ** m), math.ldexp(1.0, -m)) for m in range(1, n + 1))
    return Lottery(outcomes, residual_probability=math.ldexp(1.0, -n))


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
        assert sum(p for _, p in lot.outcomes) + lot.residual_probability == 1.0

    def test_family_normalization(self):
        for n in range(1, 101):
            lot = bernoulli_lottery(n)
            total = sum(p for _, p in lot.outcomes) + lot.residual_probability
            assert abs(total - 1.0) <= 1e-12


class TestExpectedUtility:
    def test_linear_equals_toss_count_exactly(self):
        for n in range(1, 51):
            value = expected_utility(bernoulli_lottery(n), UtilitySpec("linear"))
            assert value == float(n)

    @pytest.mark.parametrize("n", [1, 3, 10, 40])
    def test_logarithmic_partial_sums(self, n):
        # independent oracle: sum of m*ln(2)/2^m over the winning branches
        oracle = sum(m * math.log(2.0) / 2.0 ** m for m in range(1, n + 1))
        value = expected_utility(bernoulli_lottery(n), UtilitySpec("logarithmic"))
        np.testing.assert_allclose(value, oracle, rtol=1e-14)

    def test_logarithmic_limit_is_two_log_two(self):
        value = expected_utility(bernoulli_lottery(60), UtilitySpec("logarithmic"))
        np.testing.assert_allclose(value, 2.0 * math.log(2.0), atol=1e-12)

    def test_empty_lottery(self):
        lot = Lottery(outcomes=(), residual_probability=1.0)
        assert expected_utility(lot, UtilitySpec("linear")) == 0.0

    def test_logarithmic_rejects_nonpositive_payoff(self):
        lot = Lottery(((0.0, 0.5), (2.0, 0.5)))
        with pytest.raises(DomainError):
            expected_utility(lot, UtilitySpec("logarithmic"))

    def test_logarithmic_residual_excluded(self):
        # the residual branch pays 0, where ln is undefined: it adds nothing
        lot = bernoulli_lottery(3)
        assert lot.residual_probability == 0.125
        winning = sum(m * math.log(2.0) * 2.0 ** -m for m in range(1, 4))
        value = expected_utility(lot, UtilitySpec("logarithmic"))
        np.testing.assert_allclose(value, winning, rtol=1e-15)
        full = Lottery(((2.0, 1.0),))
        assert expected_utility(full, UtilitySpec("logarithmic")) == math.log(2.0)

    def test_power_utility(self):
        lot = bernoulli_lottery(2)
        oracle = 2.0 ** 0.5 * 0.5 + 4.0 ** 0.5 * 0.25
        value = expected_utility(lot, UtilitySpec("power", exponent=0.5))
        np.testing.assert_allclose(value, oracle, rtol=1e-15)


def _closed(n, x):
    """U_n under geometric utility with base x, whose ratio is rho = x/2."""
    return geometric_expected_utility(n, log_ratio=math.log(x / 2.0))


class TestGeometricExpectedUtility:
    @pytest.mark.parametrize("n", [1, 2, 7, 30])
    def test_base_two_special_case(self, n):
        assert _closed(n, 2.0) == float(n)

    def test_base_one(self):
        np.testing.assert_allclose(_closed(3, 1.0), 0.875, rtol=1e-15)

    @pytest.mark.parametrize("x", [0.5, 1.5, 3.0])
    def test_against_series_oracle(self, x):
        values = _closed(np.arange(1.0, 21.0), x)
        for n in range(1, 21):
            oracle = sum(x ** m / 2.0 ** m for m in range(1, n + 1))
            np.testing.assert_allclose(values[n - 1], oracle, rtol=1e-12)

    @pytest.mark.parametrize("n", [1, 5, 10, 25])
    def test_limit_toward_base_two(self, n):
        # exact rational sums: expm1 keeps every digit as rho -> 1
        for x in (2.0 - 1e-8, 2.0 + 1e-8):
            oracle = float(sum(Fraction(x / 2.0) ** m for m in range(1, n + 1)))
            np.testing.assert_allclose(_closed(n, x), oracle, rtol=1e-14)

    def test_matches_expected_utility_with_geometric_spec(self):
        for n in range(1, 15):
            via_lottery = expected_utility(
                bernoulli_lottery(n), UtilitySpec("geometric", base=1.5)
            )
            np.testing.assert_allclose(via_lottery, _closed(n, 1.5), rtol=1e-12)

    @pytest.mark.parametrize("x", [0.0, -1.0])
    def test_nonpositive_base_rejected(self, x):
        # no ratio exists: the spec refuses the base before any closed form
        with pytest.raises(DomainError):
            UtilitySpec("geometric", base=x)


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
            expected_utility(lot, UtilitySpec("linear")), oracle, rtol=1e-12
        )


class TestUtilitySpecValidation:
    def test_power_needs_positive_exponent(self):
        with pytest.raises(DomainError):
            UtilitySpec("power", exponent=0.0)

    def test_geometric_needs_positive_base(self):
        with pytest.raises(DomainError):
            UtilitySpec("geometric", base=-1.0)

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
        assert family == GameFamily() and family.lotteries is None
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
        assert family.lotteries == (bernoulli_lottery(1), Lottery(((1.0, 1.0),)))

    def test_custom_family_bounds(self):
        # the family's expected utilities end with its last lottery
        family = GameFamily((bernoulli_lottery(1),))
        utilities = ExpectedUtilitySeq.from_family(family, UtilitySpec("linear"))
        assert utilities.values(4).tolist() == [1.0]

    def test_empty_custom_family_rejected(self):
        with pytest.raises(DomainError, match="^custom family needs at least one lottery$"):
            GameFamily(())
        with pytest.raises(DomainError, match="^custom family needs at least one lottery$"):
            GameFamily.from_json({"family": "custom", "lotteries": []})

    def test_utility_from_config(self):
        # the CLI builds each utility kind from its config document
        game = {"family": "custom", "lotteries": [
            {"outcomes": [{"payoff": 2.0, "prob": 0.5}, {"payoff": 4.0, "prob": 0.25}],
             "residual": 0.25},
            {"outcomes": [{"payoff": 5.0, "prob": 0.5}, {"payoff": 1.0, "prob": 0.5}]},
        ]}
        family = GameFamily.from_json(game)
        for doc, spec in (
            ({"kind": "linear"}, UtilitySpec("linear")),
            ({"kind": "logarithmic"}, UtilitySpec("logarithmic")),
            ({"kind": "power", "exponent": 1.5}, UtilitySpec("power", exponent=1.5)),
            ({"kind": "geometric", "base": 0.5}, UtilitySpec("geometric", base=0.5)),
        ):
            got = RunConfig(game=game, utility=doc).utilities().values(2).tolist()
            assert got == ExpectedUtilitySeq.from_family(family, spec).values(2).tolist()


# every utility kind the CLI can name, and what the coin-toss family declares
# under it.  The terms u(2^m) 2^-m of U_n are rho^m but under log, so U_n = n
# where rho = 1 ("identity"), grows without bound where rho > 1
# ("unbounded"), and rises to the limit given where rho < 1 or under log,
# where no beta normalizes a posterior and the family is refused
COIN_TOSS_DECLARATIONS = [
    (UtilitySpec("linear"), "identity"),
    (UtilitySpec("logarithmic"), 2.0 * math.log(2.0)),  # terms m ln 2 2^-m
    (UtilitySpec("power", exponent=0.5), 1.0 + math.sqrt(2.0)),  # rho = 2^-0.5
    (UtilitySpec("power", exponent=0.99), 1.0 / math.expm1(0.01 * math.log(2.0))),  # rho = 2^-0.01
    (UtilitySpec("power", exponent=1.0), "identity"),
    (UtilitySpec("power", exponent=2.0), "unbounded"),  # rho = 2
    (UtilitySpec("geometric", base=1.5), 3.0),  # rho = 0.75
    # 1/expm1(-ln(base/2)) overflows (1e-310), or base/2 underflows to 0 (5e-324)
    (UtilitySpec("geometric", base=1e-310), 5e-311),
    (UtilitySpec("geometric", base=5e-324), 0.0),
    (UtilitySpec("geometric", base=2.0), "identity"),
    (UtilitySpec("geometric", base=3.0), "unbounded"),  # rho = 1.5
]


class TestExpectedUtilitySeq:
    def test_from_values(self):
        seq = ExpectedUtilitySeq.from_values([1.0, 3.0, 2.0])
        assert seq.finite and seq.size == 3
        with pytest.raises(AttributeError):
            seq.finite = False
        assert seq.values(3).tolist() == [1.0, 3.0, 2.0]
        assert seq.values(2).tolist() == [1.0, 3.0]
        # stops short past the end, and the array cannot be written
        prefix = seq.values(9)
        assert prefix.tolist() == [1.0, 3.0, 2.0] and not prefix.flags.writeable
        for m in (0, -1, 2.0, True):
            with pytest.raises(DomainError, match="^m must be"):
                seq.values(m)

    def test_finite_sequence_is_checked_at_construction(self):
        for bad in ([], [[1.0, 2.0]], [math.nan]):
            with pytest.raises(DomainError):
                ExpectedUtilitySeq.from_values(bad)
        with pytest.raises(DomainError, match="index 2 is not finite"):
            ExpectedUtilitySeq.from_values([1.0, math.inf])
        source = np.array([1.0, 4.0, 9.0, 16.0])
        seq = ExpectedUtilitySeq.from_values(source)
        source[1] = -1.0  # the sequence holds its own copy
        assert seq.values(3).tolist() == [1.0, 4.0, 9.0]

    def test_from_family_matches_direct_evaluation(self):
        lots = [bernoulli_lottery(3), Lottery(((5.0, 0.5), (1.0, 0.5)))]
        for utility, _ in COIN_TOSS_DECLARATIONS:
            seq = ExpectedUtilitySeq.from_family(GameFamily(tuple(lots)), utility)
            assert seq.size == 2
            assert seq.values(2).tolist() == [
                expected_utility(lot, utility) for lot in lots
            ]
        linear = ExpectedUtilitySeq.from_family(GameFamily(), UtilitySpec("linear"))
        assert linear.values(5).tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert not linear.finite and linear.identity

    def test_bernoulli_utilities_closed_form(self):
        seq = bernoulli_utilities()
        assert seq.values(10 ** 6 + 1)[-2:].tolist() == [1e6, 1e6 + 1]
        assert not seq.finite and seq.identity

    @pytest.mark.parametrize("beta", (-np.geomspace(1e-4, 50.0, 16)).tolist())
    def test_declared_luce_moments_against_mpmath(self, beta):
        # sum_n n^k r^n is the polylogarithm Li_{-k}(r), r = e^beta
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            r = mpmath.exp(mpmath.mpf(beta))
            s1, s2, s3, s4 = (mpmath.polylog(-k, r) for k in (1, 2, 3, 4))
            mean = s2 / s1
            var = s3 / s1 - mean ** 2
            kappa3 = s4 / s1 - 3 * mean * var - mean ** 3
            expected = [float(mean), float(var), float(kappa3)]
        np.testing.assert_allclose(
            bernoulli_utilities().luce_moments(beta), expected, rtol=2e-15, atol=0.0
        )

    def test_declared_luce_moments_at_the_ends(self):
        moments = bernoulli_utilities().luce_moments
        # r = e^-2000 underflows: all the mass sits on n = 1
        assert moments(-2000.0) == (1.0, 0.0, 0.0)
        # 1 - r = 1e-300: the moments overflow, and nothing divides by zero
        mean, var, kappa3 = moments(-1e-300)
        assert mean == pytest.approx(2e300, rel=1e-15)
        assert not math.isfinite(var) and not math.isfinite(kappa3)

    @pytest.mark.parametrize("utility", [u for u, _ in COIN_TOSS_DECLARATIONS],
                             ids=lambda u: f"{u.kind}-{u.exponent or u.base}")
    def test_coin_toss_values_match_the_lotteries(self, utility):
        declared = dict(COIN_TOSS_DECLARATIONS)[utility]
        sums = {}
        for n in (1, 2, 53, 500, 1023):
            with contextlib.suppress(DomainError):  # a term past binary64
                sums[n] = expected_utility(bernoulli_lottery(n), utility)
        if isinstance(declared, float):
            # the sums rise to the limit the refusal names (2^-0.01 slowest)
            with pytest.raises(DomainError, match=re.escape(f"U_n -> {declared:.12g})")):
                ExpectedUtilitySeq.from_family(GameFamily(), utility)
            assert sums[1023] == pytest.approx(declared, rel=1e-3)
            assert max(sums.values()) <= declared * (1.0 + 1e-12)
            return
        u = ExpectedUtilitySeq.from_family(GameFamily(), utility).values(1999)
        for n, value in sums.items():
            # U_n = n exactly; the closed forms to the mpmath tolerance below
            if declared != "identity":
                value = pytest.approx(value, rel=2e-13)
            assert u[n - 1] == value, n

    @given(st.floats(2.0, 10.0, exclude_min=True))
    @settings(max_examples=100, derandomize=True)
    def test_unbounded_geometric_ratio_is_ln_of_half_the_base(self, base):
        # ln(base/2), not ln(base) - ln 2, which moves the last bit of U_n
        # for about half of the bases in (1, 10)
        seq = ExpectedUtilitySeq.from_family(GameFamily(), UtilitySpec("geometric", base=base))
        n = np.arange(1.0, 60.0)
        want = geometric_expected_utility(n, log_ratio=math.log(base / 2.0))
        assert seq.values(59).tolist() == want.tolist()

    def test_coin_toss_declarations(self):
        for utility, declared in COIN_TOSS_DECLARATIONS:
            if isinstance(declared, float):
                with pytest.raises(DomainError, match="bounds the coin-toss"):
                    ExpectedUtilitySeq.from_family(GameFamily(), utility)
                continue
            seq = ExpectedUtilitySeq.from_family(GameFamily(), utility)
            assert not seq.finite, utility
            assert seq.identity is (declared == "identity"), utility

    def test_values_stop_short_at_a_non_finite_value(self):
        for end in (math.nan, math.inf, -math.inf):
            seq = ExpectedUtilitySeq(lambda n: np.where(n < 5, n, end))
            assert seq.values(9).tolist() == [1.0, 2.0, 3.0, 4.0]
            assert seq.values(3).tolist() == [1.0, 2.0, 3.0]
        # a sequence that ends before U_1 holds no value
        for end in (math.nan, math.inf):
            with pytest.raises(DomainError, match="^the sequence ends before index 1$"):
                ExpectedUtilitySeq(lambda n: np.full_like(n, end)).values(5)
        # values near the binary64 limit are finite: no end, no warning
        huge = ExpectedUtilitySeq(lambda n: np.full_like(n, 1e308))
        assert len(huge.values(9)) == 9


FIVE = np.array([1.0, 3.0, 2.0, 0.5, 7.0])
# each sequence with the array function of n it holds, nan where it ends
PREFIX_CASES = {
    "bernoulli": (bernoulli_utilities, lambda n: n),
    "geometric": (  # rho = 4: U_n overflows at n = 512
        lambda: ExpectedUtilitySeq.from_family(GameFamily(), UtilitySpec("power", exponent=3.0)),
        lambda n: geometric_expected_utility(n, log_ratio=2.0 * math.log(2.0))),
    "run_length": (repeated_game_utilities, lambda n: 1.0 + np.log2(n)),
    "finite": (lambda: ExpectedUtilitySeq.from_values(FIVE),
               lambda n: np.concatenate((FIVE, np.full(max(len(n) - 5, 0), np.nan)))[: len(n)]),
    "ends_at_40": (lambda: ExpectedUtilitySeq(lambda n: np.where(n <= 40, np.sqrt(n), np.nan)),
                   lambda n: np.where(n <= 40, np.sqrt(n), np.nan)),
}


@pytest.mark.parametrize("case", PREFIX_CASES)
@pytest.mark.parametrize("m", [1, 2, 5, 6, 39, 40, 41, 511, 512, 4096])
def test_values_read_the_prefix(case, m):
    # values(m) is fn over 1..m, cut at the first non-finite value, bit for bit
    build, fn = PREFIX_CASES[case]
    want = fn(np.arange(1.0, m + 1))
    cut = np.flatnonzero(~np.isfinite(want))
    want = want[: cut[0]] if cut.size else want
    got = build().values(m)
    assert got.dtype == np.float64 and got.tolist() == want.tolist()


# the grid of ratios rho: power e has rho = 2^(e-1), geometric x has x/2
CLOSED_FORM_GRID = [("power", e) for e in (1.001, 1.5, 2.0, 3.0)] + [
    ("geometric", x) for x in (1.5, 2.0 - 1e-8, 2.0 + 1e-8, 3.0)
]


@pytest.mark.parametrize("kind, param", CLOSED_FORM_GRID)
def test_closed_forms_against_mpmath(kind, param):
    # every n up to the first overflow of U_n or 4,096, then 200 indices
    # spaced geometrically to the last finite U_n (or 1e12 where rho < 1)
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        p = mpmath.mpf(param)
        rho = mpmath.power(2, p - 1) if kind == "power" else p / 2
        top = mpmath.mpf(sys.float_info.max)
        end = 10 ** 12  # past the last index checked
        if rho > 1:  # the first n with U_n = rho (rho^n - 1)/(rho - 1) > top
            end = int(mpmath.floor(mpmath.log(top * (rho - 1) / rho + 1) / mpmath.log(rho))) + 1
        oracle, u = {}, mpmath.mpf(0)
        for n in range(1, min(end, 4097)):
            u = rho * (1 + u)
            oracle[n] = u
        for n in np.unique(np.geomspace(4097, end - 1, 200).astype(np.int64)).tolist():
            if n < end:
                oracle[n] = rho * (rho ** n - 1) / (rho - 1)
        assert rho <= 1 or rho * (rho ** end - 1) / (rho - 1) > top >= oracle[end - 1]
    ns = np.array(sorted(oracle), dtype=float)
    log_ratio = (param - 1.0) * math.log(2.0) if kind == "power" else math.log(param / 2.0)
    got = geometric_expected_utility(ns, log_ratio=log_ratio)
    if rho > 1:
        # the sequence reads that closed form: its prefix holds it bit for
        # bit and ends, with no warning, at the first overflow (within 2^21)
        utility = UtilitySpec(kind, **{"exponent" if kind == "power" else "base": param})
        prefix = ExpectedUtilitySeq.from_family(GameFamily(), utility).values(min(end, 2 ** 21))
        assert len(prefix) == min(end - 1, 2 ** 21)
        n = np.arange(1.0, len(prefix) + 1)
        assert np.array_equal(prefix, geometric_expected_utility(n, log_ratio=log_ratio))
        past = geometric_expected_utility(np.array([end - 1.0, end]), log_ratio=log_ratio)
        assert np.isfinite(past).tolist() == [True, False]
    # a bounded family is refused, but the closed form itself still holds
    want = np.array([float(oracle[n]) for n in sorted(oracle)])
    assert np.max(np.abs(got / want - 1.0)) <= 2e-13
