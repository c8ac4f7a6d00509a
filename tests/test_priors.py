"""Prior weight families: values, monotonicity, and continuous optima."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from petersburg import DomainError, PriorSpec, continuous_optimum, pair_probabilities
from petersburg.priors import log_attribute_weights


def _weight_curve(prior: PriorSpec, u: np.ndarray) -> np.ndarray:
    """Independent reimplementation of the prior weights for oracle use."""
    if prior.kind == "luce":
        return np.where(u >= 0.0, u, 1.0 / np.abs(u))
    if prior.kind == "power":
        return u ** prior.alpha
    if prior.kind == "log":
        return np.log1p(u / prior.u0)
    return np.exp(prior.b * u ** prior.gamma + prior.c)


ALL_PRIORS = [
    PriorSpec.luce(),
    PriorSpec.power(0.5),
    PriorSpec.power(1.0),
    PriorSpec.power(3.0),
    PriorSpec.log_shape(0.5),
    PriorSpec.log_shape(1.0),
    PriorSpec.log_shape(2.0),
    PriorSpec.logit(1.0, 0.0, 0.3),
    PriorSpec.logit(1.0, 0.0, 0.5),
    PriorSpec.logit(1.0, 0.0, 0.8),
]


def _weight(prior: PriorSpec, u: float) -> float:
    """The package's prior weight at one utility."""
    return math.exp(log_attribute_weights(prior, np.array([u]))[0])


class TestAttributeWeight:
    def test_luce_identity_branch(self):
        assert log_attribute_weights(PriorSpec.luce(), np.array([5.0]))[0] == np.log(5.0)

    def test_luce_inverse_branch(self):
        u = -0.05263157894736842  # one-stage roulette expected value
        np.testing.assert_allclose(_weight(PriorSpec.luce(), u), 19.0, rtol=1e-12)

    def test_luce_weighs_zero_at_zero(self):
        assert _weight(PriorSpec.luce(), 0.0) == 0.0

    def test_power_alpha_one_equals_luce_on_nonnegative(self):
        u = np.linspace(0.0, 12.0, 25)
        np.testing.assert_array_equal(
            log_attribute_weights(PriorSpec.power(1.0), u),
            log_attribute_weights(PriorSpec.luce(), u),
        )

    @pytest.mark.parametrize(
        "prior", [PriorSpec.power(2.0), PriorSpec.log_shape(), PriorSpec.logit(1.0)]
    )
    def test_negative_utility_rejected(self, prior):
        with pytest.raises(DomainError):
            log_attribute_weights(prior, np.array([-1.0]))

    @pytest.mark.parametrize("prior", ALL_PRIORS)
    def test_strictly_increasing_on_positive_axis(self, prior):
        u = np.linspace(0.05, 15.0, 400)
        w = _weight_curve(prior, u)
        assert np.all(np.diff(w) > 0.0)
        # package agrees with the oracle curve
        got = np.exp(log_attribute_weights(prior, u))
        np.testing.assert_allclose(got, w, rtol=1e-12)

    @pytest.mark.parametrize("prior", ALL_PRIORS)
    def test_log_weight_consistent(self, prior):
        u = np.array([0.3, 1.0, 4.2, 9.7])
        np.testing.assert_allclose(
            log_attribute_weights(prior, u), np.log(_weight_curve(prior, u)), rtol=1e-12
        )

    def test_log_weight_of_zero_weight(self):
        zero = np.array([0.0])
        assert log_attribute_weights(PriorSpec.luce(), zero)[0] == -math.inf
        assert log_attribute_weights(PriorSpec.power(2.0), zero)[0] == -math.inf

    @given(
        u=st.floats(0.01, 50.0),
        delta=st.floats(0.01, 5.0),
        alpha=st.floats(0.1, 4.0),
    )
    @settings(max_examples=200)
    def test_monotone_property(self, u, delta, alpha):
        prior = PriorSpec.power(alpha)
        assert _weight(prior, u + delta) > _weight(prior, u)


class TestContinuousOptimum:
    def test_luce_inverse_beta(self):
        assert continuous_optimum(PriorSpec.luce(), -1.0) == 1.0
        assert continuous_optimum(PriorSpec.luce(), -0.25) == 4.0

    def test_power_example(self):
        got = continuous_optimum(PriorSpec.power(3.0), -0.5)
        np.testing.assert_allclose(got, 6.0, rtol=1e-12)

    def test_logit_example(self):
        got = continuous_optimum(PriorSpec.logit(1.0, 0.0, 0.5), -0.25)
        np.testing.assert_allclose(got, 4.0, rtol=1e-12)

    def test_log_example_against_bisection_oracle(self):
        # solve (1+x) ln(1+x) = 1 independently
        lo, hi = 0.0, 2.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if (1.0 + mid) * math.log1p(mid) - 1.0 < 0.0:
                lo = mid
            else:
                hi = mid
        oracle = 0.5 * (lo + hi)
        got = continuous_optimum(PriorSpec.log_shape(1.0), -1.0)
        np.testing.assert_allclose(got, oracle, atol=1e-9)
        np.testing.assert_allclose(got, 0.7632, atol=1e-4)

    @pytest.mark.parametrize("u0", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("beta", [-0.4, -1.0, -2.0])
    def test_log_family_defining_equation(self, u0, beta):
        x = continuous_optimum(PriorSpec.log_shape(u0), beta) / u0
        residual = (1.0 + x) * math.log1p(x) - 1.0 / (abs(beta) * u0)
        assert abs(residual) < 1e-10

    def test_power_one_matches_luce(self):
        for beta in (-0.3, -1.0, -2.5):
            assert continuous_optimum(PriorSpec.power(1.0), beta) == continuous_optimum(
                PriorSpec.luce(), beta
            )

    @pytest.mark.parametrize("prior", ALL_PRIORS)
    def test_stationarity_residual(self, prior):
        beta = -1.0
        x = continuous_optimum(prior, beta)
        h = 1e-6 * max(1.0, x)
        if prior.kind == "luce":
            dphi = 1.0
        elif prior.kind == "power":
            dphi = prior.alpha * x ** (prior.alpha - 1.0)
        elif prior.kind == "log":
            dphi = 1.0 / (prior.u0 * (1.0 + x / prior.u0))
        else:
            dphi = (
                math.exp(prior.b * x ** prior.gamma + prior.c)
                * prior.b
                * prior.gamma
                * x ** (prior.gamma - 1.0)
            )
        residual = dphi + beta * _weight_curve(prior, np.array([x]))[0]
        assert abs(residual) < 1e-10
        # second-order (maximum, not minimum): weight(x) beats neighbors
        w = lambda u: _weight_curve(prior, np.array([u]))[0] * math.exp(beta * u)
        assert w(x) >= w(x - h) and w(x) >= w(x + h)

    @pytest.mark.parametrize("prior", ALL_PRIORS)
    def test_grid_maximization_cross_check(self, prior):
        beta = -1.0
        x_opt = continuous_optimum(prior, beta)
        step = 1e-4
        grid = np.arange(step, 3.0 * x_opt + 1.0, step)
        weights = _weight_curve(prior, grid) * np.exp(beta * grid)
        best = grid[int(np.argmax(weights))]
        assert abs(best - x_opt) <= step

    def test_nonnegative_beta_rejected(self):
        for beta in (0.0, 0.7):
            with pytest.raises(DomainError):
                continuous_optimum(PriorSpec.luce(), beta)

    @pytest.mark.parametrize(
        "beta,u0", [(-1.0, 1.0), (-0.0435, 0.0598), (-1e-3, 0.02), (-1e-6, 1.0), (-1e300, 1.0)]
    )
    def test_log_optimum_against_lambert_w(self, beta, u0):
        # y = ln(1 + U/U0) solves y e^y = 1/(|beta| U0), so y = W(1/(|beta| U0));
        # a bisection in x on [0, e^target] ran out of steps past a target of
        # about 140 and returned values off by up to 98%
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            y = mpmath.lambertw(1 / (mpmath.mpf(-beta) * u0)).real
            reference = float(u0 * mpmath.expm1(y))
        got = continuous_optimum(PriorSpec.log_shape(u0), beta)
        assert abs(got - reference) <= 1e-14 * reference

    @pytest.mark.parametrize(
        "prior,beta,expected",
        [
            # each once failed a finite-difference "is it a maximum" check
            (PriorSpec.power(300.0), -0.5, 600.0),
            (PriorSpec.power(6.77), -1e12, 6.77e-12),
            (PriorSpec.luce(), -1e-300, 1.0 / 1e-300),
        ],
    )
    def test_extreme_closed_forms(self, prior, beta, expected):
        assert continuous_optimum(prior, beta) == expected

    @pytest.mark.parametrize(
        "prior,beta",
        [
            (PriorSpec.logit(1e3, 0.0, 0.99), -1e-3),  # (1e6)**100 overflows
            (PriorSpec.logit(1e-3, 0.0, 0.99), -1e3),  # (1e-6)**100 is 0
            (PriorSpec.log_shape(1e-300), -1e-300),  # |beta| U0 is 0
        ],
    )
    def test_optimum_outside_binary64_is_a_domain_error(self, prior, beta):
        with pytest.raises(DomainError, match="optimum|overflow"):
            continuous_optimum(prior, beta)


class TestPairProbabilities:
    def test_neutral_pair_from_inverse_attributes(self):
        p1, p2 = pair_probabilities(PriorSpec.luce(), -0.5, -1.0, 0.0)
        # weights 2 and 1
        np.testing.assert_allclose([p1, p2], [2.0 / 3.0, 1.0 / 3.0], rtol=1e-14)

    def test_arrays_match_the_scalar_log_weights(self):
        u_first = np.array([-0.05, -1.5, -30.0, -1e5])
        u_second = 1.05 * u_first - 0.05
        luce = PriorSpec.luce()
        for beta in (0.0, -1.0, 2.0, -0.3):
            p_first, p_second = pair_probabilities(luce, u_first, u_second, beta)
            for i, (u, v) in enumerate(zip(u_first, u_second)):
                # the luce weight of a negative utility is 1/|U|
                lw_u = -math.log(-u) + beta * u
                lw_v = -math.log(-v) + beta * v
                top = max(lw_u, lw_v)
                w_u, w_v = math.exp(lw_u - top), math.exp(lw_v - top)
                np.testing.assert_allclose(
                    [p_first[i], p_second[i]], [w_u / (w_u + w_v), w_v / (w_u + w_v)],
                    rtol=1e-15,
                )

    @pytest.mark.parametrize("u_first,u_second", [(-1e10, -2e10), (1e10, 2e10)])
    def test_weights_outside_binary64_are_a_domain_error(self, u_first, u_second):
        # beta * U is -inf for both (both weights 0) or +inf (overflow)
        with pytest.raises(DomainError):
            pair_probabilities(PriorSpec.luce(), u_first, u_second, 1e300)

    def test_logit_offset_cancels(self):
        base = pair_probabilities(PriorSpec.logit(1.0, 0.0, 0.5), 1.0, 3.0, -0.5)
        shifted = pair_probabilities(PriorSpec.logit(1.0, 7.5, 0.5), 1.0, 3.0, -0.5)
        np.testing.assert_allclose(base, shifted, rtol=1e-12)


class TestPriorSpecValidation:
    @pytest.mark.parametrize(
        "bad",
        [
            lambda: PriorSpec.power(0.0),
            lambda: PriorSpec.power(-1.0),
            lambda: PriorSpec.log_shape(0.0),
            lambda: PriorSpec.logit(0.0),
            lambda: PriorSpec.logit(1.0, 0.0, 1.0),
            lambda: PriorSpec.logit(1.0, 0.0, 0.0),
            lambda: PriorSpec("mystery"),
        ],
    )
    def test_invalid_parameters(self, bad):
        with pytest.raises(DomainError):
            bad()

    def test_json_unknown_kind(self):
        with pytest.raises(DomainError, match="unknown prior kind 'x'"):
            PriorSpec.from_json({"kind": "x"})

    @pytest.mark.parametrize("prior", ALL_PRIORS)
    def test_json_round_trip(self, prior):
        # the document a config file holds: the kind and the set parameters
        doc = {k: v for k, v in vars(prior).items() if v is not None}
        assert PriorSpec.from_json(json.loads(json.dumps(doc))) == prior
