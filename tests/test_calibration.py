"""Disbelief calibration: closed moments and the self-consistency root."""

import json
import math
from dataclasses import asdict

import numpy as np
import pytest

from petersburg import (
    CalibrationError,
    DomainError,
    ExpectedUtilitySeq,
    PriorSpec,
    bernoulli_utilities,
    calibrate_bernoulli_disbelief,
    calibrate_disbelief_general,
    posterior,
    posterior_moments,
    repeated_game_utilities,
)
from petersburg.cli import main
from petersburg.posteriors import has_declared_moments
from petersburg.rootfind import rtsafe

LUCE = PriorSpec.luce()
RUN_LENGTH_ROOT = float("1.56521632767258818830271657205")


def _brute_index_moments(a: float) -> tuple[float, float]:
    """Mean and variance of n under weights n*exp(-a*n), by direct summation."""
    n = np.arange(1.0, math.ceil(80.0 / a) + 50.0)
    w = n * np.exp(-a * n)
    w /= w.sum()
    mean = float(np.sum(n * w))
    var = float(np.sum((n - mean) ** 2 * w))
    return mean, var


def _declared_var(a: float) -> float:
    """The coin-toss family's declared luce variance at beta = -a."""
    return bernoulli_utilities().luce_moments(-a)[1]


class TestVarianceClosedForm:
    def test_value_at_two(self):
        np.testing.assert_allclose(_declared_var(2.0), 0.36202, atol=1e-4)

    def test_value_at_one(self):
        np.testing.assert_allclose(_declared_var(1.0), 1.84134, atol=1e-4)

    @pytest.mark.parametrize("a", [0.1, 0.5, 1.0, 2.0, 5.0])
    def test_matches_brute_force_moments(self, a):
        _, var = _brute_index_moments(a)
        np.testing.assert_allclose(_declared_var(a), var, rtol=1e-8)

    @pytest.mark.parametrize("a", np.linspace(0.1, 5.0, 25))
    def test_mean_square_identity(self, a):
        mean = 1.0 / math.tanh(a / 2.0)
        declared_mean, var, _ = bernoulli_utilities().luce_moments(-a)
        np.testing.assert_allclose(declared_mean, mean, rtol=1e-14)
        np.testing.assert_allclose(var, 0.5 * (mean * mean - 1.0), rtol=1e-12)

    @pytest.mark.parametrize("a", [0.0, -1.0])
    def test_domain(self, a):
        # the declared moments are read only where the posterior exists
        with pytest.raises(DomainError):
            posterior_moments(LUCE, bernoulli_utilities(), -a)


class TestBernoulliCalibration:
    def test_root_value(self):
        result = calibrate_bernoulli_disbelief()
        assert round(result.abs_beta, 3) == 1.157

    def test_root_is_the_full_sum_root_in_a_few_steps(self):
        # mpmath's 40-digit root of sqrt(2) b sinh(b/2) = 1, rounded
        result = calibrate_bernoulli_disbelief()
        assert result.abs_beta == 1.1568601071905842
        assert abs(result.residual) <= 2.3e-16
        assert result.evaluations <= 8

    def test_defining_equation_residual(self):
        result = calibrate_bernoulli_disbelief()
        lhs = math.sqrt(2.0) * result.abs_beta * math.sinh(result.abs_beta / 2.0)
        assert abs(lhs - 1.0) < 1e-10
        assert abs(result.residual) < 1e-10

    def test_against_independent_bisection(self):
        lo, hi = 0.5, 2.0
        f = lambda b: math.sqrt(2.0) * b * math.sinh(b / 2.0) - 1.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if f(lo) * f(mid) <= 0.0:
                hi = mid
            else:
                lo = mid
        oracle = 0.5 * (lo + hi)
        result = calibrate_bernoulli_disbelief()
        assert abs(result.abs_beta - oracle) < 1e-9


class TestGeneralCalibration:
    def test_reproduces_closed_route(self):
        # U_n = n without its declared moments is summed over the support
        # the engine truncates, which leaves ~1e-12 of the variance out
        summed = ExpectedUtilitySeq(lambda n: n, identity=True)
        general = calibrate_disbelief_general(summed, LUCE)
        closed = calibrate_bernoulli_disbelief()
        assert abs(general.abs_beta / closed.abs_beta - 1.0) <= 5e-12

    def test_zero_variance_family_fails(self):
        seq = ExpectedUtilitySeq.from_values([1.0, 1.0])
        with pytest.raises(CalibrationError):
            calibrate_disbelief_general(seq, LUCE)

    def test_run_length_root_against_mpmath(self):
        # the 30-digit root of b = sigma(-b) for U_N = 1 + log2 N under the
        # luce prior, from mpmath.findroot at 40 digits on the sums S_0..S_2
        # written with Hurwitz zeta derivatives (see test_run_length_sums)
        result = calibrate_disbelief_general(repeated_game_utilities(), LUCE)
        assert abs(result.abs_beta - RUN_LENGTH_ROOT) <= math.ulp(RUN_LENGTH_ROOT)
        assert abs(result.residual) <= 1e-15
        assert result.evaluations <= 15

    def test_saturating_family_fails_honestly(self):
        # logarithmic coin-toss utilities saturate at 2 ln 2, so the weights
        # never decay and no beta normalizes them: the family is refused
        # before any calibration
        from petersburg import GameFamily, UtilitySpec

        with pytest.raises(DomainError, match="bounds the coin-toss"):
            ExpectedUtilitySeq.from_family(GameFamily.bernoulli(), UtilitySpec.logarithmic())

    def test_grid_route_warns_of_several_roots(self):
        # one lottery at U = 1 and a hundred at U = 5: b - sigma(-b) changes
        # sign three times on the grid, and the smallest root is returned
        u = np.array([1.0] + [5.0] * 100)
        with pytest.warns(UserWarning, match="multiple calibration roots"):
            result = calibrate_disbelief_general(ExpectedUtilitySeq.from_values(u), LUCE)
        assert abs(result.abs_beta / _dense_grid_root(u, np.log(u)) - 1) <= 1e-12

    def test_doubled_utilities_against_grid_oracle(self):
        # For U_n = 2n the posterior index distribution matches the coin-toss
        # one at parameter 2b, so sigma(b) = sqrt(2)/sinh(b); grid-search the
        # self-consistency |b - sigma| independently.
        grid = np.arange(1e-4, 5.0, 1e-4)
        f = np.abs(grid - math.sqrt(2.0) / np.sinh(grid))
        oracle = float(grid[int(np.argmin(f))])
        seq = ExpectedUtilitySeq(lambda n: 2.0 * n, unbounded=True)
        result = calibrate_disbelief_general(seq, LUCE)
        assert abs(result.abs_beta - oracle) <= 1e-4

    def test_grid_caps_the_support_of_an_undeclared_sequence(self):
        # small-b grid points fail at 20,000 terms instead of streaming to
        # max_index; the refinement near the root needs far fewer terms
        largest = []
        seq = ExpectedUtilitySeq(lambda n: largest.append(n.max()) or 2.0 * n)
        result = calibrate_disbelief_general(seq, LUCE)
        assert max(largest) <= 20_000
        assert abs(result.abs_beta * math.sinh(result.abs_beta) - math.sqrt(2.0)) <= 1e-12

    def test_sigma_strictly_decreasing(self):
        sigmas = []
        for b in np.linspace(0.3, 5.0, 20):
            dist = posterior(LUCE, bernoulli_utilities(), -float(b))
            mean = float(np.dot(dist.probs, dist.utilities))
            var = float(np.dot(dist.probs, (dist.utilities - mean) ** 2))
            sigmas.append(math.sqrt(var))
        assert all(b > a for a, b in zip(sigmas[1:], sigmas[:-1]))

    def test_result_serialization(self, capsys):
        result = calibrate_bernoulli_disbelief()
        assert main(["calibrate", "--format", "json", "--no-timestamp"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(asdict(result)) == {
            "abs_beta", "residual", "evaluations", "bracket", "method"
        }
        assert set(doc) == set(asdict(result)) | {"route"}
        assert doc["abs_beta"] == float(f"{result.abs_beta:.12g}")


# -- the solver against independent oracles ----------------------------------

# the sweep workload's prior ranges: power alpha in [1, 3], log u0 in
# [0.5, 2], logit b in [0.8, 1.2] and c in [-0.3, 0.3] at gamma = 0.5
SWEEP_PRIORS = [
    LUCE,
    PriorSpec.power(1.0),
    PriorSpec.power(2.0),
    PriorSpec.power(3.0),
    PriorSpec.log_shape(0.5),
    PriorSpec.log_shape(1.0),
    PriorSpec.log_shape(2.0),
    PriorSpec.logit(0.8, -0.3, 0.5),
    PriorSpec.logit(1.0, 0.0, 0.5),
    PriorSpec.logit(1.2, 0.3, 0.5),
]


def _mp_log_weight(prior, n, mpmath):
    if prior.kind == "luce":
        return mpmath.log(n)
    if prior.kind == "power":
        return prior.alpha * mpmath.log(n)
    if prior.kind == "log":
        return mpmath.log(mpmath.log1p(n / prior.u0))
    return prior.b * n ** prior.gamma + prior.c


def _mp_identity_root(prior, n_max, mpmath):
    """The root of b = sigma(-b) for U_n = n, n = 1..n_max, by mpmath at 40
    digits."""
    with mpmath.workdps(40):
        ns = [mpmath.mpf(n) for n in range(1, n_max + 1)]
        log_w = [_mp_log_weight(prior, n, mpmath) for n in ns]

        def f(b):
            w = [mpmath.exp(lw - b * n) for lw, n in zip(log_w, ns)]
            z = mpmath.fsum(w)
            mean = mpmath.fsum(wi * n for wi, n in zip(w, ns)) / z
            var = mpmath.fsum(wi * (n - mean) ** 2 for wi, n in zip(w, ns)) / z
            return b - mpmath.sqrt(var)

        return float(mpmath.findroot(f, mpmath.mpf("1.2")))


@pytest.mark.parametrize("prior", SWEEP_PRIORS, ids=repr)
def test_identity_root_against_mpmath(prior):
    mpmath = pytest.importorskip("mpmath")
    result = calibrate_disbelief_general(bernoulli_utilities(), prior)
    assert result.evaluations <= 15
    full = _mp_identity_root(prior, 300, mpmath)
    if has_declared_moments(prior, bernoulli_utilities()):
        # the declared moments cover the whole support
        assert abs(result.abs_beta - full) <= math.ulp(full)
        return
    # on the support the engine sums, the root is exact to rounding
    n_trunc = posterior(prior, bernoulli_utilities(), -result.abs_beta).n_trunc
    root = _mp_identity_root(prior, n_trunc, mpmath)
    assert abs(result.abs_beta - root) <= 2 * math.ulp(root)
    # the support ends where the tail mass falls below rel_tol = 1e-14, and
    # the variance weighs that tail by (n - mean)^2: ~1e-12 off the full sum
    assert abs(result.abs_beta / full - 1) <= 5e-12


@pytest.mark.parametrize("prior", SWEEP_PRIORS, ids=repr)
def test_f_increasing_on_identity(prior):
    # f(b) = b - sigma(-b) increases strictly, so the first sign change
    # found by stepping from b = 1 is the only root
    b = np.geomspace(1e-2, 50.0, 80)
    sigma = [math.sqrt(posterior_moments(prior, bernoulli_utilities(), -x).var) for x in b]
    assert np.all(np.diff(b - np.array(sigma)) > 0.0)


def test_f_increasing_on_run_length():
    b = np.geomspace(0.7, 50.0, 80)  # the series diverges for b <= ln 2
    sigma = [math.sqrt(posterior_moments(LUCE, repeated_game_utilities(), -x).var) for x in b]
    assert np.all(np.diff(b - np.array(sigma)) > 0.0)


def _dense_grid_root(u: np.ndarray, log_prior: np.ndarray) -> float:
    """The smallest root of b - sigma(-b) for a finite family, located on a
    20,001-point grid and refined by bisection, in plain numpy."""

    def f(b):
        lw = log_prior - np.outer(b, u)
        w = np.exp(lw - lw.max(axis=1, keepdims=True))
        p = w / w.sum(axis=1, keepdims=True)
        mean = p @ u
        return b - np.sqrt((p * (u - mean[:, None]) ** 2).sum(axis=1))

    grid = np.geomspace(1e-6, 50.0, 20_001)
    values = f(grid)
    k = np.flatnonzero((values[:-1] <= 0.0) & (values[1:] > 0.0))[0]
    lo, hi = grid[k], grid[k + 1]
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if f(np.array([mid]))[0] <= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("prior", [LUCE, PriorSpec.power(2.0)], ids=repr)
def test_custom_family_against_dense_grid(seed, prior):
    rng = np.random.default_rng(seed)
    u = rng.lognormal(0.0, 1.0, int(rng.integers(20, 61)))
    log_prior = (1.0 if prior.kind == "luce" else prior.alpha) * np.log(u)
    result = calibrate_disbelief_general(ExpectedUtilitySeq.from_values(u), prior)
    assert abs(result.abs_beta / _dense_grid_root(u, log_prior) - 1) <= 1e-12
    assert result.evaluations <= 60 + 15


class TestPosteriorMoments:
    @pytest.mark.parametrize("beta", [-0.05, -0.5, -2.0])
    def test_match_the_posterior(self, beta):
        prior = PriorSpec.power(2.0)
        dist = posterior(prior, bernoulli_utilities(), beta)
        mean = float(np.dot(dist.probs, dist.utilities))
        d = dist.utilities - mean
        moments = posterior_moments(prior, bernoulli_utilities(), beta)
        np.testing.assert_allclose(moments.mean, mean, rtol=1e-14)
        np.testing.assert_allclose(moments.var, np.dot(dist.probs, d * d), rtol=1e-13)
        np.testing.assert_allclose(moments.kappa3, np.dot(dist.probs, d ** 3), rtol=1e-12)

    def test_run_length_declares_luce_moments_only(self):
        # power(1) weighs like luce, but its moments are summed by the engine,
        # whose heuristic stop leaves out a tail the closed moments include
        power = posterior_moments(PriorSpec.power(1.0), repeated_game_utilities(), -3.0)
        luce = posterior_moments(LUCE, repeated_game_utilities(), -3.0)
        np.testing.assert_allclose(power, luce, rtol=1e-6)


class TestRtsafe:
    def test_newton_converges_to_rounding(self):
        xs = []
        fdf = lambda x: xs.append(x) or (x * x - 2.0, 2.0 * x)
        root, fx = rtsafe(fdf, 0.0, 2.0, (2.0, 2.0, 4.0))
        assert abs(root - math.sqrt(2.0)) <= math.ulp(math.sqrt(2.0))
        assert fx == root * root - 2.0
        assert len(xs) <= 7

    def test_bisects_where_f_cannot_be_evaluated(self):
        # f = -inf below 1, as a truncation failure counts in calibration
        fdf = lambda x: (x - 1.5, 1.0) if x >= 1.0 else (-math.inf, math.nan)
        assert rtsafe(fdf, 0.0, 4.0, (4.0, 2.5, 1.0)) == (1.5, 0.0)

    def test_stays_in_the_bracket(self):
        # a Newton step from x = -10 on atan lands far past the bracket
        xs = []
        fdf = lambda x: xs.append(x) or (math.atan(x - 1.0), 1.0 / (1.0 + (x - 1.0) ** 2))
        root, _ = rtsafe(fdf, -10.0, 10.0, (-10.0, math.atan(-11.0), 1.0 / 122.0))
        assert abs(root - 1.0) <= 1e-15
        assert all(-10.0 <= x <= 10.0 for x in xs) and len(xs) <= 30
