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
    bernoulli_variance_closed,
    calibrate_bernoulli_disbelief,
    calibrate_disbelief_general,
    posterior,
)
from petersburg.cli import main

LUCE = PriorSpec.luce()


def _brute_index_moments(a: float) -> tuple[float, float]:
    """Mean and variance of n under weights n*exp(-a*n), by direct summation."""
    n = np.arange(1.0, math.ceil(80.0 / a) + 50.0)
    w = n * np.exp(-a * n)
    w /= w.sum()
    mean = float(np.sum(n * w))
    var = float(np.sum((n - mean) ** 2 * w))
    return mean, var


class TestVarianceClosedForm:
    def test_value_at_two(self):
        np.testing.assert_allclose(bernoulli_variance_closed(2.0), 0.36202, atol=1e-4)

    def test_value_at_one(self):
        np.testing.assert_allclose(bernoulli_variance_closed(1.0), 1.84134, atol=1e-4)

    @pytest.mark.parametrize("a", [0.1, 0.5, 1.0, 2.0, 5.0])
    def test_matches_brute_force_moments(self, a):
        _, var = _brute_index_moments(a)
        np.testing.assert_allclose(bernoulli_variance_closed(a), var, rtol=1e-8)

    @pytest.mark.parametrize("a", np.linspace(0.1, 5.0, 25))
    def test_mean_square_identity(self, a):
        mean = 1.0 / math.tanh(a / 2.0)
        np.testing.assert_allclose(
            bernoulli_variance_closed(a), 0.5 * (mean * mean - 1.0), rtol=1e-12
        )

    @pytest.mark.parametrize("a", [0.0, -1.0])
    def test_domain(self, a):
        with pytest.raises(DomainError):
            bernoulli_variance_closed(a)


class TestBernoulliCalibration:
    def test_root_value(self):
        result = calibrate_bernoulli_disbelief()
        assert round(result.abs_beta, 3) == 1.157

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
        general = calibrate_disbelief_general(bernoulli_utilities(), LUCE)
        closed = calibrate_bernoulli_disbelief()
        assert abs(general.abs_beta - closed.abs_beta) < 1e-6

    def test_zero_variance_family_fails(self):
        seq = ExpectedUtilitySeq.from_values([1.0, 1.0])
        with pytest.raises(CalibrationError):
            calibrate_disbelief_general(seq, LUCE)

    def test_heavy_tailed_family_fails_honestly(self):
        # run-length values 1 + log2(N) decay too slowly for the strict
        # truncation tolerance near the would-be fixed point
        from petersburg import repeated_game_utilities

        with pytest.raises(CalibrationError):
            calibrate_disbelief_general(repeated_game_utilities(), LUCE)

    def test_saturating_family_fails_honestly(self):
        # logarithmic coin-toss utilities saturate at 2 ln 2, so the weights
        # never decay and sigma has no resolvable self-consistent root
        from petersburg import GameFamily, UtilitySpec

        seq = ExpectedUtilitySeq.from_family(
            GameFamily.bernoulli(), UtilitySpec.logarithmic()
        )
        with pytest.raises(CalibrationError):
            calibrate_disbelief_general(seq, LUCE)

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
        assert set(asdict(result)) == {"abs_beta", "residual", "iterations", "method"}
        assert set(doc) == set(asdict(result)) | {"route"}
        assert doc["abs_beta"] == float(f"{result.abs_beta:.12g}")
