"""Repeated games and the martingale roulette sequence."""

import json
import math

import numpy as np
import pytest

from petersburg import (
    DomainError,
    PriorSpec,
    SignError,
    SingularAttributeError,
    TruncationPolicy,
    continuous_optimum,
    repeated_game_posterior,
    repeated_game_utilities,
    repeated_game_value,
    repeated_optimal,
    roulette_asymptotic_value,
    roulette_expected_value,
    roulette_sequence,
    roulette_stage_choice,
    stochastically_optimal,
)
from petersburg.cli import main


def run_cli(capsys, *argv) -> str:
    assert main([*argv, "--no-timestamp"]) == 0
    return capsys.readouterr().out

DOUBLE_ZERO = 18.0 / 38.0


def _stage_value_series(n: int, x0: float, p: float) -> float:
    """Independent oracle: stage value as the explicit double sum of win
    branches plus the accumulated-loss branch."""
    win_part = sum(p * (1.0 - p) ** k * x0 for k in range(n))
    loss = -sum(2.0 ** k * x0 for k in range(n))
    return win_part + (1.0 - p) ** n * loss


class TestRepeatedGameValue:
    def test_single_run(self):
        assert repeated_game_value(1) == 1.0

    def test_power_of_two(self):
        assert repeated_game_value(1024) == 11.0

    def test_non_power(self):
        np.testing.assert_allclose(
            repeated_game_value(3), 1.0 + math.log2(3.0), rtol=1e-15
        )
        np.testing.assert_allclose(repeated_game_value(3), 2.58496, atol=1e-5)

    @pytest.mark.parametrize("bad", [0, -2])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            repeated_game_value(bad)


class TestRepeatedGamePosterior:
    def test_unit_disbelief_prefers_single_run(self):
        dist = repeated_game_posterior(-1.0, TruncationPolicy(max_index=10 ** 5))
        assert stochastically_optimal(dist) == 1

    def test_half_disbelief_prefers_two_runs(self):
        # direct weight oracle (1 + log2 N) exp(-0.5 (1 + log2 N)) at N=1..4:
        # 0.6065, 0.7358, 0.7097, 0.6694 -> argmax at N=2
        dist = repeated_game_posterior(-0.5, TruncationPolicy(max_index=10 ** 5))
        assert stochastically_optimal(dist) == 2

    def test_normalized_over_truncated_support(self):
        dist = repeated_game_posterior(-1.0, TruncationPolicy(max_index=10 ** 4))
        assert abs(float(dist.probs.sum()) - 1.0) <= 1e-12
        assert dist.n_trunc == 10 ** 4

    def test_tail_bound_reporting(self):
        heavy = repeated_game_posterior(-1.0, TruncationPolicy(max_index=10 ** 4))
        assert 0.0 < heavy.tail_bound < 0.2
        divergent = repeated_game_posterior(-0.5, TruncationPolicy(max_index=10 ** 4))
        assert math.isinf(divergent.tail_bound)
        light = repeated_game_posterior(-6.0)
        assert light.tail_bound < 1e-13

    @pytest.mark.parametrize("beta", [0.0, 0.4])
    def test_sign_rule(self, beta):
        with pytest.raises(SignError):
            repeated_game_posterior(beta)

    def test_utilities_sequence(self):
        seq = repeated_game_utilities()
        assert seq.values(1, 5).tolist() == [1.0, 2.0, 1.0 + math.log2(3), 3.0]
        assert seq.unbounded and not seq.identity


class TestRepeatedOptimal:
    def test_unit_disbelief(self):
        result = repeated_optimal(-1.0)
        assert result.u_opt == 1.0
        assert result.n_opt_continuous == 1.0
        assert result.n_opt == 1

    def test_quarter_disbelief(self):
        result = repeated_optimal(-0.25)
        assert result.u_opt == 4.0
        assert result.n_opt_continuous == 8.0
        assert result.n_opt == 8

    def test_strong_disbelief_clamps_to_one(self):
        result = repeated_optimal(-2.0)
        np.testing.assert_allclose(result.n_opt_continuous, 2.0 ** -0.5, rtol=1e-15)
        assert result.n_opt == 1

    @pytest.mark.parametrize("beta", [-1.0, -0.5, -0.25, -0.7])
    def test_willingness_matches_single_game_optimum(self, beta):
        result = repeated_optimal(beta)
        assert result.u_opt == continuous_optimum(PriorSpec.luce(), beta)
        assert abs(result.u_opt * abs(beta) - 1.0) <= 1e-12

    @pytest.mark.parametrize("beta", [-1.0, -0.5])
    def test_matches_posterior_argmax(self, beta):
        dist = repeated_game_posterior(beta, TruncationPolicy(max_index=10 ** 4))
        assert repeated_optimal(beta).n_opt == stochastically_optimal(dist)

    def test_sign_rule(self):
        with pytest.raises(SignError):
            repeated_optimal(0.1)

    def test_serialization(self, capsys):
        out = run_cli(capsys, "repeated", "--beta=-0.5", "--rows", "0", "--format", "json")
        doc = json.loads(out)["result"]
        assert doc["n_opt"] == 2 and doc["u_opt"] == 2.0


class TestRouletteExpectedValue:
    def test_first_stage(self):
        np.testing.assert_allclose(roulette_expected_value(1), -1.0 / 19.0, rtol=1e-14)
        np.testing.assert_allclose(roulette_expected_value(1), -0.0526, atol=1e-3)

    def test_second_stage(self):
        np.testing.assert_allclose(roulette_expected_value(2), -0.108, atol=1e-3)

    @pytest.mark.parametrize("p", [DOUBLE_ZERO, 0.4, 0.45])
    def test_closed_form_equals_double_sum(self, p):
        for n in range(1, 61):
            closed = roulette_expected_value(n, 1.0, p)
            series = _stage_value_series(n, 1.0, p)
            np.testing.assert_allclose(closed, series, rtol=1e-12, atol=1e-12)

    def test_fair_wheel_is_value_neutral(self):
        for n in (1, 5, 30):
            assert roulette_expected_value(n, 1.0, 0.5) == 0.0

    def test_scales_with_initial_bid(self):
        np.testing.assert_allclose(
            roulette_expected_value(3, 2.5), 2.5 * roulette_expected_value(3), rtol=1e-15
        )

    def test_domain(self):
        with pytest.raises(DomainError):
            roulette_expected_value(0)
        with pytest.raises(DomainError):
            roulette_expected_value(1, x0=-1.0)
        with pytest.raises(DomainError):
            roulette_expected_value(1, p_win=1.0)


class TestRouletteAsymptoticValue:
    def test_large_n_ratio(self):
        exact = roulette_expected_value(200)
        approx = roulette_asymptotic_value(200)
        assert abs(approx / exact - 1.0) < 1e-4

    @pytest.mark.parametrize("n", [80, 100, 150])
    def test_regime_accuracy(self, n):
        exact = roulette_expected_value(n)
        approx = roulette_asymptotic_value(n)
        assert abs(approx / exact - 1.0) < 0.02

    def test_invalid_at_small_n(self):
        # documented mismatch: -20/19 vs exact -1/19
        exact = roulette_expected_value(1)
        approx = roulette_asymptotic_value(1)
        assert abs(approx / exact - 1.0) > 10.0


class TestRouletteStageChoice:
    def test_first_stage_neutral(self):
        choice = roulette_stage_choice(1)
        np.testing.assert_allclose(
            [choice.p_stop, choice.p_continue], [0.671, 0.329], atol=2e-3
        )
        assert abs(choice.p_stop + choice.p_continue - 1.0) <= 1e-12

    @pytest.mark.parametrize(
        "n,expected",
        [(2, (0.606, 0.394)), (3, (0.579, 0.421)), (4, (0.562, 0.438))],
    )
    def test_early_stages_neutral(self, n, expected):
        choice = roulette_stage_choice(n)
        np.testing.assert_allclose(
            [choice.p_stop, choice.p_continue], expected, atol=2e-3
        )

    def test_deep_stage_limit(self):
        choice = roulette_stage_choice(500)
        np.testing.assert_allclose(
            [choice.p_stop, choice.p_continue],
            [20.0 / 39.0, 19.0 / 39.0],
            atol=2e-3,
        )

    def test_monotone_decline_toward_limit(self):
        limit = 20.0 / 39.0
        previous = roulette_stage_choice(1).p_stop
        for n in range(2, 201):
            current = roulette_stage_choice(n).p_stop
            assert current < previous
            assert current > limit
            previous = current

    def test_neutral_choice_ignores_bid_size(self):
        small = roulette_stage_choice(3, 0.0, 1.0)
        large = roulette_stage_choice(3, 0.0, 750.0)
        np.testing.assert_allclose(small.p_stop, large.p_stop, rtol=1e-12)

    def test_nonzero_beta_depends_on_bid_size(self):
        small = roulette_stage_choice(3, -1.0, 1.0)
        large = roulette_stage_choice(3, -1.0, 2.0)
        assert abs(small.p_stop - large.p_stop) > 1e-4
        # recomputation oracle: weights |u|^(-1) exp(beta*u), pair-normalized
        for choice in (small, large):
            w_stop = math.exp(-math.log(abs(choice.u_stop)) - choice.u_stop)
            w_cont = math.exp(-math.log(abs(choice.u_continue)) - choice.u_continue)
            np.testing.assert_allclose(
                choice.p_stop, w_stop / (w_stop + w_cont), rtol=1e-12
            )

    def test_fair_wheel_is_singular(self):
        with pytest.raises(SingularAttributeError):
            roulette_stage_choice(1, p_win=0.5)

    def test_winning_wheel_rejected(self):
        with pytest.raises(DomainError):
            roulette_stage_choice(1, p_win=0.6)

    def test_utility_ordering(self):
        choice = roulette_stage_choice(7)
        assert choice.u_continue < choice.u_stop < 0.0


class TestRouletteSequence:
    def test_sequence_stages(self):
        seq = roulette_sequence(5)
        assert [c.stage for c in seq] == [1, 2, 3, 4, 5]
        assert seq[2] == roulette_stage_choice(3)

    def test_csv_columns(self, capsys):
        lines = run_cli(capsys, "roulette", "--stages", "3", "--format", "csv").splitlines()
        assert lines[0] == "stage,u_stop,u_continue,p_stop,p_continue"
        assert len(lines) == 4
        row = lines[1].split(",")
        np.testing.assert_allclose(float(row[1]), -1.0 / 19.0, rtol=1e-11)
