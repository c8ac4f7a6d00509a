"""Repeated games and the martingale roulette sequence."""

import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from petersburg import (
    DomainError,
    ExpectedUtilitySeq,
    PriorSpec,
    RunLengthPosterior,
    SimConfig,
    SignError,
    SingularAttributeError,
    StageChoice,
    TruncationPolicy,
    bernoulli_utilities,
    continuous_optimum,
    posterior,
    repeated_game_posterior,
    repeated_game_utilities,
    repeated_optimal,
    roulette_sequence,
    simulate_martingale,
)
from petersburg.cli import main
from petersburg.posteriors import TAIL_RULES
from petersburg.scenarios import _primitive, _run_length_moments, _run_length_sum


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


def run_length_value(n: int) -> float:
    """U_n of the run-length sequence."""
    return float(repeated_game_utilities().values(n)[-1])


class TestRepeatedGameValue:
    def test_single_run(self):
        assert run_length_value(1) == 1.0

    def test_power_of_two(self):
        assert run_length_value(1024) == 11.0

    def test_non_power(self):
        np.testing.assert_allclose(
            run_length_value(3), 1.0 + math.log2(3.0), rtol=1e-15
        )
        np.testing.assert_allclose(run_length_value(3), 2.58496, atol=1e-5)

    @pytest.mark.parametrize("bad", [0, -2])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            run_length_value(bad)


def reference_tail_bound(m, beta):
    """The integral remainder past m as first written, kept as the reference."""
    s = abs(beta) / math.log(2.0)
    if s <= 1.0:
        return math.inf
    head = math.exp(beta) * m ** (1.0 - s)
    log_part = (math.log(m) / (s - 1.0) + 1.0 / (s - 1.0) ** 2) / math.log(2.0)
    return head * (1.0 / (s - 1.0) + log_part)


def reference_repeated_posterior(beta, policy):
    """The doubling loop that filled the whole support, kept as the
    reference: (n_trunc, tail_bound, probs over 1..n_trunc)."""
    m = min(1024, policy.max_index)
    while True:
        n = np.arange(1, m + 1, dtype=float)
        u = 1.0 + np.log2(n)
        weights = u * np.exp(beta * u)
        total = float(weights.sum())
        tail = reference_tail_bound(m, beta)
        if tail <= policy.rel_tol * total or m >= policy.max_index:
            break
        m = min(2 * m, policy.max_index)
    return m, tail / total if math.isfinite(tail) else math.inf, weights / total


def doubling_repeated_posterior(beta, policy):
    """The run-length support by the plain doubling loop, which sums the
    normalizer at every m = 1024, 2048, ... up to max_index: the reference
    for (n_trunc, tail_bound, normalizer)."""
    q = 1.0 / math.log(2.0)
    t = 1.0 + beta * q
    m = min(1024, policy.max_index)
    while True:
        total = _run_length_sum(m, beta)
        tail = -math.exp(beta) * _primitive([1.0, q], m, t) if t < 0.0 else math.inf
        if tail <= policy.rel_tol * total or m >= policy.max_index:
            break
        m = min(2 * m, policy.max_index)
    return m, tail / total, total


def _probs(dist):
    """The run-length posterior's probabilities over its whole support."""
    return dist.columns(dist.n_trunc)[2]


def _argmax(dist):
    return int(np.argmax(_probs(dist))) + 1


def _posterior_sign_message(beta):
    """``posterior``'s SignError message on the run-length sequence at beta,
    as an anchored pattern."""
    with pytest.raises(SignError) as refused:
        posterior(PriorSpec("luce"), repeated_game_utilities(), beta)
    return f"^{re.escape(str(refused.value))}$"


def _zeta_sums(beta, m):
    """mpmath's sum of the run-length weights over 1..m and over N > m, from
    Hurwitz zeta derivatives (DLMF 25.11): with s = |beta|/ln 2,
    sum_{N>=a} (1 + log2 N) e^beta N^-s = e^beta (zeta(s, a) - zeta'(s, a)/ln 2)."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        b = mpmath.mpf(beta)
        s = -b / mpmath.log(2)

        def from_(a):
            return mpmath.exp(b) * (mpmath.zeta(s, a) - mpmath.zeta(s, a, 1) / mpmath.log(2))

        return float(from_(1) - from_(m + 1)), float(from_(m + 1))


def _zeta_power_sum(k, beta, m, float_=True):
    """mpmath's sum over N = 1..m (m may be inf) of U_N^(k+1) exp(beta U_N):
    with ln-power sums sum_{N>=a} (ln N)^j N^-s = (-1)^j zeta^(j)(s, a)."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        b = mpmath.mpf(beta)
        s, q = -b / mpmath.log(2), 1 / mpmath.log(2)

        def from_(a):
            return sum(
                mpmath.binomial(k + 1, j) * (-q) ** j * mpmath.zeta(s, a, j)
                for j in range(k + 2)
            )

        total = mpmath.exp(b) * (from_(1) - (from_(m + 1) if m < math.inf else 0))
        return float(total) if float_ else total


class TestRepeatedGamePosterior:
    def test_unit_disbelief_prefers_single_run(self):
        dist = repeated_game_posterior(-1.0, TruncationPolicy(max_index=10 ** 5))
        assert _argmax(dist) == 1

    def test_half_disbelief_prefers_two_runs(self):
        # direct weight oracle (1 + log2 N) exp(-0.5 (1 + log2 N)) at N=1..4:
        # 0.6065, 0.7358, 0.7097, 0.6694 -> argmax at N=2
        dist = repeated_game_posterior(-0.5, TruncationPolicy(max_index=10 ** 5))
        assert _argmax(dist) == 2

    def test_normalized_over_truncated_support(self):
        dist = repeated_game_posterior(-1.0, TruncationPolicy(max_index=10 ** 4))
        assert abs(float(_probs(dist).sum()) - 1.0) <= 1e-12
        assert dist.n_trunc == 10 ** 4

    def test_tail_bound_reporting(self):
        heavy = repeated_game_posterior(-1.0, TruncationPolicy(max_index=10 ** 4))
        assert 0.0 < heavy.tail_bound < 0.2
        divergent = repeated_game_posterior(-0.5, TruncationPolicy(max_index=10 ** 4))
        assert math.isinf(divergent.tail_bound)
        light = repeated_game_posterior(-6.0)
        assert light.tail_bound < 1e-13

    @pytest.mark.parametrize("beta", [-0.8, -1.0, -1.5652, -2.0, -3.0])
    def test_tail_bound_is_a_bound(self, beta):
        dist = repeated_game_posterior(beta)
        _, remainder = _zeta_sums(beta, dist.n_trunc)
        assert 1.0 <= dist.tail_bound * dist.normalizer / remainder <= 1.001

    def test_tail_rule_is_fixed(self):
        dist = repeated_game_posterior(-1.0, TruncationPolicy(max_index=10))
        assert dist.meta()["tail_rule"] == "integral"
        with pytest.raises(TypeError):
            RunLengthPosterior(-1.0, 10, 0.0, 1.0, "anything")
        # one tuple names every rule a posterior reports
        reported = {dist.tail_rule} | {
            posterior(PriorSpec("luce"), seq, beta).tail_rule for seq, beta in (
                (ExpectedUtilitySeq.from_values([1.0, 2.0]), 0.5),
                (bernoulli_utilities(), -0.5),
                (bernoulli_utilities(), -1e-3),
            )
        }
        assert reported == set(TAIL_RULES) == {"finite", "majorant", "heuristic", "integral"}

    @pytest.mark.parametrize("beta", [-0.3, -0.5, -math.log(2.0)])
    def test_divergent_series_has_no_bound(self, beta):
        assert math.isinf(repeated_game_posterior(beta).tail_bound)

    @pytest.mark.parametrize("beta", [
        -3.0, -2.0, -1.5652, -1.0, -0.7, -math.log(2.0) * (1.0 + 1e-9),
        -math.log(2.0) * (1.0 - 1e-9), -0.6932, -0.5, -0.3,
    ])
    def test_normalizer_matches_hurwitz_zeta(self, beta):
        for m in (1, 63, 64, 65, 1024, 10 ** 4, 10 ** 6):
            expected, _ = _zeta_sums(beta, m)
            np.testing.assert_allclose(_run_length_sum(m, beta), expected, rtol=2e-15)

    @pytest.mark.parametrize("beta", [
        -50.0, -10.0, -3.0, -2.0, -1.5652, -1.0, -0.8, -0.7, -0.6932, -0.5, -0.3,
    ])
    def test_power_sums_match_hurwitz_zeta(self, beta):
        # S_k = sum U_N^(k+1) exp(beta U_N), k = 0..3, the sums behind the
        # calibration moments; on the whole support only where the series
        # converges well away from beta = -ln 2, where the sums' condition
        # number 1/(1 + beta/ln 2) amplifies the rounding of beta itself
        stops = (1, 64, 65, 1024, 10 ** 6) + ((math.inf,) if beta <= -0.8 else ())
        for m in stops:
            for k in range(4):
                got = _run_length_sum(m, beta, (0.0,) * (k + 1) + (1.0,))
                np.testing.assert_allclose(got, _zeta_power_sum(k, beta, m), rtol=4e-15)

    @pytest.mark.parametrize("beta", [-0.8, -1.0, -1.5652, -3.0, -10.0])
    def test_moments_match_hurwitz_zeta(self, beta):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            s0, s1, s2, s3 = (_zeta_power_sum(k, beta, math.inf, float_=False) for k in range(4))
            mean = s1 / s0
            moments = [mean, s2 / s0 - mean ** 2, s3 / s0 - 3 * mean * s2 / s0 + 2 * mean ** 3]
        expected = [float(x) for x in moments]
        np.testing.assert_allclose(_run_length_moments(beta), expected, rtol=1e-14)

    @pytest.mark.parametrize("max_index", [10, 1000, 10 ** 4, 10 ** 6])
    @pytest.mark.parametrize("beta", [-3.0, -1.5652, -1.0, -0.7, -0.6932, -0.5, -0.3])
    def test_matches_reference_loop(self, beta, max_index):
        policy = TruncationPolicy(max_index=max_index)
        n_trunc, tail_bound, probs = reference_repeated_posterior(beta, policy)
        dist = repeated_game_posterior(beta, policy)
        assert dist.n_trunc == n_trunc
        np.testing.assert_allclose(dist.tail_bound, tail_bound, rtol=1e-13)
        n, u, p = dist.columns(50)
        assert n == range(1, min(50, n_trunc) + 1)
        np.testing.assert_allclose(u, 1.0 + np.log2(np.arange(1.0, len(n) + 1)), rtol=0)
        np.testing.assert_allclose(p, probs[:50], rtol=1e-13)

    @pytest.mark.parametrize("rel_tol", [1e-14, 1e-8, 0.5])
    @pytest.mark.parametrize("beta", [
        -744.0, -40.0, -3.0, -2.08673, -1.0, -math.log(2.0) - 1e-9,
        -math.log(2.0) + 1e-9, -0.5, -0.3,
    ])
    def test_capped_sum_matches_doubling_loop(self, beta, rel_tol):
        # summed only at max_index and at the stop, the support, its bound
        # and its normalizer keep every bit of the sum at every doubling
        for max_index in (1, 1000, 1024, 1025, 5000, 10 ** 6):
            policy = TruncationPolicy(rel_tol=rel_tol, max_index=max_index)
            dist = repeated_game_posterior(beta, policy)
            got = (dist.n_trunc, dist.tail_bound, dist.normalizer)
            assert got == doubling_repeated_posterior(beta, policy), max_index

    def test_memory_does_not_grow_with_support(self):
        tracemalloc.start()
        try:
            dist = repeated_game_posterior(-0.5)
            dist.columns(50)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert dist.n_trunc == 10 ** 6
        assert peak < 1 << 20

    @pytest.mark.parametrize("beta", [0.0, 0.4])
    def test_sign_rule(self, beta):
        with pytest.raises(SignError, match=_posterior_sign_message(beta)):
            repeated_game_posterior(beta)

    def test_utilities_sequence(self):
        seq = repeated_game_utilities()
        assert seq.values(4).tolist() == [1.0, 2.0, 1.0 + math.log2(3), 3.0]
        assert not seq.finite and not seq.identity


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
        assert result.u_opt == continuous_optimum(PriorSpec("luce"), beta)
        assert abs(result.u_opt * abs(beta) - 1.0) <= 1e-12

    @pytest.mark.parametrize("beta", [-1.0, -0.5])
    def test_matches_posterior_argmax(self, beta):
        dist = repeated_game_posterior(beta, TruncationPolicy(max_index=10 ** 4))
        assert repeated_optimal(beta).n_opt == _argmax(dist)

    @pytest.mark.parametrize("beta", np.linspace(-3.0, -0.05, 60).tolist())
    def test_is_the_argmax_near_the_continuous_optimum(self, beta):
        # the weight U_N e^(beta U_N) rises to N* and falls after it, so the
        # argmax over N <= 2 ceil(N*) + 2 is the integer optimum
        result = repeated_optimal(beta)
        n = np.arange(1, 2 * math.ceil(result.n_opt_continuous) + 3)
        u = 1.0 + np.log2(n)
        assert result.n_opt == int(np.argmax(np.log(u) + beta * u)) + 1

    def test_sign_rule(self):
        with pytest.raises(SignError, match=_posterior_sign_message(0.5)):
            repeated_optimal(0.5)

    @pytest.mark.parametrize("max_index", [5, 10 ** 6])
    def test_beta_whose_weights_underflow_is_refused(self, max_index):
        policy = TruncationPolicy(max_index=max_index)
        assert repeated_game_posterior(-744.0, policy).columns(2)[2].tolist() == [1.0, 0.0]
        for beta in (-745.0, -1e300):
            with pytest.raises(DomainError, match="underflow below beta = -744.44"):
                repeated_game_posterior(beta, policy)

    def test_serialization(self, capsys):
        out = run_cli(capsys, "repeated", "--beta=-0.5", "--rows", "0", "--format", "json")
        doc = json.loads(out)["result"]
        assert doc["n_opt"] == 2 and doc["u_opt"] == 2.0


def stage_values(n: int, x0: float = 1.0, p: float = DOUBLE_ZERO) -> list[float]:
    """The stage values U_1..U_n, read from the stage table."""
    return roulette_sequence(n, 0.0, x0, p).u_stop


class TestRouletteExpectedValue:
    def test_first_stage(self):
        np.testing.assert_allclose(stage_values(1)[0], -1.0 / 19.0, rtol=1e-14)
        np.testing.assert_allclose(stage_values(1)[0], -0.0526, atol=1e-3)

    def test_second_stage(self):
        np.testing.assert_allclose(stage_values(2)[1], -0.108, atol=1e-3)

    @pytest.mark.parametrize("p", [DOUBLE_ZERO, 0.4, 0.45])
    def test_closed_form_equals_double_sum(self, p):
        for n, closed in enumerate(stage_values(60, 1.0, p), start=1):
            series = _stage_value_series(n, 1.0, p)
            np.testing.assert_allclose(closed, series, rtol=1e-12, atol=1e-12)

    def test_fair_wheel_is_value_neutral(self):
        # the table refuses the fair wheel, whose weights |U|^-1 are singular;
        # the closed form (1 - (2(1 - p))^n) x0 and the double sum are 0 there
        for n in (1, 5, 30):
            assert (1.0 - (2.0 * (1.0 - 0.5)) ** n) * 1.0 == 0.0
            assert _stage_value_series(n, 1.0, 0.5) == 0.0
        with pytest.raises(SingularAttributeError):
            roulette_sequence(1, p_win=0.5)

    def test_scales_with_initial_bid(self):
        np.testing.assert_allclose(
            stage_values(3, 2.5), 2.5 * np.array(stage_values(3)), rtol=1e-15
        )

    def test_domain(self):
        # the table and the simulator check their arguments alike
        cfg = SimConfig(seed=1, replications=10)
        for args in ((0, 1.0, DOUBLE_ZERO), (1, -1.0, DOUBLE_ZERO), (1, 1.0, 1.0)):
            with pytest.raises(DomainError):
                roulette_sequence(args[0], 0.0, *args[1:])
            with pytest.raises(DomainError):
                simulate_martingale(*args, cfg)


def roulette_asymptote(n: int) -> float:
    """The paper's large-n form of the double-zero wheel's value, -(20/19)^n."""
    return -((20.0 / 19.0) ** n)


class TestRouletteAsymptoticValue:
    def test_large_n_ratio(self):
        exact = stage_values(200)[-1]
        assert abs(roulette_asymptote(200) / exact - 1.0) < 1e-4

    @pytest.mark.parametrize("n", [80, 100, 150])
    def test_regime_accuracy(self, n):
        exact = stage_values(n)[-1]
        assert abs(roulette_asymptote(n) / exact - 1.0) < 0.02

    def test_invalid_at_small_n(self):
        # the asymptote is -20/19 at n = 1, the exact value -1/19
        exact = stage_values(1)[0]
        assert abs(roulette_asymptote(1) / exact - 1.0) > 10.0


def stage_row(n: int, *args) -> StageChoice:
    """Row n of the stage table that ends at stage n."""
    return StageChoice._make(column[-1] for column in roulette_sequence(n, *args))


class TestRouletteStageChoice:
    def test_first_stage_neutral(self):
        choice = stage_row(1)
        np.testing.assert_allclose(
            [choice.p_stop, choice.p_continue], [0.671, 0.329], atol=2e-3
        )
        assert abs(choice.p_stop + choice.p_continue - 1.0) <= 1e-12

    @pytest.mark.parametrize(
        "n,expected",
        [(2, (0.606, 0.394)), (3, (0.579, 0.421)), (4, (0.562, 0.438))],
    )
    def test_early_stages_neutral(self, n, expected):
        choice = stage_row(n)
        np.testing.assert_allclose(
            [choice.p_stop, choice.p_continue], expected, atol=2e-3
        )

    def test_deep_stage_limit(self):
        choice = stage_row(500)
        np.testing.assert_allclose(
            [choice.p_stop, choice.p_continue],
            [20.0 / 39.0, 19.0 / 39.0],
            atol=2e-3,
        )

    def test_monotone_decline_toward_limit(self):
        p_stop = roulette_sequence(200).p_stop
        assert np.all(np.diff(p_stop) < 0.0)
        assert np.all(p_stop > 20.0 / 39.0)

    def test_neutral_choice_ignores_bid_size(self):
        small = stage_row(3, 0.0, 1.0)
        large = stage_row(3, 0.0, 750.0)
        np.testing.assert_allclose(small.p_stop, large.p_stop, rtol=1e-12)

    def test_nonzero_beta_depends_on_bid_size(self):
        small = stage_row(3, -1.0, 1.0)
        large = stage_row(3, -1.0, 2.0)
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
            roulette_sequence(1, p_win=0.5)

    def test_winning_wheel_rejected(self):
        with pytest.raises(DomainError):
            roulette_sequence(1, p_win=0.6)

    def test_utility_ordering(self):
        choice = stage_row(7)
        assert choice.u_continue < choice.u_stop < 0.0


class TestRouletteSequence:
    def test_sequence_stages(self):
        seq = roulette_sequence(5)
        assert list(seq.stage) == [1, 2, 3, 4, 5]
        assert [column[2] for column in seq] == list(stage_row(3))

    def test_columns_are_the_rows_of_stage_choice(self):
        # a row does not depend on how many stages follow it
        seq = roulette_sequence(60, -0.7, 2.5, 0.45)
        for n in range(1, 61):
            row = stage_row(n, -0.7, 2.5, 0.45)
            assert [column[n - 1] for column in seq] == list(row)

    def test_stage_values_are_the_scalar_closed_form(self):
        # the scalar power (1 - r^k) x0, bit for bit
        seq = roulette_sequence(200)
        r = 2.0 * (1.0 - DOUBLE_ZERO)
        assert seq.u_stop == [(1.0 - r ** n) * 1.0 for n in range(1, 201)]
        assert seq.u_continue[:-1] == seq.u_stop[1:]

    def test_largest_stage_count(self):
        # x0 (20/19)^k leaves binary64 past k = 13837, and stage n reads n + 1
        assert len(roulette_sequence(13836).stage) == 13836
        with pytest.raises(DomainError, match="at most 13836 stages run"):
            roulette_sequence(13837)
        # the simulator reads no stage ahead
        cfg = SimConfig(seed=1, replications=10)
        assert len(simulate_martingale(13837, 1.0, DOUBLE_ZERO, cfg).stage_means) == 13837
        with pytest.raises(DomainError, match="at most 13837 stages run"):
            simulate_martingale(20000, 1.0, DOUBLE_ZERO, cfg)
        with pytest.raises(DomainError, match="at most 10 stages run"):
            roulette_sequence(40, x0=1e308)

    @pytest.mark.parametrize("x0,largest", [(1.0, 1023), (1.5, 1023), (2.0, 1022), (5e-324, 1023)])
    def test_largest_stage_at_a_doubling_ratio(self, x0, largest):
        # p_win below 2^-54 makes 2(1 - p_win) exactly 2, where the bound
        # ln(DBL_MAX)/ln 2 rounds up to the integer 1024
        cfg = SimConfig(seed=1, replications=10)
        summary = simulate_martingale(largest, x0, 1e-300, cfg)
        assert math.isfinite(summary.stage_means[-1])
        with pytest.raises(DomainError):
            simulate_martingale(largest + 1, x0, 1e-300, cfg)

    def test_overflowing_weights_are_a_domain_error(self):
        # beta * U_n is -inf for both alternatives from stage 371 on
        with pytest.raises(DomainError):
            roulette_sequence(600, 1e300)

    def test_csv_columns(self, capsys):
        lines = run_cli(capsys, "roulette", "--stages", "3", "--format", "csv").splitlines()
        assert lines[0] == "stage,u_stop,u_continue,p_stop,p_continue"
        assert len(lines) == 4
        row = lines[1].split(",")
        np.testing.assert_allclose(float(row[1]), -1.0 / 19.0, rtol=1e-11)
