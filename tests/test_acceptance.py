"""Acceptance suite: one check per shipped guarantee, each printing a
PASS/FAIL line with the measured quantities.

Run verbosely with:  pytest tests/test_acceptance.py -v -s
"""

import math
import time

import numpy as np
import pytest

from petersburg import (
    ExpectedUtilitySeq,
    PriorSpec,
    SignError,
    SimConfig,
    bernoulli_utilities,
    calibrate_bernoulli_disbelief,
    continuous_optimum,
    integer_bracket,
    posterior,
    posterior_moments,
    repeated_optimal,
    roulette_sequence,
    simulate_martingale,
    simulate_repeated,
    stochastically_optimal,
)

LUCE = PriorSpec("luce")


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, detail


def _best_time(fn, repeats: int = 5) -> float:
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_criterion_01_calibration_root():
    result = calibrate_bernoulli_disbelief()  # warm-up
    elapsed = _best_time(calibrate_bernoulli_disbelief)
    ok = abs(result.abs_beta - 1.157) <= 1e-3 and elapsed < 1e-3
    _report(
        1, ok,
        f"calibration |beta|={result.abs_beta:.6f} (target 1.157±0.001), "
        f"{elapsed * 1e3:.3f} ms < 1 ms",
    )


def test_criterion_02_roulette_stage_table():
    expected = {
        1: (0.671, 0.329),
        2: (0.606, 0.394),
        3: (0.579, 0.421),
        4: (0.562, 0.438),
    }

    def build():
        return roulette_sequence(500)

    table = build()
    elapsed = _best_time(build)
    ok = True
    for stage, want in expected.items():
        ok &= abs(table.p_stop[stage - 1] - want[0]) <= 2e-3
        ok &= abs(table.p_continue[stage - 1] - want[1]) <= 2e-3
    deep_stop, deep_continue = table.p_stop[-1], table.p_continue[-1]
    ok &= abs(deep_stop - 0.513) <= 2e-3 and abs(deep_continue - 0.487) <= 2e-3
    ok &= elapsed < 10e-3
    _report(
        2, ok,
        f"stage pairs {[round(float(p), 4) for p in table.p_stop[:4]]} + "
        f"limit {deep_stop:.4f}/{deep_continue:.4f} within ±0.002, "
        f"{elapsed * 1e3:.2f} ms < 10 ms",
    )


def test_criterion_03_roulette_expected_values():
    def double_sum(n: int, p: float) -> float:
        win = sum(p * (1.0 - p) ** k for k in range(n))
        loss = -sum(2.0 ** k for k in range(n))
        return win + (1.0 - p) ** n * loss

    ok = True
    worst = 0.0
    for p in (18.0 / 38.0, 0.4, 0.45):
        values = roulette_sequence(60, p_win=p).u_stop
        for n in range(1, 61):
            closed = values[n - 1]
            series = double_sum(n, p)
            err = abs(closed - series) / max(1.0, abs(series))
            worst = max(worst, err)
            ok &= err <= 1e-12
    paper_values = (-0.0526, -0.108, -0.166, -0.228, -0.292)
    for value, want in zip(roulette_sequence(5).u_stop, paper_values):
        ok &= abs(value - want) <= 1e-3
    _report(
        3, ok,
        f"closed form vs double sum worst rel err {worst:.2e} <= 1e-12; "
        f"stage values match {paper_values} within ±0.001",
    )


def test_criterion_04_bernoulli_closed_forms():
    t0 = time.perf_counter()
    betas = np.linspace(-5.0, -0.1, 50)
    worst = 0.0
    ok = True
    for beta in betas:
        a = abs(beta)
        n = np.arange(1.0, math.ceil(80.0 / a) + 50.0)
        w = n * np.exp(beta * n)
        z_series = float(w.sum())
        mean_series = float((n * w).sum() / z_series)
        var_series = float(((n - mean_series) ** 2 * w).sum() / z_series)

        # the package's normalizer, e^beta / p_1, and its declared moments
        dist = posterior(LUCE, bernoulli_utilities(), float(beta))
        z_err = abs(math.exp(beta) / dist.prob(1) / z_series - 1.0)
        mean, var, _ = bernoulli_utilities().luce_moments(float(beta))
        u_err = abs(mean / mean_series - 1.0)
        v_err = abs(var / var_series - 1.0)
        # the package mean over the same support
        g_err = abs(dist.probs @ dist.utilities / mean_series - 1.0)
        worst = max(worst, z_err, u_err, v_err, g_err)
        ok &= max(z_err, u_err, v_err, g_err) <= 1e-10
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    _report(
        4, ok,
        f"Z, mean, variance closed forms vs series on 50 betas: worst rel err "
        f"{worst:.2e} <= 1e-10, {elapsed:.2f} s < 1 s",
    )


def test_criterion_05_discrete_optimum_containment():
    ok = True
    for k in range(1, 61):
        beta = -0.05 * k
        low, high = integer_bracket(continuous_optimum(LUCE, beta))
        n_opt = stochastically_optimal(posterior(LUCE, bernoulli_utilities(), beta))
        ok &= low <= n_opt <= high
    calibrated = stochastically_optimal(
        posterior(LUCE, bernoulli_utilities(), -1.157)
    )
    ok &= calibrated == 1
    _report(
        5, ok,
        "discrete optimum inside clamped bracket for 60 betas in [-3, -0.05]; "
        f"optimum at beta=-1.157 is n={calibrated}",
    )


def test_criterion_06_prior_family_optima():
    cases = [PriorSpec("luce")]
    cases += [PriorSpec("power", alpha=a) for a in (0.5, 1.0, 3.0)]
    cases += [PriorSpec("log", u0=u) for u in (0.5, 1.0, 2.0)]
    cases += [PriorSpec("logit", b=1.0, c=0.0, gamma=g) for g in (0.3, 0.5, 0.8)]
    beta = -1.0
    step = 1e-4
    ok = True
    worst_res = 0.0
    for prior in cases:
        x = continuous_optimum(prior, beta)
        if prior.kind == "luce":
            phi, dphi = x, 1.0
        elif prior.kind == "power":
            phi, dphi = x ** prior.alpha, prior.alpha * x ** (prior.alpha - 1.0)
        elif prior.kind == "log":
            phi = math.log1p(x / prior.u0)
            dphi = 1.0 / (prior.u0 * (1.0 + x / prior.u0))
        else:
            phi = math.exp(prior.b * x ** prior.gamma + prior.c)
            dphi = phi * prior.b * prior.gamma * x ** (prior.gamma - 1.0)
        residual = abs(dphi + beta * phi)
        worst_res = max(worst_res, residual)
        ok &= residual < 1e-10

        grid = np.arange(step, 3.0 * x + 1.0, step)
        if prior.kind == "luce":
            weights = grid
        elif prior.kind == "power":
            weights = grid ** prior.alpha
        elif prior.kind == "log":
            weights = np.log1p(grid / prior.u0)
        else:
            weights = np.exp(prior.b * grid ** prior.gamma + prior.c)
        best = float(grid[int(np.argmax(weights * np.exp(beta * grid)))])
        ok &= abs(best - x) <= step
    _report(
        6, ok,
        f"stationarity residual < 1e-10 (worst {worst_res:.2e}) and grid "
        f"maxima within one 1e-4 step for 10 prior configurations",
    )


def test_criterion_07_reduction_and_limits():
    values = np.array([0.5, 1.5, 2.5, 3.5, 4.5])
    seq = ExpectedUtilitySeq.from_values(values)
    ok = True
    prior_weights = {
        "luce": values,
        "power": values ** 2.0,
        "log": np.log1p(values),
        "logit": np.exp(np.sqrt(values)),
    }
    worst = 0.0
    for prior in (LUCE, PriorSpec("power", alpha=2.0), PriorSpec("log", u0=1.0),
                  PriorSpec("logit", b=1.0, c=0.0, gamma=0.5)):
        dist = posterior(prior, seq, 0.0)
        want = prior_weights[prior.kind]
        want = want / want.sum()
        err = float(np.max(np.abs(dist.probs - want)))
        worst = max(worst, err)
        ok &= err <= 1e-14
    up = posterior(LUCE, seq, 50.0)
    down = posterior(LUCE, seq, -50.0)
    ok &= up.prob(5) > 1.0 - 1e-10
    ok &= down.prob(1) > 1.0 - 1e-10
    _report(
        7, ok,
        f"neutral-belief reduction elementwise err {worst:.1e} <= 1e-14; "
        f"beta=+50 mass {up.prob(5):.12f} and beta=-50 mass {down.prob(1):.12f} "
        "> 1-1e-10 on extreme utilities",
    )


def test_criterion_08_repeated_games():
    targets = {1.0: 1.0, 0.5: 2.0, 0.25: 8.0}
    ok = True
    for abs_beta, n_target in targets.items():
        result = repeated_optimal(-abs_beta)
        ok &= result.n_opt_continuous == n_target
        ok &= result.n_opt == int(n_target)
        ok &= abs(result.u_opt * abs_beta - 1.0) <= 1e-12
    _report(
        8, ok,
        "run-length optima 2^(1/|beta|-1) exact at |beta| in {1, 0.5, 0.25} "
        "-> N = 1, 2, 8; willingness-to-pay identity within 1e-12",
    )


def test_criterion_09_martingale_monte_carlo():
    t0 = time.perf_counter()
    cfg = SimConfig(seed=7, replications=10 ** 6)
    summary = simulate_martingale(10, 1.0, 18.0 / 38.0, cfg)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 30.0
    worst_z = 0.0
    exact = roulette_sequence(10).u_stop
    for n in range(1, 11):
        z = abs(summary.stage_means[n - 1] - exact[n - 1])
        z /= summary.stage_stderrs[n - 1]
        worst_z = max(worst_z, z)
        ok &= z < 3.0
    _report(
        9, ok,
        f"martingale means at 1e6 replications within 3 se for stages 1-10 "
        f"(worst z = {worst_z:.2f}), {elapsed:.2f} s < 30 s",
    )


def test_criterion_10_growth_of_median_winnings():
    t0 = time.perf_counter()
    cfg = SimConfig(seed=11, replications=1000)
    medians = [
        simulate_repeated(2 ** k, cfg).per_game_median_of_means
        for k in range(3, 13)
    ]
    elapsed = time.perf_counter() - t0
    diffs = np.diff(medians)
    slope = float(diffs.mean())
    ok = bool(np.all(diffs > 0.0)) and 0.6 <= slope <= 1.4 and elapsed < 60.0
    _report(
        10, ok,
        f"median-of-means strictly increasing over N=8..4096 with slope "
        f"{slope:.3f} per doubling in [0.6, 1.4], {elapsed:.2f} s < 60 s",
    )


def test_criterion_11_sign_rule_enforcement():
    ok = True
    for beta in (0.0, 0.5, 1.157):
        with pytest.raises(SignError):
            posterior(LUCE, bernoulli_utilities(), beta)
        ok &= True
    with pytest.raises(SignError):
        posterior_moments(LUCE, bernoulli_utilities(), 0.0)
    with pytest.raises(SignError):
        continuous_optimum(LUCE, 0.25)
    _report(
        11, ok,
        "nonnegative beta with unbounded utilities rejected with the sign error",
    )
