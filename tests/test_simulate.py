"""Monte Carlo simulators: distributions, determinism, and convergence."""

import itertools
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from petersburg import (
    DomainError,
    MartingaleSummary,
    SimConfig,
    roulette_sequence,
    simulate_martingale,
    simulate_repeated,
)
from petersburg import simulate
from petersburg.cli import main
from petersburg.simulate import (
    _BLOCK, _block_bounds, _block_means, _block_rng, _replication_means,
)


@pytest.fixture(scope="module")
def single_game_means():
    # 4 * 10**6 one-game replications: each mean is the payoff 2**m of one game.
    return _replication_means(1, SimConfig(seed=5, replications=4 * 10 ** 6))


def _chi2_sf(stat, df):
    """P(chi-square with ``df`` degrees of freedom > ``stat``): the regularized
    upper incomplete gamma function Q(df/2, stat/2), by its power series."""
    s, x = df / 2.0, stat / 2.0
    term = series = 1.0 / s
    k = 0
    while term > 1e-17 * series:
        k += 1
        term *= x / (s + k)
        series += term
    return 1.0 - series * math.exp(s * math.log(x) - x - math.lgamma(s))


def _binomial_half_p_value(draws, r):
    """Pearson chi-square p-value of ``draws`` against Binomial(r, 1/2), the
    tail cells pooled until each expects at least 5 draws."""
    n = len(draws)
    expected = np.array([n * math.comb(r, k) / 2.0 ** r for k in range(r + 1)])
    observed = np.bincount(draws, minlength=r + 1).astype(float)
    lo = int(np.argmax(expected >= 5.0))
    cells = lambda a: np.concatenate([[a[: lo + 1].sum()], a[lo + 1 : r - lo], [a[r - lo :].sum()]])
    e, o = cells(expected), cells(observed)
    assert e.min() >= 5.0 and o.sum() == n
    return _chi2_sf(float(((o - e) ** 2 / e).sum()), len(e) - 1)


def test_chi2_sf_matches_closed_forms():
    # two degrees of freedom: exp(-x/2); one: erfc(sqrt(x/2)).  1 - P loses
    # relative digits far in the tail, so compare absolutely there.
    for x in (0.1, 1.0, 7.5, 30.0):
        assert math.isclose(_chi2_sf(x, 2), math.exp(-x / 2.0), rel_tol=1e-9, abs_tol=1e-12)
        assert math.isclose(_chi2_sf(x, 1), math.erfc(math.sqrt(x / 2.0)),
                            rel_tol=1e-9, abs_tol=1e-12)


class TestTossSampling:
    def test_halving_step_law(self):
        # One array of every r, so each draw mixes both sides of the 640 seam:
        # binomials where r >= 640, then popcounts of ceil(r/64) raw words, the
        # last masked to its low bits (kept whole at 128), below it.  Twelve
        # chi-square tests at 1e-4 each: a family-wise false alarm of 1.2e-3.
        sizes, per_size = (1, 2, 63, 64, 65, 127, 128, 129, 639, 640, 641, 1000), 20000
        left = np.tile(np.array(sizes, dtype=np.int64), per_size)
        stopped = simulate._halve(_block_rng(3, 0), left, max(sizes)).reshape(per_size, len(sizes))
        assert np.all((0 <= stopped) & (stopped <= np.array(sizes)))
        for column, r in enumerate(sizes):
            assert _binomial_half_p_value(stopped[:, column], r) > 1e-4, r

    @pytest.mark.parametrize("rows, n_games, max_tosses, paths", [
        (300, 192, 12, {"multi-word", "whole word", "finished row", "finish"}),
        (300, 3, 66, {"finished row", "dropped", "finish"}),
        (300, 16, 3, {"finished row", "cap"}),
    ], ids=["multi-word", "dropped", "cap"])
    def test_chain_replays_raw_words(self, rows, n_games, max_tosses, paths):
        # The block written plainly, in exact integers, for n_games < 640:
        # each toss draws max(ceil(r/64), 1) raw words per row, in row order,
        # finished rows included until at most half the rows still play; once
        # every row has fewer than 64 games left, the games left number at
        # most the rows and fewer than 64 tosses remain, one word per game
        # gives its tosses to come, ctz(word) + 1 (64 for a zero word).
        means, capped = _replication_means(
            n_games, SimConfig(seed=7, replications=rows, max_tosses=max_tosses))
        raw = _block_rng(7, 0).bit_generator.random_raw
        left, total, live, seen = [n_games] * rows, [0] * rows, list(range(rows)), set()
        for m in range(max_tosses):
            if (max(left[i] for i in live) < 64 and max_tosses - m < 64
                    and sum(left[i] for i in live) <= len(live)):
                seen.add("finish")
                expected_capped = 0
                for i in live:
                    for _ in range(left[i]):
                        word = raw()
                        tosses = m + ((word & -word).bit_length() if word else 64)
                        expected_capped += tosses > max_tosses
                        total[i] += 1 << min(tosses, max_tosses)
                break
            for i in live:
                r, stopped = left[i], 0
                words = max(-(-r // 64), 1)
                for k in range(words):
                    stopped += (raw() & ((1 << min(r - 64 * k, 64)) - 1)).bit_count()
                seen |= {"multi-word"} if words > 1 else set()
                seen |= {"whole word"} if words > 1 and r % 64 == 0 else set()
                seen |= {"finished row"} if r == 0 else set()
                total[i] += stopped << (m + 1)
                left[i] -= stopped
            running = [i for i in live if left[i]]
            if 2 * len(running) <= len(live):
                seen.add("dropped")
                live = running
        else:
            seen.add("cap")
            expected_capped = sum(left)
            total = [t + (k << max_tosses) for t, k in zip(total, left)]
        assert seen == paths
        assert capped == expected_capped
        assert means.tolist() == [t / n_games for t in total]

    @pytest.mark.parametrize("max_tosses", [5, 60, 100])
    @pytest.mark.parametrize("n_games", [1, 16, 100, 700])
    def test_zero_words_cap_every_game(self, n_games, max_tosses):
        # With every raw word 0 no toss stops a game, so each runs into the
        # cap and pays 2**max_tosses.  At one game per row the finish draws
        # the words: a zero word gives 64 more tosses, so a finish drawn with
        # 64 or more tosses to go would pay 2**(m + 64) uncapped, and one that
        # took 63 would not count the game as capped at m = max_tosses - 63.
        rng = SimpleNamespace(
            bit_generator=SimpleNamespace(random_raw=lambda size: np.zeros(size, dtype=np.uint64)),
            binomial=lambda n, p: np.zeros_like(n),
        )
        means, capped = _block_means(rng, 50, n_games, max_tosses)
        assert np.all(means == 2.0 ** max_tosses)
        assert capped == 50 * n_games

    def test_distribution_matches_halving_law(self, single_game_means):
        means, capped = single_game_means
        assert capped == 0
        n = len(means)
        for m in range(1, 11):
            freq = float(np.mean(means == 2.0 ** m))
            p = 2.0 ** -m
            se = math.sqrt(p * (1.0 - p) / n)
            assert abs(freq - p) < 4.0 * se, (m, freq, p)

    def test_first_toss_frequency(self, single_game_means):
        means, _ = single_game_means
        assert abs(float(np.mean(means == 2.0)) - 0.5) < 4.0 * math.sqrt(0.25 / len(means))

    def test_mean_tosses(self, single_game_means):
        # a game's toss count is geometric with mean 2 and variance 2
        means, _ = single_game_means
        assert abs(float(np.log2(means).mean()) - 2.0) < 4.0 * math.sqrt(2.0 / len(means))

    @pytest.mark.parametrize("n_games", [1, 7, 512, 2 ** 20, 2 ** 40])
    def test_rows_hold_n_games(self, n_games):
        # With max_tosses=1 every game pays 2, so a mean of exactly 2 means
        # the row's counts sum to n_games.
        means, _ = _replication_means(n_games, SimConfig(seed=8, replications=300,
                                                        max_tosses=1))
        assert np.all(means == 2.0)

    @pytest.mark.parametrize("n_games", [16, 100, 700])
    def test_capping_counts(self, n_games):
        # At max_tosses=2 a game pays 2 when its first toss stops it, else 4
        # (two tosses, or cut short at two), so a row's mean 4 - 2a/n gives
        # its count a of 2-paying games, Binomial(n, 1/2); a game is cut
        # short with probability 1/4.  One-word popcounts at 16 games,
        # multi-word at 100, a binomial first at 700.
        cfg = SimConfig(seed=6, replications=4000, max_tosses=2)
        means, capped = _replication_means(n_games, cfg)
        ones = n_games * (4.0 - means) / 2.0
        assert np.allclose(ones, np.round(ones), rtol=0.0, atol=1e-9)
        assert _binomial_half_p_value(np.round(ones).astype(np.int64), n_games) > 1e-4
        games = n_games * cfg.replications
        assert abs(capped / games - 0.25) < 4.0 * math.sqrt(0.25 * 0.75 / games)
        assert simulate_repeated(n_games, cfg).capped_tosses == capped

    def test_per_game_mean_law(self):
        # Three games of at most four tosses: a game pays 2, 4 or 8 with
        # probability 1/2, 1/4, 1/8, and 16 otherwise (a fourth toss, or cut
        # short at four, each 1/16), so a row's sum has the law of three such
        # payoffs added.  The rows go through the chain, the finish and the
        # cap; every sum expects over 30 rows.
        pay = {2: Fraction(1, 2), 4: Fraction(1, 4), 8: Fraction(1, 8), 16: Fraction(1, 8)}
        law = {}
        for a, b, c in itertools.product(pay, repeat=3):
            law[a + b + c] = law.get(a + b + c, 0) + pay[a] * pay[b] * pay[c]
        reps = 20000
        means, capped = _replication_means(3, SimConfig(seed=12, replications=reps, max_tosses=4))
        sums = np.round(3.0 * means).astype(np.int64)
        assert np.allclose(3.0 * means, sums, rtol=1e-15, atol=0.0)
        values = sorted(law)
        observed = np.array([np.count_nonzero(sums == v) for v in values], dtype=float)
        expected = np.array([reps * float(law[v]) for v in values])
        assert observed.sum() == reps and expected.min() > 30.0
        stat = float(((observed - expected) ** 2 / expected).sum())
        assert _chi2_sf(stat, len(values) - 1) > 1e-4
        games = 3 * reps
        assert abs(capped / games - 1 / 16) < 4.0 * math.sqrt(1 / 16 * 15 / 16 / games)


class TestSimulateRepeated:
    def test_deterministic_for_same_config(self):
        cfg = SimConfig(seed=42, replications=5000)
        assert simulate_repeated(16, cfg) == simulate_repeated(16, cfg)

    @pytest.mark.parametrize("n_games", [32, 100, 700])
    def test_shard_invariance(self, n_games):
        # parallel_shards is accepted and changes nothing; one-word popcounts
        # at 32 games, multi-word at 100, binomials first at 700
        base = simulate_repeated(n_games, SimConfig(seed=9, replications=9000))
        for shards in (2, 3, 4, 10 ** 6):
            cfg = SimConfig(seed=9, replications=9000, parallel_shards=shards)
            assert simulate_repeated(n_games, cfg) == base

    @pytest.mark.parametrize("replications", [1, _BLOCK + 1, 3 * _BLOCK - 7])
    def test_blocks_run_in_order_on_their_own_substreams(self, replications):
        # each block of at most _BLOCK rows draws from its own (seed, index)
        # stream, and the blocks' means concatenate in replication order
        cfg = SimConfig(seed=13, replications=replications)
        means, capped = _replication_means(8, cfg)
        bounds = _block_bounds(replications)
        assert [lo for _, lo, _ in bounds] == [0, *(hi for _, _, hi in bounds[:-1])]
        assert bounds[-1][2] == replications == len(means)
        assert all(0 < hi - lo <= _BLOCK for _, lo, hi in bounds)
        expected_capped = 0
        for index, lo, hi in bounds:
            block, block_capped = _block_means(_block_rng(13, index), hi - lo, 8, cfg.max_tosses)
            np.testing.assert_array_equal(means[lo:hi], block)
            expected_capped += block_capped
        assert capped == expected_capped

    def test_sharded_cli_run_starts_no_thread(self):
        # 3 blocks at 9000 replications, one-word popcounts at 8 games and
        # multi-word at 100; --shards is accepted and starts nothing
        src = str(Path(simulate.__file__).resolve().parents[1])
        code = (
            "import sys, threading\n"
            "from petersburg.cli import main\n"
            "code = main(['simulate', '--target', 'repeated', '--n-games', '8', '100',\n"
            "             '--replications', '9000', '--shards', '2'])\n"
            "print(code, 'concurrent.futures' in sys.modules, threading.active_count())\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.splitlines()[-1] == "0 False 1"

    def test_single_game_median(self):
        # The median is 2 only when more than half the games pay 2, which is a
        # fair coin at any seed; check that share, and a median of 2, 3 or 4.
        cfg = SimConfig(seed=0, replications=10 ** 6)
        means, _ = _replication_means(1, cfg)
        share = float(np.mean(means == 2.0))
        assert abs(share - 0.5) < 4.0 * math.sqrt(0.25 / len(means))
        assert simulate_repeated(1, cfg).per_game_median_of_means in (2.0, 3.0, 4.0)

    def test_growth_per_doubling(self):
        medians = [
            simulate_repeated(2 ** k, SimConfig(seed=11, replications=400))
            .per_game_median_of_means
            for k in range(3, 8)
        ]
        diffs = np.diff(medians)
        assert np.all(diffs > 0.0)
        assert 0.5 < float(diffs.mean()) < 1.5

    def test_max_tosses_cap_forces_constant_payoff(self):
        cfg = SimConfig(seed=1, replications=500, max_tosses=1)
        summary = simulate_repeated(8, cfg)
        assert summary.per_game_mean == 2.0
        assert summary.per_game_median_of_means == 2.0
        assert summary.capped_tosses > 0

    def test_sample_count_metadata(self):
        cfg = SimConfig(seed=2, replications=123)
        summary = simulate_repeated(7, cfg)
        assert summary.n_games == 7
        assert summary.replications == 123
        assert summary.seed == 2
        assert summary.generator == "philox-4x64-10"

    def test_domain(self):
        with pytest.raises(DomainError):
            simulate_repeated(0, SimConfig())
        with pytest.raises(DomainError, match="int64"):
            simulate_repeated(2 ** 51, SimConfig())

    def test_largest_n_games_counts_exactly(self):
        # A full block of 2**51 - 1 games per row at max_tosses=1 puts about
        # 2**62 games in the over-cap bin, which must not wrap around.
        n, cfg = 2 ** 51 - 1, SimConfig(seed=4, replications=4096, max_tosses=1)
        summary = simulate_repeated(n, cfg)
        assert summary.per_game_mean == 2.0
        games = n * cfg.replications
        assert abs(summary.capped_tosses / games - 0.5) < 4.0 * math.sqrt(0.25 / games)


class TestSimulateMartingale:
    def test_fair_wheel_centers_on_zero(self):
        cfg = SimConfig(seed=21, replications=2 * 10 ** 5)
        summary = simulate_martingale(6, 1.0, 0.5, cfg)
        for mean, se in zip(summary.stage_means, summary.stage_stderrs):
            assert abs(mean) < 3.0 * se

    def test_double_zero_wheel_matches_closed_form(self):
        cfg = SimConfig(seed=7, replications=2 * 10 ** 5)
        summary = simulate_martingale(5, 1.0, 18.0 / 38.0, cfg)
        for n, exact in enumerate(roulette_sequence(5).u_stop, start=1):
            dev = abs(summary.stage_means[n - 1] - exact)
            assert dev < 3.0 * summary.stage_stderrs[n - 1]

    def test_bid_scale(self):
        cfg = SimConfig(seed=5, replications=10 ** 4)
        unit = simulate_martingale(4, 1.0, 18.0 / 38.0, cfg)
        scaled = simulate_martingale(4, 2.0, 18.0 / 38.0, cfg)
        np.testing.assert_allclose(
            scaled.stage_means, 2.0 * np.array(unit.stage_means), rtol=1e-12
        )

    def test_shard_invariance(self):
        # parallel_shards is accepted and changes nothing
        base = simulate_martingale(8, 1.0, 0.45, SimConfig(seed=3, replications=20000))
        sharded = simulate_martingale(
            8, 1.0, 0.45, SimConfig(seed=3, replications=20000, parallel_shards=3)
        )
        assert base == sharded

    def test_losers_follow_binomial(self):
        # Runs that lost every one of the first k spins: Binomial(R, (1-p)^k).
        # Few runs per trial, so that one run lost or gained shows.
        reps, p, stages, trials = 100, 0.45, 4, 4000
        losers = np.empty((trials, stages))
        scale = 2.0 ** np.arange(1, stages + 1)
        for seed in range(trials):
            s = simulate_martingale(stages, 1.0, p, SimConfig(seed=seed, replications=reps))
            win_by = (np.array(s.stage_means) + scale - 1.0) / scale
            losers[seed] = np.round(reps * (1.0 - win_by))
        for k in range(1, stages + 1):
            lose_all = (1.0 - p) ** k
            var = reps * lose_all * (1.0 - lose_all)
            sample = losers[:, k - 1]
            assert abs(sample.mean() - reps * lose_all) < 4.0 * math.sqrt(var / trials)
            assert abs(sample.var(ddof=1) / var - 1.0) < 4.0 * math.sqrt(2.0 / (trials - 1))

    def test_means_match_exact_fractions(self):
        # x0 (1 - 2^n L/R) against the exact fraction of the same survival
        # chain; x0 (q 2^n - (2^n - 1)) lost up to ~1e-9 to cancellation
        reps, stages, p = 987_654, 41, 18.0 / 38.0
        summary = simulate_martingale(stages, 1.0, p, SimConfig(seed=11, replications=reps))
        rng, alive = _block_rng(11, 0), reps
        for n in range(1, stages + 1):
            alive -= int(rng.binomial(alive, p))
            exact = 1 - Fraction(2 ** n * alive, reps)
            if exact:
                assert abs(Fraction(summary.stage_means[n - 1]) - exact) <= 1e-13 * abs(exact)

    def test_horizons_past_2_to_the_1023(self):
        # every run has won long before: the mean is x0 with no error, not nan
        summary = simulate_martingale(1100, 1.0, 18.0 / 38.0, SimConfig(replications=10))
        assert (summary.stage_means[-1], summary.stage_stderrs[-1]) == (1.0, 0.0)

    def test_mean_that_leaves_binary64_is_a_domain_error(self):
        # the closed form x0 (2(1-p))^n overflows past n = 1025
        with pytest.raises(DomainError, match="at most 1025 stages"):
            simulate_martingale(1100, 1.0, 0.001, SimConfig(replications=10))
        # it is finite at n = 1024, but both of these runs are still losing
        with pytest.raises(DomainError, match="stage 1024 leaves binary64"):
            simulate_martingale(1024, 1.0, 0.001, SimConfig(seed=0, replications=2))

    def test_domain(self):
        cfg = SimConfig()
        with pytest.raises(DomainError):
            simulate_martingale(0, 1.0, 0.4, cfg)
        with pytest.raises(DomainError):
            simulate_martingale(3, 0.0, 0.4, cfg)
        with pytest.raises(DomainError):
            simulate_martingale(3, 1.0, 1.0, cfg)


class TestLimitLaw:
    def test_quartiles_settle_along_powers_of_two(self):
        # Martin-Loef (1985): S_N/N - log2 N converges in law along N = 2^k.
        # Each quartile's Monte Carlo error is read off the order statistics
        # one binomial standard deviation of rank either side of it.
        reps, probs = 20000, (0.25, 0.5, 0.75)
        half = [math.sqrt(reps * p * (1.0 - p)) for p in probs]
        ks = np.arange(6, 31)
        quartiles, errors = [], []
        for k in ks:
            cfg = SimConfig(seed=int(k), replications=reps)
            x = np.sort(_replication_means(2 ** int(k), cfg)[0] - k)
            quartiles.append(np.quantile(x, probs))
            errors.append([(x[int(reps * p + h)] - x[int(reps * p - h)]) / 2.0
                           for p, h in zip(probs, half)])
        quartiles, errors = np.array(quartiles), np.array(errors)
        settled = ks >= 10
        limit = np.median(quartiles[ks >= 18], axis=0)
        z = np.abs(quartiles[settled] - limit) / errors[settled]
        assert z.max() < 4.0, (limit, z.max())
        # the lower quartile approaches from above: not yet settled at N = 64
        assert (quartiles[0, 0] - limit[0]) / errors[0, 0] > 4.0
        assert 0.25 < limit[0] < 0.45 and 2.5 < limit[1] < 2.7 and 6.9 < limit[2] < 7.3


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"seed": -1},
            {"seed": 2 ** 64},
            {"replications": 0},
            {"max_tosses": 0},
            {"max_tosses": 2000},
            {"parallel_shards": 0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(DomainError):
            SimConfig(**kwargs)


class TestSerialization:
    @staticmethod
    def run(capsys, *argv) -> str:
        assert main(["simulate", "--seed", "4", "--replications", "100", *argv,
                     "--no-timestamp"]) == 0
        return capsys.readouterr().out

    def test_repeated_csv(self, capsys):
        out = self.run(capsys, "--target", "repeated", "--n-games", "2", "4", "--format", "csv")
        lines = out.splitlines()
        assert lines[0].startswith("n_games,per_game_mean")
        assert len(lines) == 3
        assert lines[1].split(",")[0] == "2"

    def test_martingale_csv_and_json(self, capsys):
        argv = ("--target", "martingale", "--stages", "3", "--p-win", "0.45", "--format")
        lines = self.run(capsys, *argv, "csv").splitlines()
        assert lines[6] == "stage,mean,stderr"
        assert len(lines) == 10
        doc = json.loads(self.run(capsys, *argv, "json"))
        assert doc["replications"] == 100
        assert len(doc["stage_means"]) == 3
        assert isinstance(MartingaleSummary(**{
            "stage_means": tuple(doc["stage_means"]),
            "stage_stderrs": tuple(doc["stage_stderrs"]),
            "replications": doc["replications"],
            "x0": doc["x0"],
            "p_win": doc["p_win"],
            "seed": doc["seed"],
        }), MartingaleSummary)
