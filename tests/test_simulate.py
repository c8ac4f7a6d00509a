"""Monte Carlo simulators: distributions, determinism, and convergence."""

import json
import math
from fractions import Fraction

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
from petersburg.simulate import _BLOCK, _block_rng, _replication_means, _toss_bins


def _single_game_means():
    # 10**6 one-game replications: each mean is the payoff 2**m of one game.
    return _replication_means(1, SimConfig(seed=5, replications=10 ** 6))


class TestTossSampling:
    def test_every_conditional_probability_is_one_half(self):
        # numpy's multinomial draws bin i as Binomial(n_left, p_i / remaining)
        # and then subtracts p_i from remaining, in binary64.
        pvals = _toss_bins(60)
        remaining = 1.0
        for p in pvals[:-1]:
            assert p / remaining == 0.5
            remaining -= p
        assert remaining == pvals[-1] == 2.0 ** -60

    def test_distribution_matches_halving_law(self):
        means, capped = _single_game_means()
        assert capped == 0
        n = len(means)
        for m in range(1, 11):
            freq = float(np.mean(means == 2.0 ** m))
            p = 2.0 ** -m
            se = math.sqrt(p * (1.0 - p) / n)
            assert abs(freq - p) < 3.0 * se, (m, freq, p)

    def test_first_toss_frequency(self):
        means, _ = _single_game_means()
        assert abs(float(np.mean(means == 2.0)) - 0.5) < 0.002

    def test_mean_tosses(self):
        means, _ = _single_game_means()
        assert abs(float(np.log2(means).mean()) - 2.0) < 0.01

    @pytest.mark.parametrize("n_games", [1, 7, 512, 2 ** 20, 2 ** 40])
    def test_rows_hold_n_games(self, n_games):
        # With max_tosses=1 every game pays 2, so a mean of exactly 2 means
        # the row's counts sum to n_games.
        means, _ = _replication_means(n_games, SimConfig(seed=8, replications=300,
                                                        max_tosses=1))
        assert np.all(means == 2.0)

    def test_capping_counts(self):
        # One block: the same draw as the block-0 substream's multinomial rows.
        cfg = SimConfig(seed=6, replications=4000, max_tosses=2)
        means, capped = _replication_means(16, cfg)
        games = 16 * cfg.replications
        assert abs(capped / games - 0.25) < 4.0 * math.sqrt(0.25 * 0.75 / games)
        assert simulate_repeated(16, cfg).capped_tosses == capped
        pvals = _toss_bins(2)
        counts = _block_rng(6, 0).multinomial(16, pvals, size=cfg.replications)
        assert capped == counts[:, -1].sum()
        np.testing.assert_array_equal(means, counts @ (1.0 / pvals) / 16)
        # 2 with probability 1/2, else 4 (two tosses, or cut short at two)
        assert abs(float(means.mean()) - 3.0) < 4.0 * math.sqrt(1.0 / games)


class TestSimulateRepeated:
    def test_deterministic_for_same_config(self):
        cfg = SimConfig(seed=42, replications=5000)
        assert simulate_repeated(16, cfg) == simulate_repeated(16, cfg)

    def test_shard_invariance(self):
        base = simulate_repeated(32, SimConfig(seed=9, replications=9000))
        sharded = simulate_repeated(
            32, SimConfig(seed=9, replications=9000, parallel_shards=4)
        )
        assert base == sharded

    @pytest.mark.parametrize("cpus,blocks,workers", [(4, 5, [4]), (64, 3, [3]), (None, 3, [])])
    def test_threads_capped_by_blocks_and_cpus(self, monkeypatch, cpus, blocks, workers):
        # a pool that records its size and maps serially, so no thread starts
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(simulate, "ThreadPoolExecutor", SerialPool)
        monkeypatch.setattr(simulate.os, "cpu_count", lambda: cpus)
        cfg = SimConfig(seed=5, replications=blocks * _BLOCK)
        capped = simulate_repeated(8, SimConfig(**{**vars(cfg), "parallel_shards": 10 ** 6}))
        assert sizes == workers
        assert capped == simulate_repeated(8, cfg)

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
            cfg = SimConfig(seed=int(k), replications=reps, parallel_shards=2)
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
