"""Monte Carlo simulators: distributions, determinism, and convergence."""

import json
import math

import numpy as np
import pytest

from petersburg import (
    DomainError,
    MartingaleSummary,
    SimConfig,
    roulette_expected_value,
    simulate_martingale,
    simulate_repeated,
)
from petersburg.cli import main
from petersburg.simulate import _tosses_from_uniforms


def _rng(seed: int = 3) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


class TestTossSampling:
    def test_distribution_matches_halving_law(self):
        u = _rng(5).random(10 ** 6)
        tosses, capped = _tosses_from_uniforms(u, 60)
        assert capped == 0
        n = len(tosses)
        for m in range(1, 11):
            freq = float(np.mean(tosses == m))
            p = 2.0 ** -m
            se = math.sqrt(p * (1.0 - p) / n)
            assert abs(freq - p) < 3.0 * se, (m, freq, p)

    def test_first_toss_frequency(self):
        u = _rng(5).random(10 ** 6)
        tosses, _ = _tosses_from_uniforms(u, 60)
        assert abs(float(np.mean(tosses == 1)) - 0.5) < 0.002

    def test_mean_tosses(self):
        u = _rng(5).random(10 ** 6)
        tosses, _ = _tosses_from_uniforms(u, 60)
        assert abs(float(tosses.mean()) - 2.0) < 0.01

    def test_capping_counts(self):
        u = _rng(5).random(10 ** 5)
        tosses, capped = _tosses_from_uniforms(u, 2)
        assert int(tosses.max()) == 2
        raw, _ = _tosses_from_uniforms(u, 60)
        assert capped == int(np.count_nonzero(raw > 2))
        assert abs(capped / len(u) - 0.25) < 0.01


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

    def test_single_game_median(self):
        summary = simulate_repeated(1, SimConfig(seed=0, replications=10 ** 6))
        assert summary.per_game_median_of_means == 2.0

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


class TestSimulateMartingale:
    def test_fair_wheel_centers_on_zero(self):
        cfg = SimConfig(seed=21, replications=2 * 10 ** 5)
        summary = simulate_martingale(6, 1.0, 0.5, cfg)
        for mean, se in zip(summary.stage_means, summary.stage_stderrs):
            assert abs(mean) < 3.0 * se

    def test_double_zero_wheel_matches_closed_form(self):
        cfg = SimConfig(seed=7, replications=2 * 10 ** 5)
        summary = simulate_martingale(5, 1.0, 18.0 / 38.0, cfg)
        for n in range(1, 6):
            exact = roulette_expected_value(n)
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

    def test_domain(self):
        cfg = SimConfig()
        with pytest.raises(DomainError):
            simulate_martingale(0, 1.0, 0.4, cfg)
        with pytest.raises(DomainError):
            simulate_martingale(3, 0.0, 0.4, cfg)
        with pytest.raises(DomainError):
            simulate_martingale(3, 1.0, 1.0, cfg)


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
        assert lines[5] == "stage,mean,stderr"
        assert len(lines) == 9
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
