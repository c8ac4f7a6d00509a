"""Monte Carlo oracle for the coin-toss game and the martingale strategy.

Neither simulator draws one variate per game or per run.  A replication of
the repeated game depends only on its toss-count histogram, drawn exactly as
one multinomial row (see ``_toss_bins``); each block of replications draws
from a Philox substream derived only from (seed, block index), so summaries
are bit-identical for a given seed however many shards run the blocks.  The
martingale's first-win histogram is one survival chain of binomials on a
single stream, O(n_stages) whatever the replication count.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, check_positive_index
from .scenarios import _check_roulette_args

GENERATOR_NAME = "philox-4x64-10"

# Repeated-game replications per RNG substream.  Part of the deterministic
# stream layout: changing it changes sampled values (but never the
# statistical contract).
_BLOCK = 4096


@dataclass(frozen=True)
class SimConfig:
    """Reproducibility knobs shared by the simulators.

    ``max_tosses`` caps a single game so payoffs stay exact in binary64;
    the cap event has probability 2**-max_tosses and is counted in the
    summary when it fires.
    """

    seed: int = 0
    replications: int = 1000
    max_tosses: int = 60
    parallel_shards: int = 1

    def __post_init__(self) -> None:
        if type(self.seed) is not int or not 0 <= self.seed < 2 ** 64:
            raise DomainError("seed must fit in an unsigned 64-bit integer")
        for name in ("replications", "max_tosses", "parallel_shards"):
            check_positive_index(getattr(self, name), name)
        if self.max_tosses > 1023:
            raise DomainError("max_tosses must be in 1..1023")


@dataclass(frozen=True)
class SimSummary:
    """Per-game winnings across replications of an N-game run; fields in CLI column order."""

    n_games: int
    per_game_mean: float
    per_game_median_of_means: float
    replications: int
    stderr_proxy: float
    seed: int
    generator: str = GENERATOR_NAME
    sampler: str = "multinomial-histogram"
    capped_tosses: int = 0


@dataclass(frozen=True)
class MartingaleSummary:
    """Empirical mean net outcome of the doubling strategy at each horizon.

    ``stage_means[k]`` estimates the expected value after at most k+1 spins;
    ``stage_stderrs`` are the matching binomial standard errors.
    """

    stage_means: tuple[float, ...]
    stage_stderrs: tuple[float, ...]
    replications: int
    x0: float
    p_win: float
    seed: int
    generator: str = GENERATOR_NAME
    sampler: str = "survival-chain"


def _block_rng(seed: int, block: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(block,))
    return np.random.Generator(np.random.Philox(ss))


def _block_bounds(replications: int) -> list[tuple[int, int, int]]:
    """(block index, start, stop) triples partitioning the replications."""
    starts = range(0, replications, _BLOCK)
    return [(i, lo, min(lo + _BLOCK, replications)) for i, lo in enumerate(starts)]


def _run_blocks(blocks, worker, parallel_shards: int) -> list:
    """``worker(block_triple)`` for every block, in parallel when asked, in
    block order, on at most one thread per block and per CPU."""
    workers = min(parallel_shards, len(blocks), os.cpu_count() or 1)
    if workers <= 1:
        return [worker(b) for b in blocks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, blocks))


def _toss_bins(max_tosses: int) -> np.ndarray:
    """Probabilities of the toss-count histogram's bins: 2**-m for games of
    m = 1..max_tosses tosses, then 2**-max_tosses for the games the cap cut
    short, which pay 2**max_tosses.  Every bin pays the reciprocal of its
    probability, and every mass left to numpy's chain of binomials is a
    power of two, so each conditional probability is exactly 1/2."""
    p = np.ldexp(1.0, -np.arange(1, max_tosses + 1))
    return np.append(p, p[-1])


def _replication_means(n_games: int, config: SimConfig) -> tuple[np.ndarray, int]:
    """Per-game mean winnings of each replication, in replication order, and
    the number of games the cap cut short."""
    pvals = _toss_bins(config.max_tosses)
    payoff = 1.0 / pvals

    def worker(block: tuple[int, int, int]) -> tuple[np.ndarray, int]:
        index, start, stop = block
        counts = _block_rng(config.seed, index).multinomial(
            n_games, pvals, size=stop - start
        )
        return counts @ payoff / n_games, int(counts[:, -1].sum())

    blocks = _block_bounds(config.replications)
    results = _run_blocks(blocks, worker, config.parallel_shards)
    return np.concatenate([r[0] for r in results]), sum(r[1] for r in results)


def simulate_repeated(n_games: int, config: SimConfig) -> SimSummary:
    """Play ``n_games`` coin-toss games per replication and summarize the
    per-game average winnings across replications.

    The sample mean of this game is heavy-tailed (no finite expectation in
    the limit), so the median of the per-replication means is the robust
    statistic; it grows by about one unit per doubling of ``n_games``.
    """
    check_positive_index(n_games, "n_games")
    if n_games * _BLOCK >= 2 ** 63:
        raise DomainError(
            f"n_games must be below 2**63 / {_BLOCK} so a block's toss counts "
            f"sum exactly in int64, got {n_games}"
        )
    means, capped = _replication_means(n_games, config)
    n = len(means)
    stderr = float(means.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return SimSummary(
        per_game_mean=float(means.mean()),
        per_game_median_of_means=float(np.median(means)),
        n_games=n_games,
        replications=config.replications,
        stderr_proxy=stderr,
        seed=config.seed,
        capped_tosses=capped,
    )


def simulate_martingale(
    n_stages: int,
    x0: float,
    p_win: float,
    config: SimConfig,
) -> MartingaleSummary:
    """Simulate the doubling strategy and report the empirical mean net
    outcome at every horizon 1..n_stages.

    A run is determined by the spin of the first win J (geometric with
    parameter ``p_win``): at horizon n the outcome is +x0 when J <= n and
    -(2**n - 1) * x0 when all n spins lost.  Means converge to
    [1 - (2(1-p))^n] * x0.
    """
    _check_roulette_args(n_stages, x0, p_win)

    # Runs still losing after each spin; the first win is at spin k for
    # Binomial(alive, p_win) of the runs alive before it.
    r = config.replications
    rng = _block_rng(config.seed, 0)
    losers = np.empty(n_stages, dtype=np.int64)
    alive = r
    for k in range(n_stages):
        alive -= int(rng.binomial(alive, p_win))
        losers[k] = alive

    # x0 (1 - 2^n L/R), L of R runs still losing, and its error: ldexp scales exactly
    lost = losers / r
    horizon = np.arange(1, n_stages + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        means = x0 * (1.0 - np.ldexp(lost, horizon))
        stderrs = x0 * np.ldexp(np.sqrt(lost * (1.0 - lost) / r), horizon)
        finite = np.isfinite(means + stderrs)
    if not finite.all():
        raise DomainError(f"the mean outcome at stage {finite.argmin() + 1} leaves binary64")
    return MartingaleSummary(
        stage_means=tuple(float(v) for v in means),
        stage_stderrs=tuple(float(v) for v in stderrs),
        replications=r,
        x0=x0,
        p_win=p_win,
        seed=config.seed,
    )
