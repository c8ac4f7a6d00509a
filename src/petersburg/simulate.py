"""Monte Carlo oracle for the coin-toss game and the martingale strategy.

Neither simulator draws one variate per game or per run.  A replication of
the repeated game depends only on its toss-count histogram.  Of the games
still running before toss m, each stops there with probability exactly 1/2,
so a block of replications draws its histograms as one halving chain: at
each toss every live row draws the games it stops, Binomial(r, 1/2) of its
r games left, which for r < 64 is the popcount of r fair bits of one raw
64-bit word (see ``_block_means``).  The draws are exact, and a block costs
about log2(n_games) + log2(rows) vector steps.  Each block draws from a
Philox substream derived only from (seed, block index), and the blocks run
one after another in the calling thread, so summaries are bit-identical for
a given seed.  The martingale's first-win histogram is one survival chain of
binomials on a single stream, O(n_stages) whatever the replication count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, check_positive_index
from .scenarios import _check_roulette_args

GENERATOR_NAME = "philox-4x64-10"

# Repeated-game replications per RNG substream.  Part of the deterministic
# stream layout: changing it changes sampled values (but never the
# statistical contract).
_BLOCK = 4096

# Below this many games a row's draw is a popcount of one raw word, through
# the mask of its low r bits.
_WORD_BITS = 64
_LOW_BITS = np.array([(1 << r) - 1 for r in range(_WORD_BITS)], dtype=np.uint64)


@dataclass(frozen=True)
class SimConfig:
    """Reproducibility knobs shared by the simulators.

    ``max_tosses`` caps a single game so payoffs stay exact in binary64;
    the cap event has probability 2**-max_tosses and is counted in the
    summary when it fires.  ``parallel_shards`` is validated and accepted
    for compatibility with older configs and command lines; it changes
    neither the sampled values nor the speed, since every block runs in the
    calling thread.
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
    sampler: str = "halving-chain"
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


def _popcounts(rng: np.random.Generator, left: np.ndarray) -> np.ndarray:
    """One Binomial(r, 1/2) draw for each r < 64 in ``left``: the popcount of
    one raw 64-bit word masked to its low r bits, r fair bits."""
    return np.bitwise_count(rng.bit_generator.random_raw(len(left)) & _LOW_BITS[left])


def _halve(rng: np.random.Generator, left: np.ndarray) -> np.ndarray:
    """One Binomial(r, 1/2) draw for each r in ``left``: ``rng.binomial`` where
    r >= 64, then ``_popcounts`` from the same stream where r < 64."""
    short = left < _WORD_BITS
    if not short.any():
        return rng.binomial(left, 0.5)
    stopped = np.empty_like(left)
    stopped[~short] = rng.binomial(left[~short], 0.5)
    stopped[short] = _popcounts(rng, left[short])
    return stopped


def _block_means(
    rng: np.random.Generator, rows: int, n_games: int, max_tosses: int
) -> tuple[np.ndarray, int]:
    """Per-game mean winnings of ``rows`` replications of ``n_games`` games,
    and the number of games the cap cut short.

    At toss m = 1..max_tosses each live row stops Binomial(r, 1/2) of its r
    games left, which pay 2**m; once every row has fewer than 64 games left
    the draws are ``_popcounts`` alone.  Rows with no games left drop out;
    the games left after the last toss pay 2**max_tosses and are capped."""
    total = np.zeros(rows)
    live = np.arange(rows)
    left = np.full(rows, n_games, dtype=np.int64)
    draw = _popcounts if n_games < _WORD_BITS else _halve
    for m in range(1, max_tosses + 1):
        stopped = draw(rng, left)
        total[live] += np.ldexp(stopped, m, dtype=np.float64)
        left -= stopped
        running = np.flatnonzero(left)
        if len(running) < len(left):
            if not len(running):
                return total / n_games, 0
            live, left = live[running], left[running]
        if draw is _halve and left.max() < _WORD_BITS:
            draw = _popcounts
    total[live] += np.ldexp(left, max_tosses, dtype=np.float64)
    return total / n_games, int(left.sum())


def _replication_means(n_games: int, config: SimConfig) -> tuple[np.ndarray, int]:
    """Per-game mean winnings of each replication, in replication order, and
    the number of games the cap cut short."""
    results = [
        _block_means(_block_rng(config.seed, index), stop - start, n_games, config.max_tosses)
        for index, start, stop in _block_bounds(config.replications)
    ]
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
