"""Monte Carlo oracle for the coin-toss game and the martingale strategy.

Neither simulator draws one variate per game or per run.  A replication of
the repeated game depends only on its toss-count histogram.  Of the games
still running before toss m, each stops there with probability exactly 1/2,
so a block of replications draws its histograms as one halving chain: at
each toss every row draws the games it stops, Binomial(r, 1/2) of its r
games left.  Two exact draws share that work (Devroye 1986, ch. X):

- below ``_POPCOUNT_BELOW`` = 640 games, the popcount of r fair bits from
  ceil(r/64) raw 64-bit words, the last masked to its low bits, and from
  640 up ``rng.binomial``.  On a 2-CPU Xeon host with numpy 2.4.6, per
  4,096 rows, popcounts took 0.13-0.14 ms at r ~ 64 against 0.61-0.67 ms
  for the binomial, and 4.7-5.7 ms against 0.30-0.35 ms at r ~ 8,192; the
  two crossed between r ~ 380 and 700 from run to run.
- once every row has fewer than 64 games left, the games left number at
  most the rows and fewer than 64 tosses remain, one raw word per game
  ends the block: ctz(word) + 1 more tosses is geometric with P(g) = 2**-g,
  its value 64 (the zero word) standing for every g >= 64, which all run
  past the cap.

At 1-8,192 games a block of 4,096 then takes 1-16 vector steps, the finish
included, where it took 11-30 (``_block_means``).  A given seed draws other
values than the halving chain did before the finish and the multi-word
popcounts; the law and the stream layout are unchanged.  Each block draws
from a Philox substream derived only from (seed, block index), and the
blocks run one after another in the calling thread, so summaries are
bit-identical for a given seed.  The martingale's first-win histogram is
one survival chain of binomials on a single stream, O(n_stages) whatever
the replication count.
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

# Binomial(r, 1/2) draws: the popcount of r fair bits, ceil(r/64) raw words
# (one below 64), where r < _POPCOUNT_BELOW, and ``rng.binomial`` from there
# up.  _LOW_BITS[k] masks a word to its low k bits, k = 0..64.
_WORD_BITS = 64
_POPCOUNT_BELOW = 640
_LOW_BITS = np.array([(1 << k) - 1 for k in range(_WORD_BITS + 1)], dtype=np.uint64)


@dataclass(frozen=True)
class SimConfig:
    """Reproducibility knobs shared by the simulators; the martingale reads
    only ``seed`` and ``replications``.

    ``max_tosses`` caps a single game so payoffs stay exact in binary64;
    the cap event has probability 2**-max_tosses and is counted in the
    summary when it fires.  ``parallel_shards`` is read by nothing: it is
    validated and kept because the benchmark's montecarlo deck passes
    ``--shards``, and it changes neither the sampled values nor the speed,
    since every block runs in the calling thread.
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


def _popcounts(rng: np.random.Generator, left: np.ndarray, one_word: bool) -> np.ndarray:
    """One Binomial(r, 1/2) draw for each r in ``left``: the popcount of r fair
    bits.  A row takes ceil(r/64) raw words, one when r = 0, in row order, and
    its last word is masked to its low r - 64 (words - 1) bits; ``one_word``
    says every r < 64, where the same draws take fewer calls."""
    raw = rng.bit_generator.random_raw
    if one_word:
        return np.bitwise_count(raw(len(left)) & _LOW_BITS[left])
    words = np.maximum(left - 1, 0) // _WORD_BITS + 1
    ends = np.cumsum(words)
    bits = raw(int(ends[-1]))
    bits[ends - 1] &= _LOW_BITS[left - _WORD_BITS * (words - 1)]
    return np.add.reduceat(np.bitwise_count(bits), ends - words, dtype=np.int64)


def _halve(rng: np.random.Generator, left: np.ndarray, top: int) -> np.ndarray:
    """One Binomial(r, 1/2) draw for each r in ``left``, none above ``top``:
    ``rng.binomial`` where r >= _POPCOUNT_BELOW, then ``_popcounts`` from the
    same stream for the rest."""
    if top < _POPCOUNT_BELOW:
        return _popcounts(rng, left, top < _WORD_BITS)
    big = left >= _POPCOUNT_BELOW
    if big.all():
        return rng.binomial(left, 0.5)
    stopped = np.empty_like(left)
    stopped[big] = rng.binomial(left[big], 0.5)
    stopped[~big] = _popcounts(rng, left[~big], False)
    return stopped


def _finish(
    rng: np.random.Generator, left: np.ndarray, m: int, max_tosses: int
) -> tuple[np.ndarray, int]:
    """The winnings of the ``left[i]`` games of each row i that are still
    running after toss m < max_tosses, and how many of them the cap cuts
    short, for max_tosses - m < 64.

    Each game draws one raw word w, in row order, and runs G more tosses,
    G = popcount(w ^ (w - 1)) = ctz(w) + 1, which is 64 when w = 0: P(G = g)
    = 2**-g for g < 64 and P(G = 64) = 2**-63 = P(G >= 64).  A game pays
    2**min(m + G, max_tosses) and is capped when m + G > max_tosses, which
    every G of 64 is, so the law is exact."""
    w = rng.bit_generator.random_raw(int(left.sum()))
    more = np.bitwise_count(w ^ (w - np.uint64(1)))
    extra = max_tosses - m
    pay = np.ldexp(2.0 ** m, np.minimum(more, extra))
    games = np.repeat(np.arange(len(left)), left)
    return (np.bincount(games, weights=pay, minlength=len(left)),
            int(np.count_nonzero(more > extra)))


def _block_means(
    rng: np.random.Generator, rows: int, n_games: int, max_tosses: int
) -> tuple[np.ndarray, int]:
    """Per-game mean winnings of ``rows`` replications of ``n_games`` games,
    and the number of games the cap cut short.

    At toss m = 1..max_tosses each row stops Binomial(r, 1/2) of its r games
    left (``_halve``), which pay 2**m.  Finished rows keep drawing a masked
    word, which is 0, until at most half the rows still play; then they drop
    out.  Once every row has fewer than 64 games left, the games left number
    at most the rows still drawing and fewer than 64 tosses remain,
    ``_finish`` draws one word per game instead of another toss.  The games
    left after the last toss pay 2**max_tosses and are capped."""
    total = np.empty(rows)
    live = np.arange(rows)  # the block row of each entry of ``left`` and ``won``
    left = np.full(rows, n_games, dtype=np.int64)
    won = np.zeros(rows)
    top = n_games  # the most games any row has left, kept while 64 or more
    for m in range(max_tosses):
        if top < _WORD_BITS and max_tosses - m < _WORD_BITS and left.sum() <= len(left):
            paid, capped = _finish(rng, left, m, max_tosses)
            total[live] = won + paid
            return total / n_games, capped
        stopped = _halve(rng, left, top)
        won += np.ldexp(stopped, m + 1, dtype=np.float64)
        left -= stopped
        running = np.count_nonzero(left)
        if 2 * running <= len(left):
            total[live] = won
            if not running:
                return total / n_games, 0
            kept = np.flatnonzero(left)
            live, left, won = live[kept], left[kept], won[kept]
        if top >= _WORD_BITS:
            top = int(left.max())
    total[live] = won + np.ldexp(left, max_tosses, dtype=np.float64)
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
