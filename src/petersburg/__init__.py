"""Stochastic-preference analysis of St. Petersburg lotteries.

Builds probability distributions over lottery families from prior weights
tilted by a belief/disbelief factor exp(beta * U), locates stochastically
optimal lotteries, calibrates the disbelief magnitude, and reproduces the
repeated-game and martingale-roulette analyses, with a Monte Carlo
simulator as an independent check.
"""

from .calibration import (
    CalibrationResult,
    calibrate_bernoulli_disbelief,
    calibrate_disbelief_general,
)
from .errors import (
    CalibrationError,
    DomainError,
    SignError,
    SingularAttributeError,
    SolverError,
    TruncationError,
)
from .lotteries import (
    ExpectedUtilitySeq,
    GameFamily,
    Lottery,
    UtilitySpec,
    bernoulli_utilities,
    expected_utility,
    geometric_expected_utility,
)
from .posteriors import (
    PosteriorDistribution,
    TruncationPolicy,
    integer_bracket,
    posterior,
    posterior_moments,
    stochastically_optimal,
)
from .priors import (
    PriorSpec,
    continuous_optimum,
    pair_probabilities,
)
from .scenarios import (
    DOUBLE_ZERO_WIN_PROB,
    RepeatedGameResult,
    RunLengthPosterior,
    StageChoice,
    repeated_game_posterior,
    repeated_game_utilities,
    repeated_optimal,
    roulette_sequence,
)
from .simulate import (
    MartingaleSummary,
    SimConfig,
    SimSummary,
    simulate_martingale,
    simulate_repeated,
)

__version__ = "0.1.0"

__all__ = [
    "CalibrationError",
    "CalibrationResult",
    "DOUBLE_ZERO_WIN_PROB",
    "DomainError",
    "ExpectedUtilitySeq",
    "GameFamily",
    "Lottery",
    "MartingaleSummary",
    "PosteriorDistribution",
    "PriorSpec",
    "RepeatedGameResult",
    "RunLengthPosterior",
    "SignError",
    "SimConfig",
    "SimSummary",
    "SingularAttributeError",
    "SolverError",
    "StageChoice",
    "TruncationError",
    "TruncationPolicy",
    "UtilitySpec",
    "bernoulli_utilities",
    "calibrate_bernoulli_disbelief",
    "calibrate_disbelief_general",
    "continuous_optimum",
    "expected_utility",
    "geometric_expected_utility",
    "integer_bracket",
    "pair_probabilities",
    "posterior",
    "posterior_moments",
    "repeated_game_posterior",
    "repeated_game_utilities",
    "repeated_optimal",
    "roulette_sequence",
    "simulate_martingale",
    "simulate_repeated",
    "stochastically_optimal",
]
