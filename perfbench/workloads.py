"""Seeded inputs for the petersburg benchmark workloads.

``generate(workload, seed)`` returns the deck of CLI commands that one pass of
the workload runs, plus the files (custom game families, config files) those
commands read.  The same seed always yields the same deck; ``Inputs.digest``
identifies it, so two runs can be shown to have used identical inputs.

Every command carries a ``spec``: the parameters the verifiers need, so they
never have to re-parse an argv.  The argv is built from the spec.

Cost-defining parameters (|beta|, draw counts) are drawn by stratified
sampling, one uniform draw per equal stratum, so that every seed's deck has
nearly the same total cost and latency mix; only parameters that barely move
the cost are drawn freely.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("interactive", "sweep", "montecarlo")

# The documented error-taxonomy exit codes.
EXIT_CONFIG, EXIT_DOMAIN, EXIT_SOLVER = 1, 2, 3


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    spec: dict
    # Exit code the README documents for this command.
    expect_rc: int = 0
    # Set when the program is known not to meet ``expect_rc`` today: the exit
    # code and stderr prefix it gives instead, and why.  The command still
    # runs and still counts as failed.
    known_failure: dict | None = None


@dataclass
class Inputs:
    workload: str
    seed: int
    commands: list[Command]
    files: dict[str, str] = field(default_factory=dict)

    def digest(self) -> str:
        doc = {
            "workload": self.workload,
            "seed": self.seed,
            "argv": [list(c.argv) for c in self.commands],
            "files": self.files,
        }
        blob = json.dumps(doc, sort_keys=True).encode()
        return "sha256:" + hashlib.sha256(blob).hexdigest()

    def write_files(self, directory: Path) -> None:
        for name, text in self.files.items():
            (directory / name).write_text(text, encoding="utf-8")


def _num(x: float) -> float:
    """Round to 6 significant digits so argv and spec hold the same float."""
    return float(f"{x:.6g}")


def _strata(rng: random.Random, k: int, lo: float, hi: float, log: bool = False) -> list[float]:
    """k draws, one uniform in each of k equal strata of [lo, hi] (equal in
    log space when ``log``), returned in shuffled order."""
    a, b = (math.log(lo), math.log(hi)) if log else (lo, hi)
    values = [a + (b - a) * (i + rng.random()) / k for i in range(k)]
    if log:
        values = [math.exp(v) for v in values]
    rng.shuffle(values)
    return [_num(v) for v in values]


def _balanced(rng: random.Random, k: int, choices: tuple) -> list:
    """k items cycling through ``choices`` in shuffled order, so each choice
    appears equally often (within one) on every seed."""
    items = [choices[i % len(choices)] for i in range(k)]
    rng.shuffle(items)
    return items


def _prior(rng: random.Random, kind: str, ranges: dict) -> dict:
    doc = {"kind": kind}
    for key, (lo, hi) in ranges.get(kind, {}).items():
        doc[key] = _num(rng.uniform(lo, hi))
    return doc


_PRIOR_FLAGS = ("alpha", "u0", "b", "c", "gamma")


def build_argv(spec: dict) -> tuple[str, ...]:
    # Floats go as --flag=value: argparse reads a separate "-8e-05" as an
    # option, not as a negative number.
    argv = [spec["cmd"]]
    if "config" in spec:
        argv += ["--config", spec["config"]]
    if "game" in spec:
        argv += ["--game", spec["game"]]
        utility = spec["utility"]
        argv += ["--utility", utility["kind"]]
        for key in ("exponent", "base"):
            if key in utility:
                argv.append(f"--{key}={utility[key]!r}")
    if "prior" in spec:
        argv += ["--prior", spec["prior"]["kind"]]
        for key in _PRIOR_FLAGS:
            if key in spec["prior"]:
                argv.append(f"--{key}={spec['prior'][key]!r}")
    if "beta" in spec:
        argv.append(f"--beta={spec['beta']!r}")
    if "target" in spec:
        argv += ["--target", spec["target"]]
    if "n_games" in spec:
        argv += ["--n-games", *(str(n) for n in spec["n_games"])]
    if "stages" in spec:
        argv += ["--stages", str(spec["stages"])]
    for key, flag in (("replications", "--replications"), ("sim_seed", "--seed"),
                      ("shards", "--shards")):
        if key in spec:
            argv += [flag, str(spec[key])]
    fmt = spec.get("format", "table")
    if fmt != "table":
        argv += ["--format", fmt, "--no-timestamp"]
    return tuple(argv)


def _cmd(spec: dict, expect_rc: int = 0, known_failure: dict | None = None) -> Command:
    return Command(build_argv(spec), spec, expect_rc, known_failure)


# -- interactive -------------------------------------------------------------

_INTERACTIVE_PRIORS = {
    "power": {"alpha": (0.5, 3.0)},
    "log": {"u0": (0.5, 4.0)},
    "logit": {"b": (0.5, 2.0), "c": (-1.0, 1.0), "gamma": (0.3, 0.7)},
}


def _custom_family(rng: random.Random, size: int) -> dict:
    lotteries = []
    for _ in range(size):
        k = rng.randint(1, 6)
        mass = rng.uniform(0.6, 1.0)
        raw = [rng.random() + 0.05 for _ in range(k)]
        probs = [mass * r / sum(raw) for r in raw]
        payoffs = [_num(math.exp(rng.uniform(math.log(1.5), math.log(200.0)))) for _ in range(k)]
        lotteries.append({
            "outcomes": [{"payoff": x, "prob": p} for x, p in zip(payoffs, probs)],
            "residual": 1.0 - sum(probs),
        })
    return {"family": "custom", "lotteries": lotteries}


def _interactive(rng: random.Random) -> tuple[list[Command], dict[str, str]]:
    cmds: list[Command] = []
    files: dict[str, str] = {}
    for kind in ("luce", "power", "log", "logit"):
        for abs_beta in _strata(rng, 6, 0.3, 3.0, log=True):
            cmds.append(_cmd({"cmd": "optimal", "format": "json", "beta": -abs_beta,
                              "prior": _prior(rng, kind, _INTERACTIVE_PRIORS)}))
        for abs_beta in _strata(rng, 6, 0.3, 3.0, log=True):
            cmds.append(_cmd({"cmd": "distribution", "format": "table", "beta": -abs_beta,
                              "prior": _prior(rng, kind, _INTERACTIVE_PRIORS)}))
    stages = _strata(rng, 12, 5, 41)
    for stage, beta in zip(stages, _strata(rng, 12, -1.0, 1.0)):
        cmds.append(_cmd({"cmd": "roulette", "format": "csv", "stages": int(stage), "beta": beta}))
    for _ in range(6):
        cmds.append(_cmd({"cmd": "calibrate", "format": "json"}))
    utilities = (
        {"kind": "linear"},
        {"kind": "logarithmic"},
        {"kind": "power", "exponent": _num(rng.uniform(0.3, 0.9))},
        {"kind": "geometric", "base": _num(rng.uniform(1.05, 1.9))},
    )
    # Calibration cost grows with the family size, so the sizes are
    # stratified over 20..60; with fewer than 10 calibrations in the deck,
    # p90 falls among the ~4 ms commands, not on one calibration.
    sizes = _strata(rng, 4, 20, 61)
    for i, (utility, size) in enumerate(zip(utilities, sizes)):
        name = f"family{i}.json"
        files[name] = json.dumps(_custom_family(rng, int(size)))
        game = {"game": name, "utility": utility}
        for abs_beta in _strata(rng, 3, 0.3, 3.0, log=True):
            cmds.append(_cmd({"cmd": "distribution", "format": "csv", "beta": -abs_beta, **game}))
        for abs_beta in _strata(rng, 3, 0.3, 3.0, log=True):
            cmds.append(_cmd({"cmd": "optimal", "format": "json", "beta": -abs_beta, **game}))
        cmds.append(_cmd({"cmd": "calibrate", "format": "json", **game}))
    for beta in _strata(rng, 3, 0.05, 2.0):
        cmds.append(_cmd({"cmd": "distribution", "format": "table", "beta": beta,
                          "error": "domain"}, expect_rc=EXIT_DOMAIN))
    for i in range(3):
        name = f"config{i}.json"
        key = "bogus_" + "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(6))
        files[name] = json.dumps({"beta": -1.0, key: 1})
        cmds.append(_cmd({"cmd": "optimal", "format": "table", "config": name,
                          "error": "config"}, expect_rc=EXIT_CONFIG))
    return cmds, files


# -- sweep -------------------------------------------------------------------

_SWEEP_PRIORS = {
    "power": {"alpha": (1.0, 3.0)},
    "log": {"u0": (0.5, 2.0)},
    # gamma is held at 0.5: the logit support grows like |beta|**(-1/(1-gamma)),
    # so a free gamma would make one command's cost swing by 100x.
    "logit": {"b": (0.8, 1.2), "c": (-0.3, 0.3), "gamma": (0.5, 0.5)},
}

# logit's mode sits at (b*gamma/|beta|)**2, 250,000 at |beta| = 1e-3; the
# seeded logit draws start at 5e-3 and this fixed command covers 1e-3.
_LOGIT_ANCHOR = {"cmd": "distribution", "format": "csv", "beta": -0.001,
                 "prior": {"kind": "logit", "b": 1.0, "c": 0.0, "gamma": 0.5}}

REPEATED_DEFAULT_FAILURE = {
    "rc": EXIT_SOLVER,
    "stderr": "error:solver:",
    "why": "README documents `repeated` without --beta, but its calibration "
           "cannot resolve the run-length family and exits 3",
}


def _sweep(rng: random.Random) -> tuple[list[Command], dict[str, str]]:
    cmds = [_cmd(_LOGIT_ANCHOR)]
    cmds.append(_cmd({"cmd": "repeated", "format": "json"},
                     known_failure=REPEATED_DEFAULT_FAILURE))
    # 16 of the 104 commands calibrate: p90 falls near the middle of the
    # calibrations, not on one of them.
    for kind, count in (("power", 6), ("log", 5), ("logit", 5)):
        for _ in range(count):
            cmds.append(_cmd({"cmd": "calibrate", "format": "json",
                              "prior": _prior(rng, kind, _SWEEP_PRIORS)}))
    for kind in ("luce", "power", "log", "logit"):
        lo = 5e-3 if kind == "logit" else 1e-3
        formats = _balanced(rng, 10, ("csv", "json"))
        for abs_beta, fmt in zip(_strata(rng, 10, lo, 3e-2, log=True), formats):
            cmds.append(_cmd({"cmd": "distribution", "format": fmt, "beta": -abs_beta,
                              "prior": _prior(rng, kind, _SWEEP_PRIORS)}))
    for beta in _strata(rng, 46, -3.0, -0.3):
        cmds.append(_cmd({"cmd": "repeated", "format": "json", "beta": beta}))
    return cmds, {}


# -- montecarlo --------------------------------------------------------------


def _games_for(rng: random.Random, draws: float) -> tuple[list[int], int]:
    """An n_games list (values in 8..8192) and a replication count in
    2,000..20,000 whose product with the list's sum is close to ``draws``."""
    for _ in range(100_000):
        k = rng.randint(1, 4)
        games = sorted({int(math.exp(rng.uniform(math.log(8), math.log(8192)))) for _ in range(k)})
        reps = round(draws / sum(games))
        if 2000 <= reps <= 20000:
            return games, reps
    raise RuntimeError(f"no n_games list fits {draws} draws")


def _montecarlo(rng: random.Random) -> tuple[list[Command], dict[str, str]]:
    # The first command runs two full-size sampling chunks at once, one per
    # shard, on every seed, so the peak memory does not depend on the draw.
    cmds = [
        _cmd({"cmd": "simulate", "format": "csv", "target": "repeated",
              "n_games": [512], "replications": 8192,
              "sim_seed": rng.randrange(2 ** 32), "shards": 2}),
        _cmd({"cmd": "simulate", "format": "csv", "target": "repeated",
              "n_games": [8, 8192], "replications": 2000,
              "sim_seed": rng.randrange(2 ** 32), "shards": 1}),
    ]
    shards = _balanced(rng, 60, (1, 2))
    for draws, width in zip(_strata(rng, 60, 2e4, 2e6), shards):
        games, reps = _games_for(rng, draws)
        cmds.append(_cmd({"cmd": "simulate", "format": "csv", "target": "repeated",
                          "n_games": games, "replications": reps,
                          "sim_seed": rng.randrange(2 ** 32), "shards": width}))
    stages = _strata(rng, 41, 10, 41)
    for stage, reps in zip(stages, _strata(rng, 41, 1e5, 1e6, log=True)):
        cmds.append(_cmd({"cmd": "simulate", "format": "json", "target": "martingale",
                          "stages": int(stage), "replications": int(reps),
                          "sim_seed": rng.randrange(2 ** 32)}))
    return cmds, {}


_GENERATORS = {"interactive": _interactive, "sweep": _sweep, "montecarlo": _montecarlo}


def generate(workload: str, seed: int) -> Inputs:
    """The deck for one pass of ``workload``, in run order."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"petersburg-bench/{workload}/{seed}")
    cmds, files = _GENERATORS[workload](rng)
    rng.shuffle(cmds)
    return Inputs(workload, seed, cmds, files)
