"""Command-line interface.

Subcommands
    distribution  posterior table (n, U_n, prob) for a game family and prior
    optimal       stochastically optimal index, integer bracket, continuous optimum
    calibrate     disbelief magnitude from the variance-matching condition
    repeated      optimal run length and distribution over repeated games
    roulette      stop/continue stage table for the martingale sequence
    simulate      Monte Carlo summaries (repeated games or martingale)

Every flag mirrors a config-file key; ``--config file.json`` supplies a base
configuration and explicit flags win.  Exit codes: 1 config error, 2 domain
or sign error, 3 solver/truncation failure.  Errors print one
machine-parsable line to stderr: ``error:<category>:<message>``.

The environment variable PETERSBURG_OUTDIR redirects relative output paths.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import os
import re
import sys
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone
from itertools import repeat
from typing import Iterator, Sequence

import numpy as np

from .calibration import (
    CalibrationResult,
    calibrate_bernoulli_disbelief,
    calibrate_disbelief_general,
)
from .errors import DomainError, SolverError
from .lotteries import (
    ExpectedUtilitySeq,
    GameFamily,
    UtilitySpec,
    bernoulli_utilities,
)
from .posteriors import (
    CSV_ROW,
    TruncationPolicy,
    format_rows,
    optimal_bracket,
    posterior,
    stochastically_optimal,
)
from .priors import PriorSpec, continuous_optimum
from .scenarios import (
    DOUBLE_ZERO_WIN_PROB,
    repeated_game_posterior,
    repeated_game_utilities,
    repeated_optimal,
    roulette_sequence,
    roulette_sequence_to_csv,
)
from .simulate import (
    SimConfig,
    repeated_summaries_to_csv,
    simulate_martingale,
    simulate_repeated,
)

OUTDIR_ENV = "PETERSBURG_OUTDIR"

_COMMANDS = ("distribution", "optimal", "calibrate", "repeated", "roulette", "simulate")


class _ConfigError(Exception):
    pass


@dataclass
class RunConfig:
    """Resolved configuration of one CLI invocation; JSON round-trippable."""

    command: str = ""
    game: dict = field(default_factory=lambda: {"family": "bernoulli"})
    prior: dict = field(default_factory=lambda: {"kind": "luce"})
    utility: dict = field(default_factory=lambda: {"kind": "linear"})
    beta: float | None = None
    output_format: str = "table"
    output_path: str | None = None
    timestamp: bool = True
    rows: int = 50
    truncation: dict = field(
        default_factory=lambda: {"rel_tol": 1e-14, "max_index": 10 ** 6}
    )
    sim: dict = field(
        default_factory=lambda: {
            "seed": 0,
            "replications": 1000,
            "max_tosses": 60,
            "parallel_shards": 1,
        }
    )
    stages: int = 5
    x0: float = 1.0
    p_win: float = DOUBLE_ZERO_WIN_PROB
    target: str = "martingale"
    n_games: list[int] = field(
        default_factory=lambda: [8, 16, 32, 64, 128, 256, 512, 1024]
    )

    def to_json(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_json(cls, doc: dict) -> "RunConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise _ConfigError(f"unknown config keys: {sorted(unknown)}")
        cfg = cls()
        for key, value in doc.items():
            if key in ("truncation", "sim"):
                merged = dict(getattr(cfg, key))
                merged.update(value)
                value = merged
            setattr(cfg, key, value)
        return cfg

    # -- resolved objects ------------------------------------------------

    def prior_spec(self) -> PriorSpec:
        return PriorSpec.from_json(self.prior)

    def utility_spec(self) -> UtilitySpec:
        return UtilitySpec.from_json(self.utility)

    def policy(self) -> TruncationPolicy:
        return TruncationPolicy(
            rel_tol=float(self.truncation["rel_tol"]),
            max_index=int(self.truncation["max_index"]),
        )

    def sim_config(self) -> SimConfig:
        return SimConfig(
            seed=int(self.sim["seed"]),
            replications=int(self.sim["replications"]),
            max_tosses=int(self.sim["max_tosses"]),
            parallel_shards=int(self.sim["parallel_shards"]),
        )

    def utilities(self) -> ExpectedUtilitySeq:
        if (
            self.game.get("family") == "bernoulli"
            and self.utility.get("kind") == "linear"
        ):
            return bernoulli_utilities()  # exact closed form, any index
        family = GameFamily.from_json(self.game)
        return ExpectedUtilitySeq.from_family(family, self.utility_spec())

    def is_bernoulli_luce(self) -> bool:
        return (
            self.game.get("family") == "bernoulli"
            and self.prior.get("kind") == "luce"
            and self.utility.get("kind") == "linear"
        )


def _fmt(x, sig: int = 12) -> str:
    if isinstance(x, float):
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return f"{x:.{sig}g}"
    return str(x)


def _round_floats(obj, sig: int = 12):
    """Recursively normalize floats to ``sig`` significant digits so JSON
    output is precision-stable; non-finite values become strings."""
    if isinstance(obj, float):
        if not math.isfinite(obj):
            return _fmt(obj)
        return float(f"{obj:.{sig}g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v, sig) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v, sig) for v in obj]
    return obj


def _table(header: Sequence[str], rows: Sequence[Sequence]) -> list[str]:
    cells = [[_fmt(v, 4) for v in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
        for i, h in enumerate(header)
    ]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
    lines.append("  ".join("-" * w for w in widths))
    for r in cells:
        lines.append("  ".join(v.ljust(w) for v, w in zip(r, widths)).rstrip())
    return lines


# One element of a JSON "rows" array at json.dumps(indent=2) depth 2, keys
# sorted; filled from the columns (n, prob, u).
_JSON_ROW = '    {\n      "n": %d,\n      "prob": %s,\n      "u": %s\n    }'


def _json_floats(values: np.ndarray) -> list:
    """What ``_round_floats`` makes of each value, mapped over the column
    without a Python loop: ``float(format(x, ".12g"))``, whose ``str`` is the
    token ``json.dumps`` writes.  The rare non-finite result is encoded by
    ``json.dumps`` itself and substituted as a string."""
    values = values.tolist()
    rounded = list(map(float, map(format, values, repeat(".12g", len(values)))))
    for i in np.flatnonzero(~np.isfinite(rounded)).tolist():
        rounded[i] = json.dumps(_round_floats(values[i]))
    return rounded


def _json_rows(n: range, u: np.ndarray, prob: np.ndarray) -> Iterator[str]:
    """The JSON text ``json.dumps(_round_floats(rows), sort_keys=True,
    indent=2)`` gives for the rows ``{"n", "u", "prob"}`` at depth 1."""
    if not len(n):
        yield "[]"
        return
    yield "[\n"
    yield from format_rows(_JSON_ROW, (n, prob, u), ",\n", _json_floats)
    yield "\n  ]"


@dataclass
class Emission:
    """One command's output in the format the configuration asks for; a
    handler builds only that one and leaves the others None.

    For JSON, ``rows`` may hold the columns (n, U, prob) of a table that
    ``_emit`` renders in bulk as the payload's top-level ``"rows"`` array.
    """

    payload: dict | None = None
    csv_text: str | None = None
    table_lines: list[str] | None = None
    rows: tuple[range, np.ndarray, np.ndarray] | None = None


# -- command handlers ----------------------------------------------------


def _resolve_beta(cfg: RunConfig) -> tuple[float, CalibrationResult | None]:
    """The configured beta, or -|beta| from calibration when absent."""
    if cfg.beta is not None:
        return float(cfg.beta), None
    result = _calibrate(cfg)
    return -result.abs_beta, result


def _calibrate(cfg: RunConfig) -> CalibrationResult:
    if cfg.command == "repeated":
        return calibrate_disbelief_general(
            repeated_game_utilities(), cfg.prior_spec(), cfg.policy()
        )
    if cfg.is_bernoulli_luce():
        return calibrate_bernoulli_disbelief()
    return calibrate_disbelief_general(
        cfg.utilities(), cfg.prior_spec(), cfg.policy()
    )


def _cmd_distribution(cfg: RunConfig) -> Emission:
    beta, calib = _resolve_beta(cfg)
    dist = posterior(cfg.prior_spec(), cfg.utilities(), beta, cfg.policy())
    # a support can run to 10^5+ rows: render only the requested format
    if cfg.output_format == "json":
        meta = dist.meta()
        if calib is not None:
            meta["calibration"] = calib.to_json()
        return Emission(payload={"meta": meta}, rows=dist.columns(dist.n_trunc))
    if cfg.output_format == "csv":
        buf = io.StringIO()
        dist.to_csv(buf)
        return Emission(csv_text=buf.getvalue())
    u = dist.utilities[: cfg.rows].tolist()
    p = dist.probs[: cfg.rows].tolist()
    lines = _table(("n", "U_n", "prob"), list(zip(range(1, len(u) + 1), u, p)))
    if dist.n_trunc > cfg.rows:
        lines.append(f"... ({dist.n_trunc - cfg.rows} more rows; see csv/json)")
    return Emission(table_lines=lines)


def _cmd_optimal(cfg: RunConfig) -> Emission:
    beta, calib = _resolve_beta(cfg)
    prior = cfg.prior_spec()
    dist = posterior(prior, cfg.utilities(), beta, cfg.policy())
    n_opt = stochastically_optimal(dist)
    u_star = continuous_optimum(prior, beta) if beta < 0.0 else None
    bracket = (
        optimal_bracket(beta, prior)
        if beta < 0.0 and cfg.game.get("family") == "bernoulli"
        and cfg.utility.get("kind") == "linear"
        else None
    )
    payload = {
        "beta": beta,
        "n_opt": n_opt,
        "prob_opt": dist.prob(n_opt),
        "u_opt": dist.utility(n_opt),
        "continuous_optimum": u_star,
        "bracket_low": bracket[0] if bracket else None,
        "bracket_high": bracket[1] if bracket else None,
    }
    if cfg.output_format == "json":
        if calib is not None:
            payload["calibration"] = calib.to_json()
        return Emission(payload=payload)
    if cfg.output_format == "csv":
        values = (_fmt(v) if v is not None else "" for v in payload.values())
        return Emission(
            csv_text=",".join(payload) + "\n" + ",".join(values) + "\n"
        )
    return Emission(table_lines=_table(("field", "value"), list(payload.items())))


def _cmd_calibrate(cfg: RunConfig) -> Emission:
    result = _calibrate(cfg)
    if cfg.output_format == "csv":
        return Emission(
            csv_text="abs_beta,residual,iterations,method\n"
            f"{result.abs_beta:.12g},{result.residual:.12g},"
            f"{result.iterations},{result.method}\n"
        )
    payload = result.to_json()
    payload["route"] = (
        "closed" if cfg.is_bernoulli_luce() and cfg.command != "repeated" else "general"
    )
    if cfg.output_format == "json":
        return Emission(payload=payload)
    return Emission(table_lines=_table(("field", "value"), list(payload.items())))


def _cmd_repeated(cfg: RunConfig) -> Emission:
    beta, calib = _resolve_beta(cfg)
    result = repeated_optimal(beta)
    dist = repeated_game_posterior(beta, cfg.policy())
    columns = dist.columns(cfg.rows)
    if cfg.output_format == "json":
        payload = {"result": result.to_json(), "posterior_meta": dist.meta()}
        if calib is not None:
            payload["calibration"] = calib.to_json()
        return Emission(payload=payload, rows=columns)
    if cfg.output_format == "csv":
        return Emission(csv_text=(
            f"# beta: {beta:.12g}\n"
            f"# u_opt: {result.u_opt:.12g}\n"
            f"# n_opt_continuous: {result.n_opt_continuous:.12g}\n"
            f"# n_opt: {result.n_opt}\n"
            f"# n_trunc: {dist.n_trunc}\n"
            f"# tail_bound: {_fmt(dist.tail_bound)}\n"
            f"# tail_rule: {dist.tail_rule}\n"
            "N,U_N,prob\n"
        ) + "".join(format_rows(CSV_ROW, columns)))
    lines = _table(
        ("field", "value"),
        [
            ("beta", beta),
            ("u_opt", result.u_opt),
            ("n_opt_continuous", result.n_opt_continuous),
            ("n_opt", result.n_opt),
        ],
    )
    lines.append("")
    n, u, p = columns
    lines.extend(_table(("N", "U_N", "prob"), list(zip(n, u.tolist(), p.tolist()))))
    return Emission(table_lines=lines)


_ROULETTE_COLUMNS = ("stage", "u_stop", "u_continue", "p_stop", "p_continue")


def _cmd_roulette(cfg: RunConfig) -> Emission:
    beta = float(cfg.beta) if cfg.beta is not None else 0.0
    choices = roulette_sequence(cfg.stages, beta, cfg.x0, cfg.p_win)
    if cfg.output_format == "csv":
        buf = io.StringIO()
        roulette_sequence_to_csv(choices, buf)
        return Emission(csv_text=buf.getvalue())
    rows = [
        (c.stage, c.u_stop, c.u_continue, c.p_stop, c.p_continue) for c in choices
    ]
    if cfg.output_format == "json":
        return Emission(payload={
            "beta": beta,
            "x0": cfg.x0,
            "p_win": cfg.p_win,
            "stages": [dict(zip(_ROULETTE_COLUMNS, row)) for row in rows],
        })
    return Emission(table_lines=_table(_ROULETTE_COLUMNS, rows))


def _cmd_simulate(cfg: RunConfig) -> Emission:
    sim = cfg.sim_config()
    buf = io.StringIO()
    if cfg.target == "repeated":
        summaries = [simulate_repeated(n, sim) for n in cfg.n_games]
        if cfg.output_format == "json":
            return Emission(payload={
                "target": "repeated", "runs": [s.to_json() for s in summaries]
            })
        if cfg.output_format == "csv":
            repeated_summaries_to_csv(summaries, buf)
            return Emission(csv_text=buf.getvalue())
        rows = [
            (s.n_games, s.per_game_mean, s.per_game_median_of_means, s.stderr_proxy)
            for s in summaries
        ]
        return Emission(table_lines=_table(
            ("n_games", "mean", "median_of_means", "stderr_proxy"), rows
        ))
    if cfg.target == "martingale":
        summary = simulate_martingale(cfg.stages, cfg.x0, cfg.p_win, sim)
        if cfg.output_format == "json":
            return Emission(payload={"target": "martingale", **summary.to_json()})
        if cfg.output_format == "csv":
            summary.to_csv(buf)
            return Emission(csv_text=buf.getvalue())
        rows = [
            (k + 1, m, s)
            for k, (m, s) in enumerate(
                zip(summary.stage_means, summary.stage_stderrs)
            )
        ]
        return Emission(table_lines=_table(("stage", "mean", "stderr"), rows))
    raise _ConfigError(f"unknown simulate target {cfg.target!r}")


_HANDLERS = {
    "distribution": _cmd_distribution,
    "optimal": _cmd_optimal,
    "calibrate": _cmd_calibrate,
    "repeated": _cmd_repeated,
    "roulette": _cmd_roulette,
    "simulate": _cmd_simulate,
}


# -- argument parsing ----------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # argparse takes "-1e-3" for an option unless it matches this
        # pattern, whose default omits exponents; no flag looks like a number
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$"
        )

    def error(self, message: str) -> None:  # exit code 1, not argparse's 2
        raise _ConfigError(message)


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built on the first call: it holds no state
    between ``parse_args`` calls, and building it costs more than most
    commands."""
    parser = _Parser(prog="petersburg", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: _Parser) -> None:
        p.add_argument("--config", help="JSON file with a RunConfig")
        p.add_argument("--emit-config", help="write the resolved RunConfig here")
        p.add_argument("--format", dest="output_format", choices=("table", "csv", "json"))
        p.add_argument("--output", dest="output_path", help="output file (default stdout)")
        p.add_argument("--no-timestamp", action="store_true", default=None,
                       help="omit the timestamp field from csv/json output")
        p.add_argument("--rows", type=int, help="max table rows to print")
        p.add_argument("--game", help='"bernoulli" or a JSON family file')
        p.add_argument("--prior", choices=("luce", "power", "log", "logit"))
        p.add_argument("--alpha", type=float, help="power prior exponent")
        p.add_argument("--u0", type=float, help="log prior scale")
        p.add_argument("--b", type=float, help="logit prior coefficient")
        p.add_argument("--c", type=float, help="logit prior offset")
        p.add_argument("--gamma", type=float, help="logit prior curvature")
        p.add_argument("--utility", choices=("linear", "logarithmic", "power", "geometric"))
        p.add_argument("--exponent", type=float, help="power utility exponent")
        p.add_argument("--base", type=float, help="geometric utility base")
        p.add_argument("--beta", type=float)
        p.add_argument("--rel-tol", dest="rel_tol", type=float)
        p.add_argument("--max-index", dest="max_index", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--replications", type=int)
        p.add_argument("--max-tosses", dest="max_tosses", type=int)
        p.add_argument("--shards", dest="parallel_shards", type=int)
        p.add_argument("--stages", type=int)
        p.add_argument("--x0", type=float)
        p.add_argument("--p-win", dest="p_win", type=float)

    for name in _COMMANDS:
        p = sub.add_parser(name)
        common(p)
        if name == "simulate":
            p.add_argument("--target", choices=("repeated", "martingale"))
            p.add_argument("--n-games", dest="n_games", type=int, nargs="+")

    return parser


def _merge_config(args: argparse.Namespace) -> RunConfig:
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                cfg = RunConfig.from_json(json.load(fh))
        except OSError as exc:
            raise _ConfigError(f"cannot read config: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise _ConfigError(f"config is not valid JSON: {exc}") from exc
    else:
        cfg = RunConfig()
    cfg.command = args.command

    if args.game is not None:
        if args.game == "bernoulli":
            cfg.game = {"family": "bernoulli"}
        else:
            try:
                with open(args.game, "r", encoding="utf-8") as fh:
                    cfg.game = json.load(fh)
            except OSError as exc:
                raise _ConfigError(f"cannot read game file: {exc}") from exc
    if args.prior is not None:
        doc: dict = {"kind": args.prior}
        cfg.prior = doc
    for key in ("alpha", "u0", "b", "c", "gamma"):
        value = getattr(args, key)
        if value is not None:
            cfg.prior[key] = value
    if args.utility is not None:
        cfg.utility = {"kind": args.utility}
    for key in ("exponent", "base"):
        value = getattr(args, key)
        if value is not None:
            cfg.utility[key] = value
    for key in ("beta", "output_format", "output_path", "rows",
                "stages", "x0", "p_win"):
        value = getattr(args, key)
        if value is not None:
            setattr(cfg, key, value)
    if args.no_timestamp:
        cfg.timestamp = False
    for key in ("rel_tol", "max_index"):
        value = getattr(args, key)
        if value is not None:
            cfg.truncation[key] = value
    for key in ("seed", "replications", "max_tosses", "parallel_shards"):
        value = getattr(args, key)
        if value is not None:
            cfg.sim[key] = value
    if cfg.command == "simulate":
        if getattr(args, "target", None) is not None:
            cfg.target = args.target
        if getattr(args, "n_games", None) is not None:
            cfg.n_games = list(args.n_games)
    return cfg


def _output_stream(cfg: RunConfig):
    if cfg.output_path is None:
        return sys.stdout, False
    path = cfg.output_path
    outdir = os.environ.get(OUTDIR_ENV)
    if outdir and not os.path.isabs(path):
        path = os.path.join(outdir, path)
    return open(path, "w", encoding="utf-8", newline="\n"), True


def _emit(cfg: RunConfig, emission: Emission) -> None:
    """Write the emission in ``cfg.output_format``.

    JSON is ``json.dumps(payload, sort_keys=True, indent=2)`` with every
    float rounded to 12 significant digits (``_round_floats``).  A table in
    ``emission.rows`` is rendered in bulk by ``_json_rows`` and spliced in
    where ``json.dumps`` wrote the key ``"rows"`` with an empty list; the
    bytes are those of encoding the rows as dicts inside the payload.
    """
    stream, close = _output_stream(cfg)
    try:
        if cfg.output_format == "json":
            payload = dict(emission.payload)
            if emission.rows is not None:
                payload["rows"] = []
            if cfg.timestamp:
                payload["timestamp"] = datetime.now(timezone.utc).isoformat()
            text = json.dumps(_round_floats(payload), sort_keys=True, indent=2)
            if emission.rows is not None:
                # only a top-level key sits at indent 2 after a line break
                head, tail = text.split('\n  "rows": []', 1)
                stream.write(head)
                stream.write('\n  "rows": ')
                stream.writelines(_json_rows(*emission.rows))
                text = tail
            stream.write(text)
            stream.write("\n")
        elif cfg.output_format == "csv":
            if cfg.timestamp:
                stream.write(
                    f"# timestamp: {datetime.now(timezone.utc).isoformat()}\n"
                )
            stream.write(emission.csv_text)
        else:
            stream.write("\n".join(emission.table_lines))
            stream.write("\n")
    finally:
        if close:
            stream.close()


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _merge_config(args)
        if args.emit_config:
            with open(args.emit_config, "w", encoding="utf-8") as fh:
                json.dump(
                    _round_floats(cfg.to_json()), fh, sort_keys=True, indent=2
                )
                fh.write("\n")
        emission = _HANDLERS[cfg.command](cfg)
        _emit(cfg, emission)
        return 0
    except _ConfigError as exc:
        print(f"error:config:{exc}", file=sys.stderr)
        return 1
    except DomainError as exc:
        print(f"error:domain:{exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"error:solver:{exc}", file=sys.stderr)
        return 3
    except (ValueError, TypeError, KeyError) as exc:
        # malformed values in a config file surface here
        print(f"error:config:{exc!r}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
