"""Command-line interface.

Subcommands
    distribution  posterior table (n, U_n, prob) for a game family and prior
    optimal       stochastically optimal index, integer bracket, continuous optimum
    calibrate     disbelief magnitude from the variance-matching condition
    repeated      optimal run length and distribution over repeated games
    roulette      stop/continue stage table for the martingale sequence
    simulate      Monte Carlo summaries (repeated games or martingale)

Every option is a row of ``_OPTIONS``, which gives its type: int, int >= 0
(rows), finite float, string, bool, a choice, a list of ints, or a family
document (game).  A ``--config`` file holds config keys, those of prior,
utility, truncation and sim in an object of that name; a prior or utility
section replaces the default, the others merge, flags win, and each value
gets its flag's check.  ``--emit-config`` writes a configuration that
replays the run exactly.  ``petersburg COMMAND -h`` lists the flags.
Exit codes: 1 config error, 2 domain or sign error, 3 solver/truncation
failure, each with one machine-parsable line ``error:<category>:<message>``
on stderr; any other exception is a bug and surfaces as a traceback.

Each handler returns its output as one ``Result`` and never looks at the
format; ``_emit`` renders it as a text table, CSV or JSON, whichever was
asked for.  No other module writes these formats.

The environment variable PETERSBURG_OUTDIR redirects relative output paths.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import sys
from collections import namedtuple
from dataclasses import asdict, astuple, dataclass, field, fields
from datetime import datetime, timezone
from itertools import repeat
from typing import Container, Iterator, Sequence

import numpy as np

from .calibration import CalibrationResult, calibrate_disbelief_general
from .errors import DomainError, SolverError
from .lotteries import ExpectedUtilitySeq, GameFamily, UtilitySpec
from .posteriors import (
    TruncationPolicy,
    has_declared_moments,
    integer_bracket,
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
)
from .simulate import SimConfig, SimSummary, simulate_martingale, simulate_repeated

OUTDIR_ENV = "PETERSBURG_OUTDIR"


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
    # each a fresh copy of the defaults, read once from their dataclasses
    truncation: dict = field(default_factory=asdict(TruncationPolicy()).copy)
    sim: dict = field(default_factory=asdict(SimConfig()).copy)
    stages: int = 5
    x0: float = 1.0
    p_win: float = DOUBLE_ZERO_WIN_PROB
    target: str = "martingale"
    n_games: list[int] = field(default_factory=lambda: [8, 16, 32, 64, 128, 256, 512, 1024])

    @classmethod
    def from_json(cls, doc: object) -> "RunConfig":
        """The defaults with a config file's document set.  A ``prior`` or
        ``utility`` section replaces the default one; ``truncation`` and
        ``sim`` merge into theirs."""
        if type(doc) is not dict:
            raise _ConfigError(f"a config file holds one JSON object, got {doc!r}")
        values = {k: v for k, v in doc.items() if k not in _SECTIONS}
        for section in [k for k in doc if k in _SECTIONS]:
            if type(doc[section]) is not dict:
                raise _ConfigError(f"{section}: invalid section: {doc[section]!r}")
            values.update((f"{section}.{k}", v) for k, v in doc[section].items())
        unknown = sorted(values.keys() - _BY_KEY.keys())
        if unknown:
            raise _ConfigError(f"unknown config keys: {unknown}")
        cfg = cls()
        cfg.apply(values, fresh=[s for s in ("prior", "utility") if s in doc])
        return cfg

    def apply(self, values: dict, fresh: Sequence[str] = ()) -> None:
        """Empty the ``fresh`` sections, then check and set each value, keyed
        by its option's config key."""
        for section in fresh:
            setattr(self, section, {})
        for key, value in values.items():
            value = _check(_BY_KEY[key], value)
            section, _, leaf = key.rpartition(".")
            if section:
                getattr(self, section)[leaf] = value
            else:
                setattr(self, leaf, value)

    # -- resolved objects ------------------------------------------------

    def _read(self, name: str, reader):
        """``reader`` applied to the document ``name``; what it cannot read
        is a config error."""
        try:
            return reader(getattr(self, name))
        except DomainError:
            raise
        except KeyError as exc:
            raise _ConfigError(f"{name} lacks the key {exc}") from None
        except (TypeError, ValueError) as exc:  # a malformed family document
            raise _ConfigError(f"{name}: {exc}") from None

    def prior_spec(self) -> PriorSpec:
        return self._read("prior", PriorSpec.from_json)

    def policy(self) -> TruncationPolicy:
        return TruncationPolicy(**self.truncation)

    def utilities(self) -> ExpectedUtilitySeq:
        family = self._read("game", GameFamily.from_json)
        return ExpectedUtilitySeq.from_family(family, self._read("utility", UtilitySpec.from_json))


def _read_json(path: str, what: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise _ConfigError(f"cannot read {what}: {exc}") from exc
    except ValueError as exc:  # not JSON, or not UTF-8
        raise _ConfigError(f"{what} is not valid JSON: {exc}") from exc


def _read_game(value: str) -> dict:
    """The --game flag's family document: bernoulli, or a JSON file's."""
    return {"family": "bernoulli"} if value == "bernoulli" else _read_json(value, "game file")


# One row per option: its flag, its config key (``section.key`` inside a
# section), its type or tuple of choices, its help, and the one subcommand
# that takes it, when only one does.
_Option = namedtuple("_Option", "flag key type help command", defaults=(None, None))
_COUNT = "nonnegative int"  # the type of an int option that must be >= 0
_OPTIONS = (
    _Option("", "command", str),  # no flag: the subcommand sets it
    _Option("--format", "output_format", ("table", "csv", "json")),
    _Option("--output", "output_path", str, "output file (default stdout)"),
    _Option("--no-timestamp", "timestamp", bool, "omit the timestamp field from csv/json output"),
    _Option("--rows", "rows", _COUNT, "max table rows to print"),
    _Option("--game", "game", dict, '"bernoulli" or a JSON family file'),
    _Option("--prior", "prior.kind", ("luce", "power", "log", "logit")),
    _Option("--alpha", "prior.alpha", float, "power prior exponent"),
    _Option("--u0", "prior.u0", float, "log prior scale"),
    _Option("--b", "prior.b", float, "logit prior coefficient"),
    _Option("--c", "prior.c", float, "logit prior offset"),
    _Option("--gamma", "prior.gamma", float, "logit prior curvature"),
    _Option("--utility", "utility.kind", ("linear", "logarithmic", "power", "geometric")),
    _Option("--exponent", "utility.exponent", float, "power utility exponent"),
    _Option("--base", "utility.base", float, "geometric utility base"),
    _Option("--beta", "beta", float, "disbelief parameter; calibrated when absent"),
    _Option("--rel-tol", "truncation.rel_tol", float, "omitted tail mass, relative"),
    _Option("--max-index", "truncation.max_index", int, "largest support size"),
    _Option("--seed", "sim.seed", int, "simulator seed"),
    _Option("--replications", "sim.replications", int, "replications per run"),
    _Option("--max-tosses", "sim.max_tosses", int, "toss cap of one game"),
    _Option("--shards", "sim.parallel_shards", int, "simulator threads, at most the CPU count"),
    _Option("--stages", "stages", int, "roulette and martingale stages"),
    _Option("--x0", "x0", float, "initial bid"),
    _Option("--p-win", "p_win", float, "roulette win probability"),
    _Option("--target", "target", ("repeated", "martingale"), command="simulate"),
    _Option("--n-games", "n_games", list, "games per run", command="simulate"),
)
_BY_KEY = {opt.key: opt for opt in _OPTIONS}
_SECTIONS = ("prior", "utility", "truncation", "sim")
_NULLABLE = {f.name for f in fields(RunConfig) if f.default is None}


def _check(opt: _Option, value):
    """``value`` as option ``opt`` holds it, or a config error naming the key;
    null is a value only where the default is None.  The one check of a
    value, whether ``_parse`` read it from a flag or JSON from a file."""
    kind = opt.type
    if value is None and opt.key in _NULLABLE:
        return value
    if isinstance(kind, tuple):
        ok = value in kind
    elif kind is float:  # compared, not converted: a JSON integer may pass binary64
        ok = type(value) in (int, float) and abs(value) <= sys.float_info.max
    elif kind is list:
        ok = type(value) is list and value != [] and all(type(n) is int for n in value)
    else:
        ok = type(value) is (int if kind is _COUNT else kind) and (kind != _COUNT or value >= 0)
    if not ok:
        what = f"{getattr(kind, '__name__', kind)} value"
        if isinstance(kind, tuple):
            what = f"choice (one of {', '.join(kind)})"
        raise _ConfigError(f"{opt.key}: invalid {what}: {value!r}")
    return float(value) if kind is float else value  # a JSON integer will do


def _fmt(x, sig: int = 12) -> str:
    """A CSV or table cell; a pair such as a bracket prints as ``[lo hi]``,
    with no comma to split a CSV row."""
    if isinstance(x, tuple):
        return "[" + " ".join(_fmt(v, sig) for v in x) + "]"
    return format(x, f".{sig}g") if isinstance(x, float) else str(x)


def _round_floats(obj):
    """Recursively normalize floats to 12 significant digits so JSON output
    is precision-stable; non-finite values become strings."""
    if isinstance(obj, float):
        return float(_fmt(obj)) if math.isfinite(obj) else _fmt(obj)
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


@dataclass
class Result:
    """One command's output before it has a format; ``_emit`` renders it as
    a table, CSV or JSON.

    - ``doc`` is the JSON document.
    - ``comments`` are ``# key: value`` lines that only CSV writes.
    - ``fields`` are named values.  The table format lists them as
      field/value rows.  CSV writes them as a header line and one row, or,
      when there is a table, as comment lines before ``comments``.
    - The table is ``header`` over ``columns``: per column a range, a list
      or tuple of ints, floats or strings, or a numpy array.  JSON holds it
      at the top-level key ``rows_key`` (not at all when None) as one object
      per row, keyed by ``keys`` (the header when empty).  The table format
      prints its first ``shown`` rows (all when None) and counts the rest.
    """

    doc: dict
    comments: dict = field(default_factory=dict)
    fields: dict = field(default_factory=dict)
    header: tuple[str, ...] = ()
    columns: tuple = ()
    rows_key: str | None = None
    keys: tuple[str, ...] = ()
    shown: int | None = None


_ROW_BLOCK = 1 << 14


def format_rows(
    template: str, columns: Sequence, cells: Sequence, sep: str = ""
) -> Iterator[str]:
    """Yield ``sep.join(template % row for row in zip(*columns))`` in pieces,
    where ``cells[j]`` maps a block of column j to the values in its slots.

    Each block of up to ``_ROW_BLOCK`` rows is filled by one ``%`` over the
    template repeated once per row, so no Python code runs per row, and
    the temporaries stay small however long the table is.
    """
    width = len(columns)
    for lo in range(0, len(columns[0]), _ROW_BLOCK):
        block = [c[lo : lo + _ROW_BLOCK] for c in columns]
        flat: list = [None] * (width * len(block[0]))
        for j, convert in enumerate(cells):
            flat[j::width] = convert(block[j])
        yield (sep if lo else "") + sep.join([template] * len(block[0])) % tuple(flat)


def _plain(block) -> Sequence:
    """A block of a column as Python values."""
    return block.tolist() if isinstance(block, np.ndarray) else block


def _json_floats(values: Sequence) -> list:
    """What ``_round_floats`` makes of each value, mapped over the column
    without a Python loop: ``float(format(x, ".12g"))``, whose ``str`` is the
    token ``json.dumps`` writes.  The rare non-finite result is encoded by
    ``json.dumps`` itself and substituted as a string."""
    values = _plain(values)
    rounded = list(map(float, map(format, values, repeat(".12g", len(values)))))
    for i in np.flatnonzero(~np.isfinite(rounded)).tolist():
        rounded[i] = json.dumps(_round_floats(values[i]))
    return rounded


def _whole(column: np.ndarray) -> bool:
    """Whether a float column holds only whole numbers below 1e12 in
    magnitude, and no -0.0: ``%d`` then prints what ``%.12g`` does, and
    ``%d.0`` the JSON token.  Most columns fail on an end cell, before any
    pass over the column."""
    ends = (column[0].item(), column[-1].item())
    if not all(x.is_integer() and abs(x) < 1e12 for x in ends):
        return False
    return bool(
        (np.abs(column) < 1e12).all()
        and (np.trunc(column) == column).all()
        and not np.signbit(column[column == 0.0]).any()
    )


def _tokens(column: np.ndarray) -> bool:
    """Whether ``%.12g`` writes every value of a float column as the token
    ``json.dumps(_round_floats(x))`` does.  Its 12 digits are the shortest
    repr of the rounded value, in repr's notation, unless that value may be
    whole (the value lies within 1e-11 relative of a whole number; repr
    adds ``.0``), reach 1e12 (repr stays positional up to 1e16) or be
    subnormal, or the value is not finite."""
    size = np.abs(column)  # a nan fails both bounds, and inf the upper
    if not (2.3e-308 <= size.min() and size.max() < (1.0 - 1e-12) * 1e12):
        return False
    return bool((np.abs(column - np.rint(column)) / size).min() > 1e-11)


def _kind(column, slots: Container[str] = "") -> str:
    """``i``, ``f`` or ``U``: whether a column holds integers, floats or
    text.  A float array that fits is ``d`` (``_whole``) or ``g``
    (``_tokens``) instead, where the format's ``slots`` have that kind."""
    if isinstance(column, np.ndarray):
        kind = column.dtype.kind
        if kind == "f" and len(column):
            if "d" in slots and _whole(column):
                return "d"
            if "g" in slots and _tokens(column):
                return "g"
        return "i" if kind in "iu" else kind
    first = column[0] if len(column) else 0
    return "f" if isinstance(first, float) else "i" if isinstance(first, int) else "U"


def _ints(block: np.ndarray) -> list:
    """A block of a whole-float column as Python ints, which ``%d`` prints
    faster than floats."""
    return block.astype(np.int64).tolist()


# per column kind: the slot and the cells of a CSV or JSON block, and the
# cells of a table block, whose 4 digits take no whole-number slot
_CSV = {"i": ("%d", _plain), "d": ("%d", _ints), "f": ("%.12g", _plain), "U": ("%s", _plain)}
_JSON = {
    "i": ("%s", _plain),
    "d": ("%d.0", _ints),
    "g": ("%.12g", _plain),
    "f": ("%s", _json_floats),
    "U": ("%s", lambda block: list(map(json.dumps, _plain(block)))),
}
_TABLE_CELLS = {
    "i": lambda block: list(map(str, _plain(block))),
    "f": lambda block: list(map(format, _plain(block), repeat(".4g"))),
    "U": _plain,
}


def _text_table(header: Sequence[str], cells: Sequence[list]) -> list[str]:
    """Lines of a table of cell strings, left-aligned columns two spaces apart."""
    widths = [max(len(h), max(map(len, c), default=0)) for h, c in zip(header, cells)]
    template = "  ".join([*(f"%-{w}s" for w in widths[:-1]), "%s"])
    lines = [template % tuple(header), "  ".join("-" * w for w in widths)]
    if cells[0]:
        lines.append("".join(format_rows(template, cells, [_plain] * len(cells), "\n")))
    return lines


def _write_table(stream, result: Result, timestamp: bool) -> None:
    """The table format, which has no timestamp."""
    lines = []
    if result.fields:
        values = [_fmt(v, 4) for v in result.fields.values()]
        lines = _text_table(("field", "value"), (list(result.fields), values))
    if result.header:
        if lines:
            lines.append("")
        columns = [c[: result.shown] for c in result.columns]
        cells = [_TABLE_CELLS[_kind(c)](c) for c in columns]
        lines.extend(_text_table(result.header, cells))
        more = len(result.columns[0]) - len(columns[0])
        if more:
            lines.append(f"... ({more} more rows; see csv/json)")
    stream.write("\n".join(lines))
    stream.write("\n")


def _write_csv(stream, result: Result, timestamp: bool) -> None:
    text = [f"# timestamp: {datetime.now(timezone.utc).isoformat()}\n"] if timestamp else []
    if result.header:
        named = [*result.fields.items(), *result.comments.items()]
        text += [f"# {key}: {_fmt(value)}\n" for key, value in named]
        text.append(",".join(result.header) + "\n")
        slots, cells = zip(*(_CSV[_kind(c, _CSV)] for c in result.columns))
        text += format_rows(",".join(slots) + "\n", result.columns, cells)
    else:
        values = ("" if v is None else _fmt(v) for v in result.fields.values())
        text += [",".join(result.fields), "\n", ",".join(values), "\n"]
    # one write: an empty StringIO then keeps the string itself; written
    # block by block, the sweep workload's peak RSS rose by 5-9 MB
    stream.write("".join(text))


def _json_rows(keys: Sequence[str], columns: Sequence) -> Iterator[str]:
    """The JSON text ``json.dumps(_round_floats(rows), sort_keys=True,
    indent=2)`` gives at depth 1 for the rows as objects keyed by ``keys``."""
    if not len(columns[0]):
        yield "[]"
        return
    order = sorted(range(len(keys)), key=keys.__getitem__)
    columns = [columns[j] for j in order]
    slots, cells = zip(*(_JSON[_kind(c, _JSON)] for c in columns))
    template = ",\n".join(f"      {json.dumps(keys[j])}: {slot}" for j, slot in zip(order, slots))
    yield "[\n"
    yield from format_rows("    {\n" + template + "\n    }", columns, cells, ",\n")
    yield "\n  ]"


def _write_json(stream, result: Result, timestamp: bool) -> None:
    """``json.dumps(doc, sort_keys=True, indent=2)`` with every float rounded
    by ``_round_floats``.  The table is rendered in bulk by ``_json_rows``
    and spliced in where ``json.dumps`` wrote its key with an empty list; the
    bytes are those of encoding the rows as objects inside the document."""
    doc = dict(result.doc)
    if result.rows_key is not None:
        doc[result.rows_key] = []
    if timestamp:
        doc["timestamp"] = datetime.now(timezone.utc).isoformat()
    text = json.dumps(_round_floats(doc), sort_keys=True, indent=2)
    if result.rows_key is not None:
        # only a top-level key sits at indent 2 after a line break
        key = f"\n  {json.dumps(result.rows_key)}: "
        head, text = text.split(key + "[]", 1)
        stream.write(head + key)
        stream.writelines(_json_rows(result.keys or result.header, result.columns))
    stream.write(text)
    stream.write("\n")


_WRITERS = {"table": _write_table, "csv": _write_csv, "json": _write_json}


def _open_output(path: str | None, what: str):
    """The file ``path`` opened to write ``what``, or stdout when there is
    none; a relative path is taken under $PETERSBURG_OUTDIR when that is set."""
    if not path:
        return contextlib.nullcontext(sys.stdout)
    path = os.path.join(os.environ.get(OUTDIR_ENV, ""), path)
    try:
        return open(path, "w", encoding="utf-8", newline="\n")
    except OSError as exc:
        raise _ConfigError(f"cannot write {what}: {exc}") from exc


def _emit(cfg: RunConfig, result: Result) -> None:
    """Write the result in ``cfg.output_format`` to stdout or the output file."""
    with _open_output(cfg.output_path, "output") as stream:
        _WRITERS[cfg.output_format](stream, result, cfg.timestamp)


# -- command handlers ----------------------------------------------------


def _resolve_beta(
    cfg: RunConfig, prior: PriorSpec, utilities: ExpectedUtilitySeq
) -> tuple[float, CalibrationResult | None]:
    """The configured beta, or -|beta| from calibration when absent."""
    if cfg.beta is not None:
        return cfg.beta, None
    result = calibrate_disbelief_general(utilities, prior, cfg.policy())
    return -result.abs_beta, result


def _cmd_distribution(cfg: RunConfig) -> Result:
    prior, utilities = cfg.prior_spec(), cfg.utilities()
    beta, calib = _resolve_beta(cfg, prior, utilities)
    dist = posterior(prior, utilities, beta, cfg.policy())
    meta = dist.meta()
    return Result(
        doc={"meta": meta if calib is None else {**meta, "calibration": vars(calib)}},
        comments=meta,
        header=("n", "U_n", "prob"),
        columns=dist.columns(dist.n_trunc),
        rows_key="rows",
        keys=("n", "u", "prob"),
        shown=cfg.rows,
    )


def _cmd_optimal(cfg: RunConfig) -> Result:
    prior, utilities = cfg.prior_spec(), cfg.utilities()
    beta, calib = _resolve_beta(cfg, prior, utilities)
    dist = posterior(prior, utilities, beta, cfg.policy())
    n_opt = stochastically_optimal(dist)
    u_star = continuous_optimum(prior, beta) if beta < 0.0 else None
    bracket = (None, None)
    if u_star is not None and utilities.identity:
        bracket = integer_bracket(u_star)
    fields = {
        "beta": beta,
        "n_opt": n_opt,
        "prob_opt": dist.prob(n_opt),
        "u_opt": dist.utility(n_opt),
        "continuous_optimum": u_star,
        "bracket_low": bracket[0],
        "bracket_high": bracket[1],
    }
    doc = fields if calib is None else {**fields, "calibration": vars(calib)}
    return Result(doc=doc, fields=fields)


def _cmd_calibrate(cfg: RunConfig) -> Result:
    prior, utilities = cfg.prior_spec(), cfg.utilities()
    result = calibrate_disbelief_general(utilities, prior, cfg.policy())
    route = "closed" if has_declared_moments(prior, utilities) else "general"
    fields = {**vars(result), "route": route}
    return Result(doc=fields, fields=fields)


def _cmd_repeated(cfg: RunConfig) -> Result:
    prior = cfg.prior_spec()
    if prior.kind != "luce":
        raise _ConfigError("repeated takes only the luce prior")
    beta, calib = _resolve_beta(cfg, prior, repeated_game_utilities())
    fields = vars(repeated_optimal(beta))
    dist = repeated_game_posterior(beta, cfg.policy())
    meta = dist.meta()
    doc = {"result": fields, "posterior_meta": meta}
    if calib is not None:
        doc["calibration"] = vars(calib)
    return Result(
        doc=doc,
        comments={k: meta[k] for k in ("n_trunc", "tail_bound", "tail_rule")},
        fields=fields,
        header=("N", "U_N", "prob"),
        columns=dist.columns(cfg.rows),
        rows_key="rows",
        keys=("n", "u", "prob"),
    )


def _cmd_roulette(cfg: RunConfig) -> Result:
    beta = cfg.beta if cfg.beta is not None else 0.0
    choices = roulette_sequence(cfg.stages, beta, cfg.x0, cfg.p_win)
    return Result(
        doc={"beta": beta, "x0": cfg.x0, "p_win": cfg.p_win},
        header=choices._fields,
        columns=choices,
        rows_key="stages",
    )


def _cmd_simulate(cfg: RunConfig) -> Result:
    sim = SimConfig(**cfg.sim)
    if cfg.target == "repeated":
        summaries = [simulate_repeated(n, sim) for n in cfg.n_games]
        return Result(
            doc={"target": "repeated"},
            header=tuple(f.name for f in fields(SimSummary)),
            columns=tuple(zip(*map(astuple, summaries))),
            rows_key="runs",
        )
    summary = simulate_martingale(cfg.stages, cfg.x0, cfg.p_win, sim)
    doc = {"target": "martingale", **vars(summary)}
    return Result(
        doc=doc,
        comments={
            k: doc[k]
            for k in ("replications", "x0", "p_win", "seed", "generator", "sampler")
        },
        header=("stage", "mean", "stderr"),
        columns=(
            range(1, len(summary.stage_means) + 1),
            summary.stage_means,
            summary.stage_stderrs,
        ),
    )


_HANDLERS = {
    "distribution": _cmd_distribution,
    "optimal": _cmd_optimal,
    "calibrate": _cmd_calibrate,
    "repeated": _cmd_repeated,
    "roulette": _cmd_roulette,
    "simulate": _cmd_simulate,
}


# -- argument parsing ----------------------------------------------------

# each flag's option; --config and --emit-config name files, not config keys
_FLAGS = {opt.flag: opt for opt in (
    _Option("--config", "config", str, "JSON file with a RunConfig"),
    _Option("--emit-config", "emit_config", str, "write the resolved RunConfig here"),
    *_OPTIONS,
) if opt.flag}
# what reads a flag's string (each item's, for a list); a choice stays a string
_READERS = {int: int, _COUNT: int, float: float, dict: _read_game, list: int}


def _help(command: str) -> str:
    """What -h prints: a command's flags and config keys, or the commands."""
    if command not in _HANDLERS:
        return __doc__.split("\n\n")[1]
    opts = [opt for opt in _FLAGS.values() if opt.command in (None, command)]
    keys = [opt.key if opt.key in _BY_KEY else "" for opt in opts]
    helps = [opt.help or f"one of {', '.join(opt.type)}" for opt in opts]
    table = _text_table(("flag", "config key", "help"), ([opt.flag for opt in opts], keys, helps))
    return "\n".join([f"usage: petersburg {command} [--flag value | --flag=value ...]", "", *table])


def _read_flag(flag: str, reader, string: str):
    try:
        return reader(string)
    except ValueError:
        message = f"argument {flag}: invalid {reader.__name__} value: {string!r}"
        raise _ConfigError(message) from None


def _parse(argv: Sequence[str]) -> dict:
    """The values ``argv`` gives by config key, read as their options' types
    for ``_check``.  Flags are exact names; ``--flag=value`` is ``--flag
    value``; a separate value never starts with ``--``, and ``--n-games``
    takes every argument up to one that does.  The last of a flag wins."""
    if not argv or argv[0].startswith("-"):
        raise _ConfigError("the following arguments are required: command")
    if argv[0] not in _HANDLERS:
        raise _ConfigError(f"command: invalid choice (one of {', '.join(_HANDLERS)}): {argv[0]!r}")
    given, rest = {"command": argv[0]}, list(argv[1:])
    while rest:
        flag, eq, value = rest.pop(0).partition("=")
        opt = _FLAGS.get(flag) if flag.startswith("--") else None
        if opt is None or opt.command not in (None, argv[0]) or opt.type is bool and eq:
            raise _ConfigError(f"unrecognized arguments: {flag}{eq}{value}")
        if opt.type is bool:  # --no-timestamp takes no value
            given[opt.key] = False
            continue
        strings = [value] if eq else []
        while rest and not rest[0].startswith("--") and (opt.type is list or not strings):
            strings.append(rest.pop(0))
        if not strings and opt.type is not list:
            raise _ConfigError(f"argument {flag}: expected one argument")
        values = [_read_flag(flag, _READERS.get(opt.type, str), s) for s in strings]
        given[opt.key] = values if opt.type is list else values[0]
    return given


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "-h" in argv or "--help" in argv:  # a command's flags, or the commands
        print(_help(argv[0]))
        return 0
    try:
        given = _parse(argv)
        emit_path = given.pop("emit_config", None)
        path = given.pop("config", None)
        cfg = RunConfig.from_json(_read_json(path, "config")) if path else RunConfig()
        # the flags given win; a --prior or --utility flag starts a fresh section
        cfg.apply(given, fresh=[s for s in ("prior", "utility") if f"{s}.kind" in given])
        if emit_path:
            # unrounded: float repr round-trips, so the file replays the run
            with _open_output(emit_path, "emitted config") as fh:
                json.dump(asdict(cfg), fh, sort_keys=True, indent=2)
                fh.write("\n")
        _emit(cfg, _HANDLERS[cfg.command](cfg))
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


if __name__ == "__main__":
    sys.exit(main())
