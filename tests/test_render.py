"""Bulk row rendering: CLI tables, CSV and JSON stay byte-identical to the
per-row encoder they replaced.

The reference below is that encoder, kept here: every payload is built as a
dict with one dict per row, rounded by ``reference_round_floats`` and
encoded by ``json.dumps(..., sort_keys=True, indent=2)``; CSV rows are
written one f-string per row, and text tables one padded line per row.
"""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import petersburg
from petersburg import (
    DOUBLE_ZERO_WIN_PROB,
    ExpectedUtilitySeq,
    GameFamily,
    PriorSpec,
    SimConfig,
    UtilitySpec,
    bernoulli_utilities,
    calibrate_bernoulli_disbelief,
    continuous_optimum,
    integer_bracket,
    posterior,
    repeated_game_posterior,
    repeated_optimal,
    roulette_sequence,
    simulate_martingale,
    simulate_repeated,
    stochastically_optimal,
)
from petersburg import cli

# -- the per-row reference encoder ----------------------------------------


def reference_fmt(x, sig: int = 12) -> str:
    if isinstance(x, float):
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return f"{x:.{sig}g}"
    if isinstance(x, tuple):
        return "[" + " ".join(reference_fmt(v, sig) for v in x) + "]"
    return str(x)


def reference_round_floats(obj, sig: int = 12):
    if isinstance(obj, float):
        if not math.isfinite(obj):
            return reference_fmt(obj)
        return float(f"{obj:.{sig}g}")
    if isinstance(obj, dict):
        return {k: reference_round_floats(v, sig) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [reference_round_floats(v, sig) for v in obj]
    return obj


def reference_json(payload: dict) -> str:
    return json.dumps(reference_round_floats(payload), sort_keys=True, indent=2) + "\n"


def reference_table(header, rows) -> list[str]:
    cells = [[reference_fmt(v, 4) for v in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
        for i, h in enumerate(header)
    ]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
    lines.append("  ".join("-" * w for w in widths))
    for r in cells:
        lines.append("  ".join(v.ljust(w) for v, w in zip(r, widths)).rstrip())
    return lines


def reference_text(*tables: list[str]) -> str:
    """Tables one after another, a blank line apart."""
    return "\n".join("\n".join(t) for t in tables) + "\n"


def reference_rows(utilities, probs) -> list[dict]:
    return [
        {"n": n, "u": float(u), "prob": float(p)}
        for n, (u, p) in enumerate(zip(utilities, probs), start=1)
    ]


def reference_csv_rows(utilities, probs) -> str:
    return "".join(
        f"{n},{float(u):.12g},{float(p):.12g}\n"
        for n, (u, p) in enumerate(zip(utilities, probs), start=1)
    )


def reference_calibration(calib) -> dict:
    """The coin toss's calibration under luce, whose route is closed."""
    return {
        "abs_beta": calib.abs_beta,
        "residual": calib.residual,
        "evaluations": calib.evaluations,
        "bracket": calib.bracket,
        "method": calib.method,
        "route": "closed",
    }


def reference_meta(dist) -> dict:
    return {
        "beta": dist.beta,
        "n_trunc": dist.n_trunc,
        "tail_bound": dist.tail_bound,
        "tail_rule": dist.tail_rule,
    }


def reference_distribution_json(dist, calib=None, timestamp=None) -> str:
    meta = reference_meta(dist)
    if calib is not None:
        meta["calibration"] = reference_calibration(calib)
    payload = {"meta": meta, "rows": reference_rows(dist.utilities, dist.probs)}
    if timestamp is not None:
        payload["timestamp"] = timestamp
    return reference_json(payload)


def reference_distribution_csv(dist, timestamp=None) -> str:
    head = f"# timestamp: {timestamp}\n" if timestamp is not None else ""
    return head + (
        f"# beta: {dist.beta:.12g}\n"
        f"# n_trunc: {dist.n_trunc}\n"
        f"# tail_bound: {dist.tail_bound:.12g}\n"
        f"# tail_rule: {dist.tail_rule}\n"
        "n,U_n,prob\n"
    ) + reference_csv_rows(dist.utilities, dist.probs)


def reference_distribution_table(dist, rows: int) -> str:
    shown = list(zip(range(1, dist.n_trunc + 1), dist.utilities.tolist(), dist.probs.tolist()))
    lines = reference_table(("n", "U_n", "prob"), shown[:rows])
    if dist.n_trunc > rows:
        lines.append(f"... ({dist.n_trunc - rows} more rows; see csv/json)")
    return reference_text(lines)


def reference_repeated(beta: float, rows: int, fmt: str) -> str:
    result = repeated_optimal(beta)
    dist = repeated_game_posterior(beta)
    stop = min(rows, dist.n_trunc)
    _, utilities, probs = dist.columns(dist.n_trunc)
    summary = {
        "beta": beta,
        "u_opt": result.u_opt,
        "n_opt_continuous": result.n_opt_continuous,
        "n_opt": result.n_opt,
    }
    if fmt == "json":
        return reference_json({
            "result": summary,
            "posterior_meta": reference_meta(dist),
            "rows": reference_rows(utilities[:stop], probs[:stop]),
        })
    if fmt == "table":
        n = range(1, stop + 1)
        return reference_text(
            reference_table(("field", "value"), list(summary.items())),
            [],
            reference_table(("N", "U_N", "prob"), list(zip(n, utilities[:stop], probs[:stop]))),
        )
    return (
        f"# beta: {beta:.12g}\n"
        f"# u_opt: {result.u_opt:.12g}\n"
        f"# n_opt_continuous: {result.n_opt_continuous:.12g}\n"
        f"# n_opt: {result.n_opt}\n"
        f"# n_trunc: {dist.n_trunc}\n"
        f"# tail_bound: {reference_fmt(dist.tail_bound)}\n"
        f"# tail_rule: {dist.tail_rule}\n"
        "N,U_N,prob\n"
    ) + reference_csv_rows(utilities[:stop], probs[:stop])


def reference_fields(payload: dict, fmt: str, extra: dict | None = None) -> str:
    """A command whose output is named values: ``extra`` shows only in JSON."""
    if fmt == "json":
        return reference_json({**payload, **(extra or {})})
    if fmt == "table":
        return reference_text(reference_table(("field", "value"), list(payload.items())))
    values = ("" if v is None else reference_fmt(v) for v in payload.values())
    return ",".join(payload) + "\n" + ",".join(values) + "\n"


def reference_optimal(fmt: str, beta=None, game=None) -> str:
    calib = None
    if beta is None:
        calib = calibrate_bernoulli_disbelief()
        beta = -calib.abs_beta
    prior = PriorSpec("luce")
    if game is None:
        utilities = bernoulli_utilities()
        bracket = integer_bracket(continuous_optimum(prior, beta))
    else:
        family = GameFamily.from_json(game)
        utilities = ExpectedUtilitySeq.from_family(family, UtilitySpec("linear"))
        bracket = (None, None)
    dist = posterior(prior, utilities, beta)
    n = stochastically_optimal(dist)
    payload = {
        "beta": beta,
        "n_opt": n,
        "prob_opt": dist.prob(n),
        "u_opt": dist.utility(n),
        "continuous_optimum": continuous_optimum(prior, beta),
        "bracket_low": bracket[0],
        "bracket_high": bracket[1],
    }
    extra = {"meta": reference_meta(dist)}
    if calib:
        extra["calibration"] = reference_calibration(calib)
    return reference_fields(payload, fmt, extra)


def reference_calibrate(fmt: str) -> str:
    calib = calibrate_bernoulli_disbelief()
    return reference_fields(reference_calibration(calib), fmt)


ROULETTE = ("stage", "u_stop", "u_continue", "p_stop", "p_continue")


def reference_roulette(fmt: str, stages: int, beta: float, x0: float) -> str:
    rows = list(zip(*roulette_sequence(stages, beta, x0)))
    if fmt == "json":
        return reference_json({
            "beta": beta, "x0": x0, "p_win": DOUBLE_ZERO_WIN_PROB,
            "stages": [dict(zip(ROULETTE, row)) for row in rows],
        })
    if fmt == "table":
        return reference_text(reference_table(ROULETTE, rows))
    return ",".join(ROULETTE) + "\n" + "".join(
        f"{s},{a:.12g},{b:.12g},{c:.12g},{d:.12g}\n" for s, a, b, c, d in rows
    )


RUNS = ("n_games", "per_game_mean", "per_game_median_of_means", "replications",
        "stderr_proxy", "seed", "generator", "sampler", "capped_tosses")


def reference_simulate_repeated(fmt: str, n_games, reps: int, seed: int) -> str:
    config = SimConfig(seed=seed, replications=reps)
    runs = [simulate_repeated(n, config) for n in n_games]
    rows = [tuple(getattr(s, name) for name in RUNS) for s in runs]
    if fmt == "json":
        return reference_json({
            "target": "repeated", "runs": [dict(zip(RUNS, row)) for row in rows],
        })
    if fmt == "table":
        return reference_text(reference_table(RUNS, rows))
    return ",".join(RUNS) + "\n" + "".join(
        f"{s.n_games},{s.per_game_mean:.12g},{s.per_game_median_of_means:.12g},"
        f"{s.replications},{s.stderr_proxy:.12g},{s.seed},{s.generator},"
        f"{s.sampler},{s.capped_tosses}\n"
        for s in runs
    )


def reference_martingale(fmt: str, stages: int, reps: int, seed: int) -> str:
    s = simulate_martingale(stages, 1.0, DOUBLE_ZERO_WIN_PROB,
                            SimConfig(seed=seed, replications=reps))
    rows = [(k, m, e) for k, (m, e) in enumerate(zip(s.stage_means, s.stage_stderrs), 1)]
    if fmt == "json":
        return reference_json({
            "target": "martingale",
            "stage_means": list(s.stage_means),
            "stage_stderrs": list(s.stage_stderrs),
            "replications": s.replications,
            "x0": s.x0,
            "p_win": s.p_win,
            "seed": s.seed,
            "generator": s.generator,
            "sampler": s.sampler,
        })
    if fmt == "table":
        return reference_text(reference_table(("stage", "mean", "stderr"), rows))
    return (
        f"# replications: {s.replications}\n# x0: {s.x0:.12g}\n"
        f"# p_win: {s.p_win:.12g}\n# seed: {s.seed}\n# generator: {s.generator}\n"
        f"# sampler: {s.sampler}\nstage,mean,stderr\n"
    ) + "".join(f"{k},{m:.12g},{e:.12g}\n" for k, m, e in rows)


def run(capsys, *argv) -> str:
    assert cli.main(list(argv)) == 0
    return capsys.readouterr().out


# -- the CLI against the reference ----------------------------------------

PRIORS = {
    "luce": ((), {"kind": "luce"}),
    "power": (("--alpha", "2"), {"kind": "power", "alpha": 2.0}),
    "log": (("--u0", "1"), {"kind": "log", "u0": 1.0}),
    # gamma 0.3 keeps the beta = -1e-3 support near 10^4 rows
    "logit": (
        ("--b", "1", "--c", "0", "--gamma", "0.3"),
        {"kind": "logit", "b": 1.0, "c": 0.0, "gamma": 0.3},
    ),
}


@pytest.mark.parametrize("beta", [-3.0, -0.3, -0.01, -1e-3])
@pytest.mark.parametrize("kind", sorted(PRIORS))
def test_distribution_matches_reference(capsys, kind, beta):
    flags, doc = PRIORS[kind]
    dist = posterior(PriorSpec(**doc), bernoulli_utilities(), beta)
    argv = ("distribution", "--prior", kind, *flags, f"--beta={beta!r}", "--no-timestamp")
    assert run(capsys, *argv, "--format", "json") == reference_distribution_json(dist)
    assert run(capsys, *argv, "--format", "csv") == reference_distribution_csv(dist)
    assert run(capsys, *argv) == reference_distribution_table(dist, 50)


def test_calibrated_distribution_matches_reference(capsys):
    calib = calibrate_bernoulli_disbelief()
    dist = posterior(PriorSpec("luce"), bernoulli_utilities(), -calib.abs_beta)
    out = run(capsys, "distribution", "--format", "json", "--no-timestamp")
    assert out == reference_distribution_json(dist, calib)
    assert '"calibration"' in out


class _FixedClock:
    @staticmethod
    def now(tz=None):
        return datetime(2026, 1, 2, 3, 4, 5, 678901, tzinfo=tz)


def test_timestamp_after_rows(capsys, monkeypatch):
    monkeypatch.setattr(cli, "datetime", _FixedClock)
    stamp = _FixedClock.now(timezone.utc).isoformat()
    dist = posterior(PriorSpec("luce"), bernoulli_utilities(), -0.5)
    out = run(capsys, "distribution", "--beta=-0.5", "--format", "json")
    assert out == reference_distribution_json(dist, timestamp=stamp)
    assert out.index('"rows"') < out.index('"timestamp"')
    out = run(capsys, "distribution", "--beta=-0.5", "--format", "csv")
    assert out == reference_distribution_csv(dist, timestamp=stamp)


@pytest.mark.parametrize("rows", [None, 0, 3])
@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("beta", [-0.5, -1.9574])
def test_repeated_matches_reference(capsys, beta, fmt, rows):
    argv = ["repeated", f"--beta={beta!r}", "--format", fmt, "--no-timestamp"]
    if rows is not None:
        argv += ["--rows", str(rows)]
    out = run(capsys, *argv)
    assert out == reference_repeated(beta, 50 if rows is None else rows, fmt)
    if beta == -0.5:  # beta >= -ln 2: the remainder diverges
        assert ('"tail_bound": "inf"' in out) if fmt == "json" else ("# tail_bound: inf" in out)


def test_geometric_custom_family_past_1e12(capsys, tmp_path):
    # U_n = mean(1000^m, m = 1..n) reaches 1.7e17; above 1e12, %.12g and
    # repr of the same float differ
    doc = {
        "family": "custom",
        "lotteries": [
            {"outcomes": [{"payoff": float(m), "prob": 1.0 / n} for m in range(1, n + 1)]}
            for n in range(1, 7)
        ],
    }
    path = tmp_path / "family.json"
    path.write_text(json.dumps(doc))
    seq = ExpectedUtilitySeq.from_family(
        GameFamily.from_json(doc), UtilitySpec("geometric", base=1000.0)
    )
    dist = posterior(PriorSpec("luce"), seq, -1e-16)
    assert dist.utilities.max() > 1e17
    argv = ("distribution", "--game", str(path), "--utility", "geometric",
            "--base", "1000", "--beta=-1e-16", "--no-timestamp")
    out = run(capsys, *argv, "--format", "json")
    assert out == reference_distribution_json(dist)
    assert "200200200200000.0" in out
    assert run(capsys, *argv, "--format", "csv") == reference_distribution_csv(dist)


FAMILY = {"family": "custom", "lotteries": [
    {"outcomes": [{"payoff": 2.0, "prob": 0.5}, {"payoff": 4.0, "prob": 0.25}],
     "residual": 0.25},
    {"outcomes": [{"payoff": 3.0, "prob": 0.9}], "residual": 0.1},
    {"outcomes": [{"payoff": 50.0, "prob": 0.1}], "residual": 0.9},
]}

# (argv, reference) for every command besides distribution and repeated
COMMANDS = {
    "optimal": (["optimal", "--beta=-0.7"], lambda f: reference_optimal(f, -0.7)),
    "optimal-calibrated": (["optimal"], reference_optimal),
    "optimal-family": (
        ["optimal", "--game", "family.json", "--beta=-0.3"],
        lambda f: reference_optimal(f, -0.3, FAMILY),
    ),
    "calibrate": (["calibrate"], reference_calibrate),
    "roulette": (["roulette"], lambda f: reference_roulette(f, 5, 0.0, 1.0)),
    "roulette-7": (
        ["roulette", "--stages", "7", "--beta=-0.3", "--x0", "2.5"],
        lambda f: reference_roulette(f, 7, -0.3, 2.5),
    ),
    "simulate-repeated": (
        ["simulate", "--target", "repeated", "--n-games", "4", "8", "16", "32",
         "--replications", "300", "--seed", "5"],
        lambda f: reference_simulate_repeated(f, [4, 8, 16, 32], 300, 5),
    ),
    "simulate-martingale": (
        ["simulate", "--target", "martingale", "--stages", "7",
         "--replications", "5000", "--seed", "3"],
        lambda f: reference_martingale(f, 7, 5000, 3),
    ),
}


@pytest.mark.parametrize("block", [None, 3])
@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_command_matches_reference(capsys, monkeypatch, tmp_path, name, fmt, block):
    if block is not None:  # tables of 4 to 7 rows then span 2 or 3 blocks
        monkeypatch.setattr(cli, "_ROW_BLOCK", block)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "family.json").write_text(json.dumps(FAMILY))
    argv, reference = COMMANDS[name]
    assert run(capsys, *argv, "--format", fmt, "--no-timestamp") == reference(fmt)


@pytest.mark.parametrize("rows", [0, 2, 3, 7, 40])
def test_long_tables_across_blocks(capsys, monkeypatch, rows):
    monkeypatch.setattr(cli, "_ROW_BLOCK", 3)
    dist = posterior(PriorSpec("luce"), bernoulli_utilities(), -0.3)
    argv = ("distribution", "--beta=-0.3", "--no-timestamp", "--rows", str(rows))
    assert run(capsys, *argv) == reference_distribution_table(dist, rows)
    assert run(capsys, *argv, "--format", "csv") == reference_distribution_csv(dist)
    assert run(capsys, *argv, "--format", "json") == reference_distribution_json(dist)
    argv = ("repeated", "--beta=-1.9574", "--no-timestamp", "--rows", str(rows))
    for fmt in ("table", "csv", "json"):
        assert run(capsys, *argv, "--format", fmt) == reference_repeated(-1.9574, rows, fmt)


class RecordingSink(io.TextIOBase):
    """A stdout that keeps each ``write`` apart."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_long_tables_stream_in_blocks(fmt):
    # 28,734 rows span two row blocks; each block is its own write, and
    # nothing joins the whole table before it is written
    dist = posterior(PriorSpec("luce"), bernoulli_utilities(), -0.001)
    assert dist.n_trunc == 28_734
    sink = RecordingSink()
    with contextlib.redirect_stdout(sink):
        assert cli.main(["distribution", "--beta", "-0.001", "--format", fmt,
                         "--no-timestamp"]) == 0
    reference = reference_distribution_csv if fmt == "csv" else reference_distribution_json
    assert "".join(sink.writes) == reference(dist)
    blocks = [w for w in sink.writes if w.count("\n") > 1000]
    assert len(blocks) >= 2
    assert max(map(len, sink.writes)) < 0.6 * sum(map(len, sink.writes))


# -- the formatter itself -------------------------------------------------

EDGE_VALUES = [-0.0, 1e-320, 1.0, 0.1, 1234567890123.0, 1e16]


def emit_rows(utilities, probs, fmt: str = "json") -> str:
    """The rows rendered by the CLI; for CSV without the header line."""
    cfg = cli.RunConfig(output_format=fmt, timestamp=False)
    columns = (
        range(1, len(utilities) + 1),
        np.array(utilities, dtype=float),
        np.array(probs, dtype=float),
    )
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit(cfg, cli.Result(
            doc={"meta": {"x": 0.5}}, header=("n", "U_n", "prob"), columns=columns,
            rows_key="rows", keys=("n", "u", "prob"),
        ))
    text = out.getvalue()
    return text.split("\n", 1)[1] if fmt == "csv" else text


def csv_rows(utilities, probs) -> str:
    return emit_rows(utilities, probs, "csv")


def table_rows(utilities, probs) -> str:
    rows = list(zip(range(1, len(utilities) + 1), map(float, utilities), map(float, probs)))
    return reference_text(reference_table(("n", "U_n", "prob"), rows))


@pytest.mark.parametrize("x", EDGE_VALUES)
def test_formatter_edge_values(x):
    token = cli._json_floats(np.array([x]))[0]
    assert str(token) == repr(float(format(x, ".12g")))
    assert csv_rows([x], [x]) == f"1,{x:.12g},{x:.12g}\n"


def test_formatter_edge_values_in_payload():
    rows = list(zip(EDGE_VALUES, reversed(EDGE_VALUES)))
    u, p = [r[0] for r in rows], [r[1] for r in rows]
    expected = reference_json({"meta": {"x": 0.5}, "rows": reference_rows(u, p)})
    assert emit_rows(u, p) == expected
    assert emit_rows(u, p, "table") == table_rows(u, p)
    assert '"u": 1234567890120.0' in expected  # repr, not %.12g's 1.23456789012e+12
    assert '"u": 1e+16' in expected


def test_non_finite_values_follow_the_reference():
    u = [math.inf, -math.inf, math.nan, 1.7976931348623157e308, 2.5]
    p = [0.25, 0.5, 0.125, 0.0625, 0.0625]
    expected = reference_json({"meta": {"x": 0.5}, "rows": reference_rows(u, p)})
    assert emit_rows(u, p) == expected
    assert '"u": "inf"' in expected and '"u": "nan"' in expected
    assert csv_rows(u, p) == reference_csv_rows(u, p)
    assert emit_rows(u, p, "table") == table_rows(u, p)


def test_empty_table():
    assert emit_rows([], []) == reference_json({"meta": {"x": 0.5}, "rows": []})
    assert csv_rows([], []) == ""
    assert emit_rows([], [], "table") == table_rows([], [])


@pytest.mark.parametrize("count", [1, 2, 3, 4, 7, 9])
def test_block_boundaries(monkeypatch, count):
    monkeypatch.setattr(cli, "_ROW_BLOCK", 3)
    u = [1.5 * k for k in range(count)]
    p = [1.0 / (k + 1) for k in range(count)]
    expected = reference_json({"meta": {"x": 0.5}, "rows": reference_rows(u, p)})
    assert emit_rows(u, p) == expected
    assert csv_rows(u, p) == reference_csv_rows(u, p)
    assert emit_rows(u, p, "table") == table_rows(u, p)


finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(finite, finite), max_size=20))
def test_random_rows_match_reference(rows):
    u, p = [r[0] for r in rows], [r[1] for r in rows]
    expected = reference_json({"meta": {"x": 0.5}, "rows": reference_rows(u, p)})
    assert emit_rows(u, p) == expected
    assert csv_rows(u, p) == reference_csv_rows(u, p)
    assert emit_rows(u, p, "table") == table_rows(u, p)


# -- the column kinds: whole floats print through %d, and a JSON float
#    column through %.12g where that text is its token ----------------------

# the values each kind's test turns on: ±0, subnormals, the edge of the
# normal range, non-finite values, values that round to a whole number at
# 12 digits, and the band from 1e12 - 1 to 1e16 where repr stays positional
EDGES = [
    0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 2.3e-308,
    math.nan, math.inf, -math.inf, 1.0, -7.0, 2.9999999999996, 0.99999999999996,
    -0.99999999999996, 999999999999.0, 999999999999.4, 999999999999.6, 1e12,
    1234567890123.0, 1e16, 1.7976931348623157e308, 1e-5, 9.99999999999996e-05,
]
whole = st.integers(-10 ** 12 + 1, 10 ** 12 - 1).map(float)
near_whole = st.tuples(
    st.integers(-10 ** 6, 10 ** 6), st.floats(-1e-11, 1e-11)
).map(lambda t: t[0] * (1.0 + t[1]) + t[1])
band = st.floats(1e12 - 1.0, 1e16) | st.floats(-1e16, -(1e12 - 1.0))
subnormal = st.floats(-2.3e-308, 2.3e-308)
fraction = st.floats(1e-300, 1e11, exclude_min=True).filter(lambda x: not x.is_integer())
cell = st.one_of(
    st.floats(), st.sampled_from(EDGES), whole, near_whole, band, subnormal, fraction
)
# one family per column, so whole and token columns occur, and now and then
# one cell of any kind in it
column = st.sampled_from([whole, fraction, near_whole, band, subnormal, cell]).flatmap(
    lambda family: st.lists(family, min_size=1, max_size=12)
)


@settings(max_examples=300, deadline=None)
@given(column, column, st.lists(st.tuples(st.integers(0, 11), cell), max_size=2),
       st.sampled_from([None, 3]))
def test_float_columns_match_reference(u, p, swaps, block):
    size = min(len(u), len(p))
    u, p = u[:size], p[:size]
    for i, x in swaps:  # a stray cell, in either column
        (u if i % 2 else p)[i % size] = x
    expected = reference_json({"meta": {"x": 0.5}, "rows": reference_rows(u, p)})
    with contextlib.ExitStack() as stack:
        if block is not None:
            stack.enter_context(mock.patch.object(cli, "_ROW_BLOCK", block))
        assert emit_rows(u, p) == expected
        assert csv_rows(u, p) == reference_csv_rows(u, p)


def csv_kind(values) -> str:
    return cli._kind(np.asarray(values, dtype=float), cli._CSV)


def json_kind(values) -> str:
    return cli._kind(np.asarray(values, dtype=float), cli._JSON)


@pytest.mark.parametrize("at", [0, 2, 4])
@pytest.mark.parametrize("x, kind", [
    (-0.0, "f"), (1e12 - 1.0, "d"), (1e12, "f"), (math.nan, "f"), (2.5, "f"),
])
def test_whole_column_with_one_odd_cell(x, kind, at):
    # -0.0 prints as -0, 1e12 as 1e+12 and nan as "nan": each falls back to
    # the per-value path; 1e12 - 1 is the largest whole number %d takes
    u = [1.0, 2.0, 3.0, 4.0, 5.0]
    u[at] = x
    p = [0.5, 0.25, 0.125, 0.0625, 0.0625]
    assert csv_kind(u) == json_kind(u) == kind
    assert json_kind(p) == "g"
    expected = reference_json({"meta": {"x": 0.5}, "rows": reference_rows(u, p)})
    assert emit_rows(u, p) == expected
    assert csv_rows(u, p) == reference_csv_rows(u, p)
    assert emit_rows(u, p, "table") == table_rows(u, p)


@pytest.mark.parametrize("x", EDGES)
def test_token_column_with_one_odd_cell(x):
    # a column takes %.12g only where that text is the token of every cell
    p = [0.5, 0.25, x, 1e-9, 0.3]
    if json_kind(p) == "g":
        assert format(x, ".12g") == json.dumps(reference_round_floats(x))
    expected = reference_json({"meta": {"x": 0.5}, "rows": reference_rows(p, p)})
    assert emit_rows(p, p) == expected


@pytest.mark.parametrize("count", [1, 2, 3, 4, 7, 9])
def test_new_slots_across_blocks(monkeypatch, count):
    monkeypatch.setattr(cli, "_ROW_BLOCK", 3)
    u = [float(k - 3) for k in range(count)]
    p = [1.0 / (k + 3) for k in range(count)]
    assert csv_kind(u) == "d" and json_kind(p) == "g"
    expected = reference_json({"meta": {"x": 0.5}, "rows": reference_rows(u, p)})
    assert emit_rows(u, p) == expected
    assert csv_rows(u, p) == reference_csv_rows(u, p)
    assert emit_rows(u, p, "table") == table_rows(u, p)


def test_printed_columns_take_the_new_slots():
    # the coin toss's U_n = n prints through %d, and the probabilities
    # through %.12g in JSON; the run-length values 1 + log2 N, whole at
    # N = 1, 2, 4, ..., keep the per-value path
    dist = posterior(PriorSpec("luce"), bernoulli_utilities(), -0.001)
    _, u, p = dist.columns(dist.n_trunc)
    assert csv_kind(u) == json_kind(u) == "d" and json_kind(p) == "g"
    assert csv_kind(p) == "f"  # CSV's slot is %.12g already
    assert cli._kind(u) == "f"  # the table's 4 digits take no whole-number slot
    _, u, p = repeated_game_posterior(-1.3).columns(50)
    assert json_kind(u) == "f" and json_kind(p) == "g"


# -- no state kept between calls -----------------------------------------

SRC = str(Path(petersburg.__file__).resolve().parents[1])


def fresh_process(argv: list[str]) -> tuple[int, str, str]:
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from petersburg.cli import main; "
         "sys.exit(main(sys.argv[1:]))", *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC}, timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_parser_reuse_leaks_no_state(capsys):
    sim = ["simulate", "--target", "repeated", "--replications", "20",
           "--format", "json", "--no-timestamp"]
    calls = [
        ["simulate", "--n-games", "4", "--replications", "x"],
        [*sim, "--n-games", "8", "16"],
        sim,
    ]
    for argv in calls:
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == fresh_process(argv)
    assert code == 0
    assert [r["n_games"] for r in json.loads(captured.out)["runs"]] == cli.RunConfig().n_games
