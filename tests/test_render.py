"""Bulk row rendering: CLI JSON and CSV stay byte-identical to the per-row
encoder they replaced.

The reference below is that encoder, kept here: every payload is built as a
dict with one dict per row, rounded by ``reference_round_floats`` and
encoded by ``json.dumps(..., sort_keys=True, indent=2)``; CSV rows are
written one f-string per row.
"""

import contextlib
import io
import json
import math
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import petersburg
from petersburg import (
    ExpectedUtilitySeq,
    GameFamily,
    Lottery,
    PriorSpec,
    UtilitySpec,
    bernoulli_utilities,
    calibrate_bernoulli_disbelief,
    posterior,
    repeated_game_posterior,
    repeated_optimal,
)
from petersburg import cli, posteriors
from petersburg.posteriors import CSV_ROW, format_rows

# -- the per-row reference encoder ----------------------------------------


def reference_fmt(x, sig: int = 12) -> str:
    if isinstance(x, float):
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return f"{x:.{sig}g}"
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


def reference_distribution_json(dist, calib=None, timestamp=None) -> str:
    meta = {
        "beta": dist.beta,
        "n_trunc": dist.n_trunc,
        "tail_bound": dist.tail_bound,
        "tail_rule": dist.tail_rule,
    }
    if calib is not None:
        meta["calibration"] = calib.to_json()
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


def reference_repeated(beta: float, rows: int, fmt: str) -> str:
    result = repeated_optimal(beta)
    dist = repeated_game_posterior(beta)
    stop = min(rows, dist.n_trunc)
    if fmt == "json":
        return reference_json({
            "result": result.to_json(),
            "posterior_meta": {
                "beta": dist.beta,
                "n_trunc": dist.n_trunc,
                "tail_bound": dist.tail_bound,
                "tail_rule": dist.tail_rule,
            },
            "rows": reference_rows(dist.utilities[:stop], dist.probs[:stop]),
        })
    return (
        f"# beta: {beta:.12g}\n"
        f"# u_opt: {result.u_opt:.12g}\n"
        f"# n_opt_continuous: {result.n_opt_continuous:.12g}\n"
        f"# n_opt: {result.n_opt}\n"
        f"# n_trunc: {dist.n_trunc}\n"
        f"# tail_bound: {reference_fmt(dist.tail_bound)}\n"
        f"# tail_rule: {dist.tail_rule}\n"
        "N,U_N,prob\n"
    ) + reference_csv_rows(dist.utilities[:stop], dist.probs[:stop])


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
    dist = posterior(PriorSpec.from_json(doc), bernoulli_utilities(), beta)
    argv = ("distribution", "--prior", kind, *flags, f"--beta={beta!r}", "--no-timestamp")
    assert run(capsys, *argv, "--format", "json") == reference_distribution_json(dist)
    assert run(capsys, *argv, "--format", "csv") == reference_distribution_csv(dist)


def test_calibrated_distribution_matches_reference(capsys):
    calib = calibrate_bernoulli_disbelief()
    dist = posterior(PriorSpec.luce(), bernoulli_utilities(), -calib.abs_beta)
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
    dist = posterior(PriorSpec.luce(), bernoulli_utilities(), -0.5)
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
    lotteries = [
        Lottery(tuple((float(m), 1.0 / n) for m in range(1, n + 1)))
        for n in range(1, 7)
    ]
    path = tmp_path / "family.json"
    path.write_text(json.dumps(GameFamily.custom(lotteries).to_json()))
    seq = ExpectedUtilitySeq.from_family(
        GameFamily.custom(lotteries), UtilitySpec.geometric(1000.0)
    )
    dist = posterior(PriorSpec.luce(), seq, -1e-16)
    assert dist.utilities.max() > 1e17
    argv = ("distribution", "--game", str(path), "--utility", "geometric",
            "--base", "1000", "--beta=-1e-16", "--no-timestamp")
    out = run(capsys, *argv, "--format", "json")
    assert out == reference_distribution_json(dist)
    assert "200200200200000.0" in out
    assert run(capsys, *argv, "--format", "csv") == reference_distribution_csv(dist)


# -- the formatter itself -------------------------------------------------

EDGE_VALUES = [-0.0, 1e-320, 1.0, 0.1, 1234567890123.0, 1e16]


def emit_rows(utilities, probs) -> str:
    cfg = cli.RunConfig(output_format="json", timestamp=False)
    n = range(1, len(utilities) + 1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
            cli._emit(cfg, cli.Emission(
            payload={"meta": {"x": 0.5}},
            rows=(n, np.array(utilities, dtype=float), np.array(probs, dtype=float)),
        ))
    return out.getvalue()


def csv_rows(utilities, probs) -> str:
    n = range(1, len(utilities) + 1)
    columns = (n, np.array(utilities, dtype=float), np.array(probs, dtype=float))
    return "".join(format_rows(CSV_ROW, columns))


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
    assert '"u": 1234567890120.0' in expected  # repr, not %.12g's 1.23456789012e+12
    assert '"u": 1e+16' in expected


def test_non_finite_values_follow_the_reference():
    u = [math.inf, -math.inf, math.nan, 1.7976931348623157e308, 2.5]
    p = [0.25, 0.5, 0.125, 0.0625, 0.0625]
    expected = reference_json({"meta": {"x": 0.5}, "rows": reference_rows(u, p)})
    assert emit_rows(u, p) == expected
    assert '"u": "inf"' in expected and '"u": "nan"' in expected


def test_empty_table():
    assert emit_rows([], []) == reference_json({"meta": {"x": 0.5}, "rows": []})
    assert csv_rows([], []) == ""


@pytest.mark.parametrize("count", [1, 2, 3, 4, 7, 9])
def test_block_boundaries(monkeypatch, count):
    monkeypatch.setattr(posteriors, "_ROW_BLOCK", 3)
    u = [1.5 * k for k in range(count)]
    p = [1.0 / (k + 1) for k in range(count)]
    expected = reference_json({"meta": {"x": 0.5}, "rows": reference_rows(u, p)})
    assert emit_rows(u, p) == expected
    assert csv_rows(u, p) == reference_csv_rows(u, p)


finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(finite, finite), max_size=20))
def test_random_rows_match_reference(rows):
    u, p = [r[0] for r in rows], [r[1] for r in rows]
    expected = reference_json({"meta": {"x": 0.5}, "rows": reference_rows(u, p)})
    assert emit_rows(u, p) == expected
    assert csv_rows(u, p) == reference_csv_rows(u, p)


# -- one parser for the whole process -------------------------------------

SRC = str(Path(petersburg.__file__).resolve().parents[1])


def fresh_process(argv: list[str]) -> tuple[int, str, str]:
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from petersburg.cli import main; "
         "sys.exit(main(sys.argv[1:]))", *argv],
        capture_output=True, text=True, env={"PYTHONPATH": SRC}, timeout=120,
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
    assert cli._build_parser() is cli._build_parser()
