"""No input reaches a traceback, a leaked warning or a silent nan.

A property test draws whole command lines from the CLI's option table, and
named regression tests pin the inputs that once ended in a traceback, a
numpy warning or a nan row.
"""

import contextlib
import io
import json
import math
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from petersburg import DomainError, SimConfig, TruncationPolicy, cli

pytest_plugins = ["pytester"]

EDGE_FLOATS = (
    -1e300, -700.0, -3.0, -1.0, -0.5, -1e-3, -1e-300, 0.0,
    1e-300, 1e-3, 0.1, 0.5, 0.9, 1.0, 2.0, 700.0, 1e300,
)
# per int option, a pool with its edges; max_index and stages stay small
# enough that no draw runs long, and shards is read by nothing
EDGE_INTS = {
    "rows": (-1, 0, 3, 50),
    "truncation.max_index": (0, 1, 4, 64, 2000),
    "sim.seed": (-1, 0, 7, 2 ** 64 - 1, 2 ** 64),
    "sim.replications": (-1, 0, 1, 2, 100),
    "sim.max_tosses": (0, 1, 60, 1023, 1024),
    "sim.parallel_shards": (0, 1, 2),
    "stages": (0, 1, 5, 41, 1100, 13836, 13837),
}
EDGE_GAMES = (-1, 0, 1, 8, 1024, 10 ** 9)


def run_main(argv):
    """(exit code, stdout, stderr, warnings) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue(), [str(w.message) for w in caught]


def _finite(value) -> bool:
    """False for a number, or a string spelling one, that is nan or ±inf."""
    try:
        return math.isfinite(float(value))
    except (TypeError, ValueError):  # text, null
        return True


def _json_cells(doc, key=""):
    if isinstance(doc, dict):
        for k, v in doc.items():
            yield from _json_cells(v, k)
    elif isinstance(doc, list):
        for v in doc:
            yield from _json_cells(v, key)
    else:
        yield key, doc


def _csv_cells(text):
    header = None
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            yield key, value
        elif header is None:
            header = line.split(",")
        else:
            cells = line.split(",")
            assert len(cells) == len(header), line
            yield from zip(header, cells)


def _flag_args(opt, value) -> list[str]:
    if opt.type is bool:
        return [opt.flag]
    if opt.type is list:
        return [opt.flag, *map(str, value)]
    if isinstance(opt.type, tuple) or opt.type is dict:
        return [opt.flag, value]
    return [f"{opt.flag}={value!r}"]


def _values(opt):
    if opt.type is float:
        return st.sampled_from(EDGE_FLOATS)
    if isinstance(opt.type, tuple):
        return st.sampled_from(opt.type)
    if opt.type is list:
        return st.lists(st.sampled_from(EDGE_GAMES), min_size=1, max_size=3)
    if opt.type is dict:
        return st.just("bernoulli")
    if opt.type is bool:
        return st.just(True)
    return st.sampled_from(EDGE_INTS[opt.key])


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(list(cli._HANDLERS)))
    target = draw(st.sampled_from(cli._BY_KEY["target"].type))
    # the flags of the options that the command, or its simulate target,
    # reads; no --output: the fuzz writes no files
    usable = [
        opt for opt in cli._OPTIONS
        if opt.flag and opt.key not in ("output_path", "target")
        and (not opt.readers or {command, f"{command} {target}"} & {*opt.readers})
    ]
    chosen = draw(st.lists(st.sampled_from(usable), unique=True, max_size=6))
    # always a format, so that most outputs are parsed, and a max_index where
    # one is read: the default 10**6 terms would make draws slow
    for opt in (cli._BY_KEY["output_format"], cli._BY_KEY["truncation.max_index"]):
        if opt not in chosen and opt in usable:
            chosen.append(opt)
    argv = [command, "--target", target] if command == "simulate" else [command]
    for opt in chosen:
        argv += _flag_args(opt, draw(_values(opt)))
    return argv


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(command_lines())
def test_fuzzed_command_lines_exit_cleanly(argv):
    try:
        code, out, err, caught = run_main(argv)
    except Exception as exc:  # the property is that none escapes
        pytest.fail(f"{argv} raised {exc!r}")
    assert code in (0, 1, 2, 3), argv
    assert not caught, (argv, caught)
    if code:
        assert err.startswith(("error:config:", "error:domain:", "error:solver:")), err
        assert (err.count("\n"), out) == (1, ""), (argv, err, out[:200])
        return
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "table"
    if fmt == "table":
        return
    cells = _json_cells(json.loads(out)) if fmt == "json" else _csv_cells(out)
    bad = [(k, v) for k, v in cells if k != "tail_bound" and not _finite(v)]
    assert not bad, (argv, bad[:5])


# Inputs that once ended in a traceback, a leaked warning, a nan or a wrong
# exit code, with the exit code and stderr prefix each now ends with.
PROBES = {
    "log-optimum-exp-bracket": (
        ["optimal", "--prior", "log", "--u0", "0.02", "--beta=-1e-3"], 0, ""),
    "power-optimum-check-overflow": (
        ["optimal", "--prior", "power", "--alpha", "300", "--beta=-0.5"], 0, ""),
    "power-optimum-not-a-maximum": (
        ["optimal", "--prior", "power", "--alpha", "6.77", "--beta=-1e12"], 0, ""),
    "log-optimum-zero-step": (["optimal", "--prior", "log", "--beta=-1e300"], 0, ""),
    "log-utility-zero-step": (
        ["optimal", "--utility", "logarithmic", "--beta=-1e300"], 2,
        "error:domain:logarithmic utility bounds the coin-toss expected utilities"),
    "roulette-largest-stage": (["roulette", "--stages", "13836", "--format", "csv"], 0, ""),
    "roulette-stage-overflow": (
        ["roulette", "--stages", "13837"], 2,
        "error:domain:x0 * (2(1-p))^k leaves binary64 past k = 13837; at most 13836 "),
    "roulette-weight-overflow": (
        ["roulette", "--beta", "1e300", "--stages", "600"], 2, "error:domain:"),
    "roulette-huge-bid": (
        ["roulette", "--stages", "40", "--x0", "1e308"], 2,
        "error:domain:x0 * (2(1-p))^k leaves binary64 past k = 11; at most 10 "),
    "roulette-sure-loss": (
        ["roulette", "--p-win", "1e-300", "--stages", "1023"], 2, "error:domain:"),
    "martingale-past-2^1023": (
        ["simulate", "--target", "martingale", "--stages", "1100", "--format", "csv"], 0, ""),
    "martingale-mean-overflow": (
        ["simulate", "--target", "martingale", "--p-win", "0.001", "--stages", "1100"], 2,
        "error:domain:"),
    "repeated-weights-underflow": (["repeated", "--beta=-800", "--rows", "2"], 2,
                                   "error:domain:run-length weights underflow"),
    "repeated-nan-column": (["repeated", "--beta=-1e300"], 2, "error:domain:"),
    "repeated-short-support": (
        ["repeated", "--beta=-1e300", "--max-index", "5"], 2, "error:domain:"),
    "calibration-sigma-overflow": (
        ["calibrate", "--prior", "power", "--alpha", "1", "--utility", "geometric",
         "--base", "1e5"], 3, "error:solver:"),
    "rel-tol-above-one": (
        ["optimal", "--beta=-1", "--rel-tol", "1.5"], 2,
        "error:domain:rel_tol must be in (0, 1)"),
    "rel-tol-with-log-overflow": (
        ["optimal", "--prior", "log", "--u0", "2.5", "--beta=-1e-300", "--rel-tol", "1.93"],
        2, "error:domain:rel_tol"),
}


@pytest.mark.parametrize("name", list(PROBES))
def test_probe(name):
    argv, want, prefix = PROBES[name]
    code, out, err, caught = run_main([*argv, "--no-timestamp"])
    assert (code, caught) == (want, [])
    assert err.startswith(prefix) if prefix else err == ""
    assert "nan" not in out and "inf" not in out


# every count goes through the one index check: 2.5 once reached numpy as a
# TypeError, or passed on as a support size, and True counted as 1
@pytest.mark.parametrize("make, name", [
    (TruncationPolicy, "max_index"),
    (SimConfig, "replications"),
    (SimConfig, "max_tosses"),
    (SimConfig, "parallel_shards"),
])
@pytest.mark.parametrize("value", [2.5, True, 0])
def test_counts_are_positive_ints(make, name, value):
    with pytest.raises(DomainError, match=f"^{name} must be a positive integer, got {value!r}$"):
        make(**{name: value})


@pytest.mark.parametrize("seed", [1.5, True, -1, 2 ** 64])
def test_seed_is_an_unsigned_64_bit_int(seed):
    with pytest.raises(DomainError, match="^seed must fit in an unsigned 64-bit integer$"):
        SimConfig(seed=seed)


PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_failing_property_reports_its_example(pytester):
    # a failing property test, run under this project's pytest settings in a
    # fresh process: the plugin's report imports modules that warn, and with
    # warnings as errors that once ended the run in INTERNALERROR
    test_file = pytester.makepyfile(
        """
        from hypothesis import given, settings, strategies as st

        @settings(database=None)
        @given(st.integers())
        def test_fails(x):
            assert x < 5
        """
    )
    result = pytester.runpytest_subprocess(
        "-c", str(PYPROJECT), "--rootdir", str(pytester.path), "-p", "no:cacheprovider",
        str(test_file),
    )
    result.assert_outcomes(failed=1)
    result.stdout.fnmatch_lines(["*Falsifying example*"])
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()
