"""The CLI contract as properties: any argv exits 0-3, and a nonzero exit
comes with exactly one ``error:(config|domain|solver):<message>`` line on
stderr, no traceback and nothing on stdout; the config that
``--emit-config`` writes for an argv that exits 0 replays its stdout byte
for byte; and the CSV and JSON of such an argv hold the same numbers, cell
for cell.

The argv are built from ``cli._FLAGS``, three flags in four from those the
command reads under some target: each flag draws from the values of
its option's type, near the edges of its check and past them, given as
``--flag value``, as ``--flag=value`` or with the value missing, and now
and then a stray token.  The values keep every command short (no count
above 1,024).  ``test_robustness.py`` fuzzes well-formed command lines
and checks their output cells; this test is about malformed ones too.
"""

import contextlib
import io
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from petersburg import cli

FLOATS = ["0", "-0", "-1", "-0.5", "-1e-3", "0.3", "1.5", "3", "1e308", "-1e308",
          "nan", "inf", "5e-324", "-5e-324", "x"]
INTS = ["-1", "0", "1", "2", "7", "40", "1000", "1e3", "2.5", "x"]
FAMILY = {"family": "custom", "lotteries": [
    {"outcomes": [{"payoff": 2.0, "prob": 0.5}, {"payoff": 10.0, "prob": 0.3}], "residual": 0.2},
    {"outcomes": [{"payoff": 50.0, "prob": 0.4}], "residual": 0.6},
    {"outcomes": [{"payoff": 4.0, "prob": 0.9}], "residual": 0.1},
]}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Absolute paths by the name a value pool gives them."""
    root = tmp_path_factory.mktemp("contract")
    (root / "family.json").write_text(json.dumps(FAMILY))
    (root / "config.json").write_text(json.dumps({"beta": -0.5, "prior": {"kind": "luce"}}))
    (root / "bad.json").write_text("{not json")
    names = ["family.json", "config.json", "bad.json", "missing.json", "out.txt",
             "no-dir/out.txt"]
    return {name: str(root / name) for name in names}


def values(opt: cli._Option) -> st.SearchStrategy:
    """A flag's value strings: a choice, a number or a file name."""
    if isinstance(opt.type, tuple):
        return st.sampled_from([*opt.type, "other"])
    if opt.type is float:
        return st.sampled_from(FLOATS)
    if opt.type in (int, cli._COUNT, list):
        return st.sampled_from(INTS if opt.type is not list else [*INTS[:4], "8", "1024"])
    if opt.type is dict:
        return st.sampled_from(["bernoulli", "family.json", "bad.json", "missing.json"])
    if opt.key == "config":
        return st.sampled_from(["config.json", "bad.json", "missing.json"])
    return st.sampled_from(["out.txt", "no-dir/out.txt"])  # never a file read


@st.composite
def flag_args(draw, files, flags) -> list[str]:
    """One flag of ``flags`` with its value, in one of its forms."""
    opt = cli._FLAGS[draw(st.sampled_from(flags))]
    if opt.type is bool:
        return [draw(st.sampled_from([opt.flag] * 4 + [f"{opt.flag}=1"]))]
    count = draw(st.sampled_from([1, 1, 2])) if opt.type is list else 1
    strings = [files.get(s, s) for s in (draw(values(opt)) for _ in range(count))]
    form = draw(st.sampled_from(["separate"] * 4 + ["equals"] * 4 + ["missing"]))
    if form == "missing":
        return [opt.flag]
    if form == "equals":
        return [f"{opt.flag}={strings[0]}", *strings[1:]]
    return [opt.flag, *strings]


@st.composite
def argvs(draw, files) -> list[str]:
    command = draw(st.sampled_from([*cli._HANDLERS] * 4 + ["other", "--beta"]))
    # three flags in four from those the command reads under some target,
    # so that enough argv exit 0; the rest from all of cli._FLAGS
    reads = sorted(flag for flag, opt in cli._FLAGS.items()
                   if not opt.readers or command in {r.split()[0] for r in opt.readers})
    argv = [command]
    for _ in range(draw(st.integers(0, 5))):
        argv += draw(flag_args(files, draw(st.sampled_from([reads] * 3 + [sorted(cli._FLAGS)]))))
    if draw(st.integers(0, 19)) == 0:  # a stray token
        argv.insert(draw(st.integers(1, len(argv))), draw(st.sampled_from(["-x", "--", "word"])))
    return argv


ERROR_LINE = re.compile(r"error:(config|domain|solver):.+")


def run(argv: list[str]) -> tuple[int, str, str]:
    """``cli.main``'s exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def test_every_argv_keeps_the_contract(files):
    @settings(max_examples=1000, deadline=None, derandomize=True)
    @given(argvs(files))
    def check(argv):
        code, out, err = run(argv)
        assert code in (0, 1, 2, 3), argv
        if code:
            assert ERROR_LINE.fullmatch(err.rstrip("\n")), (argv, err)
            assert err.count("\n") == 1, (argv, err)
            assert out == "", argv
        else:
            assert err == "", (argv, err)

    check()


def test_emitted_config_replays_stdout(files, tmp_path):
    # every argv of the pool that exits 0 without a timestamp and writes to
    # stdout: its emitted config, given alone to its command, prints the
    # same bytes (--shards is in the pool, so sim.parallel_shards too)
    emitted = str(tmp_path / "emitted.json")
    replayed = []

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(argvs(files))
    def check(argv):
        if any(a.startswith(("--output", "--emit-config")) for a in argv):
            return
        code, out, err = run([*argv, "--no-timestamp", "--emit-config", emitted])
        if code == 0:
            assert run([argv[0], "--config", emitted]) == (0, out, err), argv
            replayed.append(argv)

    check()
    assert len(replayed) >= 50  # the property is not vacuous


# CSV column names whose JSON row key differs; the martingale's JSON holds
# its columns as lists, by these keys, and no rows
ROW_KEYS = {"U_n": "u", "U_N": "u", "N": "n"}
LIST_KEYS = {"mean": "stage_means", "stderr": "stage_stderrs"}


def same(cell: str, value) -> bool:
    """Whether a CSV cell holds the JSON value: the same number, the same
    text (a non-finite float is the text both formats write), a pair
    ``[lo hi]`` item for item, or nothing for null."""
    if isinstance(value, list):
        items = cell[1:-1].split(" ")
        return cell[0] + cell[-1] == "[]" and len(items) == len(value) and all(
            map(same, items, value))
    if value is None:
        return cell in ("", "None")
    if isinstance(value, float):
        return float(cell) == value
    return cell == str(value)


def json_values(doc: dict, key: str) -> list:
    """Every value of ``key`` at the top of a JSON document or one level down."""
    found = [doc[key]] if key in doc else []
    return found + [d[key] for d in doc.values() if isinstance(d, dict) and key in d]


def assert_same_cells(text: str, doc: dict, argv: list[str]) -> None:
    """Each ``# key: value`` comment, field and table cell of a CSV output
    holds the value the JSON document gives it."""
    lines = text.splitlines()
    comments = [line[2:].split(": ", 1) for line in lines if line.startswith("# ")]
    header, *rows = [line.split(",") for line in lines if not line.startswith("# ")]
    for key, cell in comments:
        values = json_values(doc, key)
        assert values and all(same(cell, v) for v in values), (argv, key, cell, values)
    # rows as objects (none at ``repeated --rows 0``)
    tables = [v for v in doc.values()
              if isinstance(v, list) and (not v or isinstance(v[0], dict))]
    if tables:
        (objects,) = tables
        json_rows = [[o[ROW_KEYS.get(h, h)] for h in header] for o in objects]
    elif comments:
        lists = [doc[LIST_KEYS[h]] for h in header[1:]]
        json_rows = [[stage, *values] for stage, values in enumerate(zip(*lists), 1)]
    else:  # a command's fields: a header and one row
        json_rows = [[doc[key] for key in header]]
    assert len(json_rows) == len(rows), argv
    for row, values in zip(rows, json_rows):
        assert len(row) == len(values) and all(map(same, row, values)), (argv, row, values)


def test_csv_and_json_hold_the_same_numbers(files):
    # every argv of the pool that exits 0 writing CSV to stdout, simulate
    # included: its JSON holds each CSV cell, comment and field
    compared = []

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(argvs(files))
    def check(argv):
        if any(a.startswith(("--output", "--emit-config")) for a in argv):
            return
        code, text, _ = run([*argv, "--no-timestamp", "--format", "csv"])
        if code == 0:
            code, doc, err = run([*argv, "--no-timestamp", "--format", "json"])
            assert (code, err) == (0, ""), argv
            assert_same_cells(text, json.loads(doc), argv)
            compared.append(argv[0])

    check()
    assert len(compared) >= 50 and "simulate" in compared  # the property is not vacuous
