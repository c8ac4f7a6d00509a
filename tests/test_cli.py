"""Command-line surface: outputs, config handling, and exit codes."""

import json
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from petersburg import DomainError, cli, roulette_sequence
from petersburg.cli import _COUNT, _OPTIONS, RunConfig, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCalibrateCommand:
    def test_closed_route_value(self, capsys):
        code, out, _ = run(
            capsys, "calibrate", "--game", "bernoulli", "--prior", "luce",
            "--format", "json", "--no-timestamp",
        )
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["abs_beta"] - 1.157) < 1e-3
        assert doc["route"] == "closed"

    def test_general_route_flagged(self, capsys):
        code, out, _ = run(
            capsys, "calibrate", "--prior", "power", "--alpha", "1.0",
            "--format", "json", "--no-timestamp",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["route"] == "general"
        # power(alpha=1) is the same weighting, so the root must agree
        assert abs(doc["abs_beta"] - 1.1568601072) < 1e-6

    @pytest.mark.parametrize("max_index", ["10", "20"])
    def test_unresolvable_root_exits_three(self, capsys, max_index):
        # so short a support cannot be truncated below some b (3.70 at 10,
        # 1.89 at 20), where f jumps from -inf to a positive value: a sign
        # change with no root
        code, out, err = run(capsys, "calibrate", "--prior", "power", "--alpha", "2",
                             "--max-index", max_index)
        assert (code, out) == (3, "")
        assert err.startswith("error:solver:") and "no self-consistent root" in err

    def test_zero_variance_family_exits_three(self, capsys, tmp_path):
        lottery = {
            "outcomes": [{"payoff": 2.0, "prob": 0.5}, {"payoff": 4.0, "prob": 0.25}],
            "residual": 0.25,
        }
        flat = {"family": "custom", "lotteries": [lottery, lottery]}
        path = tmp_path / "flat.json"
        path.write_text(json.dumps(flat))
        code, _, err = run(capsys, "calibrate", "--game", str(path))
        assert code == 3
        assert err.startswith("error:solver:")


class TestOptimalCommand:
    def test_calibrated_beta(self, capsys):
        code, out, _ = run(
            capsys, "optimal", "--beta", "-1.157", "--format", "json",
            "--no-timestamp",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["n_opt"] == 1
        assert doc["bracket_low"] == 1 and doc["bracket_high"] == 1

    def test_omitting_beta_triggers_calibration(self, capsys):
        code, out, _ = run(
            capsys, "optimal", "--format", "json", "--no-timestamp"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["n_opt"] == 1
        assert abs(doc["calibration"]["abs_beta"] - 1.157) < 1e-3


    def test_continuous_optimum_computed_once(self, capsys, monkeypatch):
        calls = []
        original = cli.continuous_optimum

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(cli, "continuous_optimum", counted)
        code, _, _ = run(capsys, "optimal", "--prior", "log", "--beta=-0.7")
        assert code == 0
        assert len(calls) == 1


class TestDistributionCommand:
    def test_positive_beta_exits_two(self, capsys):
        code, _, err = run(capsys, "distribution", "--beta", "0.5")
        assert code == 2
        assert err.startswith("error:domain:")

    def test_truncation_failure_exits_three(self, capsys):
        code, _, err = run(
            capsys, "distribution", "--beta", "-0.1", "--max-index", "50"
        )
        assert code == 3
        assert err.startswith("error:solver:")

    def test_overflowing_weight_exits_two(self, capsys, tmp_path):
        # beta * 1e308 overflows; this once printed prob nan and exited 0
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"family": "custom", "lotteries": [
            {"outcomes": [{"payoff": 1e308, "prob": 1.0}]},
            {"outcomes": [{"payoff": 1.0, "prob": 1.0}]},
        ]}))
        code, out, err = run(capsys, "distribution", "--game", str(path), "--beta", "2")
        assert (code, out) == (2, "")
        assert err.startswith("error:domain:") and "overflow" in err

    def test_utility_overflow_exits_two(self, capsys, tmp_path):
        # (2^512)^2 and (1e200)^2 overflow binary64; both once ended in an
        # OverflowError traceback
        code, out, err = run(
            capsys, "distribution", "--utility", "power", "--exponent", "2",
            "--beta", "0.3",
        )
        assert (code, out) == (2, "") and err.startswith("error:domain:")
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"family": "custom", "lotteries": [
            {"outcomes": [{"payoff": 1e200, "prob": 1.0}]},
            {"outcomes": [{"payoff": 2.0, "prob": 1.0}]},
        ]}))
        code, out, err = run(
            capsys, "distribution", "--game", str(path), "--utility", "power",
            "--exponent", "2", "--beta=-1",
        )
        assert (code, out) == (2, "")
        assert err.startswith("error:domain:power utility") and "overflows" in err

    def test_csv_matches_library(self, capsys):
        code, out, _ = run(
            capsys, "distribution", "--beta", "-1.0", "--format", "csv",
            "--no-timestamp",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[3] == "# tail_rule: majorant"
        assert lines[4] == "n,U_n,prob"
        np.testing.assert_allclose(
            float(lines[5].split(",")[2]), 0.39957640089, rtol=1e-9
        )


class TestRouletteCommand:
    @pytest.mark.parametrize("stages", ["0", "-1"])
    @pytest.mark.parametrize("command", [["roulette"], ["simulate", "--target", "martingale"]])
    def test_no_stages_is_domain_error(self, capsys, command, stages):
        # roulette once printed an empty table and exited 0
        code, out, err = run(capsys, *command, f"--stages={stages}")
        assert (code, out) == (2, "")
        assert err.startswith("error:domain:n_stages must be a positive integer")

    def test_stage_table(self, capsys):
        code, out, _ = run(
            capsys, "roulette", "--stages", "2", "--format", "json",
            "--no-timestamp",
        )
        assert code == 0
        doc = json.loads(out)
        stage1 = doc["stages"][0]
        expected = roulette_sequence(2).p_stop[0]
        np.testing.assert_allclose(stage1["p_stop"], expected, rtol=1e-9)


class TestSimulateCommand:
    def test_martingale_rows(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--target", "martingale", "--stages", "2",
            "--replications", "5000", "--seed", "1", "--format", "csv",
            "--no-timestamp",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[6] == "stage,mean,stderr"
        assert len(lines) == 9

    def test_repeated_rows(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--target", "repeated", "--n-games", "4", "8",
            "--replications", "200", "--format", "csv", "--no-timestamp",
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 3
        assert lines[1].split(",")[0] == "4"


class TestRepeatedCommand:
    def test_summary_fields(self, capsys):
        code, out, _ = run(
            capsys, "repeated", "--beta", "-0.25", "--max-index", "20000",
            "--format", "json", "--no-timestamp",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["n_opt"] == 8
        assert doc["result"]["u_opt"] == 4.0

    def test_omitting_beta_calibrates(self, capsys):
        code, out, _ = run(capsys, "repeated", "--rows", "3", "--format", "json", "--no-timestamp")
        assert code == 0
        doc = json.loads(out)
        # the root of b = sigma(-b) over all run lengths, 1.5652163276725881...
        assert doc["calibration"]["abs_beta"] == 1.56521632767
        assert doc["calibration"]["evaluations"] <= 15
        assert doc["result"]["beta"] == -1.56521632767
        assert [row["n"] for row in doc["rows"]] == [1, 2, 3]

    @pytest.mark.parametrize("beta", ["-0.0001", "-0.000975"])
    def test_optimum_overflow_is_domain_error(self, capsys, beta):
        # N* = 2^(1/|beta| - 1) leaves binary64 once 1/|beta| reaches 1025
        code, out, err = run(capsys, "repeated", f"--beta={beta}", "--no-timestamp")
        assert (code, out) == (2, "")
        assert err.startswith("error:domain:optimal game count") and "overflows" in err


# a value the library refuses exits 2 with the library's one message for it
@pytest.mark.parametrize("argv, message", [
    (["repeated", "--beta", "0.5"], "beta must be negative for unbounded utilities, got 0.5"),
    (["simulate", "--replications", "0"], "replications must be a positive integer, got 0"),
    (["distribution", "--beta=-1", "--max-index", "0"],
     "max_index must be a positive integer, got 0"),
])
def test_library_check_messages(capsys, argv, message):
    assert run(capsys, *argv, "--no-timestamp") == (2, "", f"error:domain:{message}\n")


class TestNegativeFloatFlags:
    # a separate value that starts with one dash is a value, exponent or not
    def test_beta_in_exponent_form(self, capsys):
        code, out, err = run(
            capsys, "optimal", "--beta", "-1e-3", "--format", "json",
            "--no-timestamp",
        )
        assert code == 0, err
        assert json.loads(out)["beta"] == -0.001

    def test_logit_offset_in_exponent_form(self, capsys):
        code, out, err = run(
            capsys, "optimal", "--prior", "logit", "--b", "1.0", "--gamma",
            "0.5", "--c", "-8.3e-05", "--beta", "-0.3", "--format", "json",
            "--no-timestamp",
        )
        assert code == 0, err
        separate = out
        code, out, _ = run(
            capsys, "optimal", "--prior", "logit", "--b", "1.0", "--gamma",
            "0.5", "--c=-8.3e-05", "--beta=-0.3", "--format", "json",
            "--no-timestamp",
        )
        assert code == 0 and out == separate

    def test_unknown_dash_argument_still_rejected(self, capsys):
        code, _, err = run(capsys, "optimal", "--beta", "-1e-3x")
        assert code == 1
        assert err.startswith("error:config:")


class TestConfigHandling:
    def test_flags_override_config(self, capsys, tmp_path):
        cfg = RunConfig(command="optimal", beta=-0.25)
        path = tmp_path / "run.json"
        path.write_text(json.dumps(asdict(cfg)))
        code, out, _ = run(
            capsys, "optimal", "--config", str(path), "--beta", "-1.157",
            "--format", "json", "--no-timestamp",
        )
        assert code == 0
        assert json.loads(out)["n_opt"] == 1

    def test_round_trip_reproduces_output(self, capsys, tmp_path):
        emitted = tmp_path / "resolved.json"
        for argv in (
            ["optimal", "--beta", "-0.4", "--format", "json"],
            # the default p_win, 18/38, and this beta once lost digits on replay
            ["roulette", "--stages", "40", "--format", "json"],
            ["distribution", "--beta=-0.123456789012345", "--format", "csv"],
        ):
            code, first, _ = run(
                capsys, *argv, "--no-timestamp", "--emit-config", str(emitted),
            )
            assert code == 0
            code, second, _ = run(
                capsys, argv[0], "--config", str(emitted)
            )
            assert code == 0
            assert first == second, argv

    def test_unknown_config_key_exits_one(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"command": "optimal", "bogus": 1}))
        code, _, err = run(capsys, "optimal", "--config", str(path))
        assert code == 1
        assert err.startswith("error:config:")

    def test_bad_flag_exits_one(self, capsys):
        code, _, err = run(capsys, "optimal", "--prior", "bogus")
        assert code == 1
        assert err.startswith("error:config:")

    @pytest.mark.parametrize("command", ["distribution", "repeated", "roulette"])
    def test_negative_rows_exits_one(self, capsys, tmp_path, command):
        # a negative --rows once sliced the table from its end
        code, out, err = run(capsys, command, "--beta", "-2", "--rows", "-3")
        assert (code, out) == (1, "")
        assert err.startswith("error:config:rows: invalid nonnegative int value: -3")
        path = tmp_path / "rows.json"
        path.write_text(json.dumps({"rows": -3}))
        code, _, err = run(capsys, command, "--beta", "-2", "--config", str(path))
        assert code == 1 and err.startswith("error:config:rows")
        code, _, _ = run(capsys, command, "--beta", "-2", "--rows", "0")
        assert code == 0

    def test_repeated_rejects_other_priors(self, capsys, tmp_path):
        # the run-length table has the luce weights whatever the prior
        code, out, err = run(
            capsys, "repeated", "--prior", "power", "--alpha", "3", "--beta", "-1"
        )
        assert (code, out) == (1, "")
        assert err.startswith("error:config:repeated takes only the luce prior")
        path = tmp_path / "prior.json"
        path.write_text(json.dumps({"prior": {"kind": "log", "u0": 1.0}}))
        code, _, err = run(capsys, "repeated", "--beta", "-1", "--config", str(path))
        assert code == 1 and err.startswith("error:config:repeated")
        code, _, _ = run(capsys, "repeated", "--prior", "luce", "--beta", "-1", "--rows", "2")
        assert code == 0

    @pytest.mark.parametrize("doc, message", [
        ({"output_format": "xml"}, "output_format: invalid choice (one of table, csv, json)"),
        ({"timestamp": "no"}, "timestamp: invalid bool value: 'no'"),
    ], ids=["output_format", "timestamp"])
    def test_config_values_checked_like_flags(self, capsys, tmp_path, doc, message):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "optimal", "--beta=-1", "--config", str(path))
        assert (code, out) == (1, "")
        assert err.startswith(f"error:config:{message}")

    def test_run_config_json_round_trip(self):
        cfg = RunConfig(command="roulette", stages=7, beta=-0.5)
        again = RunConfig.from_json(json.loads(json.dumps(asdict(cfg))))
        assert again == cfg



# a value of the wrong type for each option type, and a bad flag string for
# it (None where no flag string can give one)
BAD_VALUES = {
    int: (10.7, "10.7"),
    _COUNT: (-1, "-1"),
    float: ("1", "nan"),
    str: (5, None),
    bool: ("no", None),
    dict: ([1], "[1]"),
    list: (8, "x"),
}


def _config_doc(key, value):
    section, _, leaf = key.rpartition(".")
    return {section: {leaf: value}} if section else {key: value}


@pytest.mark.parametrize("opt", _OPTIONS, ids=lambda opt: opt.key)
def test_every_option_checks_file_and_flag(capsys, tmp_path, opt):
    bad, flag_value = ("weird", "weird") if isinstance(opt.type, tuple) else BAD_VALUES[opt.type]
    path = tmp_path / "run.json"
    path.write_text(json.dumps(_config_doc(opt.key, bad)))
    code, out, err = run(capsys, "simulate", "--config", str(path))
    assert (code, out) == (1, "")
    assert err.startswith(f"error:config:{opt.key}: invalid ")
    if opt.flag and flag_value is not None:
        if opt.type is dict:  # --game reads a file
            (tmp_path / "game.json").write_text(flag_value)
            flag_value = str(tmp_path / "game.json")
        code, out, err = run(capsys, "simulate", f"{opt.flag}={flag_value}")
        assert (code, out) == (1, "")
        assert err.startswith("error:config:") and (opt.flag in err or opt.key in err), err


@pytest.mark.parametrize("doc, key", [
    ({"sim": {"replications": 10.7}}, "sim.replications"),
    ({"truncation": {"max_index": 1e3}}, "truncation.max_index"),
    ({"sim": {"seed": "3"}}, "sim.seed"),
    ({"beta": "-1"}, "beta"),
    ({"sim": {"bogus": 1}}, "unknown config keys: ['sim.bogus']"),
    ({"truncation": {"foo": 1}}, "unknown config keys: ['truncation.foo']"),
    ({"beta": True}, "beta"),
    ({"sim": {"replications": True}}, "sim.replications"),
    ({"prior": {"kind": "weird"}}, "prior.kind"),
    ({"stages": 2.5}, "stages"),
    ({"n_games": 8}, "n_games"),
    ({"n_games": [8, 2.5]}, "n_games"),
    ({"n_games": []}, "n_games"),
    ({"rows": None}, "rows"),
    ({"x0": "1"}, "x0"),
    ({"beta": 1e400}, "beta"),
    ({"x0": 10 ** 400}, "x0"),
    ({"sim": 5}, "sim"),
    ([1], "a config file holds one JSON object"),
    ({"prior": {"alpha": 2.0}}, "prior lacks the key 'kind'"),
    ({"game": {"family": "custom", "lotteries": [{"outcomes": [{"payoff": "x", "prob": 1}]}]}},
     "game: could not convert string to float: 'x'"),
    ({"game": {"family": "custom", "lotteries": [{"outcomes": [{"payoff": 2.0}]}]}},
     "game lacks the key 'prob'"),
], ids=repr)
def test_config_probes_exit_one(capsys, tmp_path, doc, key):
    path = tmp_path / "run.json"
    # NaN and Infinity are what Python's json writes for 1e400; it reads them back
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "distribution", "--beta=-1", "--config", str(path))
    assert (code, out) == (1, "")
    assert err.startswith(f"error:config:{key}")


@pytest.mark.parametrize("argv, key", [
    (["distribution", "--beta=-1", "--rel-tol", "nan"], "truncation.rel_tol"),
    (["simulate", "--target", "martingale", "--x0", "inf"], "x0"),
    (["optimal", "--beta=-inf"], "beta"),
    (["repeated", "--beta", "nan"], "beta"),
    (["calibrate", "--prior", "power", "--alpha", "inf"], "prior.alpha"),
    (["calibrate", "--prior", "power"], "prior lacks the key 'alpha'"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
def test_flag_probes_exit_one(capsys, argv, key):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, ""), err
    assert err.startswith("error:config:") and key in err, err


def test_file_values_act_as_flags(capsys, tmp_path):
    # a JSON integer for a float option is that float, and null is the
    # default of beta
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"x0": 2, "beta": None}))
    code, by_file, _ = run(capsys, "roulette", "--config", str(path), "--format", "json",
                           "--no-timestamp")
    assert code == 0
    code, by_flag, _ = run(capsys, "roulette", "--x0", "2", "--format", "json", "--no-timestamp")
    assert code == 0 and by_file == by_flag
    assert json.loads(by_file)["x0"] == 2.0 and '"x0": 2.0' in by_file


def test_sections_replace_or_merge(capsys, tmp_path):
    path, emitted = tmp_path / "run.json", tmp_path / "resolved.json"
    path.write_text(json.dumps({"prior": {"kind": "log", "u0": 3.0}, "sim": {"seed": 5}}))

    def resolved(*flags):
        code, _, err = run(capsys, "calibrate", "--config", str(path), *flags,
                           "--emit-config", str(emitted))
        assert code == 0, err
        return json.loads(emitted.read_text())

    doc = resolved()
    # a file's prior replaces the default, its sim merges into the default
    assert doc["prior"] == {"kind": "log", "u0": 3.0}
    assert doc["sim"] == {**RunConfig().sim, "seed": 5}
    # a flag's parameter merges into the file's prior; a --prior flag
    # starts a fresh one
    assert resolved("--u0", "2")["prior"] == {"kind": "log", "u0": 2.0}
    assert resolved("--prior", "log")["prior"] == {"kind": "log"}
    assert resolved("--alpha", "2", "--prior", "power")["prior"] == {"kind": "power", "alpha": 2.0}


def test_library_bug_is_not_a_config_error(monkeypatch):
    # only config, domain and solver errors become error lines
    def bug(cfg):
        raise TypeError("a bug")

    monkeypatch.setitem(cli._HANDLERS, "roulette", bug)
    with pytest.raises(TypeError, match="a bug"):
        main(["roulette"])


def test_malformed_game_file_exits_one(capsys, tmp_path):
    path = tmp_path / "family.json"
    path.write_text(json.dumps({"family": "custom", "lotteries": [
        {"outcomes": [{"payoff": 2.0, "prob": 0.5}], "residual": 0.5},
        {"outcomes": [{"payoff": 4.0}]},
    ]}))
    code, out, err = run(capsys, "distribution", "--beta=-1", "--game", str(path))
    assert (code, out, err) == (1, "", "error:config:game lacks the key 'prob'\n")
    path.write_text("{not json")
    code, _, err = run(capsys, "distribution", "--beta=-1", "--game", str(path))
    assert code == 1 and err.startswith("error:config:game file is not valid JSON")


class TestOutputFiles:
    def test_csv_file_byte_identical(self, capsys, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            code, _, _ = run(
                capsys, "roulette", "--stages", "3", "--format", "csv",
                "--no-timestamp", "--output", str(p),
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert paths[0].read_bytes().startswith(b"stage,u_stop")

    def test_timestamp_header_present_by_default(self, capsys, tmp_path):
        p = tmp_path / "t.csv"
        code, _, _ = run(
            capsys, "roulette", "--stages", "1", "--format", "csv",
            "--output", str(p),
        )
        assert code == 0
        assert p.read_text().startswith("# timestamp: ")

    def test_outdir_env_redirects_relative_paths(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("PETERSBURG_OUTDIR", str(tmp_path))
        code, _, _ = run(
            capsys, "calibrate", "--format", "json", "--no-timestamp",
            "--output", "result.json",
        )
        assert code == 0
        doc = json.loads((tmp_path / "result.json").read_text())
        assert abs(doc["abs_beta"] - 1.157) < 1e-3

    def test_outdir_env_redirects_the_emitted_config_too(self, capsys, tmp_path, monkeypatch):
        # one rule for every path written: both files land under the variable
        outdir, cwd = tmp_path / "out", tmp_path / "cwd"
        outdir.mkdir(), cwd.mkdir()
        monkeypatch.chdir(cwd)
        monkeypatch.setenv("PETERSBURG_OUTDIR", str(outdir))
        code, _, err = run(
            capsys, "optimal", "--beta=-1", "--emit-config", "e.json", "--output", "o.json",
        )
        assert (code, err) == (0, "")
        assert sorted(p.name for p in outdir.iterdir()) == ["e.json", "o.json"]
        assert list(cwd.iterdir()) == []
        assert json.loads((outdir / "e.json").read_text())["beta"] == -1.0



UTILITIES = [
    {"kind": "linear"},
    {"kind": "logarithmic"},
    *({"kind": "power", "exponent": e} for e in (0.5, 0.99, 1.0, 2.0)),
    *({"kind": "geometric", "base": b} for b in (1.5, 2.0, 3.0)),
]


@pytest.mark.parametrize("utility", UTILITIES, ids=lambda u: "-".join(map(str, u.values())))
@pytest.mark.parametrize("family", ["bernoulli", "custom"])
def test_positive_beta_exits_two_iff_declared_unbounded(capsys, tmp_path, family, utility):
    game = {"family": family}
    if family == "custom":
        game["lotteries"] = [
            {"outcomes": [{"payoff": 2.0, "prob": 0.5}], "residual": 0.5},
            {"outcomes": [{"payoff": 2.0, "prob": 0.5}, {"payoff": 4.0, "prob": 0.25}],
             "residual": 0.25},
        ]
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"game": game, "utility": utility}))
    # the declarations themselves are tabled in test_lotteries
    try:
        unbounded = RunConfig(game=game, utility=utility).utilities().unbounded
    except DomainError:  # a bounded coin-toss family: no beta normalizes it
        unbounded = None
    code, _, err = run(capsys, "distribution", "--config", str(path), "--beta", "0.5")
    # a finite family sums at any beta; the coin toss exits 2 either way
    assert code == (0 if family == "custom" else 2), err
    if unbounded:
        assert err.startswith("error:domain:beta must be negative for unbounded")
    elif unbounded is None:
        assert err.startswith(f"error:domain:{utility['kind']} utility bounds the coin-toss")


# U_n = n is known to the sequence alone: these utilities give the coin toss
# under linear utility in every command, to the byte
@pytest.mark.parametrize("command", ["distribution", "optimal", "calibrate"])
@pytest.mark.parametrize("beta", [["--beta=-1e-3"], ["--beta=-0.5"], []],
                         ids=["-1e-3", "-0.5", "calibrated"])
def test_identity_utilities_print_the_linear_coin_toss(capsys, command, beta):
    argv = [command, *beta, "--format", "json", "--no-timestamp"]
    code, linear, err = run(capsys, *argv, "--utility", "linear")
    assert (code, err) == (0, "")
    for utility in (["power", "--exponent", "1"], ["geometric", "--base", "2"]):
        assert run(capsys, *argv, "--utility", *utility) == (0, linear, ""), utility


@pytest.mark.parametrize("utility", [
    ["logarithmic"], ["power", "--exponent", "0.5"], ["geometric", "--base", "1.5"],
], ids=lambda u: "-".join(u))
@pytest.mark.parametrize("command", ["distribution", "optimal", "calibrate"])
def test_bounded_coin_toss_exits_two(capsys, command, utility):
    code, out, err = run(capsys, command, "--beta=-1", "--utility", *utility)
    assert (code, out) == (2, "") and err.startswith("error:domain:"), err
    code, out, err = run(capsys, command, "--utility", *utility)  # calibrated
    assert (code, out) == (2, "") and err.startswith("error:domain:"), err


def test_power_just_above_one_runs(capsys):
    code, out, err = run(capsys, "distribution", "--utility", "power", "--exponent", "1.001",
                         "--beta=-1e-3", "--format", "csv", "--no-timestamp")
    assert (code, err) == (0, "")
    assert out.splitlines()[5].startswith("1,1.00069338746,")


# -- reading argv ---------------------------------------------------------

CUSTOM_GAME = {"family": "custom", "lotteries": [
    {"outcomes": [{"payoff": 2.0, "prob": 0.5}], "residual": 0.5},
]}


def _flag_and_json(opt, default, tmp_path):
    """A value other than the default for option ``opt``: its flag strings
    and the JSON value a config file holds for it."""
    kind = opt.type
    if isinstance(kind, tuple):
        choice = next(c for c in kind if c != default)
        return [choice], choice
    if kind is dict:
        (tmp_path / "game.json").write_text(json.dumps(CUSTOM_GAME))
        return [str(tmp_path / "game.json")], CUSTOM_GAME
    if kind is str:
        return [str(tmp_path / "out.txt")], str(tmp_path / "out.txt")
    if kind is bool:
        return [], False
    if kind is list:
        return ["8", "16"], [8, 16]
    return {int: (["7"], 7), _COUNT: (["3"], 3), float: (["-8.3e-05"], -8.3e-05)}[kind]


@pytest.mark.parametrize("opt", [opt for opt in _OPTIONS if opt.flag], ids=lambda opt: opt.flag)
def test_flag_and_file_give_one_config(capsys, tmp_path, monkeypatch, opt):
    # --flag value, --flag=value and a config file resolve to one config
    monkeypatch.setitem(cli._HANDLERS, "simulate", lambda cfg: cli.Result(doc={}))
    default = asdict(RunConfig(command="simulate"))
    section, _, leaf = opt.key.rpartition(".")
    strings, value = _flag_and_json(opt, (default[section] if section else default).get(leaf),
                                    tmp_path)
    path, emitted = tmp_path / "run.json", tmp_path / "resolved.json"
    path.write_text(json.dumps({section: {**default[section], leaf: value}} if section
                               else {leaf: value}))
    routes = [["--config", str(path)], [opt.flag, *strings]]
    if strings:
        routes.append([f"{opt.flag}={strings[0]}", *strings[1:]])
    docs = []
    for route in routes:
        code, _, err = run(capsys, "simulate", *route, "--emit-config", str(emitted))
        assert (code, err) == (0, ""), route
        docs.append(json.loads(emitted.read_text()))
    assert docs[0] != default
    assert all(doc == docs[0] for doc in docs), routes


def test_list_flag_stops_at_the_next_flag(capsys, tmp_path, monkeypatch):
    monkeypatch.setitem(cli._HANDLERS, "simulate", lambda cfg: cli.Result(doc={}))
    emitted = tmp_path / "resolved.json"
    code, _, err = run(capsys, "simulate", "--n-games", "8", "16", "--format", "json",
                       "--seed", "-3", "--beta=-1", "--beta", "-2e-1",
                       "--emit-config", str(emitted))
    assert (code, err) == (0, "")
    doc = json.loads(emitted.read_text())
    # a separate negative number is a value, and the last of a flag wins
    assert (doc["n_games"], doc["output_format"]) == ([8, 16], "json")
    assert (doc["sim"]["seed"], doc["beta"]) == (-3, -0.2)


@pytest.mark.parametrize("argv, message", [
    ([], "the following arguments are required: command"),
    (["--beta=-1"], "the following arguments are required: command"),
    (["bogus"], "command: invalid choice (one of distribution, optimal, calibrate, repeated, "
                "roulette, simulate): 'bogus'"),
    (["optimal", "--beta"], "argument --beta: expected one argument"),
    (["optimal", "--beta", "--format", "json"], "argument --beta: expected one argument"),
    (["optimal", "--no-timestamp=x"], "unrecognized arguments: --no-timestamp=x"),
    (["optimal", "--bet=-1"], "unrecognized arguments: --bet=-1"),
    (["optimal", "--target", "repeated"], "unrecognized arguments: --target"),
    (["optimal", "--beta=-1", "stray"], "unrecognized arguments: stray"),
    (["optimal", "--rows", "x"], "argument --rows: invalid int value: 'x'"),
    (["optimal", "--beta", "x"], "argument --beta: invalid float value: 'x'"),
    (["simulate", "--n-games", "8", "x"], "argument --n-games: invalid int value: 'x'"),
    (["simulate", "--n-games", "--format", "json"], "n_games: invalid list value: []"),
    (["optimal", "--prior", "x"], "prior.kind: invalid choice (one of luce, power, log, logit): 'x'"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_argv_errors_exit_one(capsys, argv, message):
    assert run(capsys, *argv) == (1, "", f"error:config:{message}\n")


@pytest.mark.parametrize("command", list(cli._HANDLERS))
def test_help_lists_each_flag_with_its_key(capsys, command):
    code, out, err = run(capsys, command, "-h")
    assert (code, err) == (0, "")
    # under a usage line, a blank line, the header and its rule
    listed = {line.split()[0]: line.split()[1:] for line in out.splitlines()[4:]}
    for opt in [opt for opt in _OPTIONS if opt.flag]:
        if opt.command in (None, command):
            assert listed.pop(opt.flag)[0] == opt.key, opt.flag
        else:
            assert opt.flag not in listed
    assert sorted(listed) == ["--config", "--emit-config"]
    assert run(capsys, command, "--beta=-1", "--help") == (0, out, "")


def test_help_without_a_command_lists_the_commands(capsys):
    code, out, err = run(capsys, "-h")
    assert (code, err) == (0, "")
    assert [line.split()[0] for line in out.splitlines()[1:]] == list(cli._HANDLERS)


def test_help_as_a_module():
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "petersburg.cli", "optimal", "-h"],
                          capture_output=True, text=True, env={"PYTHONPATH": src}, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert "--beta          beta" in proc.stdout


@pytest.mark.parametrize("flag, what", [("--output", "output"), ("--emit-config", "emitted config")])
@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_unwritable_path_exits_one(capsys, tmp_path, flag, what, where):
    path = tmp_path / "missing" / "x.json" if where == "missing directory" else tmp_path
    code, out, err = run(capsys, "optimal", "--beta=-1", flag, str(path))
    assert (code, out) == (1, "")
    assert err.startswith(f"error:config:cannot write {what}: [Errno ") and err.count("\n") == 1
