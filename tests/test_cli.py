"""Command-line surface: outputs, config handling, and exit codes."""

import json
from dataclasses import asdict

import numpy as np
import pytest

from petersburg import roulette_stage_choice
from petersburg.cli import RunConfig, main


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
        assert lines[3] == "# tail_rule: exact-geometric"
        assert lines[4] == "n,U_n,prob"
        np.testing.assert_allclose(
            float(lines[5].split(",")[2]), 0.39957640089, rtol=1e-9
        )


class TestRouletteCommand:
    def test_stage_table(self, capsys):
        code, out, _ = run(
            capsys, "roulette", "--stages", "2", "--format", "json",
            "--no-timestamp",
        )
        assert code == 0
        doc = json.loads(out)
        stage1 = doc["stages"][0]
        expected = roulette_stage_choice(1)
        np.testing.assert_allclose(stage1["p_stop"], expected.p_stop, rtol=1e-9)


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

    @pytest.mark.parametrize("beta", ["-0.0001", "-0.000975"])
    def test_optimum_overflow_is_domain_error(self, capsys, beta):
        # N* = 2^(1/|beta| - 1) leaves binary64 once 1/|beta| reaches 1025
        code, out, err = run(capsys, "repeated", f"--beta={beta}", "--no-timestamp")
        assert (code, out) == (2, "")
        assert err.startswith("error:domain:optimal game count") and "overflows" in err


class TestNegativeFloatFlags:
    # argparse reads a separate "-1e-3" as an option unless told otherwise
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
        code, first, _ = run(
            capsys, "optimal", "--beta", "-0.4", "--format", "json",
            "--no-timestamp", "--emit-config", str(emitted),
        )
        assert code == 0
        code, second, _ = run(
            capsys, "optimal", "--config", str(emitted)
        )
        assert code == 0
        assert first == second

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
        assert err.startswith("error:config:rows must be a nonnegative integer")
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
        ({"output_format": "xml"}, "output_format must be one of table, csv, json"),
        ({"timestamp": "no"}, "timestamp must be true or false"),
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
    unbounded = RunConfig(game=game, utility=utility).utilities().unbounded
    code, _, err = run(capsys, "distribution", "--config", str(path), "--beta", "0.5")
    # a finite family sums at any beta; a bounded coin-toss family never
    # stops summing, since its weights do not decay
    assert code == (2 if unbounded else 0 if family == "custom" else 3), err
    if unbounded:
        assert err.startswith("error:domain:beta must be negative for unbounded")
