"""Scenario parsing and the command-line surface."""

import argparse
import contextlib
import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from teachsel import Exponential, ErrorKind, ScenarioError, Tabulated, load_scenario
from teachsel import cli
from teachsel.cli import COMMANDS, build_parser, format_subset, main, parse_grid

from conftest import write_scenario

THREE_FEATURES = [
    {"name": "test1", "a": 0.3, "h0": 0.8},
    {"name": "test2", "a": 0.2, "h0": 0.2},
    {"name": "test3", "a": 0.1, "h0": 0.15},
]
TWO_FEATURES = [
    {"name": "informative", "a": 1.0, "h0": -0.5},
    {"name": "familiar", "a": 0.4, "h0": 0.75},
]


@pytest.fixture
def three_scenario(tmp_path):
    return write_scenario(
        tmp_path / "three.json", features=THREE_FEATURES, k=3, delta=0.9
    )


@pytest.fixture
def two_scenario(tmp_path):
    return write_scenario(
        tmp_path / "two.json", features=TWO_FEATURES, k=1, delta=0.5
    )


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestLoadScenario:
    def test_valid_file(self, three_scenario):
        scenario = load_scenario(three_scenario)
        np.testing.assert_allclose(scenario.instance.a, [0.3, 0.2, 0.1])
        np.testing.assert_allclose(scenario.instance.h0, [0.8, 0.2, 0.15])
        assert scenario.names == ("test1", "test2", "test3")
        assert scenario.dynamic == Exponential(0.0)

    def test_default_names_are_one_based(self, tmp_path):
        path = write_scenario(
            tmp_path / "s.json", features=[{"a": 0.5, "h0": 0.1}, {"a": 0.4, "h0": 0.2}]
        )
        assert load_scenario(path).names == ("1", "2")

    def test_tabulated_dynamic(self, tmp_path):
        path = write_scenario(
            tmp_path / "s.json",
            features=[{"a": 0.5, "h0": 0.1}],
            dynamic={"type": "tabulated", "params": {"values": [1.0, 0.4], "tail_w": 0.3}},
        )
        assert load_scenario(path).dynamic == Tabulated((1.0, 0.4), tail_w=0.3)

    def test_boundary_delta_rejected(self, tmp_path):
        path = write_scenario(
            tmp_path / "s.json", features=[{"a": 0.5, "h0": 0.1}], delta=1.0
        )
        with pytest.raises(ScenarioError, match="strictly inside"):
            load_scenario(path)

    def test_zero_sigma_rejected(self, tmp_path):
        path = write_scenario(
            tmp_path / "s.json",
            features=[{"a": 0.5, "h0": 0.1}],
            standardization={"mu": [0.0], "sigma": [0.0]},
        )
        with pytest.raises(ScenarioError, match="sigma"):
            load_scenario(path)

    def test_parse_error_reports_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"features": [,]}')
        with pytest.raises(ScenarioError, match="line 1"):
            load_scenario(path)

    def test_missing_field_is_named(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"features": [{"a": 0.5, "h0": 0.1}]}))
        with pytest.raises(ScenarioError, match="'c'"):
            load_scenario(path)

    def test_duplicate_names_rejected(self, tmp_path):
        path = write_scenario(
            tmp_path / "s.json",
            features=[{"name": "x", "a": 0.5, "h0": 0.1},
                      {"name": "x", "a": 0.4, "h0": 0.2}],
        )
        with pytest.raises(ScenarioError, match="unique"):
            load_scenario(path)

    @pytest.mark.parametrize(
        "features, message",
        [
            ([{"a": 0.5, "h0": 0.1}, 7], "features[1]: each feature must be an object"),
            ([{"a": 0.5, "h0": 0.1}, {"h0": 0.2}],
             "features[1]: missing required field 'a'"),
            ([{"a": 0.5, "h0": 0.1}, {"a": 0.4}],
             "features[1]: missing required field 'h0'"),
            ([{"a": True, "h0": 0.1}], "features[0]: field 'a' must be a number"),
            ([{"a": 0.5, "h0": 0.1}, {"a": 0.4, "h0": "0.2"}],
             "features[1]: field 'h0' must be a number"),
            ([{"a": 0.5, "h0": 0.1, "name": 3}],
             "features[0]: field 'name' must be a string"),
            # The first bad feature is reported, and within a feature the
            # first bad field in the order a, h0, name.
            ([{"a": 0.5, "h0": 0.1}, {"a": "x", "name": 1}, []],
             "features[1]: field 'a' must be a number"),
            ([{"a": 0.5, "h0": None, "name": 1}, {"h0": 0.2}],
             "features[0]: field 'h0' must be a number"),
        ],
    )
    def test_bad_feature_message(self, tmp_path, features, message):
        path = write_scenario(tmp_path / "s.json", features=features)
        with pytest.raises(ScenarioError) as excinfo:
            load_scenario(path)
        assert str(excinfo.value) == message

    def test_standardization_applied_to_both_models(self, tmp_path):
        path = write_scenario(
            tmp_path / "s.json",
            features=[{"a": 2.0, "h0": 4.0}],
            c=1.0,
            c_bar=0.5,
            standardization={"mu": [3.0], "sigma": [0.5]},
        )
        scenario = load_scenario(path)
        np.testing.assert_allclose(scenario.instance.a, [1.0])
        assert scenario.instance.c == pytest.approx(7.0)
        np.testing.assert_allclose(scenario.instance.h0, [2.0])
        assert scenario.instance.c_bar == pytest.approx(12.5)

    def test_zero_coefficient_override(self, tmp_path):
        path = write_scenario(
            tmp_path / "s.json", features=[{"a": 0.0, "h0": 0.1}]
        )
        with pytest.raises(ScenarioError):
            load_scenario(path)
        with pytest.warns(UserWarning):
            load_scenario(path, allow_zero_coeff=True)


class TestGridParsing:
    def test_count_form_stays_inside_unit_interval(self):
        grid = parse_grid("4")
        np.testing.assert_allclose(grid, [0.125, 0.375, 0.625, 0.875])

    def test_range_form(self):
        np.testing.assert_allclose(parse_grid("0.1:0.5:3"), [0.1, 0.3, 0.5])

    def test_list_form(self):
        np.testing.assert_allclose(parse_grid("0.2,0.9"), [0.2, 0.9])

    def test_garbage_is_an_input_error(self, capsys, tmp_path):
        scenario = write_scenario(
            tmp_path / "s.json", features=TWO_FEATURES, k=1, delta=0.5
        )
        code, _, err = run_cli(
            capsys, "sweep-delta", scenario, "--grid", "abc"
        )
        assert code == 2
        assert "--grid" in err


class TestCliCommands:
    def test_eval_static_reproduces_the_mse_table(self, capsys, three_scenario):
        code, out, _ = run_cli(capsys, "eval-static", three_scenario, "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        got = {row["subset"]: float(row["mse"]) for row in rows}
        assert got == {
            "": 0.14,
            "1": 0.3,
            "2": 0.1,
            "3": 0.1325,
            "1+2": 0.26,
            "1+3": 0.2925,
            "2+3": 0.0925,
            "1+2+3": 0.2525,
        }

    def test_plan_static_selects_the_understood_pair(self, capsys, three_scenario):
        code, out, _ = run_cli(capsys, "plan-static", three_scenario)
        assert code == 0
        doc = json.loads(out)
        assert doc["subset"] == "2+3"
        assert doc["names"] == ["test2", "test3"]

    def test_plan_stationary_json(self, capsys, three_scenario):
        code, out, _ = run_cli(capsys, "plan-stationary", three_scenario)
        doc = json.loads(out)
        assert code == 0
        assert doc["subset"] == "1+2+3"
        assert doc["loss"] == pytest.approx(0.2525, abs=1e-12)
        assert doc["baseline_loss"] == pytest.approx(1.4, abs=1e-12)

    def test_switch_points(self, capsys, two_scenario):
        code, out, _ = run_cli(capsys, "switch-points", two_scenario)
        doc = json.loads(out)
        assert code == 0
        assert len(doc["points"]) == 1
        point = doc["points"][0]
        assert (point["i"], point["j"]) == (1, 2)
        assert point["threshold"] == pytest.approx(0.6051703877790834, abs=1e-9)

    def test_sweep_delta_csv_has_fifteen_digit_cells(self, capsys, two_scenario):
        code, out, _ = run_cli(
            capsys, "sweep-delta", two_scenario, "--grid", "0.3,0.7", "--format", "csv"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "delta,subset,total_value,informativeness,loss"
        value = lines[2].split(",")[2]
        assert value == f"{float(value):.15g}"
        assert len(value.replace(".", "").replace("-", "").lstrip("0")) >= 14

    def test_enumerate_subsets(self, capsys, two_scenario):
        code, out, _ = run_cli(capsys, "enumerate-subsets", two_scenario)
        doc = json.loads(out)
        assert code == 0
        assert [iv["subset"] for iv in doc["intervals"]] == ["2", "1"]

    def test_sweep_heatmap_shapes(self, capsys, two_scenario):
        code, out, _ = run_cli(
            capsys, "sweep-heatmap", two_scenario, "--grid", "5", "--w-grid", "3"
        )
        doc = json.loads(out)
        assert code == 0
        assert doc["more_informative"] == 1
        assert np.asarray(doc["ratios"]).shape == (3, 5)

    def test_verify_passes(self, capsys, two_scenario):
        code, out, _ = run_cli(capsys, "verify", two_scenario, "--prefix-len", "2")
        doc = json.loads(out)
        assert code == 0
        assert doc["passed"] is True
        assert abs(doc["gap"]) <= 1e-9

    # NaN and inf used to print passed: true whatever the search found.
    @pytest.mark.parametrize("tol", ["nan", "inf", "1e400"])
    def test_verify_non_finite_tol_exits_2(self, capsys, two_scenario, tol):
        code, out, err = run_cli(
            capsys, "verify", two_scenario, "--prefix-len", "2", "--tol", tol
        )
        assert (code, out, err) == (2, "", "error: tol must be finite\n")

    @pytest.mark.parametrize("tol", ["0", "-1e-9", "-inf"])
    def test_verify_nonpositive_tol_exits_2(self, capsys, two_scenario, tol):
        code, out, err = run_cli(
            capsys, "verify", two_scenario, "--prefix-len", "2", f"--tol={tol}"
        )
        assert (code, out, err) == (2, "", "error: tol must be positive\n")

    def test_misspec_margins_and_trials(self, capsys, three_scenario):
        code, out, _ = run_cli(
            capsys,
            "misspec",
            three_scenario,
            "--kind",
            "truth-static",
            "--epsilon",
            "0.02",
            "--trials",
            "50",
            "--seed",
            "3",
        )
        doc = json.loads(out)
        assert code == 0
        assert doc["validation"]["violations"] == 0
        assert len(doc["margins"]) == 3

    def test_misspec_per_feature_epsilon(self, capsys, three_scenario):
        code, out, _ = run_cli(
            capsys,
            "misspec",
            three_scenario,
            "--kind",
            "human-static",
            "--epsilon",
            "0.02,0,0.01",
        )
        doc = json.loads(out)
        assert code == 0
        assert doc["margins"][1]["lower_margin"] == 0.0

    # NaN used to pass every bound check and inf to make it unfalsifiable;
    # learning-speed draws with them raised a raw OverflowError (exit 1).
    @pytest.mark.parametrize(
        "kind, epsilon",
        [
            ("truth-static", "nan"),
            ("truth-static", "inf"),
            ("truth-static", "1e400"),
            ("human-static", "0.01,nan,0.01"),
            ("learning-speed", "nan"),
            ("learning-speed", "inf"),
        ],
    )
    def test_misspec_non_finite_epsilon_exits_2(self, capsys, three_scenario, kind, epsilon):
        code, out, err = run_cli(
            capsys, "misspec", three_scenario, "--kind", kind, "--epsilon", epsilon,
            "--trials", "2",
        )
        assert (code, out, err) == (2, "", "error: epsilon must be finite\n")

    # A finite epsilon whose draw range -eps..eps overflows used to raise a
    # raw OverflowError from numpy (exit 1).
    def test_misspec_learning_speed_epsilon_too_large_exits_2(self, capsys, three_scenario):
        code, out, err = run_cli(
            capsys, "misspec", three_scenario, "--kind", "learning-speed",
            "--epsilon", "1e308", "--trials", "2",
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: epsilon")

    # A negative seed used to raise a raw ValueError from numpy (exit 1).
    def test_misspec_negative_seed_exits_2(self, capsys, three_scenario):
        code, out, err = run_cli(
            capsys, "misspec", three_scenario, "--kind", "truth-static",
            "--epsilon", "0.02", "--trials", "2", "--seed", "-1",
        )
        assert (code, out, err) == (2, "", "error: seed must be nonnegative\n")

    # Margins of 2*eps*|h0| (|h0| = 1.1) and eps*divergence0 (divergence0
    # > 1.8) used to overflow to inf: a numpy warning, "Infinity" in the
    # JSON (not valid JSON) and exit 0.
    @pytest.mark.parametrize("kind", ["truth-static", "learning-speed"])
    def test_misspec_overflowing_margins_exit_2(self, capsys, tmp_path, kind):
        path = write_scenario(
            tmp_path / "wide.json",
            features=[{"a": 0.3, "h0": 0.8}, {"a": -2.0, "h0": 1.1}],
            k=1,
            delta=0.9,
        )
        code, out, err = run_cli(capsys, "misspec", path, "--kind", kind, "--epsilon", "1e308")
        assert (code, out) == (2, "")
        assert err == f"error: epsilon too large: {kind} margins are not finite\n"
        code, _, err = run_cli(
            capsys, "misspec", path, "--kind", kind, "--epsilon", "1e308", "--json-errors"
        )
        assert code == 2
        assert json.loads(err)["error"] == "InvalidInputError"

    def test_output_file(self, capsys, three_scenario, tmp_path):
        out_path = tmp_path / "table.csv"
        code, out, _ = run_cli(
            capsys,
            "eval-static",
            three_scenario,
            "--format",
            "csv",
            "--out",
            out_path,
        )
        assert code == 0
        assert out == ""
        assert out_path.read_text().startswith("subset,mse")

    def test_bad_scenario_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        code, _, err = run_cli(capsys, "plan-static", path)
        assert code == 2
        assert "invalid JSON" in err

    # Like every dynamic error, these carry the "dynamic: " prefix.
    @pytest.mark.parametrize(
        "params, message",
        [
            ({"values": [1.0, "x"]}, "dynamic: dynamic.params: values[1] must be a number"),
            ({"values": [1.0, None]}, "dynamic: dynamic.params: values[1] must be a number"),
            ({"values": [True, 0.5]}, "dynamic: dynamic.params: values[0] must be a number"),
            ({"values": [1.0], "tail_w": "abc"},
             "dynamic: dynamic.params: field 'tail_w' must be a number"),
        ],
    )
    def test_malformed_tabulated_dynamic_exits_2(self, capsys, tmp_path, params, message):
        path = write_scenario(
            tmp_path / "s.json",
            features=[{"a": 0.5, "h0": 0.1}],
            dynamic={"type": "tabulated", "params": params},
        )
        code, out, err = run_cli(capsys, "plan-stationary", path)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("command", ["plan-stationary", "enumerate-subsets"])
    def test_nan_table_weight_exits_2(self, capsys, tmp_path, command):
        # Python's json reads NaN; every weight it touches would become nan.
        path = write_scenario(
            tmp_path / "s.json",
            features=[{"a": 0.5, "h0": 0.1}, {"a": 0.3, "h0": 0.9}],
            dynamic={"type": "tabulated", "params": {"values": [1.0, float("nan"), 0.2]}},
        )
        assert "NaN" in path.read_text()
        code, out, err = run_cli(capsys, command, path)
        assert (code, out, err) == (2, "", "error: dynamic: weights must not be NaN\n")

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("target", ["missing/x.json", "."])
    def test_unwritable_out_exits_2(self, capsys, three_scenario, tmp_path, fmt, target):
        out_path = tmp_path / target
        reason = "Is a directory" if out_path.is_dir() else "No such file or directory"
        argv = ["plan-static", three_scenario, "--format", fmt, "--out", out_path]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: cannot write {out_path}: {reason}\n")
        code, out, err = run_cli(capsys, *argv, "--json-errors")
        assert (code, out) == (2, "")
        assert json.loads(err) == {
            "error": "InvalidInputError",
            "message": f"cannot write {out_path}: {reason}",
        }

    def test_bad_w_grid_is_named(self, capsys, two_scenario):
        code, out, err = run_cli(capsys, "sweep-heatmap", two_scenario, "--w-grid", "3.5")
        assert (code, out) == (2, "")
        assert err.startswith("error: --w-grid: ")

    def test_json_errors_flag(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        code, _, err = run_cli(capsys, "plan-static", path, "--json-errors")
        assert code == 2
        doc = json.loads(err)
        assert doc["error"] == "ScenarioError"

    def test_repeated_runs_are_byte_identical(self, capsys, two_scenario):
        argv = ["sweep-heatmap", two_scenario, "--grid", "7", "--format", "csv"]
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    def test_console_entry_point(self, three_scenario):
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "teachsel", "plan-static", str(three_scenario)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["subset"] == "2+3"

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_full_device_mid_report_exits_2(self, capsys, monkeypatch, tmp_path, fmt):
        # 2,000 rows in blocks of 100: the device fills while later blocks
        # are still to be formatted.
        features = [{"a": 0.5 + i / 4000, "h0": 0.1} for i in range(2000)]
        path = write_scenario(tmp_path / "wide.json", features=features, k=10, delta=0.9)
        monkeypatch.setattr(cli, "BLOCK_ROWS", 100)
        code, out, err = run_cli(capsys, "plan-static", path, "--format", fmt, "--out", "/dev/full")
        assert (code, out) == (2, "")
        assert err == "error: cannot write /dev/full: No space left on device\n"

    def test_closed_stdout_pipe_exits_1_quietly(self, tmp_path):
        # The report is several blocks and far more than a pipe holds, so the
        # writer is still writing when the reader goes away.
        n = 3 * cli.BLOCK_ROWS
        features = [{"a": 0.5 + i / (2 * n), "h0": 0.1} for i in range(n)]
        path = write_scenario(tmp_path / "wide.json", features=features, k=10, delta=0.9)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env_path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        with subprocess.Popen(
            [sys.executable, "-m", "teachsel", "plan-stationary", str(path)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": env_path},
        ) as proc:
            head = proc.stdout.read(100)
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=60)
        assert head.startswith(b'{\n  "subset": ')
        assert (code, err) == (1, b"")

    def test_format_subset(self):
        assert format_subset((2, 0)) == "1+3"
        assert format_subset(()) == ""


def per_command_parser() -> argparse.ArgumentParser:
    """The parser with every option added to each subcommand's own parser,
    as it was built before the common options moved to one shared parent,
    with `--seed` on misspec only and `--tol` on verify only."""
    parser = argparse.ArgumentParser(
        prog="teachsel",
        description="Plan feature selections for a learning human predictor.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, blurb) in COMMANDS.items():
        p = sub.add_parser(name, help=blurb, description=blurb)
        p.add_argument("scenario", help="path to a scenario JSON file")
        p.add_argument("--out", default=None, help="write output to this path")
        p.add_argument("--format", choices=["json", "csv"], default="json")
        p.add_argument(
            "--allow-zero-coeff",
            action="store_true",
            help="accept zero true coefficients with a warning",
        )
        p.add_argument(
            "--json-errors", action="store_true", help="report errors as JSON on stderr"
        )
        if name in ("sweep-delta", "sweep-heatmap"):
            p.add_argument("--grid", default="100", help='"N", "lo:hi:N", or "a,b,c"')
        if name == "sweep-heatmap":
            p.add_argument("--w-grid", default=None, help="grid for the retention axis")
        if name == "verify":
            p.add_argument("--prefix-len", type=int, default=3)
            p.add_argument("--tol", type=float, default=1e-9)
        if name == "misspec":
            p.add_argument("--kind", required=True, choices=[k.value for k in ErrorKind])
            p.add_argument(
                "--epsilon",
                required=True,
                help="error bound: one number or a comma list per feature",
            )
            p.add_argument("--trials", type=int, default=0)
            p.add_argument("--seed", type=int, default=0)
    return parser


def parse_outcome(parser: argparse.ArgumentParser, argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parser.parse_args(argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


PARSE_CASES = [["--help"], [], ["nope"], ["misspec", "s.json", "--epsilon", "1"]]
for _name in COMMANDS:
    PARSE_CASES += [
        [_name, "--help"],
        [_name],
        [_name, "s.json"],
        [_name, "s.json", "--format", "xml"],
        [_name, "s.json", "--seed", "zz", "--tol", "1e-3"],
        [_name, "s.json", "--bogus"],
    ]


@pytest.mark.parametrize("option", ["--seed", "--tol"])
@pytest.mark.parametrize("command", list(COMMANDS))
def test_seed_and_tol_belong_to_their_own_commands(command, option):
    """Only misspec reads --seed and only verify reads --tol; elsewhere
    either one is a usage error."""
    owner = {"--seed": "misspec", "--tol": "verify"}[option]
    argv = [command, "s.json", option, "1"]
    if command == "misspec":
        argv += ["--kind", "truth-static", "--epsilon", "0.1"]
    result, out, err = parse_outcome(build_parser(), argv)
    if command == owner:
        assert result[option[2:]] == 1
    else:
        assert (result, out) == (2, "")
        assert f"unrecognized arguments: {option} 1" in err


def test_plan_static_seed_is_a_usage_error():
    result, out, err = main_outcome(["plan-static", "s.json", "--seed", "1"])
    assert (result, out) == (2, "")
    assert err.endswith("error: unrecognized arguments: --seed 1\n")


@pytest.mark.parametrize("columns", ["80", "47", "200"])
def test_shared_options_parse_and_print_as_per_command_options(monkeypatch, columns):
    # Help and usage lines wrap at the terminal width argparse reads from
    # COLUMNS, so each width is pinned.
    monkeypatch.setenv("COLUMNS", columns)
    for argv in PARSE_CASES:
        assert parse_outcome(build_parser(), argv) == parse_outcome(per_command_parser(), argv)


def main_outcome(argv: list[str]):
    """What ``main(argv)`` returns or exits with, and prints."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = main(argv)
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


class TestParserReuse:
    """``main`` builds its parser once per process and reuses it."""

    def test_two_calls_build_one_parser(self, monkeypatch, capsys, two_scenario):
        built = []

        def counting_build_parser():
            built.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counting_build_parser)
        cli._parser.cache_clear()
        try:
            run_cli(capsys, "plan-static", two_scenario)
            run_cli(capsys, "verify", two_scenario, "--prefix-len", "1")
        finally:
            cli._parser.cache_clear()
        assert len(built) == 1

    def test_a_call_does_not_see_the_last_calls_options(self, capsys, three_scenario):
        argv = ["misspec", three_scenario, "--kind", "truth-static", "--epsilon", "0.05"]
        _, csv_out, _ = run_cli(capsys, *argv, "--trials", "3", "--seed", "5", "--format", "csv")
        assert csv_out.startswith("trial,gap,bound,ratio\n")
        code, out, _ = run_cli(capsys, *argv, "--trials", "3")
        assert code == 0
        assert json.loads(out)["validation"]["seed"] == 0
        _, margins_only, _ = run_cli(capsys, *argv)
        assert "validation" not in json.loads(margins_only)

    @pytest.mark.parametrize(
        "argv",
        [["--help"], ["misspec", "--help"], ["plan-static"], ["verify", "s.json", "--format", "xml"]],
    )
    def test_help_and_usage_wrap_at_the_current_width(self, monkeypatch, capsys, two_scenario, argv):
        monkeypatch.setenv("COLUMNS", "200")
        run_cli(capsys, "plan-static", two_scenario)
        monkeypatch.setenv("COLUMNS", "47")
        assert main_outcome(argv) == parse_outcome(build_parser(), argv)

    def test_json_errors_and_exit_codes_hold_across_calls(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        as_json = main_outcome(["plan-static", str(path), "--json-errors"])
        plain = main_outcome(["plan-static", str(path)])
        usage = main_outcome(["plan-static", str(path), "--bogus"])
        assert as_json[0] == plain[0] == usage[0] == 2
        doc = json.loads(as_json[2])
        assert doc["error"] == "ScenarioError"
        assert plain[2] == f"error: {doc['message']}\n"
        assert usage[2].endswith("error: unrecognized arguments: --bogus\n")
        assert main_outcome(["plan-static", str(path), "--json-errors"]) == as_json
        assert main_outcome(["plan-static", str(path)]) == plain
