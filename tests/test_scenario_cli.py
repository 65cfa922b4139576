"""Scenario parsing and the command-line surface."""

import csv
import io
import json
import subprocess
import sys

import numpy as np
import pytest

from teachsel import Exponential, ScenarioError, Tabulated, load_scenario
from teachsel.cli import format_subset, main, parse_grid

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
        proc = subprocess.run(
            [sys.executable, "-m", "teachsel", "plan-static", str(three_scenario)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["subset"] == "2+3"

    def test_format_subset(self):
        assert format_subset((2, 0)) == "1+3"
        assert format_subset(()) == ""
