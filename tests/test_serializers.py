"""The columnar CSV and JSON writers against the slow, per-cell oracle.

The oracle is what the CLI once did row by row: ``csv.writer`` with every
float cell formatted as ``f"{v:.15g}"``, and ``json.dumps(payload, indent=2)``
over one dict per report row.
"""

import csv
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teachsel import (
    discounted_baseline_loss,
    load_scenario,
    optimal_static_subset,
    optimal_stationary_sequence,
)
from teachsel.cli import _json_with_rows, _write_csv, format_subset, main

from conftest import write_scenario

# Names csv must quote or json must escape, and coefficients at the edges of
# float formatting: tiny, huge, a negative zero, a subnormal square, and
# |a| > 1e154, whose square overflows to inf and whose value becomes nan.
EDGE_FEATURES = [
    {"name": "comma, inside", "a": 0.5, "h0": 0.1},
    {"name": 'say "hi"', "a": 1e-5, "h0": -0.0},
    {"name": "line\nbreak", "a": 1e16, "h0": 3.0},
    {"name": "naïve ü 中文", "a": -0.7, "h0": -0.0},
    {"name": "", "a": 1e-160, "h0": 2e-160},
    {"a": 2e154, "h0": 1.0},
    {"name": "plain", "a": 0.3, "h0": 0.8},
    {"name": "tie", "a": 0.3, "h0": 0.8},
]


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.15g}"
    return str(value)


def oracle_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = list(rows[0])
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(row[col]) for col in header])
    return buf.getvalue()


def oracle_rows(scenario, plan) -> list[dict]:
    return [
        {
            "feature": i + 1,
            "name": scenario.names[i],
            "informativeness": float(plan.informativeness[i]),
            "divergence0": float(plan.divergence0[i]),
            "value": float(plan.values[i]),
            "selected": bool(plan.selected[i]),
        }
        for i in plan.order.tolist()
    ]


def oracle_payload(scenario, plan, command: str) -> dict:
    payload = {
        "subset": format_subset(plan.subset),
        "features": [i + 1 for i in plan.subset],
        "names": [scenario.names[i] for i in plan.subset],
    }
    if command == "plan-stationary":
        baseline = discounted_baseline_loss(scenario.instance)
        payload["total_value"] = plan.total_value
        payload["loss"] = baseline - plan.total_value
        payload["baseline_loss"] = baseline
    payload["degenerate"] = plan.degenerate
    payload["reports"] = oracle_rows(scenario, plan)
    return payload


@pytest.fixture
def edge_scenario(tmp_path):
    return write_scenario(
        tmp_path / "edge.json",
        features=EDGE_FEATURES,
        k=4,
        delta=0.9,
        dynamic={"type": "exponential", "params": {"w": 0.5}},
    )


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("command", ["plan-static", "plan-stationary"])
def test_plan_output_matches_oracle(capsys, edge_scenario, command):
    scenario = load_scenario(edge_scenario)
    if command == "plan-static":
        plan = optimal_static_subset(scenario.instance)
    else:
        plan = optimal_stationary_sequence(scenario.instance, scenario.dynamic)
    payload = oracle_payload(scenario, plan, command)
    # The edge cases really occur in this plan.
    assert np.isinf(plan.informativeness).any()
    assert any(0.0 < v < np.finfo(float).tiny for v in plan.informativeness)
    assert np.isnan(plan.values).any() == (command == "plan-stationary")

    assert main([command, str(edge_scenario), "--format", "csv"]) == 0
    assert capsys.readouterr().out == oracle_csv(payload["reports"])
    assert main([command, str(edge_scenario)]) == 0
    assert capsys.readouterr().out == json.dumps(payload, indent=2) + "\n"


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_negative_zero_value_is_written_with_its_sign(capsys, edge_scenario):
    # h0 = -0.0 gives the static value 2*a*h0 - h0**2 = -0.0.
    assert main(["plan-static", str(edge_scenario), "--format", "csv"]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert {r["value"] for r in rows if r["name"] == 'say "hi"'} == {"-0"}


floats = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(
        st.tuples(st.integers(0, 10**6), st.text(), floats, st.booleans()),
        min_size=1,
        max_size=20,
    )
)
def test_columnar_writers_match_oracle_on_random_tables(rows):
    ints, names, values, flags = (list(col) for col in zip(*rows))
    table = {
        "feature": np.array(ints),
        "name": names,
        "value": np.array(values),
        "selected": np.array(flags),
    }
    records = [
        {"feature": i, "name": s, "value": v, "selected": f}
        for i, s, v, f in zip(ints, names, values, flags)
    ]
    assert _write_csv(table) == oracle_csv(records)
    payload = {"subset": "1+2", "degenerate": False}
    expected = json.dumps({**payload, "reports": records}, indent=2) + "\n"
    assert _json_with_rows(payload, "reports", table) == expected


@settings(max_examples=100, deadline=None)
@given(
    rows=st.lists(
        st.tuples(floats, st.one_of(st.none(), floats), st.integers(-5, 5)),
        min_size=1,
        max_size=20,
    ),
    depth=st.integers(1, 3),
)
def test_nested_rows_match_json_dumps(rows, depth):
    gaps, ratios, ints = (list(col) for col in zip(*rows))
    table = {"gap": np.array(gaps), "ratio": ratios, "trial": ints}
    records = [{"gap": g, "ratio": r, "trial": i} for g, r, i in zip(gaps, ratios, ints)]
    keys = [f"level{d}" for d in range(depth - 1)] + ["per_trial"]
    payload = inner = {"kind": "truth-static", "seed": 3}
    expected = expected_inner = {**payload}
    for key in keys[:-1]:
        inner[key] = {"violations": 0}
        expected_inner[key] = {"violations": 0}
        inner, expected_inner = inner[key], expected_inner[key]
    expected_inner[keys[-1]] = records
    text = _json_with_rows(payload, ".".join(keys), table)
    assert text == json.dumps(expected, indent=2) + "\n"
