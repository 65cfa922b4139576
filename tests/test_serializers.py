"""The columnar CSV and JSON writers against the slow, per-cell oracle.

The oracle is what the CLI once did row by row: ``csv.writer`` with every
float cell formatted as ``f"{v:.15g}"``, and ``json.dumps(payload, indent=2)``
over one dict per report row, wherever the payload places its rows.
"""

import contextlib
import csv
import hashlib
import io
import json
import time
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from teachsel import (
    ErrorKind,
    ErrorSpec,
    ProblemInstance,
    discounted_baseline_loss,
    load_scenario,
    optimal_static_subset,
    optimal_stationary_sequence,
    validate_bound,
)
from teachsel import cli
from teachsel.cli import (
    CSV_FLOAT,
    Rows,
    _csv_chunks,
    _csv_quoted,
    _emit_plan,
    _json,
    format_subset,
    main,
)

from conftest import write_scenario

# Names csv must quote or json must escape, and coefficients at the edges of
# float formatting: tiny, huge, a negative zero, a subnormal square, and
# |a| > 1e154, whose square overflows to inf.  The value of the first such
# feature is inf.  The second one's static value overflows to -inf, and its
# learning gain on an infinite divergence is inf, so its stationary value
# becomes nan.
EDGE_FEATURES = [
    {"name": "comma, inside", "a": 0.5, "h0": 0.1},
    {"name": 'say "hi"', "a": 1e-5, "h0": -0.0},
    {"name": "line\nbreak", "a": 1e16, "h0": 3.0},
    {"name": "naïve ü 中文", "a": -0.7, "h0": -0.0},
    {"name": "", "a": 1e-160, "h0": 2e-160},
    {"a": 2e154, "h0": 1.0},
    {"name": "overflow", "a": 2e154, "h0": -1e154},
    {"name": "plain", "a": 0.3, "h0": 0.8},
    {"name": "tie", "a": 0.3, "h0": 0.8},
    {"name": " leading space", "a": 0.25, "h0": -0.2},
    {"name": "trailing space ", "a": -0.4, "h0": 0.1},
    {"name": '""', "a": 0.6, "h0": 0.9},
]
# Names that test csv's quoting rules at their edges: a lone "\r" is quoted
# only for a line terminator that holds it, and spaces are never quoted.
EDGE_NAMES = ["", "\r", "a\rb", "\n", " x", "y ", '""', '"', ",", "plain"]


def csv_text(table: dict, index=None, numbered=None) -> str:
    return "".join(_csv_chunks(Rows(table, index), numbered))


def json_text(payload) -> str:
    return "".join(_json(payload))


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.15g}"
    return str(value)


def oracle_csv(rows: list[dict], header: list[str]) -> str:
    """csv's rows with its quoting for a "\r\n" line terminator, so that a
    cell holding "\r" or "\n" is quoted, each row ended by "\n"."""
    lines: list[str] = []
    writer = csv.writer(SimpleNamespace(write=lines.append), lineterminator="\r\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(row[col]) for col in header])
    return "".join(line[:-2] + "\n" for line in lines)


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
    rows = payload["reports"]
    assert capsys.readouterr().out == oracle_csv(rows, list(rows[0]))
    assert main([command, str(edge_scenario)]) == 0
    assert capsys.readouterr().out == json.dumps(payload, indent=2) + "\n"


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_negative_zero_value_is_written_with_its_sign(capsys, edge_scenario):
    # h0 = -0.0 gives the static value 2*a*h0 - h0**2 = -0.0.
    assert main(["plan-static", str(edge_scenario), "--format", "csv"]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert {r["value"] for r in rows if r["name"] == 'say "hi"'} == {"-0"}


floats = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
names = st.one_of(st.text(), st.sampled_from(EDGE_NAMES))


def _columns(rows: list[tuple], width: int) -> list[list]:
    return [list(col) for col in zip(*rows)] or [[] for _ in range(width)]


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(
        st.tuples(st.integers(0, 10**6), names, floats, st.booleans()),
        min_size=0,
        max_size=20,
    )
)
def test_columnar_writers_match_oracle_on_random_tables(rows):
    ints, labels, values, flags = _columns(rows, 4)
    table = {
        "feature": np.array(ints, dtype=int),
        "name": labels,
        "value": np.array(values, dtype=float),
        "selected": np.array(flags, dtype=bool),
    }
    records = [
        {"feature": i, "name": s, "value": v, "selected": f}
        for i, s, v, f in zip(ints, labels, values, flags)
    ]
    assert csv_text(table) == oracle_csv(records, list(table))
    payload = {"subset": "1+2", "degenerate": False}
    expected = json.dumps({**payload, "reports": records}, indent=2) + "\n"
    assert json_text({**payload, "reports": Rows(table)}) == expected


# The list and tuple columns the CLI sends: float lists with None for a
# missing threshold or ratio (switch-points, misspec), tuples of names
# (misspec's scenario names) and plain int lists.
@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(
        st.tuples(st.integers(-5, 5), names, st.one_of(st.none(), floats)),
        min_size=0,
        max_size=20,
    )
)
def test_csv_list_and_tuple_columns_match_oracle(rows):
    ints, labels, optional = _columns(rows, 3)
    table = {"trial": range(len(ints)), "i": ints, "name": tuple(labels), "ratio": optional}
    records = [
        {"trial": t, "i": i, "name": s, "ratio": r}
        for t, (i, s, r) in enumerate(zip(ints, labels, optional))
    ]
    assert csv_text(table) == oracle_csv(records, list(table))


@settings(max_examples=500, deadline=None)
@given(cells=st.lists(st.one_of(st.text(), st.sampled_from(EDGE_NAMES)), min_size=2))
def test_quoted_cells_match_csv_writer(cells):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerow(cells)
    assert ",".join(_csv_quoted(list(cells))) + "\r\n" == buf.getvalue()


def test_csv_reader_reads_edge_names_back(capsys, tmp_path):
    features = [{"name": name, "a": 0.5, "h0": 0.1} for name in EDGE_NAMES]
    path = write_scenario(tmp_path / "names.json", features=features, k=2, delta=0.9)
    assert main(["plan-static", str(path), "--format", "csv"]) == 0
    out = capsys.readouterr().out
    rows = list(csv.reader(io.StringIO(out, newline="")))
    assert rows[0][:2] == ["feature", "name"]
    # Every value ties, so the rows keep the features' order.
    assert [row[1] for row in rows[1:]] == EDGE_NAMES


def test_header_only_table():
    table = {"gap": np.array([]), "name": [], "ratio": []}
    assert csv_text(table) == "gap,name,ratio\n"
    expected = json.dumps({"kind": "x", "rows": []}, indent=2) + "\n"
    assert json_text({"kind": "x", "rows": Rows(table)}) == expected


def test_csv_writer_is_within_1_3x_of_float_formatting():
    # Float formatting is the floor of a plan report's CSV; everything else
    # the writer does (the other columns, quoting, joining) must stay under
    # 0.3 of it.  The two sides take turns and each keeps its best of 3, so
    # a slow spell of a shared machine hits both.
    n = 100_000
    rng = np.random.default_rng(5)
    values = [rng.normal(size=n) for _ in range(3)]
    table = {
        "feature": np.arange(1, n + 1),
        "name": [f"feature {i}" for i in range(n)],
        "informativeness": values[0],
        "divergence0": values[1],
        "value": values[2],
        "selected": rng.random(n) < 0.05,
    }

    def timed(fn) -> float:
        start = time.perf_counter()
        fn()
        return time.perf_counter() - start

    writer = floor = float("inf")
    for _ in range(3):
        writer = min(writer, timed(lambda: csv_text(table)))
        floor = min(floor, timed(lambda: [list(map(CSV_FLOAT.__mod__, v.tolist())) for v in values]))
    assert writer <= 1.3 * floor, f"CSV writer {writer:.3f}s vs float formatting {floor:.3f}s"


@settings(max_examples=100, deadline=None)
@given(
    rows=st.lists(
        st.tuples(floats, st.one_of(st.none(), floats), st.integers(-5, 5)),
        min_size=0,
        max_size=20,
    ),
    depth=st.integers(1, 3),
)
def test_nested_rows_match_json_dumps(rows, depth):
    gaps, ratios, ints = _columns(rows, 3)
    table = {"gap": np.array(gaps, dtype=float), "ratio": ratios, "trial": ints}
    records = [{"gap": g, "ratio": r, "trial": i} for g, r, i in zip(gaps, ratios, ints)]
    keys = [f"level{d}" for d in range(depth - 1)] + ["per_trial"]
    payload = inner = {"kind": "truth-static", "seed": 3}
    expected = expected_inner = {**payload}
    for key in keys[:-1]:
        inner[key] = {"violations": 0}
        expected_inner[key] = {"violations": 0}
        inner, expected_inner = inner[key], expected_inner[key]
    inner[keys[-1]] = Rows(table)
    expected_inner[keys[-1]] = records
    assert json_text(payload) == json.dumps(expected, indent=2) + "\n"


@st.composite
def indexed_tables(draw):
    """A table of distinct rows, one column per cell type, and an index of
    rows to write: random, or every written row on the same row."""
    rows = draw(
        st.lists(
            st.tuples(floats, st.one_of(st.none(), floats), st.integers(-5, 5), names),
            min_size=1,
            max_size=6,
        )
    )
    gaps, ratios, ints, labels = _columns(rows, 4)
    table = {"gap": np.array(gaps, dtype=float), "ratio": ratios, "i": ints, "name": labels}
    picks = st.integers(0, len(rows) - 1)
    index = draw(
        st.one_of(
            st.lists(picks, max_size=30),
            st.builds(lambda row, size: [row] * size, picks, st.integers(1, 30)),
        )
    )
    return table, np.array(index, dtype=np.intp)


def _expanded(table: dict, index: np.ndarray | None = None) -> list[dict]:
    columns = [c.tolist() if isinstance(c, np.ndarray) else c for c in table.values()]
    rows = range(len(columns[0]) if columns else 0) if index is None else index.tolist()
    return [{name: column[i] for name, column in zip(table, columns)} for i in rows]


@settings(max_examples=200, deadline=None)
@given(indexed=indexed_tables(), depth=st.integers(1, 3), numbered=st.sampled_from(["trial", 'a "b",c']))
def test_indexed_rows_match_expanded_rows(indexed, depth, numbered):
    table, index = indexed
    records = _expanded(table, index)
    numbered_records = [{numbered: t, **record} for t, record in enumerate(records)]
    assert csv_text(table, index, numbered) == oracle_csv(numbered_records, [numbered, *table])
    assert csv_text(table, index) == oracle_csv(records, list(table))
    keys = [f"level{d}" for d in range(depth - 1)] + ["per_trial"]
    payload = inner = {"kind": "truth-static", "seed": 3}
    expected = expected_inner = {**payload}
    for key in keys[:-1]:
        inner[key] = {"violations": 0}
        expected_inner[key] = {"violations": 0}
        inner, expected_inner = inner[key], expected_inner[key]
    inner[keys[-1]] = Rows(table, index)
    expected_inner[keys[-1]] = records
    assert json_text(payload) == json.dumps(expected, indent=2) + "\n"


# Keys json must escape, and leaves at the edges of float formatting.
KEYS = st.one_of(
    st.text(max_size=8), st.sampled_from(["naïve", "中文", "ключ", "\u2028", 'q"', ""])
)
LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**20), 10**20),
    floats,
    st.sampled_from([np.nan, np.inf, -np.inf, -0.0]),
    names,
)


@st.composite
def plain_tables(draw):
    """A table written whole: empty, or one column per cell type."""
    rows = draw(st.lists(st.tuples(floats, st.integers(-5, 5), st.booleans(), names), max_size=5))
    gaps, ints, flags, labels = _columns(rows, 4)
    return draw(
        st.sampled_from(
            [
                {},
                {"gap": np.array(gaps, dtype=float), "i": np.array(ints, dtype=int)},
                {"flag": np.array(flags, dtype=bool), "name": labels, "k": ints},
            ]
        )
    )


ROWS = st.one_of(
    st.builds(Rows, plain_tables()), indexed_tables().map(lambda pair: Rows(*pair))
)
PLAIN = st.recursive(
    LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4), st.dictionaries(KEYS, children, max_size=4)
    ),
    max_leaves=8,
)
# Rows sit at the keys of nested dicts; lists hold plain JSON.
TREES = st.recursive(
    st.one_of(PLAIN, ROWS),
    lambda children: st.dictionaries(KEYS, children, max_size=4),
    max_leaves=8,
)


def expand(value):
    """`value` with each `Rows` replaced by the list of its records."""
    if isinstance(value, Rows):
        return _expanded(value.table, value.index)
    if isinstance(value, dict):
        return {key: expand(item) for key, item in value.items()}
    return value


@st.composite
def payloads(draw):
    """A random dict tree with two or three `Rows` planted in it, each in a
    random dict on a random path and at a random place among its keys."""
    payload = draw(st.dictionaries(KEYS, TREES, max_size=5))
    for _ in range(draw(st.integers(2, 3))):
        node = payload
        while draw(st.booleans()):
            children = [item for item in node.values() if isinstance(item, dict)]
            if not children:
                break
            node = draw(st.sampled_from(children))
        items = list(node.items())
        items.insert(draw(st.integers(0, len(items))), (draw(KEYS), draw(ROWS)))
        node.clear()
        node.update(items)  # a repeated key keeps its first place
    return payload


@settings(max_examples=150, deadline=None)
@given(payload=payloads())
def test_rows_anywhere_match_json_dumps(payload):
    assert json_text(payload) == json.dumps(expand(payload), indent=2) + "\n"


def test_two_rows_around_sibling_keys():
    margins = {"feature": [1, 2], "name": ("a", "ü"), "lower": np.array([0.5, -0.0])}
    trials = {"gap": np.array([np.nan, np.inf]), "ratio": [None, -np.inf]}
    index = np.array([1, 1, 0], dtype=np.intp)
    payload = {
        "kind": "x",
        "margins": Rows(margins),
        "validation": {"seed": 3, "per_trial": Rows(trials, index), "after": [], "empty": {}},
        "tail": Rows({}),
    }
    expected = {
        "kind": "x",
        "margins": _expanded(margins),
        "validation": {
            "seed": 3, "per_trial": _expanded(trials, index), "after": [], "empty": {}
        },
        "tail": [],
    }
    assert json_text(payload) == json.dumps(expected, indent=2) + "\n"


def test_rows_in_a_list_are_refused():
    with pytest.raises(TypeError, match="Rows is not JSON serializable"):
        json_text({"kind": "x", "tables": [Rows({"gap": np.array([0.5])})]})


def test_misspec_cli_is_within_2x_of_validate_bound(capsys, tmp_path):
    # The trials are the work of a misspec run; parsing, loading, margins and
    # writing 10,000 per-trial rows (22 distinct chosen subsets here) must
    # stay under the same time again.  The two sides take turns and each
    # keeps its best of 3.  The bound may be tightened, never loosened.
    rng = np.random.default_rng(1202)
    n = 8
    a = rng.uniform(0.2, 2.0, n) * rng.choice([-1.0, 1.0], n)
    h0 = a + rng.uniform(0.1, 1.5, n) * rng.choice([-1.0, 1.0], n)
    inst = ProblemInstance(a=a, c=0.0, h0=h0, c_bar=0.0, k=3, delta=0.9)
    features = [{"a": float(x), "h0": float(y)} for x, y in zip(a, h0)]
    path = write_scenario(tmp_path / "eight.json", features=features, k=3, delta=0.9)
    spec = ErrorSpec(ErrorKind.TRUTH_STATIC, 0.5)
    argv = ["misspec", str(path), "--kind", "truth-static", "--epsilon", "0.5", "--trials", "10000"]

    def timed(fn) -> float:
        start = time.perf_counter()
        fn()
        return time.perf_counter() - start

    cli = math = float("inf")
    for _ in range(3):
        cli = min(cli, timed(lambda: main(argv)))
        doc = json.loads(capsys.readouterr().out)
        math = min(math, timed(lambda: validate_bound(inst, spec, trials=10_000)))
    assert len(doc["validation"]["per_trial"]) == 10_000
    assert cli <= 2.0 * math, f"misspec CLI {cli:.4f}s vs validate_bound {math:.4f}s"


# Streamed in blocks: every block size must give the bytes of csv.writer and
# json.dumps, the numbered column counting on across block boundaries.
BLOCK_SIZES = [1, 2, 3, cli.BLOCK_ROWS]
EDGE_FLOATS = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 2.5e-310, 1e16, 1e-5, 0.1, -1.5]
# Names csv must quote, and a "%" that must not reach a row template.
STREAM_NAMES = st.one_of(names, st.sampled_from([",", '"', "\r", "%", "%s", "%d", "100%", "%%"]))


@st.composite
def streamed_tables(draw):
    """A table with one column per cell kind, and an index of distinct rows or None."""
    rows = draw(
        st.lists(
            st.tuples(
                st.integers(-(10**6), 10**6),
                STREAM_NAMES,
                st.one_of(floats, st.sampled_from(EDGE_FLOATS)),
                st.booleans(),
                st.one_of(st.none(), floats),
            ),
            max_size=12,
        )
    )
    ints, labels, values, flags, optional = _columns(rows, 5)
    table = {
        "i": np.array(ints, dtype=int),
        "name": labels,
        "value %": np.array(values, dtype=float),
        "flag": np.array(flags, dtype=bool),
        "ratio": optional,
    }
    if not rows or not draw(st.booleans()):
        return table, None
    index = draw(st.lists(st.integers(0, len(rows) - 1), max_size=20))
    return table, np.array(index, dtype=np.intp)


EMPTY = {
    "i": np.array([], dtype=int),
    "name": [],
    "value %": np.array([]),
    "flag": np.array([], dtype=bool),
    "ratio": [],
}


@pytest.mark.parametrize("block", BLOCK_SIZES)
@settings(max_examples=60, deadline=None)
@given(streamed=streamed_tables(), numbered=st.sampled_from([None, "trial", "%d trial"]))
@example(streamed=(EMPTY, None), numbered=None)
@example(streamed=(EMPTY, np.array([], dtype=np.intp)), numbered="trial")
def test_streamed_writers_match_csv_writer_and_json_dumps(block, streamed, numbered):
    table, index = streamed
    records = _expanded(table, index)
    margins = {"feature": np.array([1, 2, 3]), "lower %s": np.array([np.nan, -0.0, 5e-324])}
    payload = {
        "kind": "x", "margins": Rows(margins), "validation": {"per_trial": Rows(table, index)}
    }
    expected = {"kind": "x", "margins": _expanded(margins), "validation": {"per_trial": records}}
    header = list(table) if numbered is None else [numbered, *table]
    if numbered is not None:
        records = [{numbered: t, **record} for t, record in enumerate(records)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "BLOCK_ROWS", block)
        assert csv_text(table, index, numbered) == oracle_csv(records, header)
        assert json_text(payload) == json.dumps(expected, indent=2) + "\n"


@pytest.mark.parametrize("block", BLOCK_SIZES)
def test_numbered_rows_count_on_across_blocks(monkeypatch, block):
    monkeypatch.setattr(cli, "BLOCK_ROWS", block)
    names = [",", '"', "\r", "%", "", "a", "b", "c", "d", "e", "f"]
    table = {"gap": np.array(EDGE_FLOATS), "name": names}
    index = np.array([10, 0, 0, 3, 2, 1, 9, 9, 4], dtype=np.intp)
    records = [{"trial": t, **record} for t, record in enumerate(_expanded(table, index))]
    chunks = list(_csv_chunks(Rows(table, index), "trial"))
    assert "".join(chunks) == oracle_csv(records, ["trial", *table])
    # The header, then one piece per block.
    assert len(chunks) == 1 + -(-len(index) // block)
    assert [row[0] for row in csv.reader(io.StringIO("".join(chunks), newline=""))][1:] == [
        str(t) for t in range(len(index))
    ]


class HashSink(io.TextIOBase):
    """A text stream that hashes what is written and keeps no copy."""

    def __init__(self) -> None:
        self.digest = hashlib.sha256()

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        self.digest.update(text.encode())
        return len(text)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_plan_report_writer_peak_memory_under_20_mib(fmt):
    # Writing a 100k-row plan report holds one block of rows at a time, not
    # the whole report.  The bound may be tightened, never loosened.
    n = 100_000
    rng = np.random.default_rng(9)
    a = rng.uniform(0.1, 2.0, n) * rng.choice([-1.0, 1.0], n)
    h0 = a + rng.normal(0.0, 0.8, n)
    inst = ProblemInstance(a=a, c=0.0, h0=h0, c_bar=0.0, k=5_000, delta=0.9)
    scenario = SimpleNamespace(names=tuple(f"feature {i}" for i in range(n)))
    plan = optimal_static_subset(inst)
    args = SimpleNamespace(format=fmt, out=None)
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(HashSink()):
            assert _emit_plan(args, scenario, plan) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20, f"{fmt} writer peaked at {peak / 2**20:.1f} MiB"
