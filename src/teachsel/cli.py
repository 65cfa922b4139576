"""Command-line interface: scenario in, JSON or CSV report out.

Feature indices are reported 1-based; subsets serialize as sorted,
comma-free strings like "2+3" (empty subset -> "").  CSV cells carry 15
significant digits.  Exit codes: 0 success, 1 a verification or bound check
failed, 2 bad input.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import sys
from pathlib import Path

import numpy as np

from . import oracle, robustness, tradeoff
from .errors import InvalidInputError, VerificationError
from .model import mse
from .planner import (
    discounted_baseline_loss,
    optimal_static_subset,
    optimal_stationary_sequence,
)
from .scenario import Scenario, load_scenario

EVAL_STATIC_MAX_FEATURES = 12
CSV_FLOAT = "%.15g"


def format_subset(subset) -> str:
    """Sorted 1-based indices joined by '+': (1, 2) -> "2+3"."""
    return "+".join(str(i + 1) for i in sorted(subset))


def _csv_cells(column):
    if not isinstance(column, np.ndarray):
        return column
    cells = column.tolist()
    return map(CSV_FLOAT.__mod__, cells) if column.dtype.kind == "f" else cells


def _write_csv(table: dict) -> str:
    """CSV text of a table of named columns, header first.

    Float arrays are written with 15 significant digits; any other column
    as csv writes its cells: ``str(cell)``, with None as an empty cell.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(list(table))
    writer.writerows(zip(*map(_csv_cells, table.values())))
    return buf.getvalue()


def _optional_cells(values: list) -> list:
    """CSV cells of a float column with gaps: None stays an empty cell."""
    return [None if v is None else CSV_FLOAT % v for v in values]


def _records(table: dict) -> list[dict]:
    """The table's rows as JSON-ready dicts."""
    columns = [c.tolist() if isinstance(c, np.ndarray) else c for c in table.values()]
    return [dict(zip(table, row)) for row in zip(*columns)]


def _json_cells(column) -> list[str]:
    """JSON text of each cell, as ``json.dumps`` writes it."""
    if isinstance(column, np.ndarray):
        column = column.tolist()
    elif isinstance(column[0], str):
        return list(map(json.encoder.encode_basestring_ascii, column))
    # Numbers, booleans and null never contain ", ", so the list's items
    # split apart; json's own rule writes nan as NaN and inf as Infinity.
    return json.dumps(column)[1:-1].split(", ")


def _json_with_rows(payload: dict, key: str, table: dict) -> str:
    """``json.dumps(payload, indent=2) + "\\n"`` with the table's rows
    (``_records(table)``) added under `key`, built from the table's columns
    with one string template per row.

    A dotted `key` nests the rows: with ``"validation.per_trial"`` they go
    last in ``payload["validation"]``, which must be the payload's last key.
    String columns are lists of str; `table` and every dict on the path are
    not empty.
    """
    *parents, name = key.split(".")
    head = json.dumps(payload, indent=2)
    # The closing braces of the dicts on the path, innermost first.
    closing = "".join(
        "\n" + "  " * level + "}" for level in reversed(range(len(parents) + 1))
    )
    pad = "  " * (len(parents) + 1)
    template = f"{pad}  {{\n%s\n{pad}  }}" % ",\n".join(
        f"{pad}    {json.encoder.encode_basestring_ascii(column)}: %s" for column in table
    )
    rows = ",\n".join(map(template.__mod__, zip(*map(_json_cells, table.values()))))
    return (
        f"{head[: -len(closing)]},\n{pad}{json.encoder.encode_basestring_ascii(name)}: "
        f"[\n{rows}\n{pad}]{closing}\n"
    )


def _emit(
    args, table: dict, payload: dict, rows_key: str | None = None, rows: dict | None = None
) -> None:
    """Write `table` as CSV, or `payload` as indented JSON.

    With `rows_key`, the JSON gets the rows of `rows` (default: `table`) as
    one more key, last.
    """
    if args.format == "csv":
        text = _write_csv(table)
    elif rows_key is None:
        text = json.dumps(payload, indent=2) + "\n"
    else:
        text = _json_with_rows(payload, rows_key, table if rows is None else rows)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _report_table(scenario: Scenario, plan) -> dict:
    """One row per feature, by descending value (ties by index)."""
    order = plan.order
    return {
        "feature": order + 1,
        "name": list(map(scenario.names.__getitem__, order.tolist())),
        "informativeness": plan.informativeness[order],
        "divergence0": plan.divergence0[order],
        "value": plan.values[order],
        "selected": plan.selected[order],
    }


def cmd_eval_static(scenario: Scenario, args) -> int:
    instance = scenario.instance
    if instance.n > EVAL_STATIC_MAX_FEATURES:
        raise InvalidInputError(
            f"eval-static enumerates all 2^n subsets; limited to "
            f"n <= {EVAL_STATIC_MAX_FEATURES}"
        )
    n = instance.n
    subsets = [s for size in range(n + 1) for s in itertools.combinations(range(n), size)]
    table = {
        "subset": [format_subset(s) for s in subsets],
        "mse": np.array([mse(instance, s) for s in subsets]),
    }
    _emit(args, table, {"rows": _records(table)})
    return 0


def cmd_plan_static(scenario: Scenario, args) -> int:
    plan = optimal_static_subset(scenario.instance)
    payload = {
        "subset": format_subset(plan.subset),
        "features": [i + 1 for i in plan.subset],
        "names": [scenario.names[i] for i in plan.subset],
        "degenerate": plan.degenerate,
    }
    _emit(args, _report_table(scenario, plan), payload, "reports")
    return 0


def cmd_plan_stationary(scenario: Scenario, args) -> int:
    plan = optimal_stationary_sequence(scenario.instance, scenario.dynamic)
    baseline = discounted_baseline_loss(scenario.instance)
    payload = {
        "subset": format_subset(plan.subset),
        "features": [i + 1 for i in plan.subset],
        "names": [scenario.names[i] for i in plan.subset],
        "total_value": plan.total_value,
        "loss": baseline - plan.total_value,
        "baseline_loss": baseline,
        "degenerate": plan.degenerate,
    }
    _emit(args, _report_table(scenario, plan), payload, "reports")
    return 0


def cmd_switch_points(scenario: Scenario, args) -> int:
    points = tradeoff.all_switch_points(scenario.instance, scenario.dynamic)
    thresholds = [p.threshold for p in points]
    table = {
        "i": [p.pair.i + 1 for p in points],
        "j": [p.pair.j + 1 for p in points],
        "delta_info": np.array([p.pair.delta_info for p in points]),
        "delta_div": np.array([p.pair.delta_div for p in points]),
        "kind": [p.kind for p in points],
        "threshold": thresholds,
    }
    payload = {"points": _records(table)}
    _emit(args, {**table, "threshold": _optional_cells(thresholds)}, payload)
    return 0


def cmd_sweep_delta(scenario: Scenario, args) -> int:
    grid = parse_grid(args.grid)
    rows = tradeoff.sweep_delta(scenario.instance, scenario.dynamic, grid).rows
    table = {
        "delta": np.array([r.delta for r in rows]),
        "subset": [format_subset(r.subset) for r in rows],
        "total_value": np.array([r.total_value for r in rows]),
        "informativeness": np.array([r.informativeness for r in rows]),
        "loss": np.array([r.loss for r in rows]),
    }
    _emit(args, table, {"rows": _records(table)})
    return 0


def cmd_sweep_heatmap(scenario: Scenario, args) -> int:
    deltas = parse_grid(args.grid)
    ws = parse_grid(args.w_grid if args.w_grid else args.grid)
    result = tradeoff.sweep_w_delta_loss_ratio(scenario.instance, ws, deltas)
    table = {
        "w": np.repeat(result.w_grid, result.delta_grid.size),
        "delta": np.tile(result.delta_grid, result.w_grid.size),
        "loss_ratio": result.ratios.ravel(),
    }
    payload = {
        "more_informative": result.more_informative + 1,
        "less_informative": result.less_informative + 1,
        "w_grid": result.w_grid.tolist(),
        "delta_grid": result.delta_grid.tolist(),
        "ratios": result.ratios.tolist(),
    }
    _emit(args, table, payload)
    return 0


def cmd_enumerate_subsets(scenario: Scenario, args) -> int:
    intervals = tradeoff.enumerate_optimal_subsets(scenario.instance, scenario.dynamic)
    table = {
        "delta_lo": np.array([iv.lo for iv in intervals]),
        "delta_hi": np.array([iv.hi for iv in intervals]),
        "subset": [format_subset(iv.subset) for iv in intervals],
        "informativeness": np.array([iv.informativeness for iv in intervals]),
    }
    _emit(args, table, {"intervals": _records(table)})
    return 0


def cmd_verify(scenario: Scenario, args) -> int:
    instance = scenario.instance
    try:
        best_seq, best_value = oracle.exhaustive_prefix_search(
            instance, scenario.dynamic, args.prefix_len, tol=args.tol
        )
    except VerificationError as exc:
        sys.stderr.write(f"verification failed: {exc}\n")
        return 1
    stationary = optimal_stationary_sequence(instance, scenario.dynamic).total_value
    table = {
        "prefix_length": [args.prefix_len],
        "tol": np.array([args.tol]),
        "best_value": np.array([best_value]),
        "stationary_value": np.array([stationary]),
        "gap": np.array([best_value - stationary]),
        "passed": [True],
    }
    payload = {
        **_records(table)[0],
        "best_prefix": [format_subset(s) for s in best_seq.prefix],
        "best_tail": format_subset(best_seq.tail),
    }
    _emit(args, table, payload)
    return 0


def _parse_epsilon(text: str):
    try:
        values = [float(p) for p in text.split(",") if p.strip() != ""]
    except ValueError as exc:
        raise InvalidInputError(f"--epsilon: {exc}") from exc
    if not values:
        raise InvalidInputError("--epsilon needs at least one number")
    return values[0] if len(values) == 1 else values


def cmd_misspec(scenario: Scenario, args) -> int:
    kind = robustness.ErrorKind(args.kind)
    spec = robustness.ErrorSpec(kind=kind, epsilon=_parse_epsilon(args.epsilon))
    report = robustness.margins(scenario.instance, spec, scenario.dynamic)
    table = {
        "feature": list(range(1, scenario.instance.n + 1)),
        "name": scenario.names,
        "lower_margin": report.lower_margin,
        "upper_margin": report.upper_margin,
    }
    payload = {"kind": kind.value, "epsilon": spec.epsilon, "margins": _records(table)}
    if not args.trials:
        _emit(args, table, payload)
        return 0
    validation = robustness.validate_bound(
        scenario.instance,
        spec,
        trials=args.trials,
        seed=args.seed,
        dynamic=scenario.dynamic,
    )
    payload["validation"] = validation.summary()
    ratios = validation.ratios
    per_trial = {"gap": validation.gaps, "bound": validation.bounds, "ratio": ratios}
    table = {
        "trial": list(range(validation.trials)),
        **per_trial,
        "ratio": _optional_cells(ratios),
    }
    _emit(args, table, payload, "validation.per_trial", per_trial)
    if validation.violations:
        sys.stderr.write(
            f"bound violated in {validation.violations} of "
            f"{validation.trials} trials\n"
        )
        return 1
    return 0


COMMANDS = {
    "eval-static": (cmd_eval_static, "prediction MSE of every feature subset"),
    "plan-static": (cmd_plan_static, "best subset for fixed human beliefs"),
    "plan-stationary": (cmd_plan_stationary, "best repeat-forever subset for a learning human"),
    "switch-points": (cmd_switch_points, "patience thresholds for every ordered feature pair"),
    "sweep-delta": (cmd_sweep_delta, "optimal subset along a patience grid"),
    "sweep-heatmap": (cmd_sweep_heatmap, "retention/patience loss-ratio grid (2 features, k=1)"),
    "enumerate-subsets": (cmd_enumerate_subsets, "optimal subset per patience interval"),
    "verify": (cmd_verify, "exact search showing no bounded prefix beats the stationary plan"),
    "misspec": (cmd_misspec, "error margins and randomized bound validation"),
}


def parse_grid(text: str) -> np.ndarray:
    """Grid syntax: "N" (N cell midpoints in (0,1)), "lo:hi:N", or "a,b,c"."""
    text = text.strip()
    try:
        if ":" in text:
            parts = text.split(":")
            if len(parts) != 3:
                raise InvalidInputError("range grids use the form lo:hi:count")
            lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
            if count < 1:
                raise InvalidInputError("grid count must be >= 1")
            return np.linspace(lo, hi, count)
        if "," in text:
            return np.array([float(p) for p in text.split(",") if p.strip() != ""])
        count = int(text)
    except ValueError as exc:
        raise InvalidInputError(f"--grid: {exc}") from exc
    if count < 1:
        raise InvalidInputError("grid count must be >= 1")
    return (np.arange(count) + 0.5) / count


def build_parser() -> argparse.ArgumentParser:
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
            "--json-errors",
            action="store_true",
            help="report errors as JSON on stderr",
        )
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--tol", type=float, default=1e-9)
        if name in ("sweep-delta", "sweep-heatmap"):
            p.add_argument("--grid", default="100", help='"N", "lo:hi:N", or "a,b,c"')
        if name == "sweep-heatmap":
            p.add_argument("--w-grid", default=None, help="grid for the retention axis")
        if name == "verify":
            p.add_argument("--prefix-len", type=int, default=3)
        if name == "misspec":
            p.add_argument(
                "--kind",
                required=True,
                choices=[k.value for k in robustness.ErrorKind],
            )
            p.add_argument(
                "--epsilon",
                required=True,
                help="error bound: one number or a comma list per feature",
            )
            p.add_argument("--trials", type=int, default=0)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        scenario = load_scenario(
            args.scenario, allow_zero_coeff=args.allow_zero_coeff
        )
        return COMMANDS[args.command][0](scenario, args)
    except InvalidInputError as exc:
        if args.json_errors:
            sys.stderr.write(
                json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n"
            )
        else:
            sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
