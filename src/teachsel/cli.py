"""Command-line interface: scenario in, JSON or CSV report out.

Feature indices are reported 1-based; subsets serialize as sorted,
comma-free strings like "2+3" (empty subset -> "").  CSV cells carry 15
significant digits.  A report is written to stdout or ``--out`` in blocks
of `BLOCK_ROWS` rows as they are formatted, each block's rows from one
``%`` row template; no whole-report text is built.  Exit codes: 0 success,
1 a verification or bound check failed (or, for the process entry point
`run`, stdout closed by its reader), 2 bad input.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import os
import re
import sys
from dataclasses import dataclass
from types import SimpleNamespace

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
BLOCK_ROWS = 8192  # report rows formatted and written at a time
_CSV_SPECIAL = re.compile('[,"\r\n]')  # the characters csv may quote a cell for


@dataclass(frozen=True, eq=False)
class Rows:
    """A table of named columns, placed anywhere in a JSON payload as the
    list of its row objects, or written as CSV.  With an int array `index`,
    the table holds distinct rows and the rows written are rows
    ``index[0], index[1], ...``; None writes every row once, in order."""

    table: dict
    index: np.ndarray | None = None


def format_subset(subset) -> str:
    """Sorted 1-based indices joined by '+': (1, 2) -> "2+3"."""
    return "+".join(str(i + 1) for i in sorted(subset))


def _blocks(body: str, columns, length: int, end: str, last: str):
    """The text of `length` rows, BLOCK_ROWS rows at a time: row r is
    ``body % (cells[0][r], cells[1][r], ...)`` followed by `end`, the last row
    by `last`.  Each of `columns` maps a row range ``(lo, hi)`` to its cells."""
    for lo in range(0, length, BLOCK_ROWS):
        hi = min(lo + BLOCK_ROWS, length)
        close = last if hi == length else end
        if body == "%s":  # rows of finished text: a join is three times faster
            yield end.join(columns[0](lo, hi)) + close
            continue
        flat = [None] * ((hi - lo) * len(columns))
        for c, cells in enumerate(columns):
            flat[c :: len(columns)] = cells(lo, hi)
        yield ((body + end) * (hi - lo - 1) + body + close) % tuple(flat)


def _indexed(body: str, columns, length: int, index: np.ndarray):
    """The row template and column of rows ``index[0], index[1], ...`` of
    `length` rows as `_blocks` takes them, each distinct row's text
    ``body % row`` built once."""
    rows = zip(*(cells(0, length) for cells in columns))
    texts = np.array([body % row for row in rows], dtype=object)
    return "%s", [lambda lo, hi: texts[index[lo:hi]].tolist()]


def _csv_quoted(cells: list[str]) -> list[str]:
    """`cells`, updated in place, as csv quotes them in a row of two or more:
    only cells it may quote go through ``csv.writer``, whose rule decides.

    csv quotes a cell for the line-break characters in its line terminator
    only, so the writer asked ends its lines with "\r\n": a cell holding
    either character is quoted and reads back whole, though rows end in "\n".
    """
    if _CSV_SPECIAL.search("".join(cells)):
        marked = [i for i, cell in enumerate(cells) if _CSV_SPECIAL.search(cell)]
        lines: list[str] = []
        writer = csv.writer(SimpleNamespace(write=lines.append), lineterminator="\r\n")
        writer.writerows([cells[i]] for i in marked)
        for i, line in zip(marked, lines):
            cells[i] = line[:-2]
    return cells


def _csv_column(column):
    """The row-template spec of a CSV column and the function from a row
    range to its cells: a float array's cells are written with 15 significant
    digits, an int or bool array's with ``str``.  In any other column None is
    an empty cell, a float is written as in a float array, and anything else
    with ``str``, each cell quoted as csv quotes it."""
    if isinstance(column, np.ndarray) and column.dtype.kind in "biuf":
        spec = {"f": CSV_FLOAT, "b": "%s"}.get(column.dtype.kind, "%d")
        return spec, lambda lo, hi: column[lo:hi].tolist()

    def cells(lo, hi):
        return _csv_quoted(
            ["" if v is None else CSV_FLOAT % v if isinstance(v, float) else str(v)
             for v in column[lo:hi]]
        )

    return "%s", cells


def _csv_chunks(rows: Rows, numbered: str | None = None):
    """The CSV text of a table in pieces, header first, with csv's minimal
    quoting; `_csv_column` says how each column's cells are written.

    With `rows.index`, each distinct row's text is built once.  With
    `numbered`, a first column of that name counts the rows written from 0.
    """
    lead = [] if numbered is None else [numbered]
    yield ",".join(_csv_quoted([*lead, *rows.table])) + "\n"
    specs, columns = zip(*map(_csv_column, rows.table.values()))
    body, length = ",".join(specs), len(next(iter(rows.table.values())))
    if rows.index is not None:
        body, columns = _indexed(body, columns, length, rows.index)
        length = len(rows.index)
    if numbered is not None:
        body, columns = "%d," + body, [range, *columns]  # range(lo, hi) numbers a block
    yield from _blocks(body, columns, length, "\n", "\n")


def _json_floats(column: np.ndarray) -> list:
    """A float array's cells for a "%s" spec, as ``json.dumps`` writes them:
    ``str`` of a float is ``float.__repr__``; NaN and infinities are patched."""
    cells = column.tolist()
    for i in np.flatnonzero(~np.isfinite(column)).tolist():
        cells[i] = "NaN" if cells[i] != cells[i] else "Infinity" if cells[i] > 0 else "-Infinity"
    return cells


def _json_column(column):
    """The row-template spec of a non-empty JSON column and the function from
    a row range to its cells, as ``json.dumps`` writes them."""
    if isinstance(column, np.ndarray):
        kind = column.dtype.kind
        if kind == "b":
            return "%s", lambda lo, hi: np.where(column[lo:hi], "true", "false").tolist()
        if kind in "iu":
            return "%d", lambda lo, hi: column[lo:hi].tolist()
        if kind == "f":
            return "%s", lambda lo, hi: _json_floats(column[lo:hi])
        column = column.tolist()
    if isinstance(column[0], str):
        return "%s", lambda lo, hi: list(map(json.encoder.encode_basestring_ascii, column[lo:hi]))
    # Numbers, booleans and null never contain ", ", so the list's items
    # split apart; json's own rule writes nan as NaN and inf as Infinity.
    return "%s", lambda lo, hi: json.dumps(column[lo:hi])[1:-1].split(", ")


def _json_rows(rows: Rows, pad: str):
    """The list of the rows' records in pieces, as ``json.dumps(indent=2)``
    writes it at indent `pad`."""
    table, index = rows.table, rows.index
    length = len(index if index is not None else next(iter(table.values()), []))
    if length == 0:
        yield "[]"
        return
    specs, columns = zip(*map(_json_column, table.values()))
    keys = [json.encoder.encode_basestring_ascii(name).replace("%", "%%") for name in table]
    fields = ",".join(f"\n{pad}    {key}: {spec}" for key, spec in zip(keys, specs))
    body = f"{pad}  {{{fields}\n{pad}  }}"
    if index is not None:
        body, columns = _indexed(body, columns, len(next(iter(table.values()))), index)
    yield "[\n"
    yield from _blocks(body, columns, length, ",\n", f"\n{pad}]")


def _json_chunks(value, pad: str):
    """The JSON text of `value` in pieces, as ``json.dumps(value, indent=2)``
    writes it on a line indented by `pad`, each `Rows` at a key of `value`'s
    nested dicts written as the list of its records."""
    if isinstance(value, Rows):
        yield from _json_rows(value, pad)
    elif isinstance(value, dict) and value:
        for n, (key, item) in enumerate(value.items()):
            yield ("," if n else "{") + f"\n{pad}  {json.encoder.encode_basestring_ascii(key)}: "
            yield from _json_chunks(item, pad + "  ")
        yield f"\n{pad}}}"
    else:  # holds no rows: json.dumps raises on a Rows in a list
        yield json.dumps(value, indent=2).replace("\n", "\n" + pad)


def _json(payload):
    """``json.dumps(payload, indent=2) + "\\n"`` in pieces, each `Rows` written as its records."""
    yield from _json_chunks(payload, "")
    yield "\n"


def _emit(args, payload, csv_rows: Rows, numbered: str | None = None) -> None:
    """Write `payload` as indented JSON, or `csv_rows` as CSV, to stdout or
    to ``--out``, each block of rows as it is formatted; `numbered` names a
    first CSV column of row numbers."""
    chunks = _csv_chunks(csv_rows, numbered) if args.format == "csv" else _json(payload)
    if not args.out:
        sys.stdout.writelines(chunks)
        return
    try:
        with open(args.out, "w") as out:
            out.writelines(chunks)
    except OSError as exc:
        raise InvalidInputError(f"cannot write {args.out}: {exc.strerror or exc}") from exc


def _emit_plan(args, scenario: Scenario, plan, **totals) -> int:
    """The plan's subset and `totals`, then one report row per feature, by
    descending value (ties by index)."""
    order = plan.order
    table = {
        "feature": order + 1,
        "name": np.array(scenario.names, dtype=object)[order].tolist(),
        "informativeness": plan.informativeness[order],
        "divergence0": plan.divergence0[order],
        "value": plan.values[order],
        "selected": plan.selected[order],
    }
    payload = {
        "subset": format_subset(plan.subset),
        "features": [i + 1 for i in plan.subset],
        "names": [scenario.names[i] for i in plan.subset],
        **totals,
        "degenerate": plan.degenerate,
        "reports": Rows(table),
    }
    _emit(args, payload, payload["reports"])
    return 0


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
    rows = Rows(table)
    _emit(args, {"rows": rows}, rows)
    return 0


def cmd_plan_static(scenario: Scenario, args) -> int:
    return _emit_plan(args, scenario, optimal_static_subset(scenario.instance))


def cmd_plan_stationary(scenario: Scenario, args) -> int:
    plan = optimal_stationary_sequence(scenario.instance, scenario.dynamic)
    baseline = discounted_baseline_loss(scenario.instance)
    loss = baseline - plan.total_value
    return _emit_plan(
        args, scenario, plan, total_value=plan.total_value, loss=loss, baseline_loss=baseline
    )


def cmd_switch_points(scenario: Scenario, args) -> int:
    points = tradeoff.all_switch_points(scenario.instance, scenario.dynamic)
    table = {
        "i": points.i + 1,
        "j": points.j + 1,
        "delta_info": points.delta_info,
        "delta_div": points.delta_div,
        "kind": points.kind,
        "threshold": [None if t != t else t for t in points.threshold.tolist()],
    }
    rows = Rows(table)
    _emit(args, {"points": rows}, rows)
    return 0


def cmd_sweep_delta(scenario: Scenario, args) -> int:
    grid = parse_grid(args.grid)
    result = tradeoff.sweep_delta(scenario.instance, scenario.dynamic, grid)
    table = {
        "delta": result.delta,
        "subset": list(map(format_subset, result.subsets)),
        "total_value": result.total_value,
        "informativeness": result.informativeness,
        "loss": result.loss,
    }
    rows = Rows(table)
    _emit(args, {"rows": rows}, rows)
    return 0


def cmd_sweep_heatmap(scenario: Scenario, args) -> int:
    deltas = parse_grid(args.grid)
    ws = parse_grid(args.w_grid, "--w-grid") if args.w_grid else deltas
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
    _emit(args, payload, Rows(table))
    return 0


def cmd_enumerate_subsets(scenario: Scenario, args) -> int:
    intervals = tradeoff.enumerate_optimal_subsets(scenario.instance, scenario.dynamic)
    table = {
        "delta_lo": intervals.lo,
        "delta_hi": intervals.hi,
        "subset": list(map(format_subset, intervals.subsets)),
        "informativeness": intervals.informativeness,
    }
    rows = Rows(table)
    _emit(args, {"intervals": rows}, rows)
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
    row = {
        "prefix_length": args.prefix_len,
        "tol": args.tol,
        "best_value": best_value,
        "stationary_value": stationary,
        "gap": best_value - stationary,
        "passed": True,
    }
    payload = {
        **row,
        "best_prefix": [format_subset(s) for s in best_seq.prefix],
        "best_tail": format_subset(best_seq.tail),
    }
    _emit(args, payload, Rows({name: [value] for name, value in row.items()}))
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
    payload = {"kind": kind.value, "epsilon": spec.epsilon, "margins": Rows(table)}
    if not args.trials:
        _emit(args, payload, payload["margins"])
        return 0
    validation = robustness.validate_bound(
        scenario.instance,
        spec,
        trials=args.trials,
        seed=args.seed,
        dynamic=scenario.dynamic,
    )
    # One row per trial, written from its subset's row; JSON rows are in
    # trial order, CSV rows name their trial.
    subsets = {
        "gap": validation.subset_gap,
        "bound": validation.subset_bound,
        "ratio": validation.subset_ratio,
    }
    per_trial = Rows(subsets, validation.trial_subset)
    payload["validation"] = {**validation.summary(), "per_trial": per_trial}
    _emit(args, payload, per_trial, "trial")
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


def parse_grid(text: str, option: str = "--grid") -> np.ndarray:
    """The grid of flag `option`: "N" (N cell midpoints in (0,1)), "lo:hi:N", or "a,b,c"."""
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
        raise InvalidInputError(f"{option}: {exc}") from exc
    if count < 1:
        raise InvalidInputError("grid count must be >= 1")
    return (np.arange(count) + 0.5) / count


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="teachsel",
        description="Plan feature selections for a learning human predictor.",
    )
    # The options of every command, added once and shared by the subparsers.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("scenario", help="path to a scenario JSON file")
    common.add_argument("--out", default=None, help="write output to this path")
    common.add_argument("--format", choices=["json", "csv"], default="json")
    common.add_argument(
        "--allow-zero-coeff",
        action="store_true",
        help="accept zero true coefficients with a warning",
    )
    common.add_argument(
        "--json-errors", action="store_true", help="report errors as JSON on stderr"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, blurb) in COMMANDS.items():
        p = sub.add_parser(name, help=blurb, description=blurb, parents=[common])
        if name in ("sweep-delta", "sweep-heatmap"):
            p.add_argument("--grid", default="100", help='"N", "lo:hi:N", or "a,b,c"')
        if name == "sweep-heatmap":
            p.add_argument("--w-grid", default=None, help="grid for the retention axis")
        if name == "verify":
            p.add_argument("--prefix-len", type=int, default=3)
            p.add_argument("--tol", type=float, default=1e-9)
        if name == "misspec":
            kinds = [k.value for k in robustness.ErrorKind]
            p.add_argument("--kind", required=True, choices=kinds)
            p.add_argument(
                "--epsilon",
                required=True,
                help="error bound: one number or a comma list per feature",
            )
            p.add_argument("--trials", type=int, default=0)
            p.add_argument("--seed", type=int, default=0)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser every ``main`` call of this process shares."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
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


class _Stdout(io.RawIOBase):
    """File descriptor 1, one ``os.write`` per write.  Buffered over it, a
    write that a closing reader cuts short raises BrokenPipeError, where
    the default stdout returns the short count and its text layer drops it."""

    def writable(self) -> bool:
        return True

    def write(self, data) -> int:
        return os.write(1, data)


def run() -> int:
    """The process entry point (``teachsel``, ``python -m teachsel``): `main`,
    with a reader that closes stdout early ending the process with exit 1 and
    no traceback."""
    out = sys.stdout
    sys.stdout = io.TextIOWrapper(
        io.BufferedWriter(_Stdout()), out.encoding, out.errors, line_buffering=out.line_buffering
    )
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # Python's advice: stdout goes to devnull, so the interpreter's own
        # flush at exit does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(run())
