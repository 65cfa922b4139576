"""Self-test of the benchmark's output checks and failure accounting.

    python3 -m pytest perfbench/test_checks.py

Runs the real CLI on small instances of the workloads, shows that the checks
accept its output, and that a corrupted or malformed output, or an op whose
output differs from the reference op, is counted as a failed op.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from teachsel import cli  # noqa: E402

SMALL = {
    "plan-large": {"n": 300, "k": 20},
    "patience-tabulated": {"n": 12, "k": 3},
    "patience-geometric": {"n": 12, "k": 3},
    "verify-misspec": {"instances": 2, "trials": 200},
}


def outputs(workload) -> list[bytes]:
    found = []
    for command in workload.commands:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli.main(list(command.argv)) == 0
        found.append(buf.getvalue().encode())
    return found


def op(digests, ok=True) -> dict:
    return {"ok": ok, "digests": list(digests), "error": None if ok else "exited 2"}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_checks_accept_the_program_output(name, tmp_path):
    workload = workloads.BUILDERS[name](3, tmp_path, **SMALL[name])
    for command, out in zip(workload.commands, outputs(workload)):
        assert command.check(out) == [], command.label


def flip_selected(out: bytes) -> bytes:
    return out.replace(b",True\n", b",False\n", 1)


def shift_threshold(out: bytes) -> bytes:
    doc = json.loads(out)
    point = next(p for p in doc["points"] if p["threshold"] is not None)
    point["threshold"] += 1e-6
    return json.dumps(doc).encode()


def change_interval_subset(out: bytes) -> bytes:
    header, first, *rest = out.decode().splitlines()
    cells = first.split(",")
    cells[2] = "1" if cells[2] == "" else ""
    return "\n".join([header, ",".join(cells), *rest]).encode()


def add_violation(out: bytes) -> bytes:
    doc = json.loads(out)
    doc["validation"]["violations"] = 1
    return json.dumps(doc).encode()


@pytest.mark.parametrize(
    "name, index, corrupt",
    [
        ("plan-large", 0, flip_selected),
        ("plan-large", 1, lambda out: out.replace(b'"features": [\n    ', b'"features": [\n    1,\n    ', 1)),
        ("patience-tabulated", 0, shift_threshold),
        ("patience-geometric", 0, shift_threshold),
        ("patience-tabulated", 1, change_interval_subset),
        ("patience-geometric", 1, change_interval_subset),
        ("verify-misspec", 2, add_violation),
    ],
)
def test_corrupted_output_is_counted_as_failure(name, index, corrupt, tmp_path):
    workload = workloads.BUILDERS[name](3, tmp_path, **SMALL[name])
    command = workload.commands[index]
    bad = corrupt(outputs(workload)[index])
    problems = {command.label: command.check(bad)}
    assert problems[command.label], "corruption went unnoticed"
    reference = op(["d"] * len(workload.commands))
    reasons = run.tally(reference, problems, [reference, reference])
    assert reasons == ["reference output failed its check"] * 2


@pytest.mark.parametrize("name", sorted(SMALL))
@pytest.mark.parametrize("out", [b"[]", b'{"points": [1], "validation": []}', b"\xff", b""])
def test_malformed_output_is_counted_not_raised(name, out, tmp_path):
    workload = workloads.BUILDERS[name](3, tmp_path, **SMALL[name])
    problems = {c.label: run.check(c, out) for c in workload.commands}
    assert all(problems.values()), problems
    reference = op(["d"] * len(workload.commands))
    assert run.tally(reference, problems, [reference]) == ["reference output failed its check"]


def test_op_that_differs_from_the_reference_fails():
    reference = op(["a", "b"])
    ops = [op(["a", "b"]), op(["a", "c"]), op(["a", "b"], ok=False)]
    reasons = run.tally(reference, {"x": []}, ops)
    assert reasons[0] is None
    assert reasons[1] == "output differs from the reference op"
    assert reasons[2] == "exited 2"


def test_fixtures_repeat_for_a_seed(tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    first.mkdir()
    second.mkdir()
    for directory in (first, second):
        workloads.verify_misspec(7, directory)
    for path in first.iterdir():
        assert path.read_bytes() == (second / path.name).read_bytes()
