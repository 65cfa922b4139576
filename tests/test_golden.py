"""Golden CLI output: every command x format on the bundled scenarios.

Each case's stdout is pinned byte for byte in ``tests/golden/``, with its exit
code and stderr in ``tests/golden/status.json``.  After an intended output
change, regenerate from the repository root with

    PYTHONPATH=src python tests/test_golden.py

and name the change in CHANGES.md.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from teachsel.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
SCENARIOS = ("tabulated", "three_tests", "two_features")
# case label -> command and its options
COMMANDS = {
    "eval-static": ["eval-static"],
    "plan-static": ["plan-static"],
    "plan-stationary": ["plan-stationary"],
    "switch-points": ["switch-points"],
    "sweep-delta": ["sweep-delta", "--grid", "7"],
    "sweep-heatmap": ["sweep-heatmap", "--grid", "4", "--w-grid", "3"],
    "enumerate-subsets": ["enumerate-subsets"],
    "verify": ["verify", "--prefix-len", "2"],
    "misspec-margins": ["misspec", "--kind", "learning-speed", "--epsilon", "0.01"],
    "misspec-trials": [
        "misspec", "--kind", "truth-static", "--epsilon", "0.02", "--trials", "25",
        "--seed", "4",
    ],
}
CASES = [
    f"{scenario}.{command}.{fmt}"
    for scenario in SCENARIOS
    for command in COMMANDS
    for fmt in ("json", "csv")
]


def run_case(case: str) -> tuple[int, str, str]:
    scenario, label, fmt = case.split(".")
    command, *options = COMMANDS[label]
    path = ROOT / "scenarios" / f"{scenario}.json"
    argv = [command, str(path), *options, "--format", fmt]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("case", CASES)
def test_cli_output_matches_golden(case):
    code, out, err = run_case(case)
    status = json.loads((GOLDEN / "status.json").read_text())[case]
    assert out == (GOLDEN / case).read_text()
    assert [code, err] == status


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    status = {}
    for case in CASES:
        code, out, err = run_case(case)
        (GOLDEN / case).write_text(out)
        status[case] = [code, err]
    (GOLDEN / "status.json").write_text(json.dumps(status, indent=1) + "\n")


if __name__ == "__main__":
    sys.exit(regenerate())
