"""Seeded scenario files and the commands one op of each workload runs.

Every workload is built from ``(name, seed)`` alone: the same seed writes the
same bytes.  The seed picks coefficients and dynamic parameters; the sizes,
table lengths and command lines are fixed.  The patience workloads keep one
instance per workload that the seed permutes and jitters, because their work
depends on the instance's shape.  So the work an op does barely depends on
the seed and runs with different seeds stay comparable.

Each command carries its own output check (see ``checks.py``), built from the
values generated here rather than from anything the program reports.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks

# Criterion 9's distribution: |a| ~ U(0.05, 2) with a random sign, h0 ~ N(0, 1).
A_LOW, A_HIGH = 0.05, 2.0
C, C_BAR = 0.2, 0.1
# Relative jitter a seed applies to the patience workloads' coefficients.
JITTER = 1e-3


@dataclass(frozen=True)
class Command:
    label: str
    argv: tuple[str, ...]
    check: Callable[[bytes], list[str]]


@dataclass(frozen=True)
class Workload:
    name: str
    params: dict
    commands: tuple[Command, ...]


def _rng(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(name.encode())])


def _coefficients(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    a = rng.uniform(A_LOW, A_HIGH, n) * rng.choice([-1.0, 1.0], n)
    h0 = rng.normal(0.0, 1.0, n)
    return a, h0


def _tabulated(rng: np.random.Generator, steps: int) -> dict:
    """A table of `steps` strictly falling weights after phi(0) = 1, then a tail."""
    drops = np.sort(rng.uniform(0.1, 0.9, steps))[::-1]
    return {
        "type": "tabulated",
        "params": {
            "values": [1.0] + [float(v) for v in drops],
            "tail_w": float(rng.uniform(0.5, 0.9)),
        },
    }


def _exponential(w: float) -> dict:
    return {"type": "exponential", "params": {"w": float(w)}}


def _write_scenario(
    path: Path, a: np.ndarray, h0: np.ndarray, k: int, delta: float, dynamic: dict
) -> Path:
    doc = {
        "features": [{"a": float(x), "h0": float(y)} for x, y in zip(a, h0)],
        "c": C,
        "c_bar": C_BAR,
        "k": k,
        "delta": float(delta),
        "dynamic": dynamic,
    }
    path.write_text(json.dumps(doc))
    return path


def plan_large(seed: int, workdir: Path, n: int = 100_000, k: int = 5_000) -> Workload:
    delta, dynamic = 0.9, _exponential(0.5)
    a, h0 = _coefficients(_rng(seed, "plan-large"), n)
    path = str(_write_scenario(workdir / "plan-large.json", a, h0, k, delta, dynamic))
    truth = checks.Truth(a=a, h0=h0, k=k, dynamic=dynamic)
    return Workload(
        name="plan-large",
        params={"n": n, "k": k, "delta": delta, "dynamic": dynamic, "formats": ["csv", "json"]},
        commands=(
            Command(
                "plan-stationary/csv",
                ("plan-stationary", path, "--format", "csv"),
                lambda out: checks.plan_csv(out, truth, delta),
            ),
            Command(
                "plan-stationary/json",
                ("plan-stationary", path),
                lambda out: checks.plan_json(out, truth, delta),
            ),
        ),
    )


def _patience(name: str, seed: int, workdir: Path, n: int, k: int, dynamic_of) -> Workload:
    # How much work these commands do depends on the instance: how many pairs
    # of features cross, and where.  Fresh coefficients per seed moved an
    # op's work by about 15% from seed to seed, so the instance is drawn once
    # per workload and the seed only permutes its features and jitters each
    # coefficient.  Outputs still differ from seed to seed; the work does not.
    base = _rng(0, name)
    a, h0 = _coefficients(base, n)
    dynamic = dynamic_of(base)
    rng = _rng(seed, name)
    order = rng.permutation(n)
    a = a[order] * (1.0 + JITTER * rng.uniform(-1.0, 1.0, n))
    h0 = h0[order] + JITTER * rng.uniform(-1.0, 1.0, n)
    delta = 0.9  # unused by both commands, which range over all of (0, 1)
    path = str(_write_scenario(workdir / f"{name}.json", a, h0, k, delta, dynamic))
    truth = checks.Truth(a=a, h0=h0, k=k, dynamic=dynamic)
    return Workload(
        name=name,
        params={"n": n, "k": k, "dynamic": dynamic},
        commands=(
            Command(
                "switch-points/json",
                ("switch-points", path),
                lambda out: checks.switch_points(out, truth),
            ),
            Command(
                "enumerate-subsets/csv",
                ("enumerate-subsets", path, "--format", "csv"),
                lambda out: checks.enumerate_subsets(out, truth),
            ),
        ),
    )


def patience_tabulated(seed: int, workdir: Path, n: int = 60, k: int = 6) -> Workload:
    return _patience(
        "patience-tabulated", seed, workdir, n, k, lambda rng: _tabulated(rng, 4)
    )


def patience_geometric(seed: int, workdir: Path, n: int = 120, k: int = 12) -> Workload:
    return _patience(
        "patience-geometric", seed, workdir, n, k, lambda rng: _exponential(0.5)
    )


def verify_misspec(
    seed: int, workdir: Path, instances: int = 6, trials: int = 10_000
) -> Workload:
    rng = _rng(seed, "verify-misspec")
    commands = []
    for idx in range(instances):
        # Oracle's largest scope: n = 4, k = 2, prefixes of length 4.
        a, h0 = _coefficients(rng, 4)
        dynamic = (
            _exponential(rng.uniform(0.2, 0.8)) if idx % 2 == 0 else _tabulated(rng, 3)
        )
        delta = rng.uniform(0.3, 0.9)
        path = str(_write_scenario(workdir / f"verify-{idx}.json", a, h0, 2, delta, dynamic))
        commands.append(
            Command(f"verify/{idx}", ("verify", path, "--prefix-len", "4"), checks.verify)
        )
    # truth-learning margins need epsilon <= min(|a|, |a - h0|); drawing the
    # divergence away from zero keeps every feature inside that domain.
    n, k, epsilon = 8, 3, 0.01
    a = rng.uniform(A_LOW, A_HIGH, n) * rng.choice([-1.0, 1.0], n)
    h0 = a + rng.uniform(0.1, 1.5, n) * rng.choice([-1.0, 1.0], n)
    path = str(_write_scenario(workdir / "misspec.json", a, h0, k, 0.9, _exponential(0.5)))
    argv = (
        "misspec", path, "--kind", "truth-learning", "--epsilon", str(epsilon),
        "--trials", str(trials), "--seed", str(seed),
    )
    commands.append(
        Command("misspec/json", argv, lambda out: checks.misspec(out, trials))
    )
    return Workload(
        name="verify-misspec",
        params={
            "verify": {"instances": instances, "n": 4, "k": 2, "prefix_len": 4},
            "misspec": {"n": n, "k": k, "kind": "truth-learning", "epsilon": epsilon, "trials": trials},
        },
        commands=tuple(commands),
    )


BUILDERS = {
    "plan-large": plan_large,
    "patience-tabulated": patience_tabulated,
    "patience-geometric": patience_geometric,
    "verify-misspec": verify_misspec,
}
