import json

import numpy as np
import pytest

from teachsel import Exponential, ProblemInstance, Tabulated
from teachsel.planner import top_k_mask


@pytest.fixture
def three_feature_instance() -> ProblemInstance:
    """Three diagnostic tests; the human overrates the most informative one."""
    return ProblemInstance(
        a=[0.3, 0.2, 0.1], c=0.0, h0=[0.8, 0.2, 0.15], c_bar=0.0, k=3, delta=0.9
    )


@pytest.fixture
def two_feature_instance() -> ProblemInstance:
    """One informative-but-misread feature vs. one familiar weak feature."""
    return ProblemInstance(
        a=[1.0, 0.4], c=0.0, h0=[-0.5, 0.75], c_bar=0.0, k=1, delta=0.5
    )


def random_instance(
    rng: np.random.Generator,
    n: int | None = None,
    k: int | None = None,
    delta: float | None = None,
    max_n: int = 6,
) -> ProblemInstance:
    """Random instance with coefficients bounded away from zero."""
    if n is None:
        n = int(rng.integers(1, max_n + 1))
    a = rng.uniform(0.1, 1.5, n) * rng.choice([-1.0, 1.0], n)
    h0 = rng.normal(0.0, 0.8, n)
    if k is None:
        k = int(rng.integers(0, n + 1))
    if delta is None:
        delta = float(rng.uniform(0.05, 0.95))
    return ProblemInstance(
        a=a, c=float(rng.normal()), h0=h0, c_bar=float(rng.normal()), k=k, delta=delta
    )


def select_top_k(values: np.ndarray, k: int) -> tuple[int, ...]:
    """The sorted up-to-`k` features with the largest strictly positive
    values in one row, ties toward the lower index, as a subset."""
    return tuple(np.flatnonzero(top_k_mask(values, k)).tolist())


def verify_search_case(rng: np.random.Generator, idx: int):
    """An n = 4, k = 2 instance and dynamic drawn as the verify benchmark
    draws them: even `idx` learns geometrically, odd `idx` by a 3-step table."""
    a = rng.uniform(0.05, 2.0, 4) * rng.choice([-1.0, 1.0], 4)
    h0 = rng.normal(0.0, 1.0, 4)
    if idx % 2 == 0:
        dynamic = Exponential(float(rng.uniform(0.2, 0.8)))
    else:
        drops = np.sort(rng.uniform(0.1, 0.9, 3))[::-1]
        dynamic = Tabulated((1.0, *drops.tolist()), tail_w=float(rng.uniform(0.5, 0.9)))
    delta = float(rng.uniform(0.3, 0.9))
    return ProblemInstance(a=a, c=0.2, h0=h0, c_bar=0.1, k=2, delta=delta), dynamic


def write_scenario(path, *, features, c=0.0, c_bar=0.0, k=1, delta=0.5, dynamic=None, **extra):
    doc = {
        "features": features,
        "c": c,
        "c_bar": c_bar,
        "k": k,
        "delta": delta,
        "dynamic": dynamic or {"type": "exponential", "params": {"w": 0.0}},
    }
    doc.update(extra)
    path.write_text(json.dumps(doc, indent=2))
    return path


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "acceptance_lines", None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in sorted(lines):
            terminalreporter.write_line(line)
