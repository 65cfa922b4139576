"""Output checks that do not trust the code under test.

Each check takes one command's output bytes and returns the problems it
found (an empty list means correct).  Expected values are recomputed here
from the generated coefficients: the benchmark's own top-k, closed-form
thresholds, and learning weights summed term by term.  Nothing is imported
from the package being measured.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

import numpy as np

THRESHOLD_ATOL = 1e-8
# Weight terms beyond this index are below 1e-18 for every tail_w <= 0.9.
WEIGHT_TERMS = 400


@dataclass(frozen=True, eq=False)
class Truth:
    """The generated instance: coefficients, budget and scenario dynamic."""

    a: np.ndarray
    h0: np.ndarray
    k: int
    dynamic: dict

    @property
    def info(self) -> np.ndarray:
        return self.a**2

    @property
    def div(self) -> np.ndarray:
        return (self.a - self.h0) ** 2

    def weight(self, delta) -> np.ndarray:
        """``sum_t delta^t * phi(t)``: closed form for geometric, else term by term."""
        d = np.asarray(delta, dtype=float)
        params = self.dynamic["params"]
        if self.dynamic["type"] == "exponential":
            return 1.0 / (1.0 - d * params["w"] ** 2)
        values = np.asarray(params["values"], dtype=float)
        last = values.size - 1
        t = np.arange(WEIGHT_TERMS)
        tail = values[-1] * params["tail_w"] ** (2.0 * np.maximum(t - last, 0))
        phi = np.where(t <= last, values[np.minimum(t, last)], tail)
        return np.power.outer(d, t) @ phi

    def cdf(self, delta) -> np.ndarray:
        """Discounted mass of learning gains, ``1 - (1 - delta) * weight``."""
        d = np.asarray(delta, dtype=float)
        return 1.0 - (1.0 - d) * self.weight(d)

    def values(self, delta: float) -> np.ndarray:
        return self.info / (1.0 - delta) - self.weight(delta) * self.div

    def top_k(self, delta: float) -> list[int]:
        """1-based indices of the k best strictly positive values, ties by index."""
        values = self.values(delta)
        order = np.lexsort((np.arange(values.size), -values))
        chosen = order[values[order] > 0.0][: self.k]
        return sorted(int(i) + 1 for i in chosen)


def _subset_text(features: list[int]) -> str:
    return "+".join(str(i) for i in features)


def plan_csv(out: bytes, truth: Truth, delta: float) -> list[str]:
    rows = list(csv.reader(io.StringIO(out.decode())))
    problems = []
    if len(rows) != truth.a.size + 1:
        problems.append(f"CSV has {len(rows)} lines, expected {truth.a.size + 1}")
    header = rows[0] if rows else []
    if "feature" not in header or "selected" not in header:
        return problems + [f"CSV header lacks feature/selected: {header}"]
    fi, si = header.index("feature"), header.index("selected")
    chosen = sorted(int(r[fi]) for r in rows[1:] if r[si] == "True")
    if chosen != truth.top_k(delta):
        problems.append("CSV selected features differ from the reference top-k")
    return problems


def plan_json(out: bytes, truth: Truth, delta: float) -> list[str]:
    doc = json.loads(out)
    problems = []
    expected = truth.top_k(delta)
    if doc.get("features") != expected or doc.get("subset") != _subset_text(expected):
        problems.append("JSON subset differs from the reference top-k")
    if len(doc.get("reports", ())) != truth.a.size:
        problems.append(f"JSON has {len(doc.get('reports', ()))} reports, expected {truth.a.size}")
    return problems


def _expected_pairs(truth: Truth):
    """Ordered pairs (more informative first) and their gaps, in CLI row order."""
    info, div = truth.info, truth.div
    n = info.size
    for i in range(n):
        for j in range(i + 1, n):
            if info[i] == info[j]:
                continue
            p, q = (i, j) if info[i] > info[j] else (j, i)
            yield p + 1, q + 1, info[p] - info[q], div[p] - div[q]


def switch_points(out: bytes, truth: Truth) -> list[str]:
    points = json.loads(out).get("points", [])
    expected = list(_expected_pairs(truth))
    if len(points) != len(expected):
        return [f"{len(points)} switch points, expected {len(expected)}"]
    problems = []
    found, targets = [], []
    for point, (i, j, d_info, d_div) in zip(points, expected):
        if (point.get("i"), point.get("j")) != (i, j):
            problems.append(f"pair ({point.get('i')}, {point.get('j')}), expected ({i}, {j})")
            continue
        has_threshold = d_info < d_div
        if has_threshold != (point.get("threshold") is not None):
            problems.append(f"pair ({i}, {j}): threshold presence is wrong")
        elif has_threshold:
            found.append(point["threshold"])
            targets.append((d_info, d_div))
    if not found:
        return problems
    t = np.asarray(found, dtype=float)
    d_info, d_div = np.asarray(targets).T
    if truth.dynamic["type"] == "exponential":
        w2 = truth.dynamic["params"]["w"] ** 2
        bad = np.abs(t - (d_info - d_div) / (w2 * d_info - d_div)) > THRESHOLD_ATOL
    else:
        # The cdf rises strictly, so a root of cdf = target within the
        # tolerance brackets the target between its two neighbours.
        target = 1.0 - d_info / d_div
        below = truth.cdf(np.clip(t - THRESHOLD_ATOL, 0.0, 1.0 - 1e-15))
        above = truth.cdf(np.clip(t + THRESHOLD_ATOL, 1e-15, 1.0 - 1e-15))
        bad = ~((below <= target) & (target <= above))
    if bad.any():
        problems.append(f"{int(bad.sum())} of {t.size} thresholds are off the reference")
    return problems


def enumerate_subsets(out: bytes, truth: Truth) -> list[str]:
    rows = list(csv.DictReader(io.StringIO(out.decode())))
    if not rows:
        return ["no intervals"]
    lo = [float(r["delta_lo"]) for r in rows]
    hi = [float(r["delta_hi"]) for r in rows]
    problems = []
    if lo[0] != 0.0 or hi[-1] != 1.0 or lo[1:] != hi[:-1] or any(a >= b for a, b in zip(lo, hi)):
        problems.append("intervals do not tile (0, 1)")
    for a, b, row in zip(lo, hi, rows):
        mid = 0.5 * (a + b)
        if row["subset"] != _subset_text(truth.top_k(mid)):
            problems.append(f"interval ({a}, {b}): subset {row['subset']!r} is not the top-k at {mid}")
    return problems


def verify(out: bytes) -> list[str]:
    return [] if json.loads(out).get("passed") is True else ["verify did not pass"]


def misspec(out: bytes, trials: int) -> list[str]:
    validation = json.loads(out).get("validation", {})
    problems = []
    if validation.get("trials") != trials:
        problems.append(f"misspec ran {validation.get('trials')} trials, expected {trials}")
    if validation.get("violations") != 0:
        problems.append(f"misspec reports {validation.get('violations')} bound violations")
    return problems
