"""How patience and learning speed move the planner toward informative features.

For two features where the more informative one is also more divergent,
there is a single patience threshold: below it the planner prefers the
feature the human already understands, above it the feature worth teaching.
This module locates those thresholds, sweeps patience and learning-rate
grids, and enumerates every subset that is optimal somewhere in (0, 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import (
    Efficiency,
    Exponential,
    LearningDynamic,
    discounted_phi_sum,
    is_more_efficient,
)
from .errors import InvalidInputError
from .model import FeatureSubset, ProblemInstance, subset_informativeness
from .planner import optimal_stationary_sequence, select_top_k

BISECT_TOL = 1e-10
BISECT_MAX_ITER = 60
ALWAYS_PREFERRED = "always_i"
THRESHOLD = "threshold"


@dataclass(frozen=True)
class PairGap:
    """Informativeness and divergence gaps for an ordered feature pair.

    `i` is the strictly more informative feature: ``delta_info > 0``.
    """

    i: int
    j: int
    delta_info: float
    delta_div: float

    def __post_init__(self) -> None:
        if self.delta_info <= 0.0:
            raise InvalidInputError(
                "pair must be ordered with i strictly more informative than j"
            )


def pair_gap(instance: ProblemInstance, i: int, j: int) -> PairGap:
    """Build the gap for features `i`, `j`, ordering by informativeness."""
    n = instance.n
    if not (0 <= i < n and 0 <= j < n) or i == j:
        raise InvalidInputError(f"need two distinct indices in [0, {n})")
    info = instance.informativeness
    if info[i] == info[j]:
        raise InvalidInputError(
            f"features {i} and {j} are equally informative; no ordered pair exists"
        )
    if info[i] < info[j]:
        i, j = j, i
    div = instance.divergence0
    return PairGap(
        i=int(i),
        j=int(j),
        delta_info=float(info[i] - info[j]),
        delta_div=float(div[i] - div[j]),
    )


@dataclass(frozen=True)
class SwitchPoint:
    """Patience threshold above which the more informative feature wins.

    ``threshold is None`` means the more informative feature is weakly
    preferred at every patience level.
    """

    pair: PairGap
    threshold: float | None

    @property
    def kind(self) -> str:
        return ALWAYS_PREFERRED if self.threshold is None else THRESHOLD


def learning_weight_cdf(dynamic: LearningDynamic, delta: float) -> float:
    """``F(delta) = sum_{t>=1} delta^t * (phi(t-1) - phi(t))``.

    The discounted mass of learning gains: strictly increasing from 0
    toward 1 as patience grows, for any convergent dynamic.
    """
    return 1.0 - (1.0 - delta) * discounted_phi_sum(dynamic, delta)


def _bisect_weight_cdf(dynamic: LearningDynamic, target: float) -> float:
    """Unique delta with learning_weight_cdf(delta) == target, 0 < target < 1."""
    lo, hi = 0.0, 1.0  # F(0) = 0 and F(1) = 1 hold for convergent dynamics
    for _ in range(BISECT_MAX_ITER):
        if hi - lo < BISECT_TOL:
            break
        mid = 0.5 * (lo + hi)
        if learning_weight_cdf(dynamic, mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def switching_point(pair: PairGap, dynamic: LearningDynamic) -> SwitchPoint:
    """Locate the pair's patience threshold under an arbitrary dynamic."""
    if pair.delta_info >= pair.delta_div:
        return SwitchPoint(pair=pair, threshold=None)
    if not dynamic.converges():
        raise InvalidInputError(
            "dynamic never converges; the threshold equation has no solution"
        )
    target = 1.0 - pair.delta_info / pair.delta_div
    return SwitchPoint(pair=pair, threshold=_bisect_weight_cdf(dynamic, target))


def switching_point_closed_form(pair: PairGap, w: float) -> SwitchPoint:
    """Threshold under geometric learning: ``(dI - dD) / (w^2*dI - dD)``."""
    if not 0.0 <= w < 1.0:
        raise InvalidInputError(f"retention w={w} outside [0, 1)")
    if pair.delta_info >= pair.delta_div:
        return SwitchPoint(pair=pair, threshold=None)
    threshold = (pair.delta_info - pair.delta_div) / (
        w**2 * pair.delta_info - pair.delta_div
    )
    return SwitchPoint(pair=pair, threshold=float(threshold))


def all_switch_points(
    instance: ProblemInstance, dynamic: LearningDynamic
) -> list[SwitchPoint]:
    """Switch points for every informativeness-distinct feature pair.

    Equally informative pairs have no ordered comparison and are skipped.
    """
    points = []
    for i in range(instance.n):
        for j in range(i + 1, instance.n):
            if instance.informativeness[i] == instance.informativeness[j]:
                continue
            points.append(switching_point(pair_gap(instance, i, j), dynamic))
    return points


# ---------------------------------------------------------------------------
# Patience sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepRow:
    delta: float
    subset: FeatureSubset
    total_value: float
    informativeness: float
    loss: float


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]


def _value_matrix(
    instance: ProblemInstance, dynamic: LearningDynamic, deltas: np.ndarray
) -> np.ndarray:
    """Stationary per-feature values, one row per patience level."""
    weights = np.asarray(discounted_phi_sum(dynamic, deltas))
    info = instance.informativeness
    div = instance.divergence0
    return info[None, :] / (1.0 - deltas)[:, None] - weights[:, None] * div[None, :]


def sweep_delta(
    instance: ProblemInstance, dynamic: LearningDynamic, grid
) -> SweepResult:
    """Optimal stationary subset at each patience level of `grid`."""
    deltas = np.asarray(grid, dtype=float)
    if deltas.ndim != 1 or deltas.size == 0:
        raise InvalidInputError("grid must be a non-empty 1-d sequence")
    if not np.all((deltas > 0.0) & (deltas < 1.0)):
        raise InvalidInputError("grid values must lie strictly inside (0,1)")
    if np.any(np.diff(deltas) <= 0.0):
        raise InvalidInputError("grid must be strictly increasing")
    values = _value_matrix(instance, dynamic, deltas)
    subsets = select_top_k(values, instance.k)
    mse0 = instance.mse_empty()
    info = instance.informativeness
    rows = []
    for d, vals, subset in zip(deltas, values, subsets):
        total = float(np.sum(vals[list(subset)])) if subset else 0.0
        rows.append(
            SweepRow(
                delta=float(d),
                subset=subset,
                total_value=total,
                informativeness=float(np.sum(info[list(subset)])) if subset else 0.0,
                loss=mse0 / (1.0 - float(d)) - total,
            )
        )
    return SweepResult(rows=tuple(rows))


# ---------------------------------------------------------------------------
# Exact enumeration of optimal subsets over delta in (0, 1)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubsetInterval:
    lo: float
    hi: float
    subset: FeatureSubset
    informativeness: float


def _subset_at(instance: ProblemInstance, dynamic: LearningDynamic, d: float) -> FeatureSubset:
    values = _value_matrix(instance, dynamic, np.array([d]))
    return select_top_k(values[0], instance.k)


def _positivity_thresholds(
    instance: ProblemInstance, dynamic: LearningDynamic
) -> list[float]:
    """Patience levels where a single feature's stationary value crosses zero.

    Setting the value of feature i to zero gives the same threshold
    equation as a pair comparison against a worthless dummy feature, so the
    bisection on the learning-weight cdf applies with target 1 - info/div.
    """
    roots = []
    for i in range(instance.n):
        info = float(instance.informativeness[i])
        div = float(instance.divergence0[i])
        if div > info:  # otherwise the value is positive for every delta
            roots.append(_bisect_weight_cdf(dynamic, 1.0 - info / div))
    return roots


def _assemble_intervals(
    instance: ProblemInstance,
    dynamic: LearningDynamic,
    boundaries: list[float],
    probe_offset: float = 1e-9,
) -> list[SubsetInterval]:
    """Probe just right of each boundary and merge equal-subset intervals.

    `probe_offset` must exceed the uncertainty of the boundary locations or
    probes can land on the wrong side.
    """
    edges = [0.0] + sorted(boundaries) + [1.0]
    intervals: list[SubsetInterval] = []
    for lo, hi in zip(edges, edges[1:]):
        if hi - lo <= 0.0:
            continue
        probe = lo + min(probe_offset, 0.5 * (hi - lo))
        subset = _subset_at(instance, dynamic, probe)
        if intervals and intervals[-1].subset == subset:
            prev = intervals[-1]
            intervals[-1] = SubsetInterval(prev.lo, hi, subset, prev.informativeness)
        else:
            intervals.append(
                SubsetInterval(lo, hi, subset, subset_informativeness(instance, subset))
            )
    return intervals


def _dedupe(points: list[float], tol: float = 1e-12) -> list[float]:
    points = sorted(p for p in points if 0.0 < p < 1.0)
    merged: list[float] = []
    for p in points:
        if not merged or p - merged[-1] > tol:
            merged.append(p)
    return merged


def enumerate_optimal_subsets(
    instance: ProblemInstance,
    w_or_dynamic: float | LearningDynamic,
    *,
    grid_resolution: float = 1e-6,
) -> list[SubsetInterval]:
    """Partition (0,1) into maximal patience intervals with a constant optimum.

    With geometric learning every candidate boundary is available exactly
    (pairwise thresholds in closed form, positivity thresholds by
    bisection), so the partition is exact.  Other dynamics fall back to a
    coarse scan refined around detected changes down to `grid_resolution`.
    """
    if isinstance(w_or_dynamic, (int, float)):
        dynamic: LearningDynamic = Exponential(float(w_or_dynamic))
    else:
        dynamic = w_or_dynamic
    if isinstance(dynamic, Exponential):
        if not dynamic.converges():
            raise InvalidInputError("dynamic never converges; values have no limit")
        candidates = _positivity_thresholds(instance, dynamic)
        for i in range(instance.n):
            for j in range(i + 1, instance.n):
                if instance.informativeness[i] == instance.informativeness[j]:
                    continue
                point = switching_point_closed_form(
                    pair_gap(instance, i, j), dynamic.w
                )
                if point.threshold is not None:
                    candidates.append(point.threshold)
        return _assemble_intervals(instance, dynamic, _dedupe(candidates))
    return _enumerate_by_grid(instance, dynamic, grid_resolution)


def _enumerate_by_grid(
    instance: ProblemInstance, dynamic: LearningDynamic, resolution: float
) -> list[SubsetInterval]:
    xs = list(np.linspace(resolution, 1.0 - resolution, 1025))
    labels = {x: _subset_at(instance, dynamic, x) for x in xs}

    def refine_changes() -> list[float]:
        """Bisect every adjacent change bracket down to `resolution` width."""
        found = []
        pts = sorted(labels)
        for lo, hi in zip(pts, pts[1:]):
            if labels[lo] == labels[hi]:
                continue
            a, b = lo, hi
            while b - a > resolution:
                mid = 0.5 * (a + b)
                labels[mid] = _subset_at(instance, dynamic, mid)
                if labels[mid] == labels[a]:
                    a = mid
                else:
                    b = mid
            found.append(0.5 * (a + b))
        return found

    boundaries: list[float] = []
    for _ in range(3):  # re-scan with interval midpoints to catch hidden changes
        boundaries = refine_changes()
        pts = sorted(labels)
        for lo, hi in zip(pts, pts[1:]):
            mid = 0.5 * (lo + hi)
            if hi - lo > resolution and mid not in labels:
                labels[mid] = _subset_at(instance, dynamic, mid)
    return _assemble_intervals(
        instance,
        dynamic,
        _dedupe(boundaries, tol=resolution),
        probe_offset=2.0 * resolution,
    )


# ---------------------------------------------------------------------------
# Learning-rate / patience heatmap for a two-feature tradeoff
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class HeatmapResult:
    """Loss ratio of teaching the informative feature vs. playing it safe.

    ``ratios[wi, di]`` is the discounted loss of repeating the more
    informative feature divided by that of repeating the other, at
    retention ``w_grid[wi]`` and patience ``delta_grid[di]``.
    """

    w_grid: np.ndarray
    delta_grid: np.ndarray
    ratios: np.ndarray
    more_informative: int
    less_informative: int


def sweep_w_delta_loss_ratio(
    instance: ProblemInstance, w_grid, delta_grid
) -> HeatmapResult:
    if instance.n != 2 or instance.k != 1:
        raise InvalidInputError(
            "loss-ratio heatmap needs exactly 2 features and budget k=1"
        )
    ws = np.asarray(w_grid, dtype=float)
    deltas = np.asarray(delta_grid, dtype=float)
    if ws.ndim != 1 or deltas.ndim != 1 or ws.size == 0 or deltas.size == 0:
        raise InvalidInputError("grids must be non-empty 1-d sequences")
    if not np.all((ws >= 0.0) & (ws < 1.0)):
        raise InvalidInputError("retention grid must lie inside [0, 1)")
    if not np.all((deltas > 0.0) & (deltas < 1.0)):
        raise InvalidInputError("patience grid must lie strictly inside (0,1)")

    info = instance.informativeness
    p, q = (0, 1) if info[0] >= info[1] else (1, 0)
    div = instance.divergence0
    baseline = instance.mse_empty() / (1.0 - deltas)
    ratios = np.empty((ws.size, deltas.size))
    for wi, w in enumerate(ws):
        weights = np.asarray(discounted_phi_sum(Exponential(float(w)), deltas))
        loss_p = baseline - (info[p] / (1.0 - deltas) - weights * div[p])
        loss_q = baseline - (info[q] / (1.0 - deltas) - weights * div[q])
        ratios[wi] = loss_p / loss_q
    return HeatmapResult(
        w_grid=ws,
        delta_grid=deltas,
        ratios=ratios,
        more_informative=p,
        less_informative=q,
    )


# ---------------------------------------------------------------------------
# Efficiency-ordering comparison
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EfficiencyComparison:
    classification: Efficiency
    subset_1: FeatureSubset
    subset_2: FeatureSubset
    informativeness_1: float
    informativeness_2: float
    value_1: float
    value_2: float
    ordering_holds: bool | None


def compare_efficiency_selection(
    instance: ProblemInstance,
    d1: LearningDynamic,
    d2: LearningDynamic,
    horizon: int | None = None,
) -> EfficiencyComparison:
    """Check that planning under the faster learner is at least as informative.

    When the dynamics are incomparable no ordering is claimed
    (``ordering_holds is None``).
    """
    kwargs = {} if horizon is None else {"horizon": horizon}
    classification = is_more_efficient(d1, d2, **kwargs)
    plan1 = optimal_stationary_sequence(instance, d1)
    plan2 = optimal_stationary_sequence(instance, d2)
    info1 = subset_informativeness(instance, plan1.subset)
    info2 = subset_informativeness(instance, plan2.subset)
    holds: bool | None
    if classification is Efficiency.INCOMPARABLE:
        holds = None
    else:
        holds = info1 >= info2
    return EfficiencyComparison(
        classification=classification,
        subset_1=plan1.subset,
        subset_2=plan2.subset,
        informativeness_1=info1,
        informativeness_2=info2,
        value_1=plan1.total_value,
        value_2=plan2.total_value,
        ordering_holds=holds,
    )
