"""How patience and learning speed move the planner toward informative features.

For two features where the more informative one is also more divergent,
there is a single patience threshold: below it the planner prefers the
feature the human already understands, above it the feature worth teaching.
This module locates those thresholds, sweeps patience and learning-rate
grids, and enumerates every subset that is optimal somewhere in (0, 1).

Every threshold, under any dynamic, comes from one inverse of the
learning-weight CDF ``F(delta) = (1 - delta) * G(delta)``, with ``G`` from
`discounted_gain_sum`: `inverse_weight_cdf`, in closed form under geometric
learning, by vectorized bisection otherwise.  `all_switch_points` returns
one `SwitchTable` row per ordered pair, and `enumerate_optimal_subsets`
probes between consecutive pair and positivity thresholds, labeling the
levels in blocks of rows (`_top_k_blocks`) instead of a top-k per level.
`sweep_delta` reads its grid from the same blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import (
    Efficiency,
    Exponential,
    LearningDynamic,
    discounted_gain_sum,
    is_more_efficient,
)
from .errors import InvalidInputError
from .model import FeatureSubset, ProblemInstance, subset_informativeness
from .planner import optimal_stationary_sequence, stationary_values, top_k_mask

BISECT_TOL = 1e-10
BISECT_MAX_ITER = 60
# Stationary values per block of probed patience levels.
PROBE_BLOCK = 1 << 14
ALWAYS_PREFERRED = "always_i"
THRESHOLD = "threshold"


@dataclass(frozen=True, eq=False)
class SwitchTable:
    """One row per ordered pair of features with distinct informativeness.

    `i` (0-based) is the more informative feature of the row and `j` the
    other; rows follow ``i < j`` row-major order of the unordered pairs.
    `threshold` is the patience level above which `i` wins, NaN where `i`
    is weakly preferred at every patience level.
    """

    i: np.ndarray
    j: np.ndarray
    delta_info: np.ndarray
    delta_div: np.ndarray
    threshold: np.ndarray

    @property
    def kind(self) -> list[str]:
        return np.where(np.isnan(self.threshold), ALWAYS_PREFERRED, THRESHOLD).tolist()


def inverse_weight_cdf(dynamic: LearningDynamic, targets) -> np.ndarray:
    """The delta with ``F(delta) == target`` for each of a 1-d array of
    `targets` in (0, 1).  ``F(delta) = (1 - delta) * G(delta)``, the
    discounted mass of learning gains, rises strictly from 0 toward 1 with
    patience for any convergent dynamic.

    Under geometric learning ``F(delta) = delta(1 - w^2)/(1 - delta*w^2)``
    inverts exactly to ``t / ((1 - w)(1 + w) + w^2*t)``.  Any other dynamic
    is bisected from the bracket [0, 1] (F(0) = 0 and F(1) = 1 for
    convergent dynamics), on every element at once.  Each element takes the
    steps a scalar loop would, and stops once its bracket is narrower than
    `BISECT_TOL`, or after `BISECT_MAX_ITER` steps.
    """
    targets = np.asarray(targets, dtype=float)
    if isinstance(dynamic, Exponential):
        w = dynamic.w
        return targets / ((1.0 - w) * (1.0 + w) + w**2 * targets)
    lo = np.zeros(targets.shape)
    hi = np.ones(targets.shape)
    for _ in range(BISECT_MAX_ITER):
        live = np.flatnonzero(~(hi - lo < BISECT_TOL))
        if live.size == 0:
            break
        mid = 0.5 * (lo[live] + hi[live])
        below = (1.0 - mid) * discounted_gain_sum(dynamic, mid) < targets[live]
        lo[live[below]] = mid[below]
        hi[live[~below]] = mid[~below]
    return 0.5 * (lo + hi)


def _thresholds(
    dynamic: LearningDynamic, delta_info: np.ndarray, delta_div: np.ndarray
) -> np.ndarray:
    """Each pair's threshold under `dynamic`; NaN where ``delta_info >= delta_div``."""
    need = ~(delta_info >= delta_div)
    out = np.full(delta_info.shape, np.nan)
    if need.any():
        if not dynamic.converges():
            raise InvalidInputError(
                "dynamic never converges; the threshold equation has no solution"
            )
        out[need] = inverse_weight_cdf(dynamic, 1.0 - delta_info[need] / delta_div[need])
    return out


def _pair_columns(instance: ProblemInstance):
    """Ordered pairs as columns `i`, `j`, `delta_info`, `delta_div`.

    The unordered pairs ``i < j`` in row-major order, without the equally
    informative ones (they have no ordered comparison); each row then puts
    its more informative feature first.
    """
    info = instance.informativeness
    div = instance.divergence0
    i, j = np.triu_indices(instance.n, 1)
    distinct = info[i] != info[j]
    i, j = i[distinct], j[distinct]
    swap = info[i] < info[j]
    i, j = np.where(swap, j, i), np.where(swap, i, j)
    return i, j, info[i] - info[j], div[i] - div[j]


def all_switch_points(instance: ProblemInstance, dynamic: LearningDynamic) -> SwitchTable:
    """The threshold table of every informativeness-distinct feature pair.

    All thresholds come from one `inverse_weight_cdf` call.  A dynamic that
    never converges is an error only when some pair needs a threshold.
    """
    i, j, delta_info, delta_div = _pair_columns(instance)
    return SwitchTable(
        i=i,
        j=j,
        delta_info=delta_info,
        delta_div=delta_div,
        threshold=_thresholds(dynamic, delta_info, delta_div),
    )


# ---------------------------------------------------------------------------
# Patience sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SweepResult:
    """The optimal subset at each patience level of a grid, one row per level.

    `total_value` is the subset's stationary value and `loss` the discounted
    loss ``mse_empty / (1 - delta) - total_value``.
    """

    delta: np.ndarray
    subsets: list[FeatureSubset]
    total_value: np.ndarray
    informativeness: np.ndarray
    loss: np.ndarray


def _top_k_blocks(
    instance: ProblemInstance, dynamic: LearningDynamic, deltas: np.ndarray
):
    """Stationary values and the optimal subset's mask at each of `deltas`.

    Yields ``(start, values, masks)``, one row per level from row `start`
    on, in blocks of about `PROBE_BLOCK` values, so memory stays flat
    however many levels are probed.
    """
    rows = max(1, PROBE_BLOCK // max(instance.n, 1))
    for start in range(0, deltas.size, rows):
        values = stationary_values(instance, dynamic, deltas[start : start + rows])
        yield start, values, top_k_mask(values, instance.k)


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
    subsets = []
    total = np.empty(deltas.size)
    for start, values, masks in _top_k_blocks(instance, dynamic, deltas):
        for r, (row, mask) in enumerate(zip(values, masks), start):
            picked = np.flatnonzero(mask)
            subsets.append(tuple(picked.tolist()))
            # Each row sums its gathered subset: a masked row sum can round differently.
            total[r] = np.sum(row[picked])
    info = instance.informativeness
    return SweepResult(
        delta=deltas,
        subsets=subsets,
        total_value=total,
        informativeness=np.array([np.sum(info[list(s)]) for s in subsets]),
        loss=instance.mse_empty() / (1.0 - deltas) - total,
    )


# ---------------------------------------------------------------------------
# Exact enumeration of optimal subsets over delta in (0, 1)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class IntervalTable:
    """Maximal patience intervals with a constant optimum, one row each by
    increasing patience; ``len()`` counts them.  Row r spans (``lo[r]``,
    ``hi[r]``) and the rows tile (0, 1).  ``subsets[r]`` is the optimal
    subset there (sorted 0-based indices), never its neighbours', and
    ``informativeness[r]`` its ``sum a_i^2``."""

    lo: np.ndarray
    hi: np.ndarray
    subsets: list[FeatureSubset]
    informativeness: np.ndarray

    def __len__(self) -> int:
        return self.lo.size


def _assemble_intervals(
    instance: ProblemInstance, dynamic: LearningDynamic, boundaries: np.ndarray
) -> IntervalTable:
    """Probe each interval between sorted boundaries at its midpoint, and
    merge neighbours with equal subsets.

    The midpoint is the level farthest from both boundaries, whose
    locations are inexact.  A level just right of 0 would also mislabel the
    first interval wherever a value that vanishes as delta -> 0 rounds to
    zero there.
    """
    edges = np.concatenate(([0.0], boundaries, [1.0]))
    lo, hi = edges[:-1], edges[1:]
    wide = hi - lo > 0.0
    lo, hi = lo[wide], hi[wide]
    # Between neighbouring floats a midpoint can round onto 0 or 1, which are no patience levels.
    mids = np.clip(0.5 * (lo + hi), np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0))
    masks = np.empty((mids.size, instance.n), dtype=bool)
    for start, _, block in _top_k_blocks(instance, dynamic, mids):
        masks[start : start + len(block)] = block
    changes = (masks[1:] != masks[:-1]).any(axis=1)
    starts = np.flatnonzero(np.concatenate(([True], changes)))
    subsets = [tuple(np.flatnonzero(row).tolist()) for row in masks[starts]]
    info = instance.informativeness
    return IntervalTable(
        lo=lo[starts],
        hi=hi[np.append(starts[1:], lo.size) - 1],
        subsets=subsets,
        informativeness=np.array([np.sum(info[list(s)]) for s in subsets]),
    )


def _dedupe(points: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """The points inside (0, 1), sorted, each more than `tol` above the last kept."""
    merged: list[float] = []
    for p in np.sort(points[(points > 0.0) & (points < 1.0)]).tolist():
        if not merged or p - merged[-1] > tol:
            merged.append(p)
    return np.array(merged)


def enumerate_optimal_subsets(
    instance: ProblemInstance, dynamic: LearningDynamic
) -> IntervalTable:
    """The maximal patience intervals in (0,1) with a constant optimum, as columns.

    The optimum can change only where two features' stationary values cross
    (the pair thresholds of `all_switch_points`) or where one feature's
    value crosses zero.  The latter is the threshold equation of a pair
    against a worthless dummy feature, with gaps ``info_i`` and ``div_i``.
    Every such boundary comes from `inverse_weight_cdf`, and one blocked
    probe inside each interval between them labels it, so the partition is
    exact up to the inverse's precision (exact under geometric learning,
    `BISECT_TOL` otherwise).
    """
    if not dynamic.converges():
        raise InvalidInputError("dynamic never converges; values have no limit")
    _, _, delta_info, delta_div = _pair_columns(instance)
    candidates = np.concatenate(
        (
            _thresholds(dynamic, instance.informativeness, instance.divergence0),
            _thresholds(dynamic, delta_info, delta_div),
        )
    )
    return _assemble_intervals(instance, dynamic, _dedupe(candidates))


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
    """Loss ratios of the two one-feature plans of a two-feature, k = 1
    instance over a retention by patience grid, under geometric learning."""
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
    baseline = instance.mse_empty() / (1.0 - deltas)
    ratios = np.empty((ws.size, deltas.size))
    for wi, w in enumerate(ws):
        v = stationary_values(instance, Exponential(float(w)), deltas)
        ratios[wi] = (baseline - v[:, p]) / (baseline - v[:, q])
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
    """The optimal stationary plans under two dynamics, side by side;
    `ordering_holds` is None when the dynamics are incomparable."""

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
) -> EfficiencyComparison:
    """Check that planning under the faster learner is at least as informative.

    When the dynamics are incomparable no ordering is claimed
    (``ordering_holds is None``).
    """
    classification = is_more_efficient(d1, d2)
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
