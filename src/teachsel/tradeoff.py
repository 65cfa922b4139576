"""How patience and learning speed move the planner toward informative features.

For two features where the more informative one is also more divergent,
there is a single patience threshold: below it the planner prefers the
feature the human already understands, above it the feature worth teaching.
This module locates those thresholds, sweeps patience and learning-rate
grids, and enumerates every subset that is optimal somewhere in (0, 1).

Every threshold, under any dynamic, comes from one inverse of the
learning-weight CDF ``F(delta) = (1 - delta) * G(delta)``, with ``G`` from
`discounted_gain_sum`: `inverse_weight_cdf`, in closed form under geometric
learning, otherwise by a vectorized Newton iteration on F's closed form
(`_weight_cdf_and_slope`), of the F where two features' lines cross
(`_crossing`).  `all_switch_points` returns one `SwitchTable`
row per ordered pair.  `enumerate_optimal_subsets` builds
no pair table: in F each feature is a line, and a kinetic sweep
(`_swap_edges`) visits the swaps of the top k only, O(n) work per event;
it probes between consecutive swaps, labeling the levels in blocks of rows
(`_top_k_blocks`).  `sweep_delta` reads its grid from the same blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import (
    Efficiency,
    Exponential,
    LearningDynamic,
    is_more_efficient,
)
from .errors import InvalidInputError
from .model import FeatureSubset, ProblemInstance, static_values, subset_informativeness
from .planner import optimal_stationary_sequence, stationary_values, top_k_mask

# `inverse_weight_cdf` reads F at these patience levels to start from,
# and gives up after this many Newton steps.
START_GRID = np.arange(1, 65) / 64.0
NEWTON_MAX_ITER = 64
_SMALLEST_NORMAL = np.finfo(float).smallest_normal
# Stationary values per block of probed patience levels.
PROBE_BLOCK = 1 << 14
# Boundaries this close in patience are one.
MERGE_TOL = 1e-12
# Below this F, ``1 - delta_info/delta_div`` has lost at least half its bits.
CANCELS_BELOW = 2.0**-26
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

    # The names of `kind_codes`: a NaN threshold is `ALWAYS_PREFERRED`.
    KINDS = (ALWAYS_PREFERRED, THRESHOLD)

    @property
    def kind_codes(self) -> np.ndarray:
        return np.where(np.isnan(self.threshold), 0, 1)

    @property
    def kind(self) -> list[str]:
        return [self.KINDS[c] for c in self.kind_codes.tolist()]


def _weight_cdf_and_slope(dynamic: LearningDynamic, delta: np.ndarray):
    """``F(delta)`` and ``F'(delta)`` under a table dynamic, in one Horner pass.

    ``F(delta) = sum_{t=1..L} psi_t delta^t + c delta^(L+1) / (1 - w^2 delta)``
    with ``psi_t = phi(t-1) - phi(t) >= 0`` and ``c = phi(L)(1 - w^2)``.  The
    tail enters as ``c / ((1 - delta)/delta + (1 - w)(1 + w))`` and is left
    out where c is 0, as at w = 1 with phi(L) = 0.  Every term is
    nonnegative and every operation rounds monotonically, so the computed F
    never falls as delta rises.  ``F'`` uses
    ``1 - w^2 delta = (1 - delta) + delta(1 - w)(1 + w)``.
    """
    table, w = dynamic.table, dynamic.tail_retention
    decay_gap = (1.0 - w) * (1.0 + w)
    coef = table[-1] * decay_gap
    f = slope = 0.0
    if coef:
        f = coef / ((1.0 - delta) / delta + decay_gap)
        rest = (1.0 - delta) + delta * decay_gap
        slope = coef / (rest * rest)
    for lead, after in zip(table[-2::-1], table[:0:-1]):
        inner = (lead - after) + f
        f, slope = delta * inner, inner + delta * slope
    return f, slope


def _newton_step(delta, f, slope, target):
    """Newton's step toward ``F = target`` in ``log F`` against
    ``log delta``, which is convex: ``delta * (target/F)^(F/(delta*F'))``.
    NaN where F or F' underflowed to 0."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return delta * np.exp(np.log(target / f) * (f / (delta * slope)))


def inverse_weight_cdf(dynamic: LearningDynamic, targets) -> np.ndarray:
    """The delta with ``F(delta) == target`` for each of a 1-d array of
    `targets` in (0, 1).  ``F(delta) = (1 - delta) * G(delta)``, the
    discounted mass of learning gains, rises strictly from 0 toward 1 with
    patience for any convergent dynamic.

    Under geometric learning ``F(delta) = delta(1 - w^2)/(1 - delta*w^2)``
    inverts exactly to ``t / ((1 - w)(1 + w) + w^2*t)``.  Any other dynamic
    gets the least float delta at which `_weight_cdf_and_slope`'s F reaches
    the target, held between the smallest normal float (below which F has
    no relative precision) and ``F(1)``.  That F is within a few ulps and
    ``delta*F'/F >= 1``, so delta is within a few ulps of the root; and as
    F never falls, a larger target never gets a smaller delta.

    It is found by Newton steps in ``log F`` against ``log delta``, where F,
    a sum of powers of delta with nonnegative weights, is convex: started
    at or below the root, they overshoot once and then fall to it.  The
    start is the chord of F between two `START_GRID` levels, which is at or
    below the root, or below the first level the power law with F's slope
    there.  Each element keeps a bracket ``F(lo) < target <= F(hi)``: a step
    outside it is held inside, a NaN step (F underflowed to 0) bisects its
    bit patterns, and the element is done when lo and hi are neighbouring
    floats, after about 4 steps (about 20 where w is within 1e-9 of 1).
    RuntimeError after `NEWTON_MAX_ITER` steps.
    """
    targets = np.asarray(targets, dtype=float)
    if isinstance(dynamic, Exponential):
        w = dynamic.w
        return targets / ((1.0 - w) * (1.0 + w) + w**2 * targets)
    grid_f, grid_slope = _weight_cdf_and_slope(dynamic, START_GRID)
    targets = np.clip(targets, _SMALLEST_NORMAL, grid_f[-1])
    above = np.searchsorted(grid_f, targets)
    lo = np.where(above > 0, START_GRID[above - 1], np.nextafter(_SMALLEST_NORMAL, 0.0))
    hi = START_GRID[above]
    delta = np.where(
        above > 0,
        np.interp(targets, grid_f, START_GRID),
        _newton_step(START_GRID[0], grid_f[0], grid_slope[0], targets),
    )
    for _ in range(NEWTON_MAX_ITER):
        delta = np.minimum(np.maximum(delta, np.nextafter(lo, 1.0)), np.nextafter(hi, 0.0))
        lost = np.isnan(delta)
        if lost.any():
            bits = (lo[lost].view(np.int64) + hi[lost].view(np.int64)) // 2
            delta[lost] = bits.view(np.float64)
        f, slope = _weight_cdf_and_slope(dynamic, delta)
        reached = f >= targets
        lo, hi = np.where(reached, lo, delta), np.where(reached, delta, hi)
        if np.all(np.nextafter(lo, 1.0) >= hi):
            return hi
        delta = _newton_step(delta, f, slope, targets)
    raise RuntimeError(f"the inverse of F does not settle in {NEWTON_MAX_ITER} steps")


def _crossing(
    delta_info: np.ndarray, delta_div: np.ndarray, delta_static: np.ndarray
) -> np.ndarray:
    """The F at which two lines ``static + F*div`` cross, from their gaps.

    ``1 - delta_info/delta_div``, except below `CANCELS_BELOW`, where
    ``delta_div - delta_info`` cancels and ``-delta_static/delta_div``, at
    least 0, is taken: the static values ``h*(2a - h)`` are within two
    roundings.  Above it the two agree to rounding, and the first keeps
    the reported thresholds' bits.
    """
    at = 1.0 - delta_info / delta_div
    return np.where(at < CANCELS_BELOW, np.maximum(-delta_static / delta_div, 0.0), at)


def _thresholds(
    dynamic: LearningDynamic,
    delta_info: np.ndarray,
    delta_div: np.ndarray,
    delta_static: np.ndarray,
) -> np.ndarray:
    """Each pair's threshold under `dynamic`; NaN where its `_crossing`
    is not in (0, 1), as where ``delta_info >= delta_div``."""
    with np.errstate(divide="ignore", invalid="ignore"):
        at = _crossing(delta_info, delta_div, delta_static)
    need = (delta_div > 0.0) & (at > 0.0)
    out = np.full(delta_info.shape, np.nan)
    if need.any():
        if not dynamic.converges():
            raise InvalidInputError(
                "dynamic never converges; the threshold equation has no solution"
            )
        out[need] = inverse_weight_cdf(dynamic, at[need])
    return out


def _pair_columns(instance: ProblemInstance):
    """Ordered pairs as columns `i`, `j`, `delta_info`, `delta_div`,
    `delta_static`.

    The unordered pairs ``i < j`` in row-major order, without the equally
    informative ones (they have no ordered comparison); each row then puts
    its more informative feature first.
    """
    info = instance.informativeness
    div = instance.divergence0
    static = static_values(instance)
    i, j = np.triu_indices(instance.n, 1)
    distinct = info[i] != info[j]
    i, j = i[distinct], j[distinct]
    swap = info[i] < info[j]
    i, j = np.where(swap, j, i), np.where(swap, i, j)
    return i, j, info[i] - info[j], div[i] - div[j], static[i] - static[j]


def all_switch_points(instance: ProblemInstance, dynamic: LearningDynamic) -> SwitchTable:
    """The threshold table of every informativeness-distinct feature pair.

    All thresholds come from one `inverse_weight_cdf` call.  A dynamic that
    never converges is an error only when some pair needs a threshold.
    """
    i, j, delta_info, delta_div, delta_static = _pair_columns(instance)
    return SwitchTable(
        i=i,
        j=j,
        delta_info=delta_info,
        delta_div=delta_div,
        threshold=_thresholds(dynamic, delta_info, delta_div, delta_static),
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


def _dedupe(points: np.ndarray, tol: float = MERGE_TOL) -> np.ndarray:
    """The points inside (0, 1), sorted, each more than `tol` above the last kept."""
    merged: list[float] = []
    for p in np.sort(points[(points > 0.0) & (points < 1.0)]).tolist():
        if not merged or p - merged[-1] > tol:
            merged.append(p)
    return np.array(merged)


def _against(lines, ref: int):
    """Every line ``static + F*div`` of `lines`, the columns `info`,
    `static` and `div`, against line `ref`, as columns.

    `at` is the F of their `_crossing`, infinite where that is 1 or more
    or the lines are parallel.  A steeper line is below `ref` until `at`
    and a flatter one from `at` on; of parallel lines the lower static
    value is below, and of identical lines the later one.
    """
    info, static, div = lines
    gap_static, gap_div = static - static[ref], div - div[ref]
    with np.errstate(divide="ignore", invalid="ignore"):
        at = _crossing(info - info[ref], gap_div, gap_static)
    parallel = gap_div == 0.0
    parallel_below = parallel & (
        (gap_static < 0.0) | ((gap_static == 0.0) & (np.arange(info.size) > ref))
    )
    at = np.where(parallel | ~(at < 1.0), np.inf, at)
    return at, gap_div > 0.0, parallel, parallel_below


def _below(against, f: float):
    """Which lines are below the reference just after F = `f`, and which
    of them still have their crossing with it ahead."""
    at, steeper, parallel, parallel_below = against
    pending = at > f
    return np.where(parallel, parallel_below, steeper == pending), pending


def _swap_edges(info: np.ndarray, static: np.ndarray, div: np.ndarray, k: int) -> np.ndarray:
    """The F in (0, 1) of every change of the top k of the lines
    ``static_i + F*div_i`` (``info_i = static_i + div_i``), with k zero
    lines that win ties, so a line must be above zero to be chosen.

    A kinetic sweep from F = 0: `a` is the lowest chosen line and `b` the
    highest rejected one.  The next event is the earliest of `b` rising
    above `a` (a swap, the only change of the subset), a chosen line falling
    below `a`, and a rejected line rising above `b`; each costs O(n).  At an
    event both are found afresh, stepping to the most extreme line beyond
    them, and swapped while `b` is above `a`.
    """
    if k == 0:
        return np.empty(0)
    lines = info, static, div = [np.concatenate((np.zeros(k), col)) for col in (info, static, div)]
    rank = np.lexsort((np.arange(info.size), -div, -static))
    chosen = np.zeros(info.size, dtype=bool)
    chosen[rank[:k]] = True
    a, b = int(rank[k - 1]), int(rank[k])
    col_a, col_b = _against(lines, a), _against(lines, b)
    f, edges, swaps, steps = 0.0, [], 0, 0
    while True:
        # Rounded crossings could order three lines in a cycle; between
        # swaps no walk needs more than n + k steps, nor one F more swaps.
        if steps > info.size or swaps > info.size:
            raise RuntimeError(f"the sweep at F = {f!r} does not settle")
        below_a, pending_a = _below(col_a, f)
        lower = np.flatnonzero(chosen & below_a)
        if lower.size:
            a = int(lower[np.argmin(static[lower] + f * div[lower])])
            col_a, steps = _against(lines, a), steps + 1
            continue
        below_b, pending_b = _below(col_b, f)
        higher = np.flatnonzero(~(chosen | below_b))
        higher = higher[higher != b]
        if higher.size:
            b = int(higher[np.argmax(static[higher] + f * div[higher])])
            col_b, steps = _against(lines, b), steps + 1
            continue
        (at_a, steeper_a, *_), (at_b, steeper_b, *_) = col_a, col_b
        if not below_a[b]:
            if steeper_a[b] and at_a[b] > 0.0:
                edges.append(at_a[b])
            chosen[a], chosen[b] = False, True
            a, b, col_a, col_b = b, a, col_b, col_a
            swaps, steps = swaps + 1, 0
            continue
        falls = np.where(chosen & pending_a & ~steeper_a, at_a, np.inf)
        rises = np.where(~chosen & pending_b & steeper_b, at_b, np.inf)
        s, r = int(np.argmin(falls)), int(np.argmin(rises))
        f = min(falls[s], rises[r], at_a[b] if pending_a[b] and steeper_a[b] else np.inf)
        if f == np.inf:
            return np.array(edges)
        if falls[s] == f:
            a, col_a = s, _against(lines, s)
        if rises[r] == f:
            b, col_b = r, _against(lines, r)
        swaps = steps = 0


def enumerate_optimal_subsets(
    instance: ProblemInstance, dynamic: LearningDynamic
) -> IntervalTable:
    """The maximal patience intervals in (0,1) with a constant optimum, as columns.

    Scaled by ``1 - delta``, each feature's stationary value is the line
    ``static_i + F*div_i`` in ``F = (1 - delta)*G(delta)``, which rises from
    0 to 1 with patience, so the optimum is the top k of n lines and changes
    only where the lowest chosen line meets the highest rejected one.
    `_swap_edges` sweeps F to those swaps alone, and one
    `inverse_weight_cdf` call maps them to patience levels; swaps closer
    than `MERGE_TOL` there are one boundary.  One blocked probe inside each
    interval between boundaries labels it, so the partition is exact up to
    the inverse's precision (exact under geometric learning, a few ulps of
    delta otherwise).
    """
    if not dynamic.converges():
        raise InvalidInputError("dynamic never converges; values have no limit")
    edges = _swap_edges(
        instance.informativeness, static_values(instance), instance.divergence0, instance.k
    )
    boundaries = _dedupe(inverse_weight_cdf(dynamic, edges))
    return _assemble_intervals(instance, dynamic, boundaries)


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
