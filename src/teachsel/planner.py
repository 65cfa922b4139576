"""Optimal feature selection, with and without human learning.

Both planners reduce to the same n-log-n recipe: score every feature
independently, sort, and keep the best strictly-positive scores up to the
budget.  With fixed beliefs the score is the static value
``2*a_i*h_i - h_i^2``.  With a learning human, an optimal infinite plan can
always be taken to repeat one subset forever, scored per feature by

    value_i = a_i^2 / (1 - delta) - W * (a_i - h0_i)^2

where ``W = sum_t delta^t * phi(t)`` is the discounted weight the learning
curve leaves on the initial divergence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dynamics import LearningDynamic, discounted_phi_sum
from .model import FeatureSubset, ProblemInstance, as_beliefs, static_values

NEAR_TIE_RTOL = 1e-12


@dataclass(frozen=True, eq=False)
class _Plan:
    """A chosen subset, with every feature's score as columns.

    `values`, `informativeness`, `divergence0` and `selected` are indexed by
    feature; `order` lists the features by descending value, ties by index.
    """

    subset: FeatureSubset
    order: np.ndarray
    values: np.ndarray
    informativeness: np.ndarray
    divergence0: np.ndarray
    selected: np.ndarray
    degenerate: bool


@dataclass(frozen=True, eq=False)
class StaticPlan(_Plan):
    """Best single-shot subset."""


@dataclass(frozen=True, eq=False)
class StationaryPlan(_Plan):
    """Best repeat-forever subset and its total discounted value."""

    total_value: float


def _near_ties(values: np.ndarray, order: np.ndarray) -> bool:
    ranked = values[order]
    if ranked.size < 2:
        return False
    gaps = np.abs(np.diff(ranked))
    scale = np.maximum(1.0, np.maximum(np.abs(ranked[:-1]), np.abs(ranked[1:])))
    return bool(np.any(gaps < NEAR_TIE_RTOL * scale))


def top_k_mask(values: np.ndarray, k: int) -> np.ndarray:
    """Row by row, the mask of the up-to-`k` features with the largest
    strictly positive values, ties toward the lower index.

    `values` is one row, or many, such as one row per sampled estimate.
    Each row is partitioned at its k-th largest value rather than sorted:
    entries above it are kept, and entries equal to it fill the remaining
    places lowest index first, as the stable descending order takes them.
    A row with fewer than k values that are not nan keeps all of them.
    """
    if k <= 0:
        return np.zeros(values.shape, dtype=bool)
    if k >= values.shape[-1]:
        return values > 0.0
    # Negated, nan sorts after every value, as in the descending order.
    kth = -np.partition(-values, k - 1, axis=-1)[..., k - 1 : k]
    mask = values > kth
    tied = values == kth
    room = k - np.count_nonzero(mask, axis=-1, keepdims=True)
    mask |= tied & (np.cumsum(tied, axis=-1, dtype=np.int32) <= room)
    mask |= np.isnan(kth)
    return mask & (values > 0.0)


def _columns(values: np.ndarray, k: int) -> dict:
    """The plan fields shared by both planners, from per-feature values."""
    order = np.argsort(-values, kind="stable")  # the report's row order
    selected = top_k_mask(values, k)
    return {
        "subset": tuple(np.flatnonzero(selected).tolist()),
        "order": order,
        "values": values,
        "selected": selected,
        "degenerate": _near_ties(values, order),
    }


def optimal_static_subset(
    instance: ProblemInstance, h: Sequence[float] | np.ndarray | None = None
) -> StaticPlan:
    """Best subset for a single prediction with beliefs held at `h`.

    Keeps the up-to-k features with the largest strictly positive static
    values; ties break toward the lower index.  The plan's columns cover
    every feature.
    """
    hv = as_beliefs(instance, h)
    return StaticPlan(
        informativeness=instance.informativeness,
        divergence0=(instance.a - hv) ** 2,
        **_columns(static_values(instance, hv), instance.k),
    )


def stationary_values(
    instance: ProblemInstance, dynamic: LearningDynamic, deltas=None
) -> np.ndarray:
    """Stationary per-feature values at the instance's delta, or at each of
    `deltas` (one row per patience level)."""
    d = instance.delta if deltas is None else np.asarray(deltas, dtype=float)[:, None]
    weight = discounted_phi_sum(dynamic, d)
    return instance.informativeness / (1.0 - d) - weight * instance.divergence0


def optimal_stationary_sequence(
    instance: ProblemInstance, dynamic: LearningDynamic
) -> StationaryPlan:
    """Best repeat-forever feature subset and its total discounted value."""
    columns = _columns(stationary_values(instance, dynamic), instance.k)
    return StationaryPlan(
        total_value=float(np.sum(columns["values"][columns["selected"]])),
        informativeness=instance.informativeness,
        divergence0=instance.divergence0,
        **columns,
    )


def discounted_baseline_loss(instance: ProblemInstance) -> float:
    """Discounted loss of never revealing any feature."""
    return instance.mse_empty() / (1.0 - instance.delta)
