"""Core problem representation and single-step prediction loss.

The human predicts a linear outcome ``y = c + sum_i a_i * x_i`` over
independent, standardized features, using their own coefficient beliefs
``h`` and constant ``c_bar``.  The assistant reveals a subset of features
per step; unrevealed features are predicted at their mean of zero.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidInputError

FeatureSubset = tuple[int, ...]


def normalize_subset(
    indices: Iterable[int], n: int, *, budget: int | None = None
) -> FeatureSubset:
    """Validate feature indices and return them as a sorted tuple.

    Raises InvalidInputError on duplicates, out-of-range indices, or
    (when `budget` is given) a subset larger than the selection budget.
    """
    subset = tuple(sorted(int(i) for i in indices))
    if len(set(subset)) != len(subset):
        raise InvalidInputError(f"duplicate feature indices in subset {subset}")
    if subset and (subset[0] < 0 or subset[-1] >= n):
        raise InvalidInputError(f"feature index out of range [0, {n}) in {subset}")
    if budget is not None and len(subset) > budget:
        raise InvalidInputError(f"subset size {len(subset)} exceeds budget {budget}")
    return subset


def _as_float_vector(x: Sequence[float] | np.ndarray, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise InvalidInputError(f"{name} must be a 1-d vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """A fully specified assistance problem.

    Attributes:
        a: true coefficients, one per feature (all non-zero).
        c: true constant term.
        h0: the human's initial coefficient beliefs.
        c_bar: the human's constant belief.
        k: selection budget, 0 <= k <= n.
        delta: discount factor weighting future losses, strictly in (0, 1).
    """

    a: np.ndarray
    c: float
    h0: np.ndarray
    c_bar: float
    k: int
    delta: float
    allow_zero_coeff: bool = field(default=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", _as_float_vector(self.a, "a"))
        object.__setattr__(self, "h0", _as_float_vector(self.h0, "h0"))
        object.__setattr__(self, "c", float(self.c))
        object.__setattr__(self, "c_bar", float(self.c_bar))
        object.__setattr__(self, "k", int(self.k))
        object.__setattr__(self, "delta", float(self.delta))
        if not (np.isfinite(self.c) and np.isfinite(self.c_bar)):
            raise InvalidInputError("constant terms must be finite")
        if self.a.size == 0:
            raise InvalidInputError("instance needs at least one feature")
        if self.a.shape != self.h0.shape:
            raise InvalidInputError(
                f"a and h0 must have equal length, got {self.a.size} and {self.h0.size}"
            )
        if not 0 <= self.k <= self.n:
            raise InvalidInputError(f"budget k={self.k} outside [0, {self.n}]")
        if not 0.0 < self.delta < 1.0:
            raise InvalidInputError("delta must lie strictly inside (0,1)")
        if np.any(self.a == 0.0):
            where = np.flatnonzero(self.a == 0.0).tolist()
            if self.allow_zero_coeff:
                warnings.warn(
                    f"features {where} have zero true coefficient; they carry no "
                    "information and will never be worth selecting",
                    stacklevel=2,
                )
            else:
                raise InvalidInputError(
                    f"true coefficients must be non-zero (features {where}); "
                    "pass allow_zero_coeff=True to accept them"
                )

    @property
    def n(self) -> int:
        """Number of features."""
        return self.a.size

    @property
    def informativeness(self) -> np.ndarray:
        """Per-feature informativeness a_i**2."""
        return self.a**2

    @property
    def divergence0(self) -> np.ndarray:
        """Per-feature initial divergence (a_i - h0_i)**2."""
        return (self.a - self.h0) ** 2

    def mse_empty(self) -> float:
        """Prediction loss when no feature is revealed."""
        return (self.c - self.c_bar) ** 2 + float(np.sum(self.a**2))


def as_beliefs(instance: ProblemInstance, h) -> np.ndarray:
    """`h` as a belief vector of the instance's length; None gives `h0`."""
    hv = instance.h0 if h is None else np.asarray(h, dtype=float)
    if hv.shape != instance.a.shape:
        raise InvalidInputError(f"belief vector length {hv.size} != feature count {instance.n}")
    return hv


def mse(
    instance: ProblemInstance,
    subset: Iterable[int],
    h: Sequence[float] | np.ndarray | None = None,
) -> float:
    """Mean squared error of the human's prediction using features `subset`.

    ``(c - c_bar)^2 + sum_{i not in A} a_i^2 + sum_{i in A} (a_i - h_i)^2``

    `h` defaults to the instance's initial beliefs.
    """
    idx = normalize_subset(subset, instance.n)
    hv = as_beliefs(instance, h)
    a = instance.a
    unused = np.sum(a**2) - (np.sum(a[list(idx)] ** 2) if idx else 0.0)
    used = float(np.sum((a[list(idx)] - hv[list(idx)]) ** 2)) if idx else 0.0
    return (instance.c - instance.c_bar) ** 2 + float(unused) + used


def static_values(
    instance: ProblemInstance, h: Sequence[float] | np.ndarray | None = None
) -> np.ndarray:
    """Vector of static per-feature values ``2*a*h - h^2``."""
    hv = as_beliefs(instance, h)
    return 2.0 * instance.a * hv - hv**2


def subset_informativeness(instance: ProblemInstance, subset: Iterable[int]) -> float:
    """Total informativeness ``sum a_i^2`` of a feature subset."""
    idx = normalize_subset(subset, instance.n)
    return float(np.sum(instance.a[list(idx)] ** 2)) if idx else 0.0


@dataclass(frozen=True, eq=False)
class StandardizationSpec:
    """Means and standard deviations of raw (unstandardized) features."""

    mu: np.ndarray
    sigma: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "mu", _as_float_vector(self.mu, "mu"))
        object.__setattr__(self, "sigma", _as_float_vector(self.sigma, "sigma"))
        if self.mu.shape != self.sigma.shape:
            raise InvalidInputError("mu and sigma must have equal length")
        if np.any(self.sigma <= 0.0):
            raise InvalidInputError("all sigma entries must be strictly positive")


def standardize(
    raw_a: Sequence[float] | np.ndarray, raw_c: float, spec: StandardizationSpec
) -> tuple[np.ndarray, float]:
    """Rewrite a linear model over raw features as one over standardized features.

    With ``x_i = (z_i - mu_i) / sigma_i`` the model
    ``c + sum a_i z_i`` equals ``c' + sum a'_i x_i`` for
    ``a'_i = sigma_i * a_i`` and ``c' = c + sum mu_i * a_i``.
    """
    a = np.asarray(raw_a, dtype=float)
    if a.shape != spec.mu.shape:
        raise InvalidInputError(
            f"coefficient length {a.size} != standardization length {spec.mu.size}"
        )
    return spec.sigma * a, float(raw_c) + float(np.dot(spec.mu, a))
