"""Error tolerance of the planner when its model of the world is wrong.

The planner only ranks features; a wrong coefficient matters only through
the feature-value estimates it distorts.  For each supported error type we
compute per-feature margins (how far an estimate can move down or up), an
aggregate bound on the value lost to a wrong selection, and a randomized
check that sampled perturbations never exceed that bound.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .dynamics import LearningDynamic, discounted_phi_sum
from .errors import InvalidInputError
from .model import ProblemInstance, normalize_subset, static_values
from .planner import select_top_k, stationary_values, top_k_mask

BOUND_SLACK = 1e-9
# validate_bound scores trials in blocks of about this many estimates.
BLOCK_CELLS = 1 << 20


class ErrorKind(enum.Enum):
    """Which model ingredient the planner may have wrong."""

    TRUTH_STATIC = "truth-static"  # true coefficients, fixed beliefs
    HUMAN_STATIC = "human-static"  # human coefficients, fixed beliefs
    HUMAN_LEARNING = "human-learning"  # initial beliefs, learning human
    TRUTH_LEARNING = "truth-learning"  # true coefficients, learning human
    LEARNING_SPEED = "learning-speed"  # discounted learning weight


LEARNING_KINDS = frozenset(
    {ErrorKind.HUMAN_LEARNING, ErrorKind.TRUTH_LEARNING, ErrorKind.LEARNING_SPEED}
)


@dataclass(frozen=True)
class ErrorSpec:
    """An error type plus its magnitude bound.

    `epsilon` is a per-feature vector (a scalar broadcasts) except for
    LEARNING_SPEED, where it bounds the single discounted-weight estimate.
    """

    kind: ErrorKind
    epsilon: float | Sequence[float] | np.ndarray

    def epsilon_vector(self, n: int) -> np.ndarray:
        if self.kind is ErrorKind.LEARNING_SPEED:
            raise InvalidInputError("learning-speed errors use a scalar epsilon")
        eps = np.asarray(self.epsilon, dtype=float)
        if eps.ndim == 0:
            eps = np.full(n, float(eps))
        if eps.shape != (n,):
            raise InvalidInputError(
                f"epsilon must be a scalar or length-{n} vector, got shape {eps.shape}"
            )
        if not np.all(np.isfinite(eps)):
            raise InvalidInputError("epsilon must be finite")
        if np.any(eps < 0.0):
            raise InvalidInputError("epsilon must be nonnegative")
        return eps

    def epsilon_scalar(self) -> float:
        eps = np.asarray(self.epsilon, dtype=float)
        if eps.ndim > 0:
            if eps.size != 1:
                raise InvalidInputError("learning-speed errors use a scalar epsilon")
            eps = eps.reshape(())
        value = float(eps)
        if not np.isfinite(value):
            raise InvalidInputError("epsilon must be finite")
        if value < 0.0:
            raise InvalidInputError("epsilon must be nonnegative")
        return value


@dataclass(frozen=True, eq=False)
class MarginReport:
    """Per-feature bounds on how far value estimates can move.

    A misspecified estimate ``V'`` satisfies
    ``V - lower_margin <= V' <= V + upper_margin`` per feature.
    """

    kind: ErrorKind
    lower_margin: np.ndarray
    upper_margin: np.ndarray


def _check_cap(eps: np.ndarray, cap: np.ndarray, inequality: str) -> None:
    bad = np.flatnonzero(eps > cap)
    if bad.size:
        raise InvalidInputError(
            f"margin formulas require {inequality}; violated at features "
            f"{bad.tolist()}"
        )


def _learning_weight(
    instance: ProblemInstance, dynamic: LearningDynamic | None
) -> float:
    if dynamic is None:
        raise InvalidInputError("learning-setting error kinds need a dynamic")
    return discounted_phi_sum(dynamic, instance.delta)


def margins(
    instance: ProblemInstance,
    spec: ErrorSpec,
    dynamic: LearningDynamic | None = None,
) -> MarginReport:
    """Per-feature error margins for the given error type."""
    a = instance.a
    h = instance.h0
    gap = np.abs(a - h)

    if spec.kind is ErrorKind.TRUTH_STATIC:
        eps = spec.epsilon_vector(instance.n)
        both = 2.0 * eps * np.abs(h)
        return MarginReport(spec.kind, lower_margin=both, upper_margin=both.copy())

    if spec.kind is ErrorKind.HUMAN_STATIC:
        eps = spec.epsilon_vector(instance.n)
        _check_cap(eps, gap, "epsilon_i <= |h_i - a_i|")
        linear = 2.0 * eps * gap
        return MarginReport(
            spec.kind, lower_margin=linear + eps**2, upper_margin=linear - eps**2
        )

    if spec.kind is ErrorKind.HUMAN_LEARNING:
        eps = spec.epsilon_vector(instance.n)
        _check_cap(eps, gap, "epsilon_i <= |h0_i - a_i|")
        weight = _learning_weight(instance, dynamic)
        linear = 2.0 * eps * gap
        return MarginReport(
            spec.kind,
            lower_margin=weight * (linear + eps**2),
            upper_margin=weight * (linear - eps**2),
        )

    if spec.kind is ErrorKind.TRUTH_LEARNING:
        eps = spec.epsilon_vector(instance.n)
        _check_cap(eps, np.minimum(np.abs(a), gap), "epsilon_i <= min(|a_i|, |a_i - h0_i|)")
        weight = _learning_weight(instance, dynamic)
        quad = 1.0 / (1.0 - instance.delta) - weight  # >= 0
        lin = 2.0 * np.abs(a / (1.0 - instance.delta) - weight * (a - h))
        upper = quad * eps**2 + lin * eps
        # The downward deviation lin*e - quad*e^2 over error magnitudes
        # e <= eps peaks at the parabola vertex; past it the worst case is
        # attained by a smaller error, so the margin must stop growing there
        # rather than follow the (then decreasing, invalid) formula.
        with np.errstate(divide="ignore", invalid="ignore"):
            vertex = np.where(quad > 0.0, lin / (2.0 * quad), np.inf)
        eff = np.minimum(eps, vertex)
        lower = np.maximum(0.0, lin * eff - quad * eff**2)
        return MarginReport(spec.kind, lower_margin=lower, upper_margin=upper)

    if spec.kind is ErrorKind.LEARNING_SPEED:
        eps = spec.epsilon_scalar()
        _learning_weight(instance, dynamic)  # only to insist a dynamic exists
        both = eps * instance.divergence0
        return MarginReport(spec.kind, lower_margin=both, upper_margin=both.copy())

    raise InvalidInputError(f"unknown error kind {spec.kind!r}")


def aggregate_gap_bound(
    report: MarginReport, a_star: Iterable[int], a_chosen: Iterable[int]
) -> float:
    """Worst-case value lost to choosing `a_chosen` instead of optimal `a_star`.

    Features missed from the optimum contribute their lower margins,
    features wrongly included contribute their upper margins.
    """
    n = report.lower_margin.size
    star = set(normalize_subset(a_star, n))
    chosen = set(normalize_subset(a_chosen, n))
    missed = star - chosen
    extra = chosen - star
    return float(
        sum(report.lower_margin[i] for i in missed)
        + sum(report.upper_margin[j] for j in extra)
    )


# ---------------------------------------------------------------------------
# Randomized empirical validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ValidationReport:
    """Summary of a validation run, with one `gaps`/`bounds` entry per trial."""

    kind: ErrorKind
    trials: int
    seed: int
    violations: int
    max_gap: float
    mean_gap: float
    max_ratio: float | None
    gaps: np.ndarray
    bounds: np.ndarray

    @property
    def ratios(self) -> list[float | None]:
        """``gap / bound`` per trial; None where the bound is not positive."""
        return [
            gap / bound if bound > 0.0 else None
            for gap, bound in zip(self.gaps.tolist(), self.bounds.tolist())
        ]

    def summary(self) -> dict:
        """The report without its per-trial columns."""
        return {
            "kind": self.kind.value,
            "trials": self.trials,
            "seed": self.seed,
            "violations": self.violations,
            "max_gap": self.max_gap,
            "mean_gap": self.mean_gap,
            "max_ratio": self.max_ratio,
        }

    def to_dict(self) -> dict:
        rows = zip(self.gaps.tolist(), self.bounds.tolist(), self.ratios)
        return {
            **self.summary(),
            "per_trial": [
                {"gap": gap, "bound": bound, "ratio": ratio}
                for gap, bound, ratio in rows
            ],
        }


def _true_values(
    instance: ProblemInstance, kind: ErrorKind, dynamic: LearningDynamic | None
) -> np.ndarray:
    if kind in LEARNING_KINDS:
        if dynamic is None:
            raise InvalidInputError("learning-setting error kinds need a dynamic")
        return stationary_values(instance, dynamic)
    return static_values(instance)


def _perturbed_values(
    instance: ProblemInstance,
    kind: ErrorKind,
    dynamic: LearningDynamic | None,
    noise: np.ndarray | float,
) -> np.ndarray:
    a = instance.a
    h = instance.h0
    delta = instance.delta
    if kind is ErrorKind.TRUTH_STATIC:
        return 2.0 * (a + noise) * h - h**2
    if kind is ErrorKind.HUMAN_STATIC:
        hp = h + noise
        return 2.0 * a * hp - hp**2
    weight = _learning_weight(instance, dynamic)
    if kind is ErrorKind.HUMAN_LEARNING:
        return instance.informativeness / (1.0 - delta) - weight * (a - (h + noise)) ** 2
    if kind is ErrorKind.TRUTH_LEARNING:
        ap = a + noise
        return ap**2 / (1.0 - delta) - weight * (ap - h) ** 2
    if kind is ErrorKind.LEARNING_SPEED:
        return instance.informativeness / (1.0 - delta) - (weight + noise) * instance.divergence0
    raise InvalidInputError(f"unknown error kind {kind!r}")


def validate_bound(
    instance: ProblemInstance,
    spec: ErrorSpec,
    trials: int,
    seed: int = 0,
    dynamic: LearningDynamic | None = None,
) -> ValidationReport:
    """Sample perturbations inside the error box and test the aggregate bound.

    Each trial draws the planner's mistaken estimates uniformly within the
    allowed error, lets it pick a subset, and checks that the true value it
    gave up stays within `aggregate_gap_bound` (plus numerical slack).
    The draw for trial j depends only on (seed, j), so a run of N trials is
    the first N trials of any longer run.  Trials are scored a block at a
    time, one row of estimates per trial, and the value lost and its bound
    are computed once per distinct chosen subset.
    """
    if trials < 1:
        raise InvalidInputError("trials must be >= 1")
    report = margins(instance, spec, dynamic)
    true_vals = _true_values(instance, spec.kind, dynamic)
    best = select_top_k(true_vals, instance.k)
    best_total = float(np.sum(true_vals[list(best)])) if best else 0.0

    n = instance.n
    scalar = spec.kind is ErrorKind.LEARNING_SPEED
    eps = spec.epsilon_scalar() if scalar else spec.epsilon_vector(n)
    gaps = np.empty(trials)
    bounds = np.empty(trials)
    rows = max(1, BLOCK_CELLS // n)
    for start in range(0, trials, rows):
        block = range(start, min(trials, start + rows))
        if scalar:
            noise = np.array(
                [np.random.default_rng([seed, j]).uniform(-eps, eps) for j in block]
            )[:, None]
        else:
            noise = np.array(
                [np.random.default_rng([seed, j]).uniform(-1.0, 1.0, size=n) for j in block]
            ) * eps
        mistaken = _perturbed_values(instance, spec.kind, dynamic, noise)
        chosen = top_k_mask(mistaken, instance.k)
        masks, which = np.unique(chosen, axis=0, return_inverse=True)
        scored = []  # (gap, bound) per distinct chosen subset
        for mask in masks:
            picked = np.flatnonzero(mask).tolist()
            chosen_total = float(np.sum(true_vals[picked])) if picked else 0.0
            scored.append((best_total - chosen_total, aggregate_gap_bound(report, best, picked)))
        gaps[start : block.stop], bounds[start : block.stop] = (
            np.array(scored)[which.reshape(-1)].T
        )

    ratios = gaps[bounds > 0.0] / bounds[bounds > 0.0]
    return ValidationReport(
        kind=spec.kind,
        trials=trials,
        seed=seed,
        violations=int(np.count_nonzero(gaps > bounds + BOUND_SLACK)),
        max_gap=float(np.max(gaps)),
        mean_gap=float(np.mean(gaps)),
        max_ratio=max(ratios.tolist()) if ratios.size else None,
        gaps=gaps,
        bounds=bounds,
    )
