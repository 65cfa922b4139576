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

from .dynamics import LearningDynamic, discounted_gain_sum
from .errors import InvalidInputError
from .model import ProblemInstance, normalize_subset
from .planner import top_k_mask

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


@dataclass(frozen=True)
class ErrorSpec:
    """An error type plus its magnitude bound.

    `epsilon` is a per-feature vector (a scalar broadcasts) except for
    LEARNING_SPEED, where it bounds the single discounted-weight estimate.
    """

    kind: ErrorKind
    epsilon: float | Sequence[float] | np.ndarray

    def epsilon_values(self, n: int) -> np.ndarray:
        """The checked epsilon: one per feature of `n`, or a 0-d array for
        LEARNING_SPEED."""
        eps = np.asarray(self.epsilon, dtype=float)
        if self.kind is ErrorKind.LEARNING_SPEED:
            if eps.size != 1:
                raise InvalidInputError("learning-speed errors use a scalar epsilon")
            eps = eps.reshape(())
        else:
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


def _learning_gain(
    instance: ProblemInstance, dynamic: LearningDynamic | None
) -> float:
    if dynamic is None:
        raise InvalidInputError("learning-setting error kinds need a dynamic")
    return discounted_gain_sum(dynamic, instance.delta)


def _learning_weight(instance: ProblemInstance, dynamic: LearningDynamic | None) -> float:
    """``W = sum_t delta^t phi(t)``, the discounted weight left on the
    divergence, summed from its own nonnegative terms: the table's, then the
    tail ``phi(L) w^2 delta^(L+1) / ((1 - delta) + delta(1 - w)(1 + w))``.
    ``1/(1 - delta) - G`` is the same number but cancels as delta -> 1."""
    _learning_gain(instance, dynamic)  # only to insist on a dynamic
    d, table, w = instance.delta, dynamic.table, dynamic.tail_retention
    last = len(table) - 1
    head = sum(d**t * phi for t, phi in enumerate(table))
    return head + table[-1] * (w * w) * d ** (last + 1) / ((1.0 - d) + d * ((1.0 - w) * (1.0 + w)))


def margins(
    instance: ProblemInstance,
    spec: ErrorSpec,
    dynamic: LearningDynamic | None = None,
) -> MarginReport:
    """Per-feature error margins for the given error type; InvalidInputError
    if one overflows to a non-finite value."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        report = _margins(instance, spec, dynamic)
    if not np.isfinite([report.lower_margin, report.upper_margin]).all():
        raise InvalidInputError(f"epsilon too large: {spec.kind.value} margins are not finite")
    return report


def _margins(instance, spec, dynamic) -> MarginReport:
    eps = spec.epsilon_values(instance.n)
    a = instance.a
    h = instance.h0
    gap = np.abs(a - h)

    if spec.kind is ErrorKind.TRUTH_STATIC:
        both = 2.0 * eps * np.abs(h)
        return MarginReport(spec.kind, lower_margin=both, upper_margin=both.copy())

    if spec.kind is ErrorKind.HUMAN_STATIC:
        _check_cap(eps, gap, "epsilon_i <= |h_i - a_i|")
        linear = 2.0 * eps * gap
        return MarginReport(
            spec.kind, lower_margin=linear + eps**2, upper_margin=linear - eps**2
        )

    if spec.kind is ErrorKind.HUMAN_LEARNING:
        _check_cap(eps, gap, "epsilon_i <= |h0_i - a_i|")
        weight = _learning_weight(instance, dynamic)
        linear = 2.0 * eps * gap
        return MarginReport(
            spec.kind,
            lower_margin=weight * (linear + eps**2),
            upper_margin=weight * (linear - eps**2),
        )

    if spec.kind is ErrorKind.TRUTH_LEARNING:
        _check_cap(eps, np.minimum(np.abs(a), gap), "epsilon_i <= min(|a_i|, |a_i - h0_i|)")
        quad = _learning_gain(instance, dynamic)
        lin = 2.0 * np.abs(h / (1.0 - instance.delta) + quad * (a - h))
        upper = quad * eps**2 + lin * eps
        # The downward deviation lin*e - quad*e^2 over error magnitudes
        # e <= eps peaks at the parabola vertex; past it the worst case is
        # attained by a smaller error, so the margin must stop growing there
        # rather than follow the (then decreasing, invalid) formula.
        vertex = np.where(quad > 0.0, lin / (2.0 * quad), np.inf)
        eff = np.minimum(eps, vertex)
        lower = np.maximum(0.0, lin * eff - quad * eff**2)
        return MarginReport(spec.kind, lower_margin=lower, upper_margin=upper)

    if spec.kind is ErrorKind.LEARNING_SPEED:
        _learning_gain(instance, dynamic)  # only to insist a dynamic exists
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
    """Summary of a validation run, with its per-trial scores as columns.

    Trials that choose the same subset score the same, so each distinct
    chosen subset is scored once, in one row of the short columns
    `subset_gap`, `subset_bound` and `subset_ratio` (``gap / bound``, or
    None where the bound is not positive).  `trial_subset` holds one int
    per trial: the row of its chosen subset.  A subset chosen in two blocks
    of trials may have a row for each.
    """

    kind: ErrorKind
    trials: int
    seed: int
    violations: int
    max_gap: float
    mean_gap: float
    max_ratio: float | None
    subset_gap: np.ndarray
    subset_bound: np.ndarray
    subset_ratio: list[float | None]
    trial_subset: np.ndarray

    @property
    def gaps(self) -> np.ndarray:
        """The value lost in each trial."""
        return self.subset_gap[self.trial_subset]

    @property
    def bounds(self) -> np.ndarray:
        """The aggregate gap bound of each trial."""
        return self.subset_bound[self.trial_subset]

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


def _perturbed_values(
    instance: ProblemInstance,
    kind: ErrorKind,
    dynamic: LearningDynamic | None,
    noise: np.ndarray | float,
) -> np.ndarray:
    """The planner's value estimates when `noise` moves what `kind` names:
    the true coefficients, the human's beliefs, or the learning gain."""
    a, h = instance.a, instance.h0
    if kind in (ErrorKind.TRUTH_STATIC, ErrorKind.TRUTH_LEARNING):
        a = a + noise
    elif kind in (ErrorKind.HUMAN_STATIC, ErrorKind.HUMAN_LEARNING):
        h = h + noise
    static = h * (2.0 * a - h)
    if kind in (ErrorKind.TRUTH_STATIC, ErrorKind.HUMAN_STATIC):
        return static
    gain = _learning_gain(instance, dynamic)
    if kind is ErrorKind.LEARNING_SPEED:
        # An error of +noise in the discounted weight is one of -noise in the gain.
        gain = gain - noise
    # In place: with one row per trial, a copy would be one more large temporary.
    static /= 1.0 - instance.delta
    return static + gain * (a - h) ** 2


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
    Trials draw in order from one ``np.random.default_rng(seed)`` stream,
    one double per draw, so a run of N trials is the first N trials of any
    longer run.  Trials are scored a block at a time, one row of estimates
    per trial.  The value lost and its bound are computed once per distinct
    chosen subset of a block, and the report keeps them as its per-subset
    columns, with each trial's row in `trial_subset`.
    """
    if trials < 1:
        raise InvalidInputError("trials must be >= 1")
    if seed < 0:
        raise InvalidInputError("seed must be nonnegative")
    report = margins(instance, spec, dynamic)
    # A noise of -0.0, the exact additive identity, gives the true values bit for bit.
    true_vals = _perturbed_values(instance, spec.kind, dynamic, -0.0)
    best = np.flatnonzero(top_k_mask(true_vals, instance.k)).tolist()
    best_total = float(np.sum(true_vals[best])) if best else 0.0

    n = instance.n
    eps = spec.epsilon_values(n)
    scalar = eps.ndim == 0
    if scalar and not np.isfinite(2.0 * float(eps)):
        raise InvalidInputError("epsilon is too large: the draw range 2*epsilon overflows")
    scored = []  # (gap, bound) per distinct chosen subset of each block
    trial_subset = np.empty(trials, dtype=np.intp)
    rng = np.random.default_rng(seed)
    rows = max(1, BLOCK_CELLS // n)
    for start in range(0, trials, rows):
        stop = min(trials, start + rows)
        if scalar:
            noise = rng.uniform(-eps, eps, (stop - start, 1))
        else:
            noise = rng.uniform(-1.0, 1.0, (stop - start, n)) * eps
        mistaken = _perturbed_values(instance, spec.kind, dynamic, noise)
        chosen = top_k_mask(mistaken, instance.k)
        # One packed byte key per row: np.unique on 1-D keys is about 10x
        # faster than on rows (axis=0), with the same lexicographic order.
        keys = np.packbits(chosen, axis=1)
        keys = keys.view(np.dtype((np.void, keys.shape[1]))).ravel()
        _, first, which = np.unique(keys, return_index=True, return_inverse=True)
        trial_subset[start:stop] = len(scored) + which
        for mask in chosen[first]:
            picked = np.flatnonzero(mask).tolist()
            chosen_total = float(np.sum(true_vals[picked])) if picked else 0.0
            scored.append((best_total - chosen_total, aggregate_gap_bound(report, best, picked)))

    subset_gap, subset_bound = np.array(scored).T
    gaps = subset_gap[trial_subset]
    bounds = subset_bound[trial_subset]
    ratios = gaps[bounds > 0.0] / bounds[bounds > 0.0]
    return ValidationReport(
        kind=spec.kind,
        trials=trials,
        seed=seed,
        violations=int(np.count_nonzero(gaps > bounds + BOUND_SLACK)),
        max_gap=float(np.max(gaps)),
        mean_gap=float(np.mean(gaps)),
        max_ratio=max(ratios.tolist()) if ratios.size else None,
        subset_gap=subset_gap,
        subset_bound=subset_bound,
        subset_ratio=[gap / bound if bound > 0.0 else None for gap, bound in scored],
        trial_subset=trial_subset,
    )
