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
    """Per-feature error margins for the given error type; InvalidInputError
    if one overflows to a non-finite value."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        report = _margins(instance, spec, dynamic)
    if not np.isfinite([report.lower_margin, report.upper_margin]).all():
        raise InvalidInputError(f"epsilon too large: {spec.kind.value} margins are not finite")
    return report


def _margins(instance, spec, dynamic) -> MarginReport:
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


# numpy's SeedSequence hash constants (numpy.random.bit_generator).
_MASK32 = 0xFFFF_FFFF
_INIT_A, _MULT_A = 0x43B0_D7E5, 0x931E_8875
_INIT_B, _MULT_B = 0x8B51_F9DD, 0x58F3_8DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01_F9DD), np.uint32(0x4973_F715)
_POOL_SIZE = 4
# PCG64's 128-bit LCG multiplier, as (high, low) 64-bit halves.
_PCG_MULT = (np.uint64(2549297995355413924), np.uint64(4865540595714422341))
_SHIFT32, _LOW32 = np.uint64(32), np.uint64(_MASK32)
# _trial_uniforms works through about this many draws at a time.
_DRAW_CELLS = 1 << 13


def _hash_constants(init: int, mult: int):
    """The (xor, multiply) pairs of successive SeedSequence hashmix calls."""
    h = init
    while True:
        xor, h = h, (h * mult) & _MASK32
        yield np.uint32(xor), np.uint32(h)


def _hashmix(value: np.ndarray, constants) -> np.ndarray:
    xor, mult = next(constants)
    value = (value ^ xor) * mult
    return value ^ (value >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * _MIX_MULT_L - y * _MIX_MULT_R
    return result ^ (result >> np.uint32(16))


def _mul128(a_hi, a_lo, b_hi, b_lo):
    """(a * b) mod 2**128 on uint64 (high, low) halves; operands broadcast."""
    a0, a1 = a_lo & _LOW32, a_lo >> _SHIFT32
    b0, b1 = b_lo & _LOW32, b_lo >> _SHIFT32
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> _SHIFT32) + (p01 & _LOW32) + (p10 & _LOW32)
    carry = a1 * b1 + (p01 >> _SHIFT32) + (p10 >> _SHIFT32) + (mid >> _SHIFT32)
    return carry + a_lo * b_hi + a_hi * b_lo, a_lo * b_lo


def _add128(a_hi, a_lo, b_hi, b_lo):
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


def _lcg_jumps(steps: int):
    """For m = 1..steps, (M**m, 1 + M + ... + M**(m-1)) mod 2**128 as uint64
    (high, low) columns: m PCG64 steps map a state x to the first times x
    plus the second times the increment.  Built by doubling the run."""
    a_hi, a_lo = np.array([_PCG_MULT[0]]), np.array([_PCG_MULT[1]])
    s_hi, s_lo = np.zeros(1, np.uint64), np.ones(1, np.uint64)
    while a_hi.size < steps:
        # m + i steps are i steps taken after the first m.
        more_a = _mul128(a_hi, a_lo, a_hi[-1], a_lo[-1])
        more_s = _add128(*_mul128(a_hi, a_lo, s_hi[-1], s_lo[-1]), s_hi, s_lo)
        a_hi, a_lo = np.concatenate([a_hi, more_a[0]]), np.concatenate([a_lo, more_a[1]])
        s_hi, s_lo = np.concatenate([s_hi, more_s[0]]), np.concatenate([s_lo, more_s[1]])
    return a_hi[:steps], a_lo[:steps], s_hi[:steps], s_lo[:steps]


def _trial_uniforms(
    seed: int, start: int, stop: int, n: int, low: float, high: float
) -> np.ndarray:
    """Row j - start is ``np.random.default_rng([seed, j]).uniform(low, high, n)``
    for each trial j in [start, stop), bit for bit, computed for all rows at once.

    It reproduces numpy's two documented algorithms on uint32/uint64 lanes:
    SeedSequence hashes the entropy words of (seed, j) into its pool and
    generates four 64-bit words, PCG64 seeds its 128-bit LCG from them and
    emits one XSL-RR output per draw, which becomes ``(x >> 11) * 2**-53``.
    Each draw is one jump of its row's LCG rather than a loop of steps.
    Needs seed >= 0 and stop <= 2**64.
    """
    if start < 1 << 32 < stop:  # j's entropy grows a second word at 2**32
        return np.concatenate(
            [
                _trial_uniforms(seed, start, 1 << 32, n, low, high),
                _trial_uniforms(seed, 1 << 32, stop, n, low, high),
            ]
        )
    j = np.arange(start, stop, dtype=np.uint64)
    seed_words, rest = [seed & _MASK32], seed >> 32
    while rest:
        seed_words.append(rest & _MASK32)
        rest >>= 32
    entropy = [np.full(j.size, w, np.uint32) for w in seed_words]
    entropy.append((j & _LOW32).astype(np.uint32))
    if start >= 1 << 32:
        entropy.append((j >> _SHIFT32).astype(np.uint32))

    # SeedSequence: mix the entropy into the pool, then generate_state(4, uint64).
    hashes = _hash_constants(_INIT_A, _MULT_A)
    zero = np.zeros(j.size, np.uint32)
    pool = [_hashmix(entropy[i] if i < len(entropy) else zero, hashes) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], hashes))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hashmix(word, hashes))
    hashes = _hash_constants(_INIT_B, _MULT_B)
    words = [_hashmix(pool[i % _POOL_SIZE], hashes).astype(np.uint64) for i in range(8)]
    state_hi, state_lo, seq_hi, seq_lo = (
        words[2 * i] | (words[2 * i + 1] << _SHIFT32) for i in range(4)
    )

    # PCG64 srandom: inc = 2 * initseq + 1, step, state += initstate, step.
    # Draw i therefore sees M**(i+2) * initstate + (1 + M + ... + M**(i+2)) * inc.
    inc_hi = (seq_hi << np.uint64(1)) | (seq_lo >> np.uint64(63))
    inc_lo = (seq_lo << np.uint64(1)) | np.uint64(1)
    a_hi, a_lo, s_hi, s_lo = _lcg_jumps(n + 2)
    # Grids are (draw, trial): the long trial axis innermost keeps numpy's
    # loops long, and pieces of _DRAW_CELLS keep the temporaries small.
    a_hi, a_lo, s_hi, s_lo = a_hi[1:-1, None], a_lo[1:-1, None], s_hi[2:, None], s_lo[2:, None]
    unit = np.empty((j.size, n))
    step = max(1, _DRAW_CELLS // n)
    for r in range(0, j.size, step):
        rows = slice(r, r + step)
        hi, lo = _add128(
            *_mul128(state_hi[rows], state_lo[rows], a_hi, a_lo),
            *_mul128(inc_hi[rows], inc_lo[rows], s_hi, s_lo),
        )
        # XSL-RR output, then its top 53 bits as a double in [0, 1).
        rot = hi >> np.uint64(58)
        x = hi ^ lo
        x = (x >> rot) | (x << ((np.uint64(64) - rot) & np.uint64(63)))
        unit[rows] = ((x >> np.uint64(11)).astype(np.float64) * 2.0**-53).T
    return low + (high - low) * unit


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
    The draw for trial j is exactly ``np.random.default_rng([seed, j])``'s
    (numpy's SeedSequence feeding PCG64; see `_trial_uniforms`), so a run
    of N trials is the first N trials of any longer run.  Trials are
    scored a block at a time, one row of estimates per trial, and the
    value lost and its bound are computed once per distinct chosen subset.
    """
    if trials < 1:
        raise InvalidInputError("trials must be >= 1")
    if seed < 0:
        raise InvalidInputError("seed must be nonnegative")
    report = margins(instance, spec, dynamic)
    true_vals = _true_values(instance, spec.kind, dynamic)
    best = select_top_k(true_vals, instance.k)
    best_total = float(np.sum(true_vals[list(best)])) if best else 0.0

    n = instance.n
    scalar = spec.kind is ErrorKind.LEARNING_SPEED
    eps = spec.epsilon_scalar() if scalar else spec.epsilon_vector(n)
    if scalar and not np.isfinite(2.0 * eps):
        raise InvalidInputError("epsilon is too large: the draw range 2*epsilon overflows")
    gaps = np.empty(trials)
    bounds = np.empty(trials)
    rows = max(1, BLOCK_CELLS // n)
    for start in range(0, trials, rows):
        stop = min(trials, start + rows)
        if scalar:
            noise = _trial_uniforms(seed, start, stop, 1, -eps, eps)
        else:
            noise = _trial_uniforms(seed, start, stop, n, -1.0, 1.0) * eps
        mistaken = _perturbed_values(instance, spec.kind, dynamic, noise)
        chosen = top_k_mask(mistaken, instance.k)
        # One packed byte key per row: np.unique on 1-D keys is about 10x
        # faster than on rows (axis=0), with the same lexicographic order.
        keys = np.packbits(chosen, axis=1)
        keys = keys.view(np.dtype((np.void, keys.shape[1]))).ravel()
        _, first, which = np.unique(keys, return_index=True, return_inverse=True)
        scored = []  # (gap, bound) per distinct chosen subset
        for mask in chosen[first]:
            picked = np.flatnonzero(mask).tolist()
            chosen_total = float(np.sum(true_vals[picked])) if picked else 0.0
            scored.append((best_total - chosen_total, aggregate_gap_bound(report, best, picked)))
        gaps[start:stop], bounds[start:stop] = np.array(scored)[which].T

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
