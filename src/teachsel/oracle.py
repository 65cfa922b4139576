"""Independent evaluation and exact search over selection sequences.

Everything here exists to check the planner from the outside: losses are
summed term by term from simulated belief trajectories wherever possible,
and small instances are searched exactly over every bounded prefix.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .dynamics import LearningDynamic, discounted_phi_sum
from .errors import InvalidInputError, VerificationError
from .model import FeatureSubset, ProblemInstance, mse, normalize_subset
from .planner import optimal_stationary_sequence

DEFAULT_TOL = 1e-9

# Exhaustive search is meant for desk-size verification only; beyond these
# limits the prefix space is too large to enumerate honestly.
MAX_SEARCH_FEATURES = 4
MAX_SEARCH_BUDGET = 2
MAX_SEARCH_PREFIX = 4


@dataclass(frozen=True)
class SelectionSequence:
    """A finite prefix of subsets followed by one subset repeated forever."""

    prefix: tuple[FeatureSubset, ...] = ()
    tail: FeatureSubset = ()

    @staticmethod
    def stationary(subset: Iterable[int]) -> "SelectionSequence":
        return SelectionSequence(prefix=(), tail=tuple(sorted(int(i) for i in subset)))

    @staticmethod
    def all_empty() -> "SelectionSequence":
        return SelectionSequence()

    def subset_at(self, t: int) -> FeatureSubset:
        return self.prefix[t] if t < len(self.prefix) else self.tail

    def validated(self, instance: ProblemInstance) -> "SelectionSequence":
        prefix = tuple(
            normalize_subset(s, instance.n, budget=instance.k) for s in self.prefix
        )
        tail = normalize_subset(self.tail, instance.n, budget=instance.k)
        return SelectionSequence(prefix=prefix, tail=tail)


@dataclass(frozen=True, eq=False)
class BeliefTrajectory:
    """Belief vectors and selection counts entering each step.

    Row t holds the state the human brings into step t: `h[t]` are the
    coefficient beliefs and `counts[t][i]` how often feature i was revealed
    before step t.
    """

    h: np.ndarray
    counts: np.ndarray


def simulate_beliefs(
    instance: ProblemInstance,
    dynamic: LearningDynamic,
    sequence: SelectionSequence,
    horizon: int,
) -> BeliefTrajectory:
    """Roll the learning rule forward for `horizon` steps.

    Beliefs follow ``h = a - sqrt(phi(m)) * (a - h0)``, which keeps the
    signed gap shrinking exactly as the dynamic prescribes; for geometric
    learning this coincides with ``h = w^m * h0 + (1 - w^m) * a``.
    """
    if horizon < 1:
        raise InvalidInputError("horizon must be >= 1")
    seq = sequence.validated(instance)
    n = instance.n
    counts = np.zeros((horizon + 1, n), dtype=int)
    for t in range(horizon):
        counts[t + 1] = counts[t]
        for i in seq.subset_at(t):
            counts[t + 1, i] += 1
    gap_scale = np.empty((horizon + 1, n))
    for t in range(horizon + 1):
        gap_scale[t] = [np.sqrt(dynamic.phi(int(m))) for m in counts[t]]
    h = instance.a - gap_scale * (instance.a - instance.h0)
    h.setflags(write=False)
    counts.setflags(write=False)
    return BeliefTrajectory(h=h, counts=counts)


def _tail_counts(instance: ProblemInstance, seq: SelectionSequence) -> np.ndarray:
    counts = np.zeros(instance.n, dtype=int)
    for subset in seq.prefix:
        for i in subset:
            counts[i] += 1
    return counts


def sequence_loss(
    instance: ProblemInstance,
    dynamic: LearningDynamic,
    sequence: SelectionSequence,
    tol: float = DEFAULT_TOL,
) -> float:
    """Total discounted prediction loss of following `sequence` forever.

    The prefix is summed term by term from the simulated trajectory; the
    stationary tail is evaluated in closed form with each feature's
    observation count carried in as an offset.  `tol` bounds the tail
    evaluation error; the geometric closed forms used here are exact, so it
    only matters for the truncated fallback paths.
    """
    if tol <= 0.0:
        raise InvalidInputError("tol must be positive")
    seq = sequence.validated(instance)
    delta = instance.delta
    T = len(seq.prefix)

    total = 0.0
    if T > 0:
        traj = simulate_beliefs(instance, dynamic, seq, horizon=T)
        for t in range(T):
            total += delta**t * mse(instance, seq.prefix[t], traj.h[t])
        counts = traj.counts[T]
    else:
        counts = np.zeros(instance.n, dtype=int)

    inside = np.zeros(instance.n, dtype=bool)
    inside[list(seq.tail)] = True
    tail_mse = (instance.c - instance.c_bar) ** 2 / (1.0 - delta)
    tail_mse += float(np.sum(instance.informativeness[~inside])) / (1.0 - delta)
    for i in seq.tail:
        weight = discounted_phi_sum(dynamic, delta, offset=int(counts[i]))
        tail_mse += weight * float(instance.divergence0[i])
    return total + delta**T * tail_mse


def sequence_value(
    instance: ProblemInstance,
    dynamic: LearningDynamic,
    sequence: SelectionSequence,
    tol: float = DEFAULT_TOL,
) -> float:
    """Discounted improvement of `sequence` over never revealing anything.

    Computed from the per-feature value decomposition
    ``sum_t delta^t sum_{i in A_t} (a_i^2 - phi(m_i(t)) * (a_i - h0_i)^2)``,
    independently of `sequence_loss`.
    """
    if tol <= 0.0:
        raise InvalidInputError("tol must be positive")
    seq = sequence.validated(instance)
    delta = instance.delta
    info = instance.informativeness
    div = instance.divergence0

    total = 0.0
    counts = np.zeros(instance.n, dtype=int)
    for t, subset in enumerate(seq.prefix):
        for i in subset:
            total += delta**t * (info[i] - dynamic.phi(int(counts[i])) * div[i])
            counts[i] += 1
    T = len(seq.prefix)
    for i in seq.tail:
        weight = discounted_phi_sum(dynamic, delta, offset=int(counts[i]))
        total += delta**T * (info[i] / (1.0 - delta) - weight * div[i])
    return float(total)


def _all_subsets(n: int, k: int) -> list[FeatureSubset]:
    out: list[FeatureSubset] = []
    for size in range(k + 1):
        out.extend(itertools.combinations(range(n), size))
    return out


def exhaustive_prefix_search(
    instance: ProblemInstance,
    dynamic: LearningDynamic,
    prefix_length: int,
    tol: float = DEFAULT_TOL,
) -> tuple[SelectionSequence, float]:
    """Exact search over every bounded prefix, each completed by its best
    stationary tail.

    A prefix's future depends only on the step and on how often each feature
    has been observed, so the search runs forward over those count vectors
    instead of enumerating all ``|subsets|**prefix_length`` prefixes.  Values
    accumulate term by term in the enumeration's order, so every candidate
    keeps the float value it would have had there.  At each step a prefix is
    dropped only when an earlier prefix (as tuples) reached the same counts
    with at least its value: float addition is monotone, so that prefix's
    every continuation scores at least as high and sorts first.

    Returns the best sequence (ties go to the smaller prefix) and its value,
    and raises VerificationError if it beats the best stationary sequence by
    more than `tol` (it never should).
    """
    if instance.n > MAX_SEARCH_FEATURES or instance.k > MAX_SEARCH_BUDGET:
        raise InvalidInputError(
            f"exhaustive search limited to n <= {MAX_SEARCH_FEATURES}, "
            f"k <= {MAX_SEARCH_BUDGET}"
        )
    if not 0 <= prefix_length <= MAX_SEARCH_PREFIX:
        raise InvalidInputError(
            f"prefix length must lie in [0, {MAX_SEARCH_PREFIX}]"
        )
    if tol <= 0.0:
        raise InvalidInputError("tol must be positive")

    n, k = instance.n, instance.k
    delta = instance.delta
    info = instance.informativeness.tolist()
    div = instance.divergence0.tolist()
    # Ascending tuple order: extending prefixes taken in ascending order
    # yields the next step's prefixes in ascending order too.
    subsets = sorted(_all_subsets(n, k))

    # A feature can be observed at most prefix_length times before the tail,
    # so every phi value and offset tail weight the search needs is one of
    # these; caching them keeps the search in plain arithmetic.
    phis = [dynamic.phi(m) for m in range(prefix_length + 1)]
    tail_weights = [
        discounted_phi_sum(dynamic, delta, offset=m) for m in range(prefix_length + 1)
    ]
    discounts = [delta**t for t in range(prefix_length + 1)]
    horizon_mass = 1.0 / (1.0 - delta)

    # level: (prefix, counts, value) for every kept prefix, ascending by prefix.
    level = [((), (0,) * n, 0.0)]
    for t in range(prefix_length):
        terms = [
            [discounts[t] * (info[i] - phis[m] * div[i]) for m in range(t + 1)]
            for i in range(n)
        ]
        best_at: dict[tuple[int, ...], float] = {}
        kept = []
        for prefix, counts, value in level:
            for subset in subsets:
                m = list(counts)
                v = value
                for i in subset:
                    v += terms[i][m[i]]
                    m[i] += 1
                state = tuple(m)
                if v > best_at.get(state, -np.inf):
                    best_at[state] = v
                    kept.append((prefix + (subset,), state, v))
        level = kept

    tail_gains: dict[tuple[int, ...], tuple[FeatureSubset, float]] = {}
    best_value = -np.inf
    best_seq = SelectionSequence.all_empty()
    for prefix, counts, value in level:
        if counts not in tail_gains:
            tail_values = [
                info[i] * horizon_mass - tail_weights[counts[i]] * div[i]
                for i in range(n)
            ]
            order = sorted(range(n), key=lambda i: (-tail_values[i], i))
            tail = tuple(sorted(i for i in order[:k] if tail_values[i] > 0.0))
            gain = discounts[prefix_length] * sum(tail_values[i] for i in tail)
            tail_gains[counts] = (tail, gain)
        tail, gain = tail_gains[counts]
        value += gain
        if value > best_value:
            best_value = value
            best_seq = SelectionSequence(prefix=prefix, tail=tail)

    stationary_value = optimal_stationary_sequence(instance, dynamic).total_value
    if best_value > stationary_value + tol:
        raise VerificationError(
            f"prefixed sequence {best_seq} attains value {best_value}, beating "
            f"the best stationary value {stationary_value} by more than {tol}"
        )
    return best_seq, float(best_value)
