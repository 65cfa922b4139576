"""Independent evaluation and exact search over selection sequences.

Everything here exists to check the planner from the outside: losses are
summed term by term from simulated belief trajectories wherever possible,
and small instances are searched exactly over every bounded prefix.  A
feature seen `m` times before is worth ``static + (1 - phi(m)) * div`` at
one step, and ``static / (1 - delta) + G_m * div`` repeated forever.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .dynamics import LearningDynamic, discounted_gain_sum
from .errors import InvalidInputError, VerificationError
from .model import FeatureSubset, ProblemInstance, mse, normalize_subset, static_values
from .planner import optimal_stationary_sequence, top_k_mask

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


def _check_tol(tol: float) -> None:
    """A tolerance is a positive finite number: nan or inf would make every
    check pass."""
    if tol <= 0.0:
        raise InvalidInputError("tol must be positive")
    if not math.isfinite(tol):
        raise InvalidInputError("tol must be finite")


def sequence_loss(
    instance: ProblemInstance,
    dynamic: LearningDynamic,
    sequence: SelectionSequence,
) -> float:
    """Total discounted prediction loss of following `sequence` forever.

    The prefix is summed term by term from the simulated trajectory; the
    stationary tail is evaluated in closed form with each feature's
    observation count carried in as an offset.
    """
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
        gain = discounted_gain_sum(dynamic, delta, offset=int(counts[i]))
        tail_mse += (1.0 / (1.0 - delta) - gain) * float(instance.divergence0[i])
    return total + delta**T * tail_mse


def sequence_value(
    instance: ProblemInstance,
    dynamic: LearningDynamic,
    sequence: SelectionSequence,
) -> float:
    """Discounted improvement of `sequence` over never revealing anything.

    Computed from the per-feature value decomposition
    ``sum_t delta^t sum_{i in A_t} (static_i + (1 - phi(m_i(t))) * div_i)``,
    with ``static_i = 2*a_i*h0_i - h0_i^2`` and ``div_i = (a_i - h0_i)^2``,
    independently of `sequence_loss`.
    """
    seq = sequence.validated(instance)
    delta = instance.delta
    static = static_values(instance)
    div = instance.divergence0

    total = 0.0
    counts = np.zeros(instance.n, dtype=int)
    for t, subset in enumerate(seq.prefix):
        for i in subset:
            total += delta**t * (static[i] + (1.0 - dynamic.phi(int(counts[i]))) * div[i])
            counts[i] += 1
    T = len(seq.prefix)
    for i in seq.tail:
        gain = discounted_gain_sum(dynamic, delta, offset=int(counts[i]))
        total += delta**T * (static[i] / (1.0 - delta) + gain * div[i])
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
    instead of enumerating all ``|subsets|**prefix_length`` prefixes.  Each
    step handles a whole level as columns: the kept prefixes' counts (one
    row each), values, and counts read as digits in base
    ``prefix_length + 1``.  Every (kept prefix, subset) pair is a candidate,
    in that order, which is the order of the prefixes as tuples.  Values
    accumulate one subset member at a time in ascending member order, so
    every candidate keeps the float value the enumeration would give it.  A
    candidate is kept only if its value beats every earlier candidate that
    reached the same counts: float addition is monotone, so that earlier
    prefix's every continuation scores at least as high and sorts first.
    The prefixes themselves are rebuilt at the end from each level's parent
    rows and subsets.

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
    _check_tol(tol)

    n, k = instance.n, instance.k
    delta = instance.delta
    static, div = static_values(instance), instance.divergence0
    # Ascending tuple order: extending prefixes taken in ascending order
    # yields the next step's prefixes in ascending order too.
    subsets = sorted(_all_subsets(n, k))
    # Members in ascending order, padded with feature n: a dummy whose count
    # and terms stay 0.  Values start at +0.0 and so are never -0.0, and
    # adding +0.0 leaves every other float as it is.
    members = np.full((len(subsets), k), n)
    observed = np.zeros((len(subsets), n + 1), dtype=np.int64)
    for s, subset in enumerate(subsets):
        members[s, : len(subset)] = subset
        observed[s, list(subset)] = 1
    # A state reads the counts as digits in base prefix_length + 1.
    codes = observed[:, :n] @ (prefix_length + 1) ** np.arange(n)

    # A feature can be observed at most prefix_length times before the tail,
    # so every learning gain the search needs is one of these.
    gains = 1.0 - np.array([dynamic.phi(m) for m in range(prefix_length + 1)])
    tail_gains = np.array(
        [discounted_gain_sum(dynamic, delta, offset=m) for m in range(prefix_length + 1)]
    )
    discounts = [delta**t for t in range(prefix_length + 1)]

    counts = np.zeros((1, n + 1), dtype=np.int64)
    values = np.zeros(1)
    states = np.zeros(1, dtype=np.int64)
    parents, choices = [], []
    for t in range(prefix_length):
        terms = np.zeros((n + 1, t + 1))
        terms[:n] = discounts[t] * (static[:, None] + gains[: t + 1] * div[:, None])
        v = np.repeat(values[:, None], len(subsets), axis=1)
        for j in range(k):
            v += terms[members[:, j], counts[:, members[:, j]]]
        v = v.ravel()
        cand_states = (states[:, None] + codes).ravel()
        # Sorted by state, then value descending, then candidate: a candidate
        # beats every earlier one of its state iff it has the smallest index
        # of its state so far.  The offset restarts the running minimum at
        # each state; -inf and nan never beat anything.
        cand = np.arange(v.size)
        order = np.lexsort((cand, -v, cand_states))
        sorted_states = cand_states[order]
        group = np.cumsum(np.r_[True, sorted_states[1:] != sorted_states[:-1]])
        key = order - group * v.size
        record = (key == np.minimum.accumulate(key)) & (v[order] > -np.inf)
        kept = np.sort(order[record])
        parent, choice = np.divmod(kept, len(subsets))
        parents.append(parent)
        choices.append(choice)
        counts = counts[parent] + observed[choice]
        values = v[kept]
        states = cand_states[kept]

    tail_values = static / (1.0 - delta) + tail_gains[counts[:, :n]] * div
    tails = top_k_mask(tail_values, k)
    # Members in ascending index order from 0.0, as Python's sum adds them.
    gain = np.zeros(values.size)
    for i in range(n):
        gain += np.where(tails[:, i], tail_values[:, i], 0.0)
    totals = values + discounts[prefix_length] * gain
    # The first largest total wins, as a strict > over the rows in order,
    # which never picks nan.
    totals[np.isnan(totals)] = -np.inf
    row = int(np.argmax(totals))
    best_value = float(totals[row])
    best_seq = SelectionSequence.all_empty()
    if best_value > -np.inf:
        tail = tuple(np.flatnonzero(tails[row]).tolist())
        prefix = []
        for parent, choice in zip(reversed(parents), reversed(choices)):
            prefix.append(subsets[choice[row]])
            row = parent[row]
        best_seq = SelectionSequence(prefix=tuple(reversed(prefix)), tail=tail)

    stationary_value = optimal_stationary_sequence(instance, dynamic).total_value
    if best_value > stationary_value + tol:
        raise VerificationError(
            f"prefixed sequence {best_seq} attains value {best_value}, beating "
            f"the best stationary value {stationary_value} by more than {tol}"
        )
    return best_seq, best_value
