"""Learning dynamics: how fast the human's divergence on a feature shrinks.

A dynamic is described by a weight curve ``phi`` with ``phi(0) = 1``,
nonincreasing, and ``phi(m) -> 0``: after a feature has been revealed
``m`` times, the human's squared divergence on it is ``phi(m)`` times the
initial squared divergence.  Every discounted quantity in the planner
reduces to sums of the form ``sum_t delta^t * phi(t + offset)``, which both
supported families admit in closed form.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

DEFAULT_HORIZON = 64


@dataclass(frozen=True)
class Exponential:
    """Geometric forgetting of the initial belief: ``phi(m) = w**(2m)``.

    `w` is the retention factor of the update rule
    ``h <- w*h + (1-w)*a``; w=0 is a one-step learner, larger w is slower.
    """

    w: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "w", float(self.w))
        if not 0.0 <= self.w <= 1.0:
            raise InvalidInputError(f"retention w={self.w} outside [0, 1]")

    def phi(self, m: int) -> float:
        if m < 0:
            raise InvalidInputError("observation count must be nonnegative")
        return 1.0 if m == 0 else self.w ** (2 * m)

    def discounted_phi_sum(self, delta, offset: int = 0):
        """Closed form ``w^(2*offset) / (1 - delta*w^2)``; broadcasts over delta."""
        _check_delta(delta)
        if offset < 0:
            raise InvalidInputError("offset must be nonnegative")
        lead = 1.0 if offset == 0 else self.w ** (2 * offset)
        out = lead / (1.0 - np.asarray(delta, dtype=float) * self.w**2)
        return float(out) if np.ndim(delta) == 0 else out

    @property
    def tail_retention(self) -> float:
        """Per-step retention of the curve beyond any horizon."""
        return self.w

    @property
    def step_decay(self) -> float:
        """Per-step multiplicative decay of phi beyond any horizon."""
        return self.w**2

    @property
    def table(self) -> tuple[float, ...]:
        return (1.0,)

    def converges(self) -> bool:
        return self.w < 1.0


@dataclass(frozen=True)
class Tabulated:
    """Explicit leading weights plus a geometric tail.

    ``phi(m) = values[m]`` inside the table; beyond it
    ``phi(m) = values[-1] * tail_w**(2*(m - last_index))``.
    """

    values: tuple[float, ...]
    tail_w: float = 0.0

    def __post_init__(self) -> None:
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "tail_w", float(self.tail_w))
        if not vals:
            raise InvalidInputError("table must contain at least phi(0)")
        if vals[0] != 1.0:
            raise InvalidInputError("phi(0) must equal 1 exactly")
        if any(v != v for v in vals):
            raise InvalidInputError("weights must not be NaN")
        if any(b > a for a, b in zip(vals, vals[1:])):
            raise InvalidInputError("table must be nonincreasing")
        if vals[-1] < 0.0:
            raise InvalidInputError("weights must be nonnegative")
        if not 0.0 <= self.tail_w < 1.0:
            raise InvalidInputError(f"tail_w={self.tail_w} outside [0, 1)")

    def phi(self, m: int) -> float:
        if m < 0:
            raise InvalidInputError("observation count must be nonnegative")
        last = len(self.values) - 1
        if m <= last:
            return self.values[m]
        return self.values[-1] * self.tail_w ** (2 * (m - last))

    def discounted_phi_sum(self, delta, offset: int = 0):
        """Table terms summed directly, geometric tail in closed form."""
        _check_delta(delta)
        if offset < 0:
            raise InvalidInputError("offset must be nonnegative")
        d = np.asarray(delta, dtype=float)
        last = len(self.values) - 1
        total = np.zeros_like(d)
        for t in range(max(0, last - offset + 1)):
            total = total + d**t * self.values[t + offset]
        t0 = max(0, last - offset + 1)
        lead = self.values[-1] * self.tail_w ** (2 * (t0 + offset - last))
        total = total + d**t0 * lead / (1.0 - d * self.tail_w**2)
        if np.ndim(delta) == 0:
            return float(total)
        return total

    @property
    def tail_retention(self) -> float:
        return self.tail_w

    @property
    def step_decay(self) -> float:
        return self.tail_w**2

    @property
    def table(self) -> tuple[float, ...]:
        return self.values

    def converges(self) -> bool:
        return True


LearningDynamic = Exponential | Tabulated


def _check_delta(delta) -> None:
    d = np.asarray(delta, dtype=float)
    if not np.all((d > 0.0) & (d < 1.0)):
        raise InvalidInputError("delta must lie strictly inside (0,1)")


def discounted_phi_sum(dynamic: LearningDynamic, delta, offset: int = 0):
    """``sum_{t>=0} delta^t * phi(t + offset)``, exact via closed forms.

    Accepts a scalar or an array of delta values (broadcast elementwise).
    """
    return dynamic.discounted_phi_sum(delta, offset)


def marginals(dynamic: LearningDynamic, horizon: int = DEFAULT_HORIZON) -> np.ndarray:
    """First `horizon` learning gains ``psi(t) = phi(t-1) - phi(t)``,
    t = 1..horizon, of the dynamic's weight curve."""
    if horizon < 1:
        raise InvalidInputError("horizon must be >= 1")
    curve = np.array([dynamic.phi(m) for m in range(horizon + 1)])
    return curve[:-1] - curve[1:]


def sort_marginals_dynamic(
    dynamic: LearningDynamic, horizon: int = DEFAULT_HORIZON
) -> Tabulated:
    """Front-load the first `horizon` learning gains.

    Returns a tabulated dynamic whose marginals are the input's first
    `horizon` marginals sorted in decreasing order, with the weight curve
    beyond the horizon preserved.  Because prefix sums of sorted gains
    dominate, the result is pointwise <= the input curve.
    """
    if horizon < 1:
        raise InvalidInputError("horizon must be >= 1")
    if not dynamic.converges():
        raise InvalidInputError("dynamic never converges; marginals sum to < 1")
    curve = [dynamic.phi(m) for m in range(horizon + 1)]
    psi = np.sort(marginals(dynamic, horizon))[::-1]
    floor = curve[horizon]
    values = [1.0]
    run = 1.0
    for t, gain in enumerate(psi, start=1):
        run -= gain
        # Mathematically floor <= run <= curve[t]; the clamps only absorb
        # cumulative-subtraction drift so the result stays pointwise <= input.
        values.append(min(max(run, floor), curve[t]))
    values[-1] = floor  # the redistributed gains telescope back exactly
    last = len(dynamic.table) - 1
    if horizon < last:
        values.extend(dynamic.table[horizon + 1 :])
    return Tabulated(values=tuple(values), tail_w=dynamic.tail_retention)


class Efficiency(enum.Enum):
    """How one learning dynamic's weight curve compares with another's."""

    MORE = "more"
    EQUAL = "equal"
    INCOMPARABLE = "incomparable"


def is_more_efficient(
    d1: LearningDynamic, d2: LearningDynamic, horizon: int = DEFAULT_HORIZON
) -> Efficiency:
    """Compare two dynamics pointwise: does `d1` always leave less divergence?

    MORE means ``phi1 <= phi2`` everywhere (including the geometric tails)
    with strict inequality somewhere; EQUAL means identical curves;
    anything else is INCOMPARABLE.
    """
    if horizon < 1:
        raise InvalidInputError("horizon must be >= 1")
    h = max(horizon, len(d1.table) - 1, len(d2.table) - 1)
    curve1 = np.array([d1.phi(m) for m in range(h + 1)])
    curve2 = np.array([d2.phi(m) for m in range(h + 1)])

    le_head = bool(np.all(curve1 <= curve2))
    eq_head = bool(np.all(curve1 == curve2))

    p1, p2 = curve1[-1], curve2[-1]
    r1, r2 = d1.step_decay, d2.step_decay
    # Beyond h both curves are geometric: p * r**(m-h).
    eq_tail = p1 == p2 and (p1 == 0.0 or r1 == r2)
    le_tail = p1 == 0.0 or (p1 <= p2 and r1 <= r2)

    if eq_head and eq_tail:
        return Efficiency.EQUAL
    if le_head and le_tail:
        return Efficiency.MORE
    return Efficiency.INCOMPARABLE
