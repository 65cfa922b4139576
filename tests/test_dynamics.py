"""Learning-dynamic weight curves and their discounted sums."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teachsel import (
    Efficiency,
    Exponential,
    InvalidInputError,
    Tabulated,
    discounted_phi_sum,
    is_more_efficient,
    marginals,
    sort_marginals_dynamic,
)


def reference_sum(dynamic, delta: float, offset: int = 0) -> float:
    """Plain term-by-term summation using only phi(); independent oracle."""
    total, t = 0.0, 0
    while delta**t / (1.0 - delta) >= 1e-14 * (abs(total) + 1.0):
        total += delta**t * dynamic.phi(t + offset)
        t += 1
    return total


def truncated_sum(dynamic, delta: float, offset: int = 0, tol: float = 1e-13) -> float:
    """Term-by-term summation with a certified geometric remainder bound;
    independent oracle.  Stops at the first index T where
    ``delta^T * phi(T+offset) / (1-delta) < tol * (sum + 1e-300)``."""
    total, t = 0.0, 0
    while True:
        total += delta**t * dynamic.phi(t + offset)
        remainder = delta ** (t + 1) * dynamic.phi(t + 1 + offset) / (1.0 - delta)
        if remainder < tol * (total + 1e-300):
            return total
        t += 1


class TestPhi:
    def test_starts_at_one(self):
        assert Exponential(0.5).phi(0) == 1.0
        assert Exponential(0.0).phi(0) == 1.0
        assert Tabulated((1.0, 0.4)).phi(0) == 1.0

    def test_exponential_values(self):
        assert Exponential(0.5).phi(2) == pytest.approx(0.0625, abs=1e-15)
        assert Exponential(0.0).phi(1) == 0.0

    def test_tabulated_inside_and_beyond_table(self):
        dyn = Tabulated((1.0, 0.5, 0.25), tail_w=0.5)
        assert dyn.phi(1) == 0.5
        assert dyn.phi(2) == 0.25
        # beyond the table the tail decays by tail_w**2 per step
        assert dyn.phi(3) == pytest.approx(0.25 * 0.25)
        assert dyn.phi(5) == pytest.approx(0.25 * 0.25**3)

    def test_monotone_nonincreasing(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            w = float(rng.uniform(0, 1))
            dyn = Exponential(w)
            curve = [dyn.phi(m) for m in range(30)]
            assert all(b <= a for a, b in zip(curve, curve[1:]))

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            Exponential(1.5)
        with pytest.raises(InvalidInputError):
            Exponential(-0.1)
        with pytest.raises(InvalidInputError):
            Tabulated((0.9, 0.5))  # must start at 1
        with pytest.raises(InvalidInputError):
            Tabulated((1.0, 0.5, 0.6))  # increasing
        with pytest.raises(InvalidInputError):
            Tabulated((1.0, 0.5), tail_w=1.0)

    def test_nan_weights_are_rejected(self):
        # Every comparison with nan is false, so no ordering check sees it.
        for values in [(1.0, np.nan, 0.2), (1.0, 0.5, np.nan)]:
            with pytest.raises(InvalidInputError, match="weights must not be NaN"):
                Tabulated(values)
        # Tables that are bad for another reason keep their own message.
        with pytest.raises(InvalidInputError, match="phi\\(0\\) must equal 1 exactly"):
            Tabulated((np.nan, 0.5))
        with pytest.raises(InvalidInputError, match="tail_w=nan outside"):
            Tabulated((1.0, 0.5), tail_w=np.nan)


class TestDiscountedPhiSum:
    def test_exponential_closed_form_value(self):
        assert discounted_phi_sum(Exponential(0.5), 0.9) == pytest.approx(
            1.2903225806451613, abs=1e-12
        )

    def test_one_step_learner_keeps_only_first_term(self):
        for delta in (0.1, 0.5, 0.99):
            assert discounted_phi_sum(Exponential(0.0), delta) == 1.0

    def test_tabulated_matches_equivalent_exponential(self):
        """A table holding (1, r, r^2) with tail retention sqrt(r) is the
        same curve as geometric learning with w = sqrt(r)."""
        w = float(np.sqrt(0.5))
        tab = Tabulated((1.0, 0.5, 0.25), tail_w=w)
        exp = Exponential(w)
        for delta in (0.1, 0.5, 0.9, 0.99):
            for offset in (0, 1, 3, 7):
                assert discounted_phi_sum(tab, delta, offset) == pytest.approx(
                    discounted_phi_sum(exp, delta, offset), abs=1e-10
                )

    def test_closed_forms_match_termwise_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            delta = float(rng.uniform(0.05, 0.95))
            offset = int(rng.integers(0, 6))
            if rng.random() < 0.5:
                dyn = Exponential(float(rng.uniform(0, 0.99)))
            else:
                length = int(rng.integers(1, 6))
                vals = np.sort(rng.uniform(0, 1, length))[::-1]
                dyn = Tabulated(
                    (1.0, *vals.tolist()), tail_w=float(rng.uniform(0, 0.95))
                )
            expected = reference_sum(dyn, delta, offset)
            assert discounted_phi_sum(dyn, delta, offset) == pytest.approx(
                expected, abs=1e-10
            )
            assert truncated_sum(dyn, delta, offset) == pytest.approx(
                expected, abs=1e-10
            )

    def test_bounds_and_offset_monotonicity(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            delta = float(rng.uniform(0.05, 0.95))
            dyn = Exponential(float(rng.uniform(0, 0.99)))
            sums = [discounted_phi_sum(dyn, delta, off) for off in range(6)]
            assert all(0.0 < s <= 1.0 / (1.0 - delta) + 1e-12 for s in sums)
            assert all(b <= a + 1e-12 for a, b in zip(sums, sums[1:]))

    def test_vectorized_over_delta(self):
        deltas = np.array([0.2, 0.5, 0.9])
        for dyn in (Exponential(0.5), Tabulated((1.0, 0.6, 0.2), tail_w=0.4)):
            out = discounted_phi_sum(dyn, deltas)
            np.testing.assert_allclose(
                out, [discounted_phi_sum(dyn, d) for d in deltas], atol=1e-14
            )

    def test_delta_bounds_enforced(self):
        with pytest.raises(InvalidInputError):
            discounted_phi_sum(Exponential(0.5), 1.0)
        with pytest.raises(InvalidInputError):
            discounted_phi_sum(Exponential(0.5), 0.0)


class TestMarginals:
    def test_values(self):
        psi = marginals(Exponential(0.5), horizon=2)
        np.testing.assert_allclose(psi, [0.75, 0.1875], atol=1e-15)

    def test_one_step_learner(self):
        psi = marginals(Exponential(0.0), horizon=5)
        np.testing.assert_allclose(psi, [1.0, 0.0, 0.0, 0.0, 0.0])

    def test_partial_sums_approach_one(self):
        for dyn in (Exponential(0.6), Tabulated((1.0, 0.3), tail_w=0.4)):
            totals = [marginals(dyn, horizon=h).sum() for h in (4, 16, 64)]
            assert all(b >= a for a, b in zip(totals, totals[1:]))
            assert totals[-1] == pytest.approx(1.0, abs=1e-9)

    def test_nonnegative(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            dyn = Exponential(float(rng.uniform(0, 1)))
            assert np.all(marginals(dyn, horizon=32) >= 0.0)


class TestSortMarginals:
    def test_sorted_input_is_unchanged(self):
        """Geometric curves already have decreasing gains."""
        dyn = Exponential(0.6)
        out = sort_marginals_dynamic(dyn, horizon=16)
        for m in range(17):
            assert out.phi(m) == pytest.approx(dyn.phi(m), abs=1e-12)

    def test_hand_example(self):
        out = sort_marginals_dynamic(Tabulated((1.0, 0.9, 0.3)), horizon=2)
        np.testing.assert_allclose(out.values[:3], [1.0, 0.4, 0.3], atol=1e-12)

    def test_pointwise_below_input(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            length = int(rng.integers(1, 8))
            vals = np.sort(rng.uniform(0, 1, length))[::-1]
            dyn = Tabulated((1.0, *vals.tolist()), tail_w=float(rng.uniform(0, 0.9)))
            out = sort_marginals_dynamic(dyn, horizon=24)
            for m in range(30):
                assert out.phi(m) <= dyn.phi(m) + 1e-15

    def test_classified_more_or_equal(self):
        rng = np.random.default_rng(29)
        for _ in range(40):
            length = int(rng.integers(1, 8))
            vals = np.sort(rng.uniform(0, 1, length))[::-1]
            dyn = Tabulated((1.0, *vals.tolist()), tail_w=float(rng.uniform(0, 0.9)))
            out = sort_marginals_dynamic(dyn)
            assert is_more_efficient(out, dyn) in (Efficiency.MORE, Efficiency.EQUAL)


class TestIsMoreEfficient:
    def test_faster_geometric_learner_wins(self):
        assert is_more_efficient(Exponential(0.3), Exponential(0.7)) is Efficiency.MORE

    def test_self_comparison(self):
        dyn = Exponential(0.44)
        assert is_more_efficient(dyn, dyn) is Efficiency.EQUAL

    def test_reversed_order_makes_no_claim(self):
        assert (
            is_more_efficient(Exponential(0.7), Exponential(0.3))
            is Efficiency.INCOMPARABLE
        )

    def test_crossing_profiles_incomparable(self):
        d1 = Tabulated((1.0, 0.2, 0.15), tail_w=0.1)
        d2 = Tabulated((1.0, 0.5, 0.1), tail_w=0.1)
        assert is_more_efficient(d1, d2) is Efficiency.INCOMPARABLE
        assert is_more_efficient(d2, d1) is Efficiency.INCOMPARABLE

    def test_tail_decay_matters(self):
        """Identical heads but a slower tail must not be called more efficient."""
        d1 = Tabulated((1.0, 0.5), tail_w=0.9)
        d2 = Tabulated((1.0, 0.5), tail_w=0.2)
        assert is_more_efficient(d1, d2) is Efficiency.INCOMPARABLE
        assert is_more_efficient(d2, d1) is Efficiency.MORE

    def test_underflowed_curve_with_slower_tail_is_incomparable(self):
        """`d1` reads 0.0 from m = 41, but its tail decays by 0.25 a step
        against 0.2499, so it exceeds `d2` from m of about 1.7 million."""
        d1 = Tabulated((1.0, 1e-300), tail_w=0.5)
        d2 = Tabulated((1.0, 1e-10), tail_w=math.sqrt(0.2499))
        assert d1.phi(41) == 0.0
        assert is_more_efficient(d1, d2) is Efficiency.INCOMPARABLE
        assert is_more_efficient(d2, d1) is Efficiency.INCOMPARABLE


@settings(max_examples=200, deadline=None)
@given(
    w=st.floats(min_value=0.0, max_value=0.999),
    delta=st.floats(min_value=0.01, max_value=0.99),
    offset=st.integers(min_value=0, max_value=10),
)
def test_discounted_sum_bounds_property(w, delta, offset):
    """The discounted weight sum stays within [0, 1/(1-delta)], strictly
    positive with no offset (phi(0) = 1 always contributes)."""
    total = discounted_phi_sum(Exponential(w), delta, offset)
    assert 0.0 <= total <= 1.0 / (1.0 - delta) + 1e-9
    if offset == 0:
        assert total >= 1.0
