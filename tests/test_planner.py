"""Optimal subset selection, static and stationary."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teachsel import (
    Exponential,
    InvalidInputError,
    ProblemInstance,
    SelectionSequence,
    discounted_baseline_loss,
    optimal_static_subset,
    optimal_stationary_sequence,
    sequence_loss,
    static_values,
    stationary_values,
)

from teachsel.planner import top_k_mask

from conftest import random_instance


class TestOptimalStaticSubset:
    def test_three_feature_demo_selects_the_understood_pair(
        self, three_feature_instance
    ):
        plan = optimal_static_subset(three_feature_instance)
        assert plan.subset == (1, 2)
        assert not plan.degenerate

    def test_reports_sorted_by_value_and_cover_all_features(
        self, three_feature_instance
    ):
        plan = optimal_static_subset(three_feature_instance)
        values = plan.values[plan.order].tolist()
        assert values == sorted(values, reverse=True)
        assert sorted(plan.order.tolist()) == [0, 1, 2]

    def test_perfect_beliefs_select_everything(self):
        rng = np.random.default_rng(2)
        a = rng.uniform(0.2, 1.0, 5)
        inst = ProblemInstance(a=a, c=0.0, h0=a, c_bar=0.0, k=5, delta=0.5)
        assert optimal_static_subset(inst).subset == (0, 1, 2, 3, 4)

    def test_opposite_sign_beliefs_select_nothing(self):
        inst = ProblemInstance(
            a=[0.5, 1.0, 0.3],
            c=0.0,
            h0=[-0.1, -2.0, -0.4],
            c_bar=0.0,
            k=3,
            delta=0.5,
        )
        assert optimal_static_subset(inst).subset == ()

    def test_beliefs_of_another_length_are_rejected(self, three_feature_instance):
        for h in ([0.1, 0.2], [0.1, 0.2, 0.3, 0.4]):
            with pytest.raises(InvalidInputError, match="belief vector length"):
                optimal_static_subset(three_feature_instance, h)

    def test_budget_respected_and_ties_break_low_index(self):
        inst = ProblemInstance(
            a=[0.5, 0.5, 0.5], c=0.0, h0=[0.5, 0.5, 0.5], c_bar=0.0, k=2, delta=0.5
        )
        plan = optimal_static_subset(inst)
        assert plan.subset == (0, 1)
        assert plan.degenerate  # exact ties are flagged

    def test_never_selects_nonpositive_values(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            inst = random_instance(rng)
            plan = optimal_static_subset(inst)
            assert np.all(plan.values[plan.selected] > 0.0)
            assert plan.selected.sum() == len(plan.subset)


class TestStationaryFeatureValue:
    def test_golden_value(self):
        inst = ProblemInstance(
            a=[1.0, 0.4], c=0.0, h0=[-0.5, 0.75], c_bar=0.0, k=1, delta=0.9
        )
        got = stationary_values(inst, Exponential(0.5))[0]
        assert got == pytest.approx(7.096774193548387, abs=1e-12)

    def test_correct_beliefs_leave_pure_informativeness(self):
        inst = ProblemInstance(
            a=[0.8], c=0.0, h0=[0.8], c_bar=0.0, k=1, delta=0.75
        )
        got = stationary_values(inst, Exponential(0.3))[0]
        assert got == pytest.approx(0.64 / 0.25, abs=1e-12)

    def test_no_learning_limit_matches_discounted_static_value(self):
        """As retention -> 1 the value tends to static value / (1 - delta)."""
        inst = ProblemInstance(
            a=[1.0, 0.4], c=0.0, h0=[-0.5, 0.75], c_bar=0.0, k=1, delta=0.5
        )
        slow = Exponential(0.999999)
        static = static_values(inst)
        for i in range(2):
            expected = static[i] / (1.0 - inst.delta)
            assert stationary_values(inst, slow)[i] == pytest.approx(
                expected, abs=1e-4
            )


class TestOptimalStationarySequence:
    def test_fast_learner_prefers_teaching_everything(self, three_feature_instance):
        plan = optimal_stationary_sequence(three_feature_instance, Exponential(0.0))
        assert plan.subset == (0, 1, 2)

    def test_patience_flips_the_two_feature_choice(self):
        base = dict(a=[1.0, 0.4], c=0.0, h0=[-0.5, 0.75], c_bar=0.0, k=1)
        impatient = ProblemInstance(delta=0.5, **base)
        patient = ProblemInstance(delta=0.7, **base)
        assert optimal_stationary_sequence(impatient, Exponential(0.0)).subset == (1,)
        assert optimal_stationary_sequence(patient, Exponential(0.0)).subset == (0,)

    def test_zero_budget(self, three_feature_instance):
        inst = ProblemInstance(
            a=three_feature_instance.a,
            c=0.0,
            h0=three_feature_instance.h0,
            c_bar=0.0,
            k=0,
            delta=0.9,
        )
        plan = optimal_stationary_sequence(inst, Exponential(0.5))
        assert plan.subset == ()
        assert plan.total_value == 0.0

    def test_maximizes_over_all_subsets(self):
        """Exhaustive oracle: no subset of size <= k beats the returned one."""
        rng = np.random.default_rng(31)
        for _ in range(40):
            inst = random_instance(rng)
            dyn = Exponential(float(rng.uniform(0, 0.95)))
            plan = optimal_stationary_sequence(inst, dyn)
            values = stationary_values(inst, dyn)
            best = max(
                (
                    sum(values[list(s)])
                    for size in range(inst.k + 1)
                    for s in itertools.combinations(range(inst.n), size)
                ),
                default=0.0,
            )
            assert plan.total_value == pytest.approx(best, abs=1e-12)

    def test_maximizes_on_a_twelve_feature_instance(self):
        rng = np.random.default_rng(33)
        inst = random_instance(rng, n=12, k=5, delta=0.8, max_n=12)
        dyn = Exponential(0.4)
        plan = optimal_stationary_sequence(inst, dyn)
        values = stationary_values(inst, dyn)
        best = max(
            sum(values[list(s)])
            for size in range(inst.k + 1)
            for s in itertools.combinations(range(inst.n), size)
        )
        assert plan.total_value == pytest.approx(best, abs=1e-12)

    def test_slow_learner_ranking_matches_static_ranking(self):
        """With retention near 1 the stationary choice degenerates to the
        static one (on instances without near-ties)."""
        rng = np.random.default_rng(37)
        checked = 0
        while checked < 25:
            inst = random_instance(rng)
            static_plan = optimal_static_subset(inst)
            gaps = np.abs(np.diff(sorted(static_values(inst))))
            if gaps.size and gaps.min() < 1e-3:
                continue
            slow = optimal_stationary_sequence(inst, Exponential(0.999))
            assert slow.subset == static_plan.subset
            checked += 1

    def test_value_decomposition_against_sequence_loss(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            inst = random_instance(rng)
            dyn = Exponential(float(rng.uniform(0, 0.95)))
            plan = optimal_stationary_sequence(inst, dyn)
            loss = sequence_loss(inst, dyn, SelectionSequence.stationary(plan.subset))
            baseline = discounted_baseline_loss(inst)
            assert plan.total_value == pytest.approx(baseline - loss, abs=1e-9)

    def test_degenerate_flag_on_duplicate_features(self):
        inst = ProblemInstance(
            a=[0.6, 0.6, 0.2],
            c=0.0,
            h0=[0.1, 0.1, 0.2],
            c_bar=0.0,
            k=1,
            delta=0.5,
        )
        plan = optimal_stationary_sequence(inst, Exponential(0.5))
        assert plan.degenerate
        assert plan.subset == (0,)


class TestDiscountedBaselineLoss:
    def test_three_feature_demo(self, three_feature_instance):
        assert discounted_baseline_loss(three_feature_instance) == pytest.approx(
            1.4, abs=1e-12
        )

    def test_single_feature(self):
        inst = ProblemInstance(a=[1.0], c=0.0, h0=[0.3], c_bar=0.0, k=1, delta=0.5)
        assert discounted_baseline_loss(inst) == pytest.approx(2.0, abs=1e-12)

    def test_matches_all_empty_sequence_loss(self):
        rng = np.random.default_rng(43)
        for _ in range(30):
            inst = random_instance(rng)
            loss = sequence_loss(
                inst, Exponential(0.5), SelectionSequence.all_empty()
            )
            assert discounted_baseline_loss(inst) == pytest.approx(loss, abs=1e-10)


@settings(max_examples=100, deadline=None)
@given(
    rows=st.integers(1, 6).flatmap(
        lambda n: st.lists(
            st.lists(st.sampled_from([-1.0, -0.0, 0.0, 0.5, 0.5, 2.0]), min_size=n, max_size=n),
            min_size=1,
            max_size=8,
        )
    ),
    k=st.integers(0, 7),
)
def test_row_wise_selection_matches_one_row_at_a_time(rows, k):
    values = np.array(rows)
    expected = np.array([top_k_mask(row, k) for row in values])
    np.testing.assert_array_equal(top_k_mask(values, k), expected)


def argsort_top_k_mask(values: np.ndarray, k: int) -> np.ndarray:
    """Slow oracle: the stable descending order's first k entries, kept
    where strictly positive."""
    top = np.argsort(-values, axis=-1, kind="stable")[..., :k]
    mask = np.zeros(values.shape, dtype=bool)
    np.put_along_axis(mask, top, np.take_along_axis(values, top, axis=-1) > 0.0, axis=-1)
    return mask


@st.composite
def rows_and_budgets(draw):
    """One row of values or many, and a budget that is often 0 or n."""
    n = draw(st.integers(1, 7))
    edges = st.sampled_from([-1.0, -0.0, 0.0, 0.5, 2.0, np.nan])
    one_row = st.lists(edges, min_size=n, max_size=n)
    many_rows = st.lists(
        st.lists(
            st.one_of(st.sampled_from([-0.0, 0.0, 0.5, np.nan]), st.floats()),
            min_size=n,
            max_size=n,
        ),
        min_size=1,
        max_size=6,
    )
    values = draw(st.one_of(one_row, many_rows))
    k = draw(st.one_of(st.just(0), st.just(n), st.integers(0, n + 2)))
    return np.array(values), k


@settings(max_examples=300, deadline=None)
@given(case=rows_and_budgets())
def test_partitioned_mask_matches_stable_argsort(case):
    """Ties, signed zeros, nan and k = 0 or k >= n, in one row or in many."""
    values, k = case
    expected = argsort_top_k_mask(values, k)
    np.testing.assert_array_equal(top_k_mask(values, k), expected)
