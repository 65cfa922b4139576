"""Prediction-loss arithmetic and instance validation."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teachsel import (
    InvalidInputError,
    ProblemInstance,
    StandardizationSpec,
    mse,
    standardize,
    static_values,
    subset_informativeness,
)

from conftest import random_instance

# mse over every subset of the three-feature demo instance, in
# (size, lexicographic) order.
THREE_FEATURE_MSE = {
    (): 0.14,
    (0,): 0.3,
    (1,): 0.1,
    (2,): 0.1325,
    (0, 1): 0.26,
    (0, 2): 0.2925,
    (1, 2): 0.0925,
    (0, 1, 2): 0.2525,
}


class TestMse:
    @pytest.mark.parametrize("subset,expected", sorted(THREE_FEATURE_MSE.items()))
    def test_golden_table(self, three_feature_instance, subset, expected):
        assert mse(three_feature_instance, subset) == pytest.approx(
            expected, abs=1e-12
        )

    def test_perfect_beliefs_all_features(self):
        inst = ProblemInstance(
            a=[0.5, -0.2], c=1.0, h0=[0.5, -0.2], c_bar=1.0, k=2, delta=0.5
        )
        assert mse(inst, (0, 1)) == 0.0

    def test_empty_subset_formula(self, three_feature_instance):
        inst = three_feature_instance
        expected = (inst.c - inst.c_bar) ** 2 + np.sum(inst.a**2)
        assert mse(inst, ()) == expected == inst.mse_empty()

    def test_nonnegative_on_random_instances(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            inst = random_instance(rng)
            subset = [i for i in range(inst.n) if rng.random() < 0.5]
            h = rng.normal(0, 2, inst.n)
            assert mse(inst, subset, h) >= 0.0

    def test_dimension_mismatch_rejected(self, three_feature_instance):
        with pytest.raises(InvalidInputError):
            mse(three_feature_instance, (0,), h=[0.1, 0.2])

    def test_bad_subsets_rejected(self, three_feature_instance):
        with pytest.raises(InvalidInputError):
            mse(three_feature_instance, (0, 0))
        with pytest.raises(InvalidInputError):
            mse(three_feature_instance, (3,))


class TestStaticValue:
    @pytest.mark.parametrize(
        "i,expected", [(0, -0.16), (1, 0.04), (2, 0.0075)]
    )
    def test_golden_values(self, three_feature_instance, i, expected):
        assert static_values(three_feature_instance)[i] == pytest.approx(
            expected, abs=1e-12
        )

    def test_unused_feature_is_worthless(self):
        inst = ProblemInstance(
            a=[0.7, 1.3], c=0.0, h0=[0.0, 0.0], c_bar=0.0, k=2, delta=0.5
        )
        assert static_values(inst)[0] == 0.0
        assert static_values(inst)[1] == 0.0

    def test_sign_rule(self):
        """Positive value iff h lies strictly between 0 and 2a."""
        rng = np.random.default_rng(7)
        for _ in range(500):
            a = float(rng.uniform(0.05, 2.0) * rng.choice([-1.0, 1.0]))
            h = float(rng.uniform(-3.0, 3.0))
            inst = ProblemInstance(
                a=[a], c=0.0, h0=[h], c_bar=0.0, k=1, delta=0.5
            )
            value = static_values(inst)[0]
            between = (0 < h < 2 * a) if a > 0 else (2 * a < h < 0)
            if value > 0:
                assert between
            if between:
                assert value > 0


class TestStaticSetValue:
    def test_golden_pair(self, three_feature_instance):
        assert static_values(three_feature_instance)[[1, 2]].sum() == pytest.approx(
            0.0475, abs=1e-12
        )

    def test_empty_set(self, three_feature_instance):
        assert static_values(three_feature_instance)[[]].sum() == 0.0

    def test_equals_mse_drop(self, three_feature_instance):
        inst = three_feature_instance
        for subset in THREE_FEATURE_MSE:
            drop = mse(inst, ()) - mse(inst, subset)
            assert static_values(inst)[list(subset)].sum() == pytest.approx(drop, abs=1e-12)

    def test_additivity_exhaustive(self):
        """Set value == sum of member values == baseline-mse drop, all subsets."""
        rng = np.random.default_rng(11)
        for _ in range(20):
            inst = random_instance(rng, n=int(rng.integers(1, 9)), max_n=8)
            h = rng.normal(0, 1, inst.n)
            values = static_values(inst, h)
            for size in range(inst.n + 1):
                for subset in itertools.combinations(range(inst.n), size):
                    expected = mse(inst, (), h) - mse(inst, subset, h)
                    total = static_values(inst, h)[list(subset)].sum()
                    assert total == pytest.approx(expected, abs=1e-12)
                    assert total == pytest.approx(
                        sum(values[list(subset)]), abs=1e-12
                    )

    def test_informativeness_helper(self, three_feature_instance):
        assert subset_informativeness(three_feature_instance, (0, 2)) == pytest.approx(
            0.09 + 0.01
        )


class TestStandardize:
    def test_identity(self):
        spec = StandardizationSpec(mu=np.zeros(3), sigma=np.ones(3))
        a, c = standardize([0.3, 0.2, 0.1], 1.5, spec)
        np.testing.assert_array_equal(a, [0.3, 0.2, 0.1])
        assert c == 1.5

    def test_hand_example(self):
        spec = StandardizationSpec(mu=[3.0], sigma=[0.5])
        a, c = standardize([2.0], 1.0, spec)
        np.testing.assert_allclose(a, [1.0])
        assert c == pytest.approx(7.0)

    def test_predictions_preserved_pointwise(self):
        """Transformed model evaluates identically at 100 sampled points."""
        rng = np.random.default_rng(3)
        n = 5
        raw_a = rng.normal(0, 1, n)
        raw_c = float(rng.normal())
        spec = StandardizationSpec(
            mu=rng.normal(0, 4, n), sigma=rng.uniform(0.2, 3.0, n)
        )
        a, c = standardize(raw_a, raw_c, spec)
        for _ in range(100):
            z = rng.normal(0, 5, n)
            x = (z - spec.mu) / spec.sigma
            raw_pred = raw_c + np.dot(raw_a, z)
            std_pred = c + np.dot(a, x)
            assert abs(raw_pred - std_pred) < 1e-12

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(InvalidInputError):
            StandardizationSpec(mu=[0.0], sigma=[0.0])
        with pytest.raises(InvalidInputError):
            StandardizationSpec(mu=[0.0], sigma=[-1.0])

    def test_length_mismatch(self):
        spec = StandardizationSpec(mu=[0.0, 0.0], sigma=[1.0, 1.0])
        with pytest.raises(InvalidInputError):
            standardize([1.0], 0.0, spec)


class TestInstanceValidation:
    def test_delta_bounds(self):
        for delta in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(InvalidInputError):
                ProblemInstance(
                    a=[1.0], c=0.0, h0=[0.5], c_bar=0.0, k=1, delta=delta
                )

    def test_budget_bounds(self):
        with pytest.raises(InvalidInputError):
            ProblemInstance(a=[1.0], c=0.0, h0=[0.5], c_bar=0.0, k=2, delta=0.5)
        with pytest.raises(InvalidInputError):
            ProblemInstance(a=[1.0], c=0.0, h0=[0.5], c_bar=0.0, k=-1, delta=0.5)

    def test_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            ProblemInstance(a=[1.0, 2.0], c=0.0, h0=[0.5], c_bar=0.0, k=1, delta=0.5)

    def test_non_finite_entries_rejected(self):
        with pytest.raises(InvalidInputError):
            ProblemInstance(a=[np.nan], c=0.0, h0=[0.5], c_bar=0.0, k=1, delta=0.5)
        with pytest.raises(InvalidInputError):
            ProblemInstance(a=[1.0], c=np.inf, h0=[0.5], c_bar=0.0, k=1, delta=0.5)

    def test_zero_coefficient_rejected_by_default(self):
        with pytest.raises(InvalidInputError):
            ProblemInstance(a=[0.0, 1.0], c=0.0, h0=[0.0, 0.0], c_bar=0.0, k=1, delta=0.5)

    def test_zero_coefficient_downgrades_to_warning(self):
        with pytest.warns(UserWarning):
            inst = ProblemInstance(
                a=[0.0, 1.0],
                c=0.0,
                h0=[0.0, 0.0],
                c_bar=0.0,
                k=1,
                delta=0.5,
                allow_zero_coeff=True,
            )
        assert inst.n == 2

    def test_arrays_are_immutable(self, three_feature_instance):
        with pytest.raises(ValueError):
            three_feature_instance.a[0] = 9.9


@settings(max_examples=200, deadline=None)
@given(
    a=st.lists(
        st.floats(min_value=0.05, max_value=3.0).map(lambda x: round(x, 6)),
        min_size=1,
        max_size=6,
    ),
    h_scale=st.floats(min_value=-2.0, max_value=2.0),
)
def test_value_identity_property(a, h_scale):
    """2ah - h^2 always equals a^2 - (a-h)^2."""
    a_arr = np.asarray(a)
    h = h_scale * a_arr
    inst = ProblemInstance(
        a=a_arr, c=0.0, h0=h, c_bar=0.0, k=len(a), delta=0.5
    )
    values = static_values(inst)
    np.testing.assert_allclose(
        values, a_arr**2 - (a_arr - h) ** 2, atol=1e-12
    )
