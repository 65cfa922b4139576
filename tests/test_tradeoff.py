"""Patience thresholds, sweeps, and efficiency-ordering checks."""

import json
import struct
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from teachsel import (
    Efficiency,
    Exponential,
    InvalidInputError,
    ProblemInstance,
    Tabulated,
    all_switch_points,
    compare_efficiency_selection,
    discounted_gain_sum,
    enumerate_optimal_subsets,
    inverse_weight_cdf,
    load_scenario,
    optimal_stationary_sequence,
    sort_marginals_dynamic,
    static_values,
    stationary_values,
    subset_informativeness,
    sweep_delta,
    sweep_w_delta_loss_ratio,
    tradeoff,
)
from teachsel.cli import main
from teachsel.tradeoff import CANCELS_BELOW, _assemble_intervals

from conftest import exact_gain, random_instance, select_top_k, ulps_off, write_scenario

TWO_FEATURE_THRESHOLD_W0 = 0.6051703877790834  # (2.1275 - 0.84) / 2.1275
TWO_FEATURE_THRESHOLD_W05 = 0.6714471968709257  # 1.2875 / 1.9175


class TestSwitchingPoint:
    def test_two_feature_demo_closed_form(self, two_feature_instance):
        table = all_switch_points(two_feature_instance, Exponential(0.0))
        assert (table.i[0], table.j[0]) == (0, 1)
        assert table.delta_info[0] == pytest.approx(0.84, abs=1e-12)
        assert table.delta_div[0] == pytest.approx(2.1275, abs=1e-12)
        assert table.threshold[0] == pytest.approx(TWO_FEATURE_THRESHOLD_W0, abs=1e-12)
        table = all_switch_points(two_feature_instance, Exponential(0.5))
        assert table.threshold[0] == pytest.approx(TWO_FEATURE_THRESHOLD_W05, abs=1e-12)

    def test_tabulated_copy_agrees_with_closed_form(self, two_feature_instance):
        # The table has the weights of Exponential(w) but is inverted by Newton steps.
        for w in (0.0, 0.3, 0.5, 0.9):
            got = all_switch_points(two_feature_instance, Tabulated((1.0,), tail_w=w))
            want = all_switch_points(two_feature_instance, Exponential(w))
            assert got.threshold[0] == pytest.approx(want.threshold[0], abs=1e-9)

    def test_informative_and_aligned_is_always_preferred(self):
        inst = ProblemInstance(
            a=[1.0, 0.4], c=0.0, h0=[1.0, 0.4], c_bar=0.0, k=1, delta=0.5
        )
        assert np.isnan(all_switch_points(inst, Exponential(0.5)).threshold[0])
        table = all_switch_points(inst, Tabulated((1.0,), tail_w=0.5))
        assert np.isnan(table.threshold[0])
        assert table.kind == ["always_i"]

    def test_pair_ordering_is_automatic(self):
        # Feature 0 is the less informative one, so the row puts 1 first.
        inst = ProblemInstance(
            a=[0.4, 1.0], c=0.0, h0=[0.75, -0.5], c_bar=0.0, k=1, delta=0.5
        )
        table = all_switch_points(inst, Exponential(0.0))
        assert (table.i[0], table.j[0]) == (1, 0)

    def test_equal_informativeness_rejected(self):
        inst = ProblemInstance(
            a=[0.5, -0.5], c=0.0, h0=[0.1, 0.2], c_bar=0.0, k=1, delta=0.5
        )
        # No ordered pair exists, so the table has no row.
        assert all_switch_points(inst, Exponential(0.5)).i.size == 0

    def test_all_pairs_skips_equal_informativeness(self):
        inst = ProblemInstance(
            a=[0.5, -0.5, 0.2], c=0.0, h0=[0.1, 0.3, 0.2], c_bar=0.0, k=2, delta=0.5
        )
        table = all_switch_points(inst, Exponential(0.4))
        pairs = list(zip(table.i.tolist(), table.j.tolist()))
        assert pairs == [(0, 2), (1, 2)]  # the |a|=0.5 pair has no ordering
        for column in (table.delta_info, table.delta_div, table.threshold):
            assert column.shape == (2,)

    def test_threshold_really_flips_the_preference(self, two_feature_instance):
        for w in (0.0, 0.4, 0.8):
            dyn = Exponential(w)
            threshold = all_switch_points(two_feature_instance, dyn).threshold[0]
            for delta, expect_first in (
                (threshold - 1e-4, False),
                (threshold + 1e-4, True),
            ):
                inst = ProblemInstance(
                    a=[1.0, 0.4], c=0.0, h0=[-0.5, 0.75], c_bar=0.0, k=1, delta=delta
                )
                subset = optimal_stationary_sequence(inst, dyn).subset
                assert subset == ((0,) if expect_first else (1,))


def learning_weight_cdf(dynamic, delta):
    """``F(delta) = (1 - delta) * G(delta)``, the function `inverse_weight_cdf`
    inverts."""
    return (1.0 - delta) * discounted_gain_sum(dynamic, delta)


class TestLearningWeightCdf:
    def test_anchors_and_monotonicity(self):
        for dyn in (Exponential(0.0), Exponential(0.7), Tabulated((1.0, 0.3), tail_w=0.5)):
            samples = np.linspace(1e-9, 1 - 1e-9, 50)
            values = [learning_weight_cdf(dyn, d) for d in samples]
            assert values[0] == pytest.approx(0.0, abs=1e-6)
            assert values[-1] == pytest.approx(1.0, abs=1e-6)
            assert all(b > a for a, b in zip(values, values[1:]))


class TestExactAtTheEdges:
    """F and its inverse against exact rationals where patience or retention
    is within 1e-9 of 0 or 1, or the curve is flat."""

    @pytest.mark.parametrize(
        "dynamic",
        [
            Exponential(1e-9),
            Exponential(1.0 - 1e-9),
            Tabulated((1.0, 1.0, 0.5), tail_w=1.0 - 1e-9),
        ],
        ids=repr,
    )
    def test_cdf_is_exact(self, dynamic):
        for delta in (1e-9, 0.5, 1.0 - 1e-9):
            exact = (1 - Fraction(delta)) * exact_gain(dynamic, delta)
            assert ulps_off(learning_weight_cdf(dynamic, delta), exact) <= 4, delta

    def test_geometric_inverse_is_exact_near_full_retention(self):
        """``1 - w^2 * (1 - t)`` cancels near w = 1; ``(1 - w)(1 + w) + w^2 * t``
        does not."""
        w = Fraction(1.0 - 1e-9)
        for t in (1e-12, 1e-6, 0.5):
            exact = Fraction(t) / (1 - w * w * (1 - Fraction(t)))
            got = inverse_weight_cdf(Exponential(float(w)), [t])[0]
            assert ulps_off(got, exact) <= 4, t

    def test_table_inverse_on_a_flat_cdf_is_exact(self):
        """Where F is nearly flat in its last bits, the table's inverse still
        lands within 4 ulps of the exact one."""
        w = Fraction(1.0 - 1e-9)
        for t in (1e-15, 1e-12, 0.5, 1.0 - 1e-12):
            exact = Fraction(t) / (1 - w * w * (1 - Fraction(t)))
            got = inverse_weight_cdf(Tabulated((1.0,), tail_w=float(w)), [t])[0]
            assert ulps_off(got, exact) <= 4, t

    def test_a_value_that_vanishes_with_patience_keeps_its_sign(self):
        """Under a plateau phi = 1, 1, 1 an unknown feature is worth
        ``delta^3 / (1 - delta)``: 1e-18 at delta = 1e-6, not 0."""
        inst = ProblemInstance(a=[1.0, 1.0], c=0.0, h0=[0.0, -1.0], c_bar=0.0, k=1, delta=1e-6)
        dyn = Tabulated((1.0, 1.0, 1.0))
        d = Fraction(1e-6)
        assert ulps_off(stationary_values(inst, dyn)[0], d**3 / (1 - d)) <= 4
        assert optimal_stationary_sequence(inst, dyn).subset == (0,)
        assert sweep_delta(inst, dyn, [1e-6]).subsets == [(0,)]
        assert enumerate_optimal_subsets(inst, dyn).subsets == [(0,)]


def exact_weight_cdf(dynamic, d):
    """``F(d) = sum_t d^t * psi_t`` in exact rationals, with the geometric
    tail in closed form where ``phi(L)(1 - w^2)`` is not 0."""
    d, w = Fraction(d), Fraction(dynamic.tail_retention)
    table = [Fraction(v) for v in dynamic.table]
    last = len(table) - 1
    head = sum(((table[t - 1] - table[t]) * d**t for t in range(1, last + 1)), Fraction(0))
    coef = table[-1] * (1 - w * w)
    return head + coef * d ** (last + 1) / (1 - w * w * d) if coef else head


@st.composite
def newton_tables(draw):
    """Tables with plateaus, psi_1 = 0 or phi(L) = 0, and a tail_w of 0,
    1 - 1e-9, any below 0.999, or 1 where phi(L) = 0.  `Tabulated` refuses
    tail_w = 1, so that case is a plain stand-in with a table and a
    retention, which is all the inverse reads."""
    values = [1.0]
    if draw(st.booleans()):
        values.append(1.0)
    for step in draw(st.lists(st.floats(0.0, 1.0), max_size=5)):
        values.append(values[-1] * step if draw(st.booleans()) else values[-1])
    if draw(st.booleans()):
        values.append(0.0)
    full = [1.0] if values[-1] == 0.0 else []
    tail_w = draw(st.one_of(st.sampled_from([0.0, 1.0 - 1e-9, *full]), st.floats(0.0, 0.999)))
    if tail_w == 1.0:
        return SimpleNamespace(table=tuple(values), tail_retention=1.0)
    return Tabulated(tuple(values), tail_w=tail_w)


class TestNewtonInverse:
    """The table inverse against exact rationals: each level is within 4
    ulps of the root, or F there is within 4 ulps of the target."""

    @settings(max_examples=150, deadline=None)
    @given(
        dynamic=newton_tables(),
        targets=st.lists(
            st.one_of(
                st.sampled_from([1e-300, 1e-150, 1e-12, 0.5, 1.0 - 1e-12]),
                st.floats(1e-300, 1.0 - 1e-12),
            ),
            min_size=1,
            max_size=12,
        ),
    )
    def test_levels_are_exact_and_sorted(self, dynamic, targets):
        targets = sorted(targets)
        levels = inverse_weight_cdf(dynamic, np.array(targets)).tolist()
        assert all(b >= a for a, b in zip(levels, levels[1:]))
        ulp = Fraction(2) ** -52
        for t, d in zip(targets, levels):
            near_root = (
                exact_weight_cdf(dynamic, Fraction(d) * (1 - 4 * ulp))
                <= Fraction(t)
                <= exact_weight_cdf(dynamic, min(Fraction(d) * (1 + 4 * ulp), Fraction(1)))
            )
            assert near_root or ulps_off(t, exact_weight_cdf(dynamic, d)) <= 4, (t, d)

    def test_a_power_that_changes_far_below_the_grid(self):
        """``F = 2^-52 delta^2 + (1 - 2^-52) delta^3`` is a cube at the first
        grid level and a square below 1e-16, where the power-law start lies
        far above the root; Newton in ``log delta`` still lands on it."""
        dynamic = Tabulated((1.0, 1.0, 1.0 - 2.0**-52, 0.0))
        for t in (1e-300, 1e-100, 1e-50):
            d = inverse_weight_cdf(dynamic, [t])[0]
            assert ulps_off(t, exact_weight_cdf(dynamic, d)) <= 4, t

    def test_a_long_plateau_that_underflows_on_the_grid(self):
        """Under ``F = delta^200``, F is 0 in floats at the first grid level
        and 2^-1000 at the second, so a target of 1e-305 starts just above
        the first, where F is 0 too; the step from there is NaN and bisects
        the bracket instead."""
        dynamic = Tabulated((1.0,) * 200 + (0.0,))
        targets = [1e-305, 1e-300, 1e-20, 0.5]
        levels = inverse_weight_cdf(dynamic, targets).tolist()
        ulp = Fraction(2) ** -52
        for t, d in zip(targets, levels):
            assert (Fraction(d) * (1 - 4 * ulp)) ** 200 <= Fraction(t), t
            assert Fraction(t) <= (Fraction(d) * (1 + 4 * ulp)) ** 200, t

    def test_a_crossing_far_below_1e_10_keeps_its_level(self):
        """Under ``F = delta^2`` the swap that takes feature 2 in at
        F = 4.27e-76 lies at delta = 2.07e-38, in the enumeration and in the
        switch table alike; an absolute tolerance put it at 2.9e-11."""
        instance = ProblemInstance(
            a=[1.0, 0.5, 1.0, 1.0, 1.0], c=0.0, h0=[1.0, 3.2e-76, -1.2e-38, 1.0, 0.0],
            c_bar=0.0, k=3, delta=0.5,
        )
        dynamic = Tabulated((1.0, 1.0), tail_w=0.0)
        intervals = enumerate_optimal_subsets(instance, dynamic)
        assert intervals.subsets[0] == (0, 1, 3)
        edge = intervals.hi[0]
        table = all_switch_points(instance, dynamic)
        row = (table.i == 4) & (table.j == 1)
        assert table.threshold[row][0] == edge
        # The lines cross at F = 4.27e-76, from the static values.
        static = static_values(instance)
        at = Fraction((static[1] - static[4]) / table.delta_div[row][0])
        ulp = Fraction(2) ** -52
        assert (Fraction(edge) * (1 - 4 * ulp)) ** 2 <= at <= (Fraction(edge) * (1 + 4 * ulp)) ** 2
        assert 2.06e-38 < edge < 2.07e-38


class TestSweepDelta:
    def test_single_switch_around_threshold(self, two_feature_instance):
        grid = np.linspace(0.4, 0.8, 81)
        result = sweep_delta(two_feature_instance, Exponential(0.0), grid)
        subsets = result.subsets
        changes = [
            (a, b) for a, b in zip(subsets, subsets[1:]) if a != b
        ]
        assert changes == [((1,), (0,))]
        assert np.all(np.diff(result.informativeness) >= 0.0)

    def test_single_point_grid_matches_planner(self, two_feature_instance):
        result = sweep_delta(two_feature_instance, Exponential(0.3), [0.5])
        plan = optimal_stationary_sequence(two_feature_instance, Exponential(0.3))
        assert result.subsets == [plan.subset]
        assert result.total_value[0] == pytest.approx(plan.total_value, abs=1e-12)

    def test_informativeness_nondecreasing_random(self):
        rng = np.random.default_rng(3)
        grid = np.linspace(0.01, 0.99, 99)
        for _ in range(30):
            inst = random_instance(rng)
            dyn = Exponential(float(rng.uniform(0, 0.95)))
            infos = sweep_delta(inst, dyn, grid).informativeness.tolist()
            assert all(b >= a - 1e-12 for a, b in zip(infos, infos[1:]))

    def test_distinct_subsets_bounded(self):
        """At most n(n-1)/2 + k distinct nonempty selections across patience
        levels (the empty selection can additionally appear at low patience)."""
        rng = np.random.default_rng(4)
        grid = np.linspace(0.002, 0.998, 499)
        for _ in range(30):
            inst = random_instance(rng)
            dyn = Exponential(float(rng.uniform(0, 0.9)))
            subsets = set(sweep_delta(inst, dyn, grid).subsets)
            nonempty = {s for s in subsets if s}
            assert len(nonempty) <= inst.n * (inst.n - 1) // 2 + inst.k
            assert len(subsets) <= inst.n * (inst.n - 1) // 2 + inst.k + 1

    def test_grid_validation(self, two_feature_instance):
        with pytest.raises(InvalidInputError):
            sweep_delta(two_feature_instance, Exponential(0.0), [0.5, 0.4])
        with pytest.raises(InvalidInputError):
            sweep_delta(two_feature_instance, Exponential(0.0), [0.0, 0.5])
        with pytest.raises(InvalidInputError):
            sweep_delta(two_feature_instance, Exponential(0.0), [])

    def test_values_come_in_blocks(self, monkeypatch):
        """Each call for stationary values covers at most one block of
        levels, and the columns do not depend on the block size."""
        rng = np.random.default_rng(31)
        instance = random_instance(rng, n=7, k=3)
        dynamic = Tabulated((1.0, 0.5, 0.5, 0.1), tail_w=0.6)
        grid = np.linspace(0.01, 0.99, 50)
        want = sweep_delta(instance, dynamic, grid)
        assert len(set(want.subsets)) > 1
        levels = []
        real = tradeoff.stationary_values

        def spy(inst, dyn, deltas=None):
            levels.append(len(deltas))
            return real(inst, dyn, deltas)

        monkeypatch.setattr(tradeoff, "stationary_values", spy)
        for block in (1, 2 * instance.n, 3 * instance.n + 1):
            monkeypatch.setattr(tradeoff, "PROBE_BLOCK", block)
            levels.clear()
            got = sweep_delta(instance, dynamic, grid)
            assert sum(levels) == grid.size
            assert max(levels) <= max(1, block // instance.n), block
            assert got.subsets == want.subsets
            for column in ("delta", "total_value", "informativeness", "loss"):
                assert getattr(got, column).tobytes() == getattr(want, column).tobytes()


class TestEnumerateOptimalSubsets:
    def test_two_feature_demo_partition(self, two_feature_instance):
        intervals = enumerate_optimal_subsets(two_feature_instance, Exponential(0.0))
        assert intervals.subsets == [(1,), (0,)]
        assert intervals.lo[0] == 0.0
        assert intervals.hi[-1] == 1.0
        assert intervals.hi[0] == pytest.approx(TWO_FEATURE_THRESHOLD_W0, abs=1e-9)

    def test_single_feature_at_most_two_intervals(self):
        inst = ProblemInstance(
            a=[0.5], c=0.0, h0=[1.8], c_bar=0.0, k=1, delta=0.5
        )
        intervals = enumerate_optimal_subsets(inst, Exponential(0.2))
        assert len(intervals) <= 2
        assert intervals.subsets[-1] == (0,)
        assert intervals.subsets[0] == ()

    def test_a_sweep_that_does_not_settle_raises(self, two_feature_instance, monkeypatch):
        """Crossings that put every line below every other, as a cycle of
        rounded crossings would, end the sweep with an error, not with
        swaps left out."""
        monkeypatch.setattr(
            tradeoff,
            "_below",
            lambda against, f: (np.ones(against[0].size, bool), np.zeros(against[0].size, bool)),
        )
        with pytest.raises(RuntimeError, match="does not settle"):
            enumerate_optimal_subsets(two_feature_instance, Exponential(0.5))

    def test_high_patience_end_is_most_informative(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            inst = random_instance(rng, n=int(rng.integers(2, 6)))
            w = float(rng.uniform(0, 0.9))
            last = enumerate_optimal_subsets(inst, Exponential(w)).subsets[-1]
            ranked = sorted(
                range(inst.n), key=lambda i: (-inst.informativeness[i], i)
            )
            if len(last) == inst.k:
                assert set(last) == set(ranked[: inst.k])

    def test_interval_count_bound_and_coverage(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            inst = random_instance(rng)
            intervals = enumerate_optimal_subsets(inst, Exponential(rng.uniform(0, 0.9)))
            assert len(intervals) <= inst.n * (inst.n - 1) // 2 + inst.k + 1
            assert intervals.lo[0] == 0.0
            assert intervals.hi[-1] == 1.0
            np.testing.assert_array_equal(intervals.hi[:-1], intervals.lo[1:])
            subsets = intervals.subsets
            assert all(left != right for left, right in zip(subsets, subsets[1:]))

    def test_tabulated_copy_matches_geometric(self, two_feature_instance):
        """A tabulated copy of geometric learning, inverted by Newton steps,
        must find the closed-form boundary."""
        w = 0.5
        tab = Tabulated(
            tuple(w ** (2 * m) for m in range(8)), tail_w=w
        )
        exact = enumerate_optimal_subsets(two_feature_instance, Exponential(w))
        newton = enumerate_optimal_subsets(two_feature_instance, tab)
        assert exact.subsets == newton.subsets
        np.testing.assert_allclose(newton.lo, exact.lo, rtol=0, atol=1e-9)
        np.testing.assert_allclose(newton.hi, exact.hi, rtol=0, atol=1e-9)

    def test_a_value_that_vanishes_at_zero_patience_still_labels_its_interval(self):
        # h0 = 0 makes info == div, so the value info*delta*(1 - w^2) /
        # ((1 - delta)(1 - delta*w^2)) is positive but rounds to zero at
        # delta = 1e-9 when w is near 1; the interval is labeled elsewhere.
        inst = ProblemInstance(a=[1.0], c=0.0, h0=[0.0], c_bar=0.0, k=1, delta=0.5)
        dyn = Exponential(1.0 - 1e-9)
        assert optimal_stationary_sequence(inst, dyn).subset == (0,)
        intervals = enumerate_optimal_subsets(inst, dyn)
        assert interval_rows(intervals) == [(0.0, 1.0, (0,))]

    def test_boundaries_closer_than_1e_9(self):
        """Feature 1 is optimal on an interval about 5e-10 wide, with the 0-2
        threshold inside it."""
        a = np.array([0.5, 1.0, 1.5])
        x_hi = 1.0 / (1.0 - (0.5 + 5e-10))  # x = 1/(1 - delta) when w = 0
        # Lines info*x - div: 1 overtakes 0 at x = 2, and 2 overtakes 1 at x_hi.
        div = np.array([0.0, 1.5, 1.5 + 1.25 * x_hi])
        inst = ProblemInstance(a=a, c=0.0, h0=a - np.sqrt(div), c_bar=0.0, k=1, delta=0.5)
        table = all_switch_points(inst, Exponential(0.0))
        threshold = {
            (i, j): t for i, j, t in zip(table.i.tolist(), table.j.tolist(), table.threshold)
        }
        lo, mid, hi = threshold[1, 0], threshold[2, 0], threshold[2, 1]
        assert lo < mid < hi
        assert 4e-10 < hi - lo < 6e-10
        intervals = enumerate_optimal_subsets(inst, Exponential(0.0))
        assert interval_rows(intervals) == [
            (0.0, lo, (0,)),
            (lo, hi, (1,)),
            (hi, 1.0, (2,)),
        ]

    # Found by test_interval_informativeness_nondecreasing: a pair threshold
    # at 1 - 2**-53 left an interval whose midpoint rounds to 1.0, and the
    # probe there raised "delta must lie strictly inside (0,1)".
    @pytest.mark.parametrize("boundary", [np.nextafter(1.0, 0.0), np.nextafter(0.0, 1.0)])
    def test_interval_next_to_0_or_1_is_probed_inside(self, boundary):
        a = np.array([1.0, 1.5])
        inst = ProblemInstance(a=a, c=0.0, h0=np.array([1.0, 0.0]), c_bar=0.0, k=1, delta=0.5)
        intervals = _assemble_intervals(inst, Exponential(0.0), np.array([boundary]))
        assert (intervals.lo[0], intervals.hi[-1]) == (0.0, 1.0)


class TestLossRatioHeatmap:
    def test_ratio_is_one_at_the_switch_point(self, two_feature_instance):
        result = sweep_w_delta_loss_ratio(
            two_feature_instance, [0.0], [TWO_FEATURE_THRESHOLD_W0]
        )
        assert result.ratios[0, 0] == pytest.approx(1.0, abs=1e-3)
        assert result.more_informative == 0

    def test_impatient_rows_are_learning_rate_independent(self, two_feature_instance):
        """Near delta=0 the first step dominates, which no retention changes."""
        result = sweep_w_delta_loss_ratio(
            two_feature_instance, [0.0, 0.3, 0.6, 0.9], [1e-6]
        )
        np.testing.assert_allclose(
            result.ratios[:, 0], result.ratios[0, 0], rtol=1e-4
        )

    def test_patient_rows_converge_across_learning_rates(self, two_feature_instance):
        result = sweep_w_delta_loss_ratio(
            two_feature_instance, [0.0, 0.5, 0.9], [0.9, 0.99, 0.999]
        )
        spreads = result.ratios.max(axis=0) - result.ratios.min(axis=0)
        assert spreads[2] < spreads[1] < spreads[0]

    def test_requires_two_features_and_unit_budget(self, three_feature_instance):
        with pytest.raises(InvalidInputError):
            sweep_w_delta_loss_ratio(three_feature_instance, [0.1], [0.5])
        wrong_budget = ProblemInstance(
            a=[1.0, 0.4], c=0.0, h0=[-0.5, 0.75], c_bar=0.0, k=2, delta=0.5
        )
        with pytest.raises(InvalidInputError):
            sweep_w_delta_loss_ratio(wrong_budget, [0.1], [0.5])


class TestCompareEfficiencySelection:
    def test_faster_learner_at_least_as_informative(self):
        rng = np.random.default_rng(12)
        for _ in range(60):
            inst = random_instance(rng)
            report = compare_efficiency_selection(
                inst, Exponential(0.2), Exponential(0.8)
            )
            assert report.classification is Efficiency.MORE
            assert report.ordering_holds

    def test_identical_dynamics_identical_subsets(self, two_feature_instance):
        dyn = Exponential(0.4)
        report = compare_efficiency_selection(two_feature_instance, dyn, dyn)
        assert report.classification is Efficiency.EQUAL
        assert report.subset_1 == report.subset_2

    def test_sorted_marginals_never_less_informative(self):
        rng = np.random.default_rng(14)
        for _ in range(40):
            inst = random_instance(rng)
            length = int(rng.integers(1, 6))
            vals = np.sort(rng.uniform(0, 1, length))[::-1]
            dyn = Tabulated((1.0, *vals.tolist()), tail_w=float(rng.uniform(0, 0.9)))
            sorted_dyn = sort_marginals_dynamic(dyn)
            report = compare_efficiency_selection(inst, sorted_dyn, dyn)
            assert report.classification in (Efficiency.MORE, Efficiency.EQUAL)
            assert report.ordering_holds
            assert subset_informativeness(
                inst, report.subset_1
            ) >= subset_informativeness(inst, report.subset_2)

    def test_incomparable_makes_no_claim(self, two_feature_instance):
        d1 = Tabulated((1.0, 0.2, 0.15), tail_w=0.1)
        d2 = Tabulated((1.0, 0.5, 0.1), tail_w=0.1)
        report = compare_efficiency_selection(two_feature_instance, d1, d2)
        assert report.classification is Efficiency.INCOMPARABLE
        assert report.ordering_holds is None


# ---------------------------------------------------------------------------
# The scalar loops that the columnar thresholds and blocked probes replaced,
# kept as oracles: every threshold must match bit for bit, and so must every
# boundary and subset of the sweep against full probing between all pair
# crossings (`scalar_enumerate`): with the float crossings on any input, and
# in exact rationals as well on the quarter lattice, where no two distinct
# crossings round together.  The grid scan that exact enumeration replaced
# stays as an independent one.
# ---------------------------------------------------------------------------


# The coarse oracle's bracket width and step limit.
BISECT_TOL = 1e-10
BISECT_MAX_ITER = 60
SMALLEST_NORMAL = np.finfo(float).smallest_normal


def scalar_bisect(dynamic, target):
    """One bisection of the learning-weight cdf from [0, 1], to `BISECT_TOL`."""
    lo, hi = 0.0, 1.0
    for _ in range(BISECT_MAX_ITER):
        if hi - lo < BISECT_TOL:
            break
        mid = 0.5 * (lo + hi)
        if learning_weight_cdf(dynamic, mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def scalar_weight_cdf(dynamic, d):
    """F(d) under a table dynamic, one level at a time, with the library's
    float operations: the tail ``c / ((1 - d)/d + (1 - w)(1 + w))``, then
    ``d * (psi_t + f)`` from the last learning gain down."""
    table, w = dynamic.table, dynamic.tail_retention
    decay_gap = (1.0 - w) * (1.0 + w)
    coef = table[-1] * decay_gap
    f = coef / ((1.0 - d) / d + decay_gap) if coef else 0.0
    for t in range(len(table) - 1, 0, -1):
        f = d * ((table[t - 1] - table[t]) + f)
    return f


def float_bits(x):
    return struct.unpack("<q", struct.pack("<d", x))[0]


def bits_float(bits):
    return struct.unpack("<d", struct.pack("<q", bits))[0]


def scalar_least_level(dynamic, target):
    """The least float at which `scalar_weight_cdf` reaches `target`, held
    between the smallest normal float and F(1), found by bisecting the bit
    patterns of the positive floats; it shares no search code with the
    library's Newton steps."""
    target = min(max(target, SMALLEST_NORMAL), scalar_weight_cdf(dynamic, 1.0))
    lo, hi = float_bits(SMALLEST_NORMAL) - 1, float_bits(1.0)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if scalar_weight_cdf(dynamic, bits_float(mid)) >= target:
            hi = mid
        else:
            lo = mid
    return bits_float(hi)


def scalar_inverse(dynamic, target):
    """The closed form under geometric learning, else the least float level
    at which the computed F reaches the target."""
    if isinstance(dynamic, Exponential):
        w = dynamic.w
        return target / ((1.0 - w) * (1.0 + w) + w**2 * target)
    return scalar_least_level(dynamic, target)


def scalar_crossing(delta_info, delta_div, delta_static):
    """``1 - delta_info/delta_div``, from the static values near F = 0."""
    at = 1.0 - delta_info / delta_div
    return max(-delta_static / delta_div, 0.0) if at < CANCELS_BELOW else at


def scalar_pairs(instance):
    """(i, j, delta_info, delta_div, crossing or None), one pair at a time,
    the more informative feature first, with the F in (0, 1) where the
    two lines cross."""
    info, div, static = instance.informativeness, instance.divergence0, static_values(instance)
    rows = []
    for i in range(instance.n):
        for j in range(i + 1, instance.n):
            if info[i] == info[j]:
                continue
            hi, lo = (i, j) if info[i] > info[j] else (j, i)
            delta_info = float(info[hi] - info[lo])
            delta_div = float(div[hi] - div[lo])
            delta_static = float(static[hi] - static[lo])
            at = scalar_crossing(delta_info, delta_div, delta_static) if delta_div > 0.0 else 0.0
            rows.append((hi, lo, delta_info, delta_div, at if at > 0.0 else None))
    return rows


def scalar_switch_points(instance, dynamic):
    """(i, j, delta_info, delta_div, threshold or None), one pair at a time."""
    rows = []
    for i, j, delta_info, delta_div, at in scalar_pairs(instance):
        if at is not None and not dynamic.converges():
            raise InvalidInputError("dynamic never converges")
        threshold = None if at is None else scalar_inverse(dynamic, at)
        rows.append((i, j, delta_info, delta_div, threshold))
    return rows


def scalar_subset_at(instance, dynamic, d):
    """A top-k of the one-row value matrix at patience `d`."""
    deltas = np.array([d])
    gains = np.asarray(discounted_gain_sum(dynamic, deltas))
    static, div = static_values(instance), instance.divergence0
    values = static[None, :] / (1.0 - deltas)[:, None] + gains[:, None] * div[None, :]
    return select_top_k(values[0], instance.k)


def scalar_dedupe(points, tol=1e-12):
    points = sorted(p for p in points if 0.0 < p < 1.0)
    merged = []
    for p in points:
        if not merged or p - merged[-1] > tol:
            merged.append(p)
    return merged


def scalar_assemble(instance, dynamic, boundaries, subset_at=scalar_subset_at):
    """(lo, hi, subset), probing each interval's midpoint one level at a time."""
    edges = [0.0] + sorted(boundaries) + [1.0]
    intervals = []
    for lo, hi in zip(edges, edges[1:]):
        if hi - lo <= 0.0:
            continue
        # Between neighbouring floats a midpoint can round onto 0 or 1, as in the library.
        mid = min(max(0.5 * (lo + hi), np.nextafter(0.0, 1.0)), np.nextafter(1.0, 0.0))
        subset = subset_at(instance, dynamic, float(mid))
        if intervals and intervals[-1][2] == subset:
            intervals[-1] = (intervals[-1][0], hi, subset)
        else:
            intervals.append((lo, hi, subset))
    return intervals


def exact_top_k(instance, values):
    """The up-to-k largest positive `values`, ties toward the lower index."""
    ranked = sorted(range(instance.n), key=lambda i: (-values[i], i))
    return tuple(sorted(i for i in ranked[: instance.k] if values[i] > 0))


def exact_lines(instance):
    """Each feature's static value and divergence, in exact rationals."""
    pairs = zip(map(Fraction, instance.a.tolist()), map(Fraction, instance.h0.tolist()))
    return [(h * (2 * x - h), (x - h) ** 2) for x, h in pairs]


def exact_subset_at(instance, dynamic, d):
    """The top-k of the stationary values at patience `d` in exact rationals."""
    gain, keep = exact_gain(dynamic, d), 1 - Fraction(d)
    return exact_top_k(instance, [s / keep + gain * v for s, v in exact_lines(instance)])


def all_crossings(instance):
    """Every positivity and pair crossing in (0, 1) of F, sorted, once each."""
    info, div, static = instance.informativeness, instance.divergence0, static_values(instance)
    found = [
        scalar_crossing(float(info[i]), float(div[i]), float(static[i]))
        for i in range(instance.n)
        if div[i] > 0.0
    ]
    found += [at for *_, at in scalar_pairs(instance) if at is not None]
    return sorted({at for at in found if 0.0 < at < 1.0})


def all_thresholds(instance, dynamic):
    """Every positivity and pair threshold, in (0, 1)."""
    return [t for t in (scalar_inverse(dynamic, at) for at in all_crossings(instance)) if t < 1.0]


def float_top_k(instance, lo, hi):
    """The top-k on (`lo`, `hi`) of F, which holds no crossing: each line
    ``static + F*div`` ranked against every other by which side of their
    float crossing it lies, with k zero lines ahead of the features."""
    k = instance.k
    info = [0.0] * k + instance.informativeness.tolist()
    div = [0.0] * k + instance.divergence0.tolist()
    static = [0.0] * k + static_values(instance).tolist()

    def above(x, y):
        gap_div, gap_static = div[x] - div[y], static[x] - static[y]
        if gap_div == 0.0:
            return gap_static > 0.0 or (gap_static == 0.0 and x < y)
        at = scalar_crossing(info[x] - info[y], gap_div, gap_static)
        return (gap_div > 0.0) != (at > lo)

    lines = range(len(info))
    beaten = [sum(above(y, x) for y in lines if y != x) for x in lines]
    return tuple(x - k for x in lines[k:] if beaten[x] < k)


def exact_top_k_in_f(instance, lo, hi):
    """The top-k in the middle of (`lo`, `hi`) of F in exact rationals."""
    mid = (Fraction(lo) + Fraction(hi)) / 2
    return exact_top_k(instance, [s + mid * v for s, v in exact_lines(instance)])


def scalar_enumerate(instance, dynamic, top_k=float_top_k):
    """Full probing in F: `top_k` on each interval between distinct
    crossings.  The crossings where the optimum changes are mapped to
    patience levels, then merged and labeled as the library merges and
    labels its swaps."""
    crossings = all_crossings(instance)
    edges = [0.0, *crossings, 1.0]
    labels = [top_k(instance, lo, hi) for lo, hi in zip(edges, edges[1:])]
    changes = [at for at, before, after in zip(crossings, labels, labels[1:]) if before != after]
    levels = [scalar_inverse(dynamic, at) for at in changes]
    return scalar_assemble(instance, dynamic, scalar_dedupe(levels))


def merged_probe_enumerate(instance, dynamic):
    """The merge rule before the sweep: every positivity and pair threshold
    merged within 1e-12 first, then each interval between them probed in
    floats."""
    return scalar_assemble(instance, dynamic, scalar_dedupe(all_thresholds(instance, dynamic)))


def termwise_subset_at(instance, dynamic, d):
    """A top-k of ``v_i = (h_i*(2*a_i - h_i) + F(d) * div_i) / (1 - d)``.

    ``F(d) = sum_{t>=1} d^t * (phi(t-1) - phi(t))`` is summed term by term
    from the learning gains, so it shares no code with
    `discounted_gain_sum`, and values that vanish as d -> 0 keep their sign.
    The static part is not ``info_i - div_i``, which cancels where the two
    nearly agree.
    """
    values, decay = dynamic.table, dynamic.step_decay
    last = len(values) - 1
    cdf = sum(d**t * (values[t - 1] - values[t]) for t in range(1, last + 1))
    cdf += d ** (last + 1) * values[-1] * (1.0 - decay) / (1.0 - d * decay)
    a, h = instance.a, instance.h0
    return select_top_k((h * (2.0 * a - h) + cdf * (a - h) ** 2) / (1.0 - d), instance.k)


def scalar_grid_enumerate(instance, dynamic, resolution=1e-6):
    """A grid scan with every change bracket bisected one probe at a time,
    down to `resolution`; it shares no threshold or value code with the
    library."""
    xs = list(np.linspace(resolution, 1.0 - resolution, 1025))
    labels = {x: termwise_subset_at(instance, dynamic, x) for x in xs}

    def refine_changes():
        found = []
        pts = sorted(labels)
        for lo, hi in zip(pts, pts[1:]):
            if labels[lo] == labels[hi]:
                continue
            a, b = lo, hi
            while b - a > resolution:
                mid = 0.5 * (a + b)
                labels[mid] = termwise_subset_at(instance, dynamic, mid)
                if labels[mid] == labels[a]:
                    a = mid
                else:
                    b = mid
            found.append(0.5 * (a + b))
        return found

    boundaries = []
    for _ in range(3):
        boundaries = refine_changes()
        pts = sorted(labels)
        for lo, hi in zip(pts, pts[1:]):
            mid = 0.5 * (lo + hi)
            if hi - lo > resolution and mid not in labels:
                labels[mid] = termwise_subset_at(instance, dynamic, mid)
    return scalar_assemble(
        instance, dynamic, scalar_dedupe(boundaries, tol=resolution), termwise_subset_at
    )


def interval_rows(intervals):
    """An `IntervalTable`'s columns as (lo, hi, subset) rows."""
    return list(zip(intervals.lo.tolist(), intervals.hi.tolist(), intervals.subsets))


def hexed(intervals):
    return [(float(lo).hex(), float(hi).hex(), subset) for lo, hi, subset in intervals]


def assert_near_grid(instance, dynamic, intervals, resolution=1e-6):
    """The grid oracle finds the same subsets, with edges within 2e-6.

    The grid scans [resolution, 1 - resolution] only, so intervals that lie
    wholly outside it are left out of the comparison.
    """
    grid = scalar_grid_enumerate(instance, dynamic, resolution)
    inside = (intervals.hi > resolution) & (intervals.lo < 1.0 - resolution)
    assert [s for s, keep in zip(intervals.subsets, inside) if keep] == [s for *_, s in grid]
    np.testing.assert_allclose(
        np.column_stack((intervals.lo, intervals.hi))[inside],
        np.array([(lo, hi) for lo, hi, _ in grid]).reshape(-1, 2),
        rtol=0,
        atol=2e-6,
    )


coefficients = st.floats(0.1, 1.5).flatmap(lambda x: st.sampled_from([x, -x]))
exponentials = st.builds(
    Exponential, st.one_of(st.sampled_from([0.0, 0.5, 1.0 - 1e-9]), st.floats(0.0, 0.999))
)


@st.composite
def tabulated(draw):
    """Nonincreasing tables with plateaus, a zero tail, or a tail_w near 1."""
    steps = draw(st.lists(st.floats(0.0, 1.0), min_size=0, max_size=4))
    values = [1.0]
    for step in steps:
        values.append(values[-1] * step if draw(st.booleans()) else values[-1])
    if draw(st.booleans()):
        values.append(0.0)
    tail_w = draw(st.one_of(st.sampled_from([0.0, 1.0 - 1e-9]), st.floats(0.0, 0.999)))
    return Tabulated(tuple(values), tail_w=tail_w)


@st.composite
def instances(draw, max_n=6):
    """Copies of feature 0, mirrored copies (equally informative) and h0 == a."""
    n = draw(st.integers(1, max_n))
    a = draw(st.lists(coefficients, min_size=n, max_size=n))
    h0 = draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n))
    for i in range(1, n):
        copy = draw(st.integers(0, 3))
        if copy == 1:
            a[i], h0[i] = a[0], h0[0]
        elif copy == 2:
            a[i] = -a[0]
    for i in range(n):
        if draw(st.integers(0, 4)) == 0:
            h0[i] = a[i]
    k = draw(st.integers(0, n))
    return ProblemInstance(a=a, c=0.0, h0=h0, c_bar=0.0, k=k, delta=0.5)


@st.composite
def lattice_instances(draw, max_n=6):
    """Coefficients and beliefs on a quarter lattice, so every square and
    gap is exact: crossings tie exactly and several meet at one patience
    level.  Features take h0 == a, h0 == 0 or a copy of feature 0, and k is
    often 0 or n."""
    n = draw(st.integers(1, max_n))
    a = [0.25 * draw(st.integers(1, 6)) * draw(st.sampled_from([-1, 1])) for _ in range(n)]
    h0 = [0.25 * draw(st.integers(-8, 8)) for _ in range(n)]
    for i in range(n):
        kind = draw(st.integers(0, 4))
        if kind == 1:
            h0[i] = a[i]
        elif kind == 2:
            h0[i] = 0.0
        elif kind == 3 and i:
            a[i], h0[i] = a[0], h0[0]
    k = draw(st.one_of(st.sampled_from([0, n]), st.integers(0, n)))
    return ProblemInstance(a=a, c=0.0, h0=h0, c_bar=0.0, k=k, delta=0.5)


dynamics = st.one_of(exponentials, tabulated())
targets = st.lists(
    st.one_of(
        st.sampled_from([1e-15, 1e-12, 1e-6, 0.5, 1.0 - 1e-6, 1.0 - 1e-12]),
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    ),
    min_size=0,
    max_size=12,
)


class TestColumnsMatchScalarLoops:
    @settings(max_examples=150, deadline=None)
    @given(dynamic=dynamics, targets=targets)
    def test_inverse_weight_cdf_bits(self, dynamic, targets):
        got = inverse_weight_cdf(dynamic, np.array(targets, dtype=float))
        assert [t.hex() for t in got.tolist()] == [
            scalar_inverse(dynamic, t).hex() for t in targets
        ]

    @settings(max_examples=150, deadline=None)
    @given(instance=instances(), dynamic=dynamics)
    def test_switch_table_bits_and_pair_order(self, instance, dynamic):
        table = all_switch_points(instance, dynamic)
        rows = zip(
            table.i.tolist(),
            table.j.tolist(),
            table.delta_info.tolist(),
            table.delta_div.tolist(),
            table.threshold.tolist(),
            table.kind,
        )
        got = [
            (i, j, di.hex(), dd.hex(), None if t != t else t.hex(), kind)
            for i, j, di, dd, t, kind in rows
        ]
        assert got == [
            (i, j, di.hex(), dd.hex(), None if t is None else t.hex(),
             "always_i" if t is None else "threshold")
            for i, j, di, dd, t in scalar_switch_points(instance, dynamic)
        ]

    @settings(max_examples=150, deadline=None)
    @given(instance=instances(), dynamic=exponentials)
    @example(  # a pair threshold one ulp below 1
        instance=ProblemInstance(
            a=[-0.10000000000000002, 1.0, 1.0, 1.0, 1.0, 0.1],
            c=0.0,
            h0=[0.0625, 1.0, 1.0, 1.0, 1.0, 0.1],
            c_bar=0.0,
            k=0,
            delta=0.5,
        ),
        dynamic=Exponential(0.0),
    )
    def test_geometric_intervals(self, instance, dynamic):
        intervals = enumerate_optimal_subsets(instance, dynamic)
        expected = scalar_enumerate(instance, dynamic)
        assert hexed(interval_rows(intervals)) == hexed(expected)
        assert intervals.informativeness.tolist() == [
            subset_informativeness(instance, s) for *_, s in expected
        ]

    @settings(max_examples=150, deadline=None)
    @given(instance=instances(), dynamic=tabulated())
    def test_tabulated_intervals(self, instance, dynamic):
        intervals = enumerate_optimal_subsets(instance, dynamic)
        expected = scalar_enumerate(instance, dynamic)
        assert hexed(interval_rows(intervals)) == hexed(expected)

    @settings(max_examples=300, deadline=None)
    @given(instance=lattice_instances(max_n=8), dynamic=dynamics)
    @example(  # a threshold that swaps nothing, 8e-13 below a swap when w is near 1
        instance=ProblemInstance(
            a=[1.0, 1.0625, 1.0625, 1.125],
            c=0.0,
            h0=[1.0, 1.0625, 1.0, 0.0],
            c_bar=0.0,
            k=1,
            delta=0.5,
        ),
        dynamic=Exponential(1.0 - 1e-9),
    )
    def test_lattice_intervals(self, instance, dynamic):
        """Exact ties, crossings that meet at one level, and boundaries
        closer than `MERGE_TOL`."""
        got = hexed(interval_rows(enumerate_optimal_subsets(instance, dynamic)))
        assert got == hexed(scalar_enumerate(instance, dynamic))
        assert got == hexed(scalar_enumerate(instance, dynamic, exact_top_k_in_f))

    # Where the sweep and full probing differ from enumeration as it was
    # before the sweep, which merged every threshold before probing.

    def test_a_threshold_that_swaps_nothing_no_longer_moves_a_boundary(self):
        """At w near 1, 1e-12 of patience spans about 1e-4 of F: merged
        first, a pair threshold that changes nothing stood in for the swap
        8e-13 above it."""
        instance = ProblemInstance(
            a=[1.0, 1.0625, 1.0625, 1.125], c=0.0, h0=[1.0, 1.0625, 1.0, 0.0], c_bar=0.0, k=1,
            delta=0.5,
        )
        dynamic = Exponential(1.0 - 1e-9)
        rows = interval_rows(enumerate_optimal_subsets(instance, dynamic))
        assert [s for *_, s in rows] == [(1,), (3,)]
        table = all_switch_points(instance, dynamic)
        swap = float(table.threshold[(table.i == 3) & (table.j == 1)][0])
        assert rows[0][1] == swap
        (_, merged, _), _ = merged_probe_enumerate(instance, dynamic)
        assert 0.0 < swap - merged < tradeoff.MERGE_TOL
        assert merged in all_thresholds(instance, dynamic)

    def test_rounding_ties_no_longer_label_a_stretch(self):
        """Features 1 and 2 are equally informative and 2 is flatter, so it
        is above 1 at every patience level; at high patience their float
        values round to a tie, which a probe between two far-off thresholds
        broke toward 1."""
        instance = ProblemInstance(
            a=[-1.0, 1.0, 1.0], c=0.0, h0=[2.0, 0.0, 1e-15], c_bar=0.0, k=1, delta=0.5
        )
        dynamic = Tabulated((1.0,), tail_w=0.0)
        intervals = enumerate_optimal_subsets(instance, dynamic)
        assert interval_rows(intervals) == [(0.0, 1.0, (2,))]
        assert scalar_enumerate(instance, dynamic, exact_top_k_in_f) == [(0.0, 1.0, (2,))]
        (_, _, first), (lo, hi, second) = merged_probe_enumerate(instance, dynamic)
        assert (first, second) == ((2,), (1,))
        assert exact_subset_at(instance, dynamic, 0.5 * (lo + hi)) == (2,)

    def test_a_crossing_near_zero_comes_from_the_static_values(self):
        """At F = 0 feature 4's value is 1e-15 from those of features 0 and
        1, which tie in floats, so ``1 - delta_info/delta_div`` cancels for
        its pairs and would put the swap that takes feature 4 in at 1.44e-6.
        The exact change lies between 1.15e-6 and 1.25e-6, and so does the
        crossing of the static values."""
        instance = ProblemInstance(
            a=[-1.0, 1.0, -0.1, -1.0, 1.5, 0.5], c=0.0,
            h0=[1e-300, 1e-300, 0.0, 1e-300, -1e-15, 1e-15], c_bar=0.0, k=2, delta=0.5,
        )
        dynamic = Tabulated((1.0,), tail_w=1.0 - 1e-9)
        rows = interval_rows(enumerate_optimal_subsets(instance, dynamic))
        assert hexed(rows) == hexed(scalar_enumerate(instance, dynamic, exact_top_k_in_f))
        assert [s for *_, s in rows] == [(0, 5), (0, 1), (0, 4)]
        assert exact_subset_at(instance, dynamic, 1.15e-6) == (0, 1)
        assert exact_subset_at(instance, dynamic, 1.25e-6) == (1, 4)
        assert 1.15e-6 < rows[1][1] < 1.25e-6
        table = all_switch_points(instance, dynamic)
        row = (table.i == 4) & (table.j == 1)
        assert table.threshold[row][0] == rows[1][1]
        cancelled = 1.0 - table.delta_info[row] / table.delta_div[row]
        assert inverse_weight_cdf(dynamic, cancelled)[0] > 1.4e-6

    @settings(max_examples=150, deadline=None)
    @given(
        w=st.one_of(st.sampled_from([0.0, 0.5, 1.0 - 1e-9]), st.floats(0.0, 0.999)),
        targets=targets,
    )
    def test_bisection_meets_the_closed_form(self, w, targets):
        """The coarse bisection on Exponential(w), and the Newton inverse of a
        table with the same weights, each land within 1e-9 of the closed form."""
        targets = np.array(targets, dtype=float)
        exact = inverse_weight_cdf(Exponential(w), targets)
        np.testing.assert_allclose(
            [scalar_bisect(Exponential(w), t) for t in targets.tolist()], exact, rtol=0, atol=1e-9
        )
        np.testing.assert_allclose(
            inverse_weight_cdf(Tabulated((1.0,), tail_w=w), targets), exact, rtol=0, atol=1e-9
        )

    # Each scalar grid scan probes about 8,000 levels one by one.
    @settings(max_examples=8, deadline=None)
    @given(instance=instances(max_n=4), dynamic=tabulated())
    @example(  # a crossing at F = 2.1e-14, which 1 - dI/dD puts 2.2e-6 early in patience
        instance=ProblemInstance(
            a=[1.0, 1.0, 0.75, 0.5625], c=0.0, h0=[1.0, 1.0, 0.0, 4.66833161e-15], c_bar=0.0,
            k=3, delta=0.5,
        ),
        dynamic=Tabulated((1.0,) * 5, tail_w=0.0),
    )
    def test_grid_intervals(self, instance, dynamic):
        assert_near_grid(instance, dynamic, enumerate_optimal_subsets(instance, dynamic))

    def test_grid_intervals_on_a_crowded_instance(self):
        # Many changes close together, so the grid oracle bisects its
        # brackets for different numbers of steps.
        rng = np.random.default_rng(17)
        instance = random_instance(rng, n=8, k=3)
        dynamic = Tabulated((1.0, 0.6, 0.6, 0.2), tail_w=0.8)
        intervals = enumerate_optimal_subsets(instance, dynamic)
        expected = scalar_enumerate(instance, dynamic)
        assert len(expected) > 3
        assert hexed(interval_rows(intervals)) == hexed(expected)
        assert_near_grid(instance, dynamic, intervals)

    @pytest.mark.parametrize("rows", [1, 2, 3])
    def test_block_size_changes_nothing(self, monkeypatch, rows):
        rng = np.random.default_rng(29)
        instance = random_instance(rng, n=7, k=3)
        cases = (Exponential(0.6), Tabulated((1.0, 0.5, 0.5, 0.1), tail_w=0.6))
        expected = [enumerate_optimal_subsets(instance, dyn) for dyn in cases]
        monkeypatch.setattr(tradeoff, "PROBE_BLOCK", rows * instance.n)
        for dyn, want in zip(cases, expected):
            got = enumerate_optimal_subsets(instance, dyn)
            assert hexed(interval_rows(got)) == hexed(interval_rows(want))


class TestSwitchPointEdges:
    def test_no_pairs_print_an_empty_list(self, tmp_path, capsys):
        single = write_scenario(tmp_path / "one.json", features=[{"a": 0.5, "h0": 0.1}])
        mirrored = write_scenario(
            tmp_path / "mirror.json",
            features=[{"a": 0.5, "h0": 0.1}, {"a": -0.5, "h0": 0.3}, {"a": 0.5, "h0": 0.9}],
        )
        for path in (single, mirrored):
            assert all_switch_points(load_scenario(path).instance, Exponential(0.3)).i.size == 0
            assert main(["switch-points", str(path)]) == 0
            assert capsys.readouterr().out == '{\n  "points": []\n}\n'
            assert main(["switch-points", str(path), "--format", "csv"]) == 0
            assert capsys.readouterr().out == "i,j,delta_info,delta_div,kind,threshold\n"

    def test_a_learner_that_never_converges_fails_only_where_a_threshold_is_needed(
        self, tmp_path, capsys
    ):
        never = {"type": "exponential", "params": {"w": 1.0}}
        aligned = write_scenario(
            tmp_path / "aligned.json",
            features=[{"a": 1.0, "h0": 1.0}, {"a": 0.4, "h0": 0.75}],
            dynamic=never,
        )
        assert main(["switch-points", str(aligned)]) == 0
        points = json.loads(capsys.readouterr().out)["points"]
        assert [(p["kind"], p["threshold"]) for p in points] == [("always_i", None)]
        crossing = write_scenario(
            tmp_path / "crossing.json",
            features=[{"a": 1.0, "h0": -0.5}, {"a": 0.4, "h0": 0.75}],
            dynamic=never,
        )
        assert main(["switch-points", str(crossing)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: dynamic never converges; the threshold equation has no solution\n"
        )


class TestMorePatienceMoreInformation:
    """The abstract's claim, on the exact enumeration: a more patient planner
    selects more informative features.  Every swap of the sweep takes in a
    more informative feature or admits a positive one, so informativeness
    rises strictly from row to row."""

    @settings(max_examples=300, deadline=None)
    @given(instance=st.one_of(instances(max_n=8), lattice_instances(max_n=8)), dynamic=dynamics)
    def test_interval_informativeness_rises_strictly(self, instance, dynamic):
        infos = enumerate_optimal_subsets(instance, dynamic).informativeness.tolist()
        assert all(b > a for a, b in zip(infos, infos[1:])), infos
