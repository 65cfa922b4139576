"""Sequence evaluation and exact prefix search against analytical plans."""

import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teachsel import (
    Exponential,
    InvalidInputError,
    ProblemInstance,
    SelectionSequence,
    Tabulated,
    discounted_baseline_loss,
    discounted_phi_sum,
    exhaustive_prefix_search,
    mse,
    optimal_stationary_sequence,
    sequence_loss,
    sequence_value,
    simulate_beliefs,
)

from conftest import random_instance, verify_search_case
from teachsel.oracle import _all_subsets


def truncated_loss(instance, dynamic, sequence, horizon: int) -> float:
    """Term-by-term loss over `horizon` steps; independent of the closed forms."""
    traj = simulate_beliefs(instance, dynamic, sequence, horizon)
    return sum(
        instance.delta**t * mse(instance, sequence.subset_at(t), traj.h[t])
        for t in range(horizon)
    )


def loss_horizon(instance, tol: float = 1e-11) -> int:
    """Steps needed until the discounted remainder is certifiably below tol."""
    ceiling = instance.mse_empty() + float(np.sum(instance.divergence0))
    h = 1
    while instance.delta**h * ceiling / (1.0 - instance.delta) >= tol:
        h += 1
    return h


def random_sequence(rng, instance) -> SelectionSequence:
    def subset():
        size = int(rng.integers(0, instance.k + 1))
        return tuple(sorted(rng.choice(instance.n, size=size, replace=False).tolist()))

    prefix = tuple(subset() for _ in range(int(rng.integers(0, 5))))
    return SelectionSequence(prefix=prefix, tail=subset())


class TestSimulateBeliefs:
    def test_one_step_learner_converges_after_single_use(self, three_feature_instance):
        traj = simulate_beliefs(
            three_feature_instance,
            Exponential(0.0),
            SelectionSequence.stationary((0, 1, 2)),
            horizon=3,
        )
        np.testing.assert_array_equal(traj.h[0], three_feature_instance.h0)
        for t in (1, 2, 3):
            np.testing.assert_allclose(traj.h[t], three_feature_instance.a)

    def test_unselected_features_never_move(self, three_feature_instance):
        traj = simulate_beliefs(
            three_feature_instance,
            Exponential(0.5),
            SelectionSequence.stationary((0,)),
            horizon=5,
        )
        np.testing.assert_array_equal(traj.h[:, 1], np.full(6, 0.2))
        np.testing.assert_array_equal(traj.h[:, 2], np.full(6, 0.15))

    def test_two_observations_scale_divergence_by_phi_of_two(self):
        inst = ProblemInstance(
            a=[1.0], c=0.0, h0=[-0.5], c_bar=0.0, k=1, delta=0.5
        )
        traj = simulate_beliefs(
            inst, Exponential(0.5), SelectionSequence.stationary((0,)), horizon=2
        )
        divergence = (inst.a[0] - traj.h[2, 0]) ** 2
        assert divergence == pytest.approx(0.0625 * 2.25, abs=1e-12)

    def test_divergence_identity_for_any_dynamic(self):
        """(a - h_t)^2 == phi(m_t) * (a - h0)^2 at every step."""
        rng = np.random.default_rng(19)
        dynamics = [
            Exponential(0.6),
            Tabulated((1.0, 0.7, 0.2), tail_w=0.3),
        ]
        for dyn in dynamics:
            for _ in range(20):
                inst = random_instance(rng)
                seq = random_sequence(rng, inst)
                traj = simulate_beliefs(inst, dyn, seq, horizon=8)
                for t in range(9):
                    for i in range(inst.n):
                        lhs = (inst.a[i] - traj.h[t, i]) ** 2
                        rhs = dyn.phi(int(traj.counts[t, i])) * inst.divergence0[i]
                        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_counts_nondecreasing(self, three_feature_instance):
        rng = np.random.default_rng(23)
        seq = random_sequence(rng, three_feature_instance)
        traj = simulate_beliefs(three_feature_instance, Exponential(0.5), seq, 10)
        assert np.all(np.diff(traj.counts, axis=0) >= 0)


class TestSequenceLoss:
    def test_never_selecting_costs_the_baseline(self, three_feature_instance):
        loss = sequence_loss(
            three_feature_instance, Exponential(0.0), SelectionSequence.all_empty()
        )
        assert loss == pytest.approx(1.4, abs=1e-12)

    def test_fast_learner_pays_only_the_first_step(self, three_feature_instance):
        loss = sequence_loss(
            three_feature_instance,
            Exponential(0.0),
            SelectionSequence.stationary((0, 1, 2)),
        )
        assert loss == pytest.approx(0.2525, abs=1e-12)

    def test_partial_selection_keeps_paying_for_the_missing_feature(
        self, three_feature_instance
    ):
        loss = sequence_loss(
            three_feature_instance,
            Exponential(0.0),
            SelectionSequence.stationary((1, 2)),
        )
        assert loss == pytest.approx(0.9025, abs=1e-12)

    def test_matches_truncated_oracle_on_random_sequences(self):
        rng = np.random.default_rng(47)
        for _ in range(30):
            inst = random_instance(rng, delta=float(rng.uniform(0.05, 0.9)))
            dyn = (
                Exponential(float(rng.uniform(0, 0.9)))
                if rng.random() < 0.5
                else Tabulated((1.0, float(rng.uniform(0, 1))), tail_w=0.4)
            )
            seq = random_sequence(rng, inst)
            expected = truncated_loss(inst, dyn, seq, loss_horizon(inst))
            assert sequence_loss(inst, dyn, seq) == pytest.approx(
                expected, abs=1e-9
            )

    def test_budget_violations_rejected(self, two_feature_instance):
        with pytest.raises(InvalidInputError):
            sequence_loss(
                two_feature_instance,
                Exponential(0.0),
                SelectionSequence.stationary((0, 1)),  # k = 1
            )


class TestSequenceValue:
    def test_empty_sequence_is_worthless(self, three_feature_instance):
        value = sequence_value(
            three_feature_instance, Exponential(0.5), SelectionSequence.all_empty()
        )
        assert value == 0.0

    def test_stationary_value_matches_planner(self):
        rng = np.random.default_rng(53)
        for _ in range(30):
            inst = random_instance(rng)
            dyn = Exponential(float(rng.uniform(0, 0.95)))
            plan = optimal_stationary_sequence(inst, dyn)
            value = sequence_value(
                inst, dyn, SelectionSequence.stationary(plan.subset)
            )
            assert value == pytest.approx(plan.total_value, abs=1e-9)

    def test_loss_value_duality(self):
        rng = np.random.default_rng(59)
        for _ in range(50):
            inst = random_instance(rng)
            dyn = Exponential(float(rng.uniform(0, 0.95)))
            seq = random_sequence(rng, inst)
            total = sequence_value(inst, dyn, seq) + sequence_loss(inst, dyn, seq)
            assert total == pytest.approx(
                discounted_baseline_loss(inst), abs=2e-9
            )

    def test_closed_tail_matches_long_prefix_form(self):
        """A stationary plan scored directly equals the same plan written as a
        ten-step prefix plus offset-aware tail."""
        rng = np.random.default_rng(61)
        for _ in range(20):
            inst = random_instance(rng)
            dyn = Exponential(float(rng.uniform(0, 0.9)))
            subset = optimal_stationary_sequence(inst, dyn).subset
            direct = sequence_value(inst, dyn, SelectionSequence.stationary(subset))
            prefixed = sequence_value(
                inst,
                dyn,
                SelectionSequence(prefix=tuple([subset] * 10), tail=subset),
            )
            assert prefixed == pytest.approx(direct, abs=1e-10)


class TestExhaustivePrefixSearch:
    def test_two_feature_demo_under_low_patience(self, two_feature_instance):
        best_seq, best_value = exhaustive_prefix_search(
            two_feature_instance, Exponential(0.0), prefix_length=3
        )
        stationary = optimal_stationary_sequence(
            two_feature_instance, Exponential(0.0)
        )
        assert stationary.subset == (1,)
        assert best_value == pytest.approx(stationary.total_value, abs=1e-9)

    def test_two_feature_demo_under_high_patience(self):
        inst = ProblemInstance(
            a=[1.0, 0.4], c=0.0, h0=[-0.5, 0.75], c_bar=0.0, k=1, delta=0.7
        )
        best_seq, best_value = exhaustive_prefix_search(
            inst, Exponential(0.0), prefix_length=3
        )
        stationary = optimal_stationary_sequence(inst, Exponential(0.0))
        assert stationary.subset == (0,)
        assert best_value == pytest.approx(stationary.total_value, abs=1e-9)

    def test_no_prefix_beats_stationary_on_random_instances(self):
        rng = np.random.default_rng(67)
        for _ in range(20):
            inst = random_instance(rng, n=int(rng.integers(1, 5)), max_n=4)
            if inst.k > 2:
                inst = ProblemInstance(
                    a=inst.a, c=inst.c, h0=inst.h0, c_bar=inst.c_bar, k=2,
                    delta=inst.delta,
                )
            dyn = Exponential(float(rng.uniform(0, 0.9)))
            _, best_value = exhaustive_prefix_search(inst, dyn, prefix_length=3)
            stationary = optimal_stationary_sequence(inst, dyn).total_value
            assert best_value <= stationary + 1e-9
            assert best_value >= stationary - 1e-9  # stationary plans are searched too

    def test_size_limits_enforced(self):
        big = ProblemInstance(
            a=np.full(5, 0.5), c=0.0, h0=np.zeros(5), c_bar=0.0, k=2, delta=0.5
        )
        with pytest.raises(InvalidInputError):
            exhaustive_prefix_search(big, Exponential(0.0), prefix_length=2)
        small = ProblemInstance(
            a=[0.5, 0.4, 0.3], c=0.0, h0=[0.0, 0.0, 0.0], c_bar=0.0, k=3, delta=0.5
        )
        with pytest.raises(InvalidInputError):
            exhaustive_prefix_search(small, Exponential(0.0), prefix_length=2)
        ok = ProblemInstance(
            a=[0.5, 0.4], c=0.0, h0=[0.0, 0.0], c_bar=0.0, k=2, delta=0.5
        )
        with pytest.raises(InvalidInputError):
            exhaustive_prefix_search(ok, Exponential(0.0), prefix_length=9)


def enumerated_prefix_search(instance, dynamic, prefix_length):
    """Slow oracle: every prefix in turn, each completed by its best tail.

    Accumulates each candidate's value in the same order as the search, so
    the two must agree bit for bit.
    """
    n, k = instance.n, instance.k
    delta = instance.delta
    info = instance.informativeness.tolist()
    div = instance.divergence0.tolist()
    phis = [dynamic.phi(m) for m in range(prefix_length + 1)]
    tail_weights = [
        discounted_phi_sum(dynamic, delta, offset=m) for m in range(prefix_length + 1)
    ]
    discounts = [delta**t for t in range(prefix_length + 1)]
    horizon_mass = 1.0 / (1.0 - delta)

    best_value = -np.inf
    best_seq = SelectionSequence.all_empty()
    for prefix in itertools.product(_all_subsets(n, k), repeat=prefix_length):
        counts = [0] * n
        value = 0.0
        for t, subset in enumerate(prefix):
            for i in subset:
                value += discounts[t] * (info[i] - phis[counts[i]] * div[i])
                counts[i] += 1
        tail_values = [
            info[i] * horizon_mass - tail_weights[counts[i]] * div[i]
            for i in range(n)
        ]
        order = sorted(range(n), key=lambda i: (-tail_values[i], i))
        tail = tuple(sorted(i for i in order[:k] if tail_values[i] > 0.0))
        value += discounts[prefix_length] * sum(tail_values[i] for i in tail)
        candidate = SelectionSequence(prefix=prefix, tail=tail)
        if value > best_value or (
            value == best_value
            and (candidate.prefix, candidate.tail) < (best_seq.prefix, best_seq.tail)
        ):
            best_value = value
            best_seq = candidate
    return best_seq, best_value


coefficients = st.floats(0.1, 1.5).flatmap(lambda x: st.sampled_from([x, -x]))
deltas = st.one_of(
    st.sampled_from([1e-9, 1e-4, 1.0 - 1e-4, 1.0 - 1e-9]), st.floats(0.01, 0.99)
)
exponentials = st.builds(
    Exponential, st.one_of(st.sampled_from([0.0, 1.0, 1.0 - 1e-9]), st.floats(0.0, 1.0))
)


@st.composite
def tabulated(draw):
    """Nonincreasing tables, with plateaus and a zero tail among the draws."""
    steps = draw(st.lists(st.floats(0.0, 1.0), min_size=0, max_size=4))
    values = [1.0]
    for step in steps:
        values.append(values[-1] * step if draw(st.booleans()) else values[-1])
    if draw(st.booleans()):
        values.append(0.0)
    tail_w = draw(st.one_of(st.just(0.0), st.floats(0.0, 0.999)))
    return Tabulated(tuple(values), tail_w=tail_w)


@st.composite
def search_cases(draw):
    n = draw(st.integers(1, 4))
    k = draw(st.integers(0, min(n, 2)))
    a = draw(st.lists(coefficients, min_size=n, max_size=n))
    h0 = draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n))
    # Copies of feature 0 tie exactly with it; h0 == a removes a divergence.
    for i in range(1, n):
        if draw(st.booleans()):
            a[i], h0[i] = a[0], h0[0]
    for i in range(n):
        if draw(st.integers(0, 4)) == 0:
            h0[i] = a[i]
    instance = ProblemInstance(a=a, c=0.0, h0=h0, c_bar=0.0, k=k, delta=draw(deltas))
    dynamic = draw(st.one_of(exponentials, tabulated()))
    return instance, dynamic, draw(st.integers(0, 4))


class TestSearchMatchesEnumeration:
    @settings(max_examples=120, deadline=None)
    @given(case=search_cases())
    def test_same_sequence_and_value_bits(self, case):
        instance, dynamic, prefix_length = case
        expected_seq, expected_value = enumerated_prefix_search(
            instance, dynamic, prefix_length
        )
        # The largest finite tol isolates the search from the stationary
        # check, whose rounding slack is not under test here.
        seq, value = exhaustive_prefix_search(
            instance, dynamic, prefix_length, tol=sys.float_info.max
        )
        assert (seq.prefix, seq.tail) == (expected_seq.prefix, expected_seq.tail)
        assert value.hex() == expected_value.hex()
        # No prefix beats the planner's stationary plan, which is searched
        # too; the two differ only by float64 rounding of a dozen terms.
        stationary = optimal_stationary_sequence(instance, dynamic).total_value
        assert math.isclose(value, stationary, rel_tol=1e-12, abs_tol=1e-12)

    def test_exact_ties_go_to_the_smaller_prefix(self):
        # Four copies of one feature: every prefix of the same shape ties.
        inst = ProblemInstance(
            a=[0.8] * 4, c=0.0, h0=[-0.3] * 4, c_bar=0.0, k=2, delta=0.6
        )
        for dyn in (Exponential(0.7), Tabulated((1.0, 0.5, 0.5, 0.1), tail_w=0.2)):
            expected = enumerated_prefix_search(inst, dyn, 4)
            seq, value = exhaustive_prefix_search(inst, dyn, 4)
            assert (seq.prefix, seq.tail) == (expected[0].prefix, expected[0].tail)
            assert value.hex() == expected[1].hex()

    def test_rounding_tie_goes_to_the_smaller_prefix(self):
        # With w = 1 features 0 and 2 are interchangeable at every count.
        # Prefixes ((0,1),(0,1),(1,2)) and ((0,1),(1,2),(0,1)) reach the same
        # counts with values one rounding apart, the smaller one first; the
        # last additions round both to the same total, so the enumeration
        # keeps the smaller prefix.  A search that kept only the larger value
        # per count vector would return the other one.
        inst = ProblemInstance(
            a=[1.217596867500203, -0.5404444483533197, 1.217596867500203,
               -1.0338888103465524],
            c=0.0,
            h0=[0.01667024140959712, -0.15774200278163147, 0.01667024140959712,
                0.24355419001125628],
            c_bar=0.0,
            k=2,
            delta=0.554903509343319,
        )
        dyn = Exponential(1.0)
        expected = enumerated_prefix_search(inst, dyn, 3)
        seq, value = exhaustive_prefix_search(inst, dyn, 3, tol=sys.float_info.max)
        assert expected[0].prefix == ((0, 1), (0, 1), (1, 2))
        assert (seq.prefix, seq.tail) == (expected[0].prefix, expected[0].tail)
        assert value.hex() == expected[1].hex()

    def test_full_depth_benchmark_instances(self):
        # Instances like the verify benchmark's, at prefix length 4, keep
        # 1,300 to 2,800 prefixes at the last level: far more than the
        # hypothesis cases above usually reach.
        rng = np.random.default_rng(1004)
        for idx in range(6):
            inst, dyn = verify_search_case(rng, idx)
            expected_seq, expected_value = enumerated_prefix_search(inst, dyn, 4)
            seq, value = exhaustive_prefix_search(inst, dyn, 4)
            assert (seq.prefix, seq.tail) == (expected_seq.prefix, expected_seq.tail)
            assert value.hex() == expected_value.hex()
