"""Error margins and the aggregate selection-gap bound."""

import warnings

import numpy as np
import pytest

from teachsel import robustness
from teachsel import (
    ErrorKind,
    ErrorSpec,
    Exponential,
    InvalidInputError,
    ProblemInstance,
    Tabulated,
    aggregate_gap_bound,
    margins,
    static_values,
    stationary_values,
    validate_bound,
)
from teachsel.robustness import _perturbed_values

from conftest import random_instance, select_top_k

ALL_KINDS = list(ErrorKind)


def bits(report) -> dict:
    """Every field and column of a validation report, floats as exact hex."""
    def exact(x):
        return x.hex() if isinstance(x, float) else x

    return {
        **{key: exact(value) for key, value in report.summary().items()},
        "gaps": report.gaps.tobytes(),
        "bounds": report.bounds.tobytes(),
        "ratios": [exact(report.subset_ratio[i]) for i in report.trial_subset.tolist()],
    }


def scalar_validate(instance, spec, trials, seed, dynamic=None) -> dict:
    """Slow oracle: one draw, one top-k selection and one bound per trial,
    each trial taking the next draws of one seeded generator."""
    report = margins(instance, spec, dynamic)
    true_vals = _perturbed_values(instance, spec.kind, dynamic, -0.0)
    best = select_top_k(true_vals, instance.k)
    best_total = float(np.sum(true_vals[list(best)])) if best else 0.0
    eps = spec.epsilon_values(instance.n)
    scalar = eps.ndim == 0
    gaps, bounds, ratios, violations = [], [], [], 0
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        if scalar:
            noise = rng.uniform(-eps, eps)
        else:
            noise = rng.uniform(-1.0, 1.0, size=instance.n) * eps
        mistaken = _perturbed_values(instance, spec.kind, dynamic, noise)
        chosen = select_top_k(mistaken, instance.k)
        chosen_total = float(np.sum(true_vals[list(chosen)])) if chosen else 0.0
        gap = best_total - chosen_total
        bound = aggregate_gap_bound(report, best, chosen)
        if gap > bound + robustness.BOUND_SLACK:
            violations += 1
        gaps.append(gap)
        bounds.append(bound)
        ratios.append(gap / bound if bound > 0.0 else None)
    present = [r for r in ratios if r is not None]
    return {
        "kind": spec.kind.value,
        "trials": trials,
        "seed": seed,
        "violations": violations,
        "max_gap": float(np.max(gaps)).hex(),
        "mean_gap": float(np.mean(gaps)).hex(),
        "max_ratio": max(present).hex() if present else None,
        "gaps": np.array(gaps).tobytes(),
        "bounds": np.array(bounds).tobytes(),
        "ratios": [None if r is None else r.hex() for r in ratios],
    }


def margin_caps(instance, kind):
    """Largest epsilon each kind's formulas are proven for."""
    gap = np.abs(instance.a - instance.h0)
    if kind in (ErrorKind.HUMAN_STATIC, ErrorKind.HUMAN_LEARNING):
        return gap
    if kind is ErrorKind.TRUTH_LEARNING:
        return np.minimum(np.abs(instance.a), gap)
    return np.full(instance.n, np.inf)


class TestMargins:
    def test_truth_static_formula(self):
        inst = ProblemInstance(
            a=[0.3], c=0.0, h0=[0.8], c_bar=0.0, k=1, delta=0.9
        )
        report = margins(inst, ErrorSpec(ErrorKind.TRUTH_STATIC, 0.05))
        assert report.lower_margin[0] == pytest.approx(0.08, abs=1e-12)
        assert report.upper_margin[0] == pytest.approx(0.08, abs=1e-12)

    def test_zero_error_means_zero_margin(self, three_feature_instance):
        for kind in ALL_KINDS:
            spec = ErrorSpec(kind, 0.0)
            report = margins(three_feature_instance, spec, Exponential(0.5))
            np.testing.assert_array_equal(report.lower_margin, 0.0)
            np.testing.assert_array_equal(report.upper_margin, 0.0)

    def test_learning_speed_formula(self):
        inst = ProblemInstance(
            a=[1.0], c=0.0, h0=[-0.5], c_bar=0.0, k=1, delta=0.9
        )
        report = margins(
            inst, ErrorSpec(ErrorKind.LEARNING_SPEED, 0.1), Exponential(0.5)
        )
        assert report.lower_margin[0] == pytest.approx(0.225, abs=1e-12)
        assert report.upper_margin[0] == pytest.approx(0.225, abs=1e-12)

    def test_human_static_boundary_epsilon(self):
        inst = ProblemInstance(
            a=[0.3], c=0.0, h0=[0.8], c_bar=0.0, k=1, delta=0.9
        )
        report = margins(inst, ErrorSpec(ErrorKind.HUMAN_STATIC, 0.5))
        assert report.upper_margin[0] == pytest.approx(0.25, abs=1e-12)
        assert report.lower_margin[0] == pytest.approx(
            2 * 0.5 * 0.5 + 0.25, abs=1e-12
        )

    def test_human_learning_scales_the_static_margins(self):
        inst = ProblemInstance(
            a=[0.3], c=0.0, h0=[0.8], c_bar=0.0, k=1, delta=0.9
        )
        dyn = Exponential(0.5)
        weight = 1.0 / (1.0 - 0.9 * 0.5**2)  # sum_t delta^t * w^(2t)
        static = margins(inst, ErrorSpec(ErrorKind.HUMAN_STATIC, 0.2))
        learning = margins(inst, ErrorSpec(ErrorKind.HUMAN_LEARNING, 0.2), dyn)
        np.testing.assert_allclose(
            learning.lower_margin, weight * static.lower_margin, atol=1e-12
        )
        np.testing.assert_allclose(
            learning.upper_margin, weight * static.upper_margin, atol=1e-12
        )

    def test_precondition_violations_are_hard_errors(self, three_feature_instance):
        # feature 1 has h == a, so any positive epsilon is out of range
        with pytest.raises(InvalidInputError, match=r"\|h_i - a_i\|"):
            margins(three_feature_instance, ErrorSpec(ErrorKind.HUMAN_STATIC, 0.01))
        with pytest.raises(InvalidInputError, match=r"min\(\|a_i\|"):
            margins(
                three_feature_instance,
                ErrorSpec(ErrorKind.TRUTH_LEARNING, 0.01),
                Exponential(0.5),
            )

    def test_learning_kinds_require_a_dynamic(self, three_feature_instance):
        with pytest.raises(InvalidInputError):
            margins(three_feature_instance, ErrorSpec(ErrorKind.LEARNING_SPEED, 0.1))

    def test_margins_nonnegative_and_monotone_in_epsilon(self):
        rng = np.random.default_rng(71)
        dyn = Exponential(0.5)
        for _ in range(40):
            inst = random_instance(rng)
            for kind in ALL_KINDS:
                caps = margin_caps(inst, kind)
                cap = float(min(np.min(caps), 1.0))
                if cap <= 0.0:
                    continue
                grid = np.linspace(0.0, cap, 6)
                prev_lower = prev_upper = None
                for eps in grid:
                    spec = ErrorSpec(
                        kind,
                        float(eps) if kind is ErrorKind.LEARNING_SPEED else np.full(inst.n, eps),
                    )
                    report = margins(inst, spec, dyn)
                    assert np.all(report.lower_margin >= 0.0)
                    assert np.all(report.upper_margin >= 0.0)
                    if prev_lower is not None:
                        assert np.all(report.lower_margin >= prev_lower - 1e-12)
                        assert np.all(report.upper_margin >= prev_upper - 1e-12)
                    prev_lower, prev_upper = report.lower_margin, report.upper_margin

    def test_asymmetry(self):
        inst = ProblemInstance(
            a=[0.3], c=0.0, h0=[0.8], c_bar=0.0, k=1, delta=0.9
        )
        human = margins(inst, ErrorSpec(ErrorKind.HUMAN_STATIC, 0.2))
        assert human.lower_margin[0] > human.upper_margin[0]
        truth = margins(inst, ErrorSpec(ErrorKind.TRUTH_STATIC, 0.2))
        assert truth.lower_margin[0] == truth.upper_margin[0]

    def test_aligned_beliefs_shrink_truth_learning_margins(self):
        """When the true coefficient and the human's gap point the same way,
        the two error channels partially cancel."""
        dyn = Exponential(0.5)
        aligned = ProblemInstance(
            a=[0.8], c=0.0, h0=[0.3], c_bar=0.0, k=1, delta=0.9
        )
        opposed = ProblemInstance(
            a=[0.8], c=0.0, h0=[1.3], c_bar=0.0, k=1, delta=0.9
        )
        spec = ErrorSpec(ErrorKind.TRUTH_LEARNING, 0.05)
        m_aligned = margins(aligned, spec, dyn)
        m_opposed = margins(opposed, spec, dyn)
        assert m_aligned.upper_margin[0] < m_opposed.upper_margin[0]
        assert m_aligned.lower_margin[0] < m_opposed.lower_margin[0]


class TestZeroNoiseEstimate:
    def test_zero_noise_gives_the_true_values_bitwise(self):
        """A noise of -0.0, the exact additive identity, leaves each kind's
        estimate at its true value bit for bit, signed zeros included.  A
        noise of +0.0 would turn an h0 of -0.0 into +0.0."""
        rng = np.random.default_rng(101)
        dynamics = (Exponential(0.5), Tabulated((1.0, 0.6, 0.2), tail_w=0.7))
        static = (ErrorKind.TRUTH_STATIC, ErrorKind.HUMAN_STATIC)
        plus_zero_differs = 0
        for _ in range(60):
            n = int(rng.integers(1, 7))
            a = rng.uniform(-1.5, 1.5, n)
            zero = rng.random(n) < 0.3
            a[zero] = rng.choice([0.0, -0.0], np.count_nonzero(zero))
            pick = rng.integers(0, 4, n)
            h0 = np.choose(pick, [np.zeros(n), np.full(n, -0.0), a, rng.normal(0.0, 1.0, n)])
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                inst = ProblemInstance(
                    a=a, c=0.0, h0=h0, c_bar=0.0, k=n, delta=float(rng.uniform(0.05, 0.95)),
                    allow_zero_coeff=True,
                )
            for dyn in dynamics:
                for kind in ALL_KINDS:
                    want = static_values(inst) if kind in static else stationary_values(inst, dyn)
                    got = _perturbed_values(inst, kind, dyn, -0.0)
                    assert got.tobytes() == want.tobytes(), (kind, inst.a, inst.h0)
                    plus = _perturbed_values(inst, kind, dyn, 0.0)
                    plus_zero_differs += plus.tobytes() != want.tobytes()
        assert plus_zero_differs > 0


class TestAggregateGapBound:
    def test_identical_sets_have_zero_bound(self, three_feature_instance):
        report = margins(three_feature_instance, ErrorSpec(ErrorKind.TRUTH_STATIC, 0.05))
        assert aggregate_gap_bound(report, (0, 2), (0, 2)) == 0.0

    def test_singleton_swap(self):
        inst = ProblemInstance(
            a=[0.3, 0.3], c=0.0, h0=[0.8, 0.2], c_bar=0.0, k=1, delta=0.9
        )
        report = margins(inst, ErrorSpec(ErrorKind.TRUTH_STATIC, 0.05))
        assert aggregate_gap_bound(report, (0,), (1,)) == pytest.approx(
            0.08 + 0.02, abs=1e-12
        )

    def test_handles_unequal_sizes(self, three_feature_instance):
        report = margins(three_feature_instance, ErrorSpec(ErrorKind.TRUTH_STATIC, 0.05))
        bound = aggregate_gap_bound(report, (0, 1, 2), (1,))
        expected = report.lower_margin[0] + report.lower_margin[2]
        assert bound == pytest.approx(expected, abs=1e-12)


class TestValidateBound:
    def test_zero_epsilon_means_zero_gap(self, three_feature_instance):
        report = validate_bound(
            three_feature_instance,
            ErrorSpec(ErrorKind.TRUTH_STATIC, 0.0),
            trials=20,
            seed=1,
        )
        assert report.violations == 0
        assert report.max_gap == 0.0

    def test_random_instances_never_violate(self):
        rng = np.random.default_rng(73)
        dyn = Exponential(0.5)
        for _ in range(15):
            inst = random_instance(rng)
            for kind in ALL_KINDS:
                caps = margin_caps(inst, kind)
                eps_vec = 0.5 * np.minimum(caps, 0.2)
                spec = ErrorSpec(
                    kind,
                    0.05 if kind is ErrorKind.LEARNING_SPEED else eps_vec,
                )
                report = validate_bound(inst, spec, trials=50, seed=7, dynamic=dyn)
                assert report.violations == 0

    def test_same_seed_reproduces_the_report(self, three_feature_instance):
        spec = ErrorSpec(ErrorKind.TRUTH_STATIC, 0.05)
        first = validate_bound(three_feature_instance, spec, trials=30, seed=5)
        second = validate_bound(three_feature_instance, spec, trials=30, seed=5)
        assert bits(first) == bits(second)


def differential_cases():
    """(instance, spec) pairs for every error kind, scalar and vector epsilon,
    k = 0, k = n, and exactly tied features."""
    rng = np.random.default_rng(83)
    a = np.array([0.9, -0.7, 0.5, 0.5, -1.2, 0.3])
    h0 = np.array([0.2, 0.1, 1.1, 1.1, -0.4, -0.5])
    tied = np.array([0.6, 0.6, 0.6, 0.4])
    instances = [
        ProblemInstance(a=a, c=0.1, h0=h0, c_bar=0.0, k=3, delta=0.8),
        ProblemInstance(a=a, c=0.1, h0=h0, c_bar=0.0, k=0, delta=0.8),
        ProblemInstance(a=a, c=0.1, h0=h0, c_bar=0.0, k=6, delta=0.3),
        ProblemInstance(a=tied, c=0.0, h0=tied - 0.5, c_bar=0.0, k=2, delta=0.9),
    ]
    for inst in instances:
        for kind in ALL_KINDS:
            caps = np.minimum(margin_caps(inst, kind), 0.3)
            if kind is ErrorKind.LEARNING_SPEED:
                epsilons = [0.0, 0.2, [0.4]]
            else:
                epsilons = [0.0, float(0.9 * np.min(caps)), caps * rng.uniform(0, 1, inst.n)]
            for eps in epsilons:
                yield inst, ErrorSpec(kind, eps)


class TestValidateBoundMatchesScalarLoop:
    @pytest.mark.parametrize("trials", [1, 2, 300])
    def test_every_field_and_column_bitwise(self, monkeypatch, trials):
        dyn = Exponential(0.5)
        cases = list(differential_cases())
        expected = [scalar_validate(i, s, trials, seed=11, dynamic=dyn) for i, s in cases]
        for cells in (robustness.BLOCK_CELLS, 13):
            monkeypatch.setattr(robustness, "BLOCK_CELLS", cells)
            for (inst, spec), want in zip(cases, expected):
                report = validate_bound(inst, spec, trials=trials, seed=11, dynamic=dyn)
                assert bits(report) == want, (cells, inst.k, spec)

    def test_differential_cases_draw_nonzero_gaps(self):
        """A trial whose gap is 0 whatever it draws cannot tell one draw
        stream from another, so the cases above must lose value somewhere."""
        dyn = Exponential(0.5)
        losing = [
            validate_bound(inst, spec, trials=300, seed=11, dynamic=dyn).max_gap > 0.0
            for inst, spec in differential_cases()
        ]
        assert sum(losing) >= 10, sum(losing)

    def test_blocks_of_trials_change_nothing(self, monkeypatch):
        """One block and blocks of two trials give the same draws, scores and
        per-trial rows.  Only the cases that lose value can tell draw streams
        apart, and only those with two or more chosen subsets can tell a
        trial's row in its block from its row in the report."""
        dyn = Exponential(0.5)
        whole = []
        for inst, spec in differential_cases():
            report = validate_bound(inst, spec, trials=300, seed=11, dynamic=dyn)
            if report.max_gap > 0.0:
                whole.append((inst, spec, bits(report)))
        assert len(whole) >= 10, len(whole)
        # At n = 4 and n = 6, 13 cells hold three and two trials a block.
        monkeypatch.setattr(robustness, "BLOCK_CELLS", 13)
        for inst, spec, expected in whole:
            blocked = validate_bound(inst, spec, trials=300, seed=11, dynamic=dyn)
            assert bits(blocked) == expected, (inst.k, spec)

    def test_a_run_is_a_prefix_of_longer_runs(self, monkeypatch):
        dyn = Exponential(0.5)
        for cells in (robustness.BLOCK_CELLS, 13):
            monkeypatch.setattr(robustness, "BLOCK_CELLS", cells)
            for seed in (2, 2**64 + 3):
                for inst, spec in list(differential_cases())[::4]:
                    short = validate_bound(inst, spec, trials=7, seed=seed, dynamic=dyn)
                    long = validate_bound(inst, spec, trials=50, seed=seed, dynamic=dyn)
                    assert short.gaps.tobytes() == long.gaps[:7].tobytes(), (cells, seed)
                    assert short.bounds.tobytes() == long.bounds[:7].tobytes(), (cells, seed)

    # Seeds of 2**64 and above do not fit one uint64 and must reach the
    # generator whole; at n = 9 and 17 a chosen subset's key spans two and
    # three bytes; k = 0 and k = n give every trial the same subset.
    @pytest.mark.parametrize("n, k", [(9, 4), (17, 6), (9, 0), (17, 17)])
    def test_wide_instances_and_large_seeds_bitwise(self, n, k):
        rng = np.random.default_rng(97 + n + k)
        a = rng.uniform(0.2, 1.5, n) * rng.choice([-1.0, 1.0], n)
        h0 = a + rng.uniform(0.1, 1.0, n) * rng.choice([-1.0, 1.0], n)
        inst = ProblemInstance(a=a, c=0.1, h0=h0, c_bar=0.0, k=k, delta=0.7)
        dyn = Exponential(0.4)
        for kind in ALL_KINDS:
            caps = np.minimum(margin_caps(inst, kind), 0.3)
            eps = 0.2 if kind is ErrorKind.LEARNING_SPEED else caps * rng.uniform(0.5, 1, n)
            spec = ErrorSpec(kind, eps)
            for seed in (2**64, 2**100 + 7):
                expected = scalar_validate(inst, spec, 150, seed=seed, dynamic=dyn)
                report = validate_bound(inst, spec, trials=150, seed=seed, dynamic=dyn)
                assert bits(report) == expected, (kind, seed)
