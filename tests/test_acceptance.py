"""End-to-end acceptance checks.

Each test exercises one release criterion at its stated tolerance and
records a PASS/FAIL line; the collected lines are printed in the terminal
summary after the run.
"""

import csv
import gc
import io
import json
import time

import numpy as np
import pytest

from teachsel import (
    Efficiency,
    ErrorKind,
    ErrorSpec,
    Exponential,
    ProblemInstance,
    SelectionSequence,
    Tabulated,
    all_switch_points,
    enumerate_optimal_subsets,
    inverse_weight_cdf,
    is_more_efficient,
    mse,
    optimal_stationary_sequence,
    sequence_loss,
    sequence_value,
    simulate_beliefs,
    sort_marginals_dynamic,
    subset_informativeness,
    sweep_delta,
    sweep_w_delta_loss_ratio,
    validate_bound,
)
from teachsel.cli import main
from teachsel.oracle import exhaustive_prefix_search
from teachsel.planner import discounted_baseline_loss

from conftest import random_instance, verify_search_case, write_scenario

THREE_FEATURES = [
    {"name": "test1", "a": 0.3, "h0": 0.8},
    {"name": "test2", "a": 0.2, "h0": 0.2},
    {"name": "test3", "a": 0.1, "h0": 0.15},
]
TWO_FEATURES = [
    {"name": "informative", "a": 1.0, "h0": -0.5},
    {"name": "familiar", "a": 0.4, "h0": 0.75},
]

THREE_FEATURE_INSTANCE = dict(
    a=[0.3, 0.2, 0.1], c=0.0, h0=[0.8, 0.2, 0.15], c_bar=0.0, k=3, delta=0.9
)
TWO_FEATURE_INSTANCE = dict(
    a=[1.0, 0.4], c=0.0, h0=[-0.5, 0.75], c_bar=0.0, k=1, delta=0.5
)


@pytest.fixture
def record(request):
    config = request.config
    if not hasattr(config, "acceptance_lines"):
        config.acceptance_lines = []

    def _record(number: int, description: str, ok: bool):
        line = f"criterion {number:2d} [{'PASS' if ok else 'FAIL'}] {description}"
        config.acceptance_lines.append(line)
        print(line)
        assert ok, line

    return _record


def test_criterion_1_static_table_and_plan(record, tmp_path, capsys):
    scenario = write_scenario(
        tmp_path / "three.json", features=THREE_FEATURES, k=3, delta=0.9
    )
    expected = {
        "": 0.14,
        "1": 0.3,
        "2": 0.1,
        "3": 0.1325,
        "1+2": 0.26,
        "1+3": 0.2925,
        "2+3": 0.0925,
        "1+2+3": 0.2525,
    }
    start = time.perf_counter()
    code = main(["eval-static", str(scenario), "--format", "csv"])
    table_out = capsys.readouterr().out
    code2 = main(["plan-static", str(scenario)])
    plan_out = capsys.readouterr().out
    elapsed = time.perf_counter() - start

    rows = {r["subset"]: float(r["mse"]) for r in csv.DictReader(io.StringIO(table_out))}
    values_ok = set(rows) == set(expected) and all(
        abs(rows[s] - expected[s]) < 1e-12 for s in expected
    )
    plan_ok = json.loads(plan_out)["subset"] == "2+3"
    record(
        1,
        f"static table exact to 1e-12, plan selects 2+3, {elapsed:.3f}s < 1s",
        code == 0 and code2 == 0 and values_ok and plan_ok and elapsed < 1.0,
    )


def test_criterion_2_learning_narrative(record):
    inst = ProblemInstance(**THREE_FEATURE_INSTANCE)
    learner = Exponential(0.0)
    loss_all = sequence_loss(inst, learner, SelectionSequence.stationary((0, 1, 2)))
    loss_pair = sequence_loss(inst, learner, SelectionSequence.stationary((1, 2)))

    # Undiscounted three-step comparison of the same two plans.
    def three_step_sum(subset):
        seq = SelectionSequence.stationary(subset)
        traj = simulate_beliefs(inst, learner, seq, horizon=3)
        return sum(mse(inst, subset, traj.h[t]) for t in range(3))

    sum_all = three_step_sum((0, 1, 2))
    sum_pair = three_step_sum((1, 2))
    ok = (
        abs(loss_all - 0.2525) < 1e-12
        and abs(loss_pair - 0.9025) < 1e-12
        and loss_all < loss_pair
        and abs(sum_all - 0.2525) < 1e-12
        and abs(sum_pair - 0.2725) < 1e-12
        and sum_all < sum_pair
    )
    record(2, "teaching everything beats the safe pair (0.2525 vs 0.9025)", ok)


def test_criterion_3_switching_point(record):
    closed = inverse_weight_cdf(Exponential(0.0), [1.0 - 0.84 / 2.1275])[0]
    anchor_ok = abs(closed - 0.605170) < 1e-6

    rng = np.random.default_rng(2024)
    agree = True
    for _ in range(100):
        delta_info = float(rng.uniform(0.05, 2.0))
        delta_div = delta_info + float(rng.uniform(0.01, 2.0))
        w = float(rng.uniform(0.0, 0.95))
        target = [1.0 - delta_info / delta_div]
        # Same weights as Exponential(w), but bisected.
        bisected = inverse_weight_cdf(Tabulated((1.0,), tail_w=w), target)[0]
        exact = inverse_weight_cdf(Exponential(w), target)[0]
        if abs(bisected - exact) > 1e-9:
            agree = False
            break
    record(3, "switch point 0.605170(+-1e-6); bisection == closed form to 1e-9", anchor_ok and agree)


def test_criterion_4_transition_curve(record):
    inst = ProblemInstance(**TWO_FEATURE_INSTANCE)
    w_grid = (np.arange(100) + 0.5) / 100
    delta_grid = (np.arange(100) + 0.5) / 100
    cell = delta_grid[1] - delta_grid[0]
    delta_info, delta_div = 0.84, 2.1275

    start = time.perf_counter()
    result = sweep_w_delta_loss_ratio(inst, w_grid, delta_grid)
    elapsed = time.perf_counter() - start

    within_cell = True
    thresholds = []
    for wi, w in enumerate(w_grid):
        ratios = result.ratios[wi]
        crossing = np.nonzero(ratios <= 1.0)[0]
        theory = (delta_div - delta_info) / (delta_div - w**2 * delta_info)
        thresholds.append(theory)
        if crossing.size == 0 or crossing[0] == 0:
            within_cell = False
            break
        j = crossing[0]  # ratio > 1 at j-1, <= 1 at j
        if not (delta_grid[j - 1] - cell <= theory <= delta_grid[j] + cell):
            within_cell = False
            break
    monotone = all(b >= a for a, b in zip(thresholds, thresholds[1:]))
    record(
        4,
        f"100x100 ratio-1 contour tracks the threshold curve, {elapsed:.3f}s < 5s",
        within_cell and monotone and elapsed < 5.0,
    )


def test_criterion_5_stationary_plans_are_unbeatable(record):
    rng = np.random.default_rng(501)
    runs = 0
    worst_excess = -np.inf
    for _ in range(12):
        base = random_instance(
            rng, n=int(rng.integers(2, 5)), k=int(rng.integers(1, 3)), delta=0.5, max_n=4
        )
        for w in (0.0, 0.3, 0.7):
            for delta in (0.3, 0.6, 0.9):
                inst = ProblemInstance(
                    a=base.a, c=base.c, h0=base.h0, c_bar=base.c_bar, k=base.k, delta=delta
                )
                _, best = exhaustive_prefix_search(inst, Exponential(w), 3)
                stationary = optimal_stationary_sequence(inst, Exponential(w)).total_value
                worst_excess = max(worst_excess, best - stationary)
                runs += 1
    record(
        5,
        f"{runs} exhaustive searches: no prefix beats stationary (excess {worst_excess:.2e})",
        runs >= 100 and worst_excess <= 1e-9,
    )


def test_criterion_6_patience_monotonicity_and_subset_count(record):
    rng = np.random.default_rng(601)
    grid = np.linspace(1e-3, 1 - 1e-3, 500)
    checked = 0
    ok = True
    for _ in range(200):
        inst = random_instance(rng)
        dyn = Exponential(float(rng.uniform(0, 0.9)))
        result = sweep_delta(inst, dyn, grid)
        infos = result.informativeness.tolist()
        if any(b < a - 1e-12 for a, b in zip(infos, infos[1:])):
            ok = False
            break
        nonempty = {s for s in result.subsets if s}
        if len(nonempty) > inst.n * (inst.n - 1) // 2 + inst.k:
            ok = False
            break
        # At patience 1 - 1e-6 the choice is the most informative budget-k
        # subset whenever all of those features carry positive value there.
        patient = ProblemInstance(
            a=inst.a, c=inst.c, h0=inst.h0, c_bar=inst.c_bar, k=inst.k, delta=1 - 1e-6
        )
        plan = optimal_stationary_sequence(patient, dyn)
        ranked = sorted(range(inst.n), key=lambda i: (-inst.informativeness[i], i))
        top = set(ranked[: inst.k])
        positive = set(np.flatnonzero(plan.values > 0).tolist())
        if top <= positive:
            checked += 1
            if set(plan.subset) != top:
                ok = False
                break
    record(
        6,
        f"informativeness nondecreasing over 500-point grids; subset count bounded; "
        f"most-informative endpoint on {checked} instances",
        ok and checked > 0,
    )


def test_criterion_7_efficiency_ordering(record):
    rng = np.random.default_rng(701)
    ok = True
    comparisons = 0
    for _ in range(200):
        inst = random_instance(rng)
        w1, w2 = sorted(rng.uniform(0, 0.98, size=2))
        d1, d2 = Exponential(float(w1)), Exponential(float(w2))
        if is_more_efficient(d1, d2) is Efficiency.MORE:
            info1 = subset_informativeness(
                inst, optimal_stationary_sequence(inst, d1).subset
            )
            info2 = subset_informativeness(
                inst, optimal_stationary_sequence(inst, d2).subset
            )
            comparisons += 1
            if info1 < info2:
                ok = False
                break
        length = int(rng.integers(1, 6))
        vals = np.sort(rng.uniform(0, 1, length))[::-1]
        tab = Tabulated((1.0, *vals.tolist()), tail_w=float(rng.uniform(0, 0.9)))
        if is_more_efficient(sort_marginals_dynamic(tab), tab) not in (
            Efficiency.MORE,
            Efficiency.EQUAL,
        ):
            ok = False
            break
    record(
        7,
        f"faster learners never pick less informative subsets ({comparisons} ordered pairs); "
        "front-loaded gains always classify more/equal",
        ok and comparisons >= 100,
    )


def test_criterion_8_misspecification_bounds(record):
    three = ProblemInstance(**THREE_FEATURE_INSTANCE)
    two = ProblemInstance(**TWO_FEATURE_INSTANCE)
    learner = Exponential(0.0)

    def eps_for(inst, kind):
        gap = np.abs(inst.a - inst.h0)
        if kind in (ErrorKind.HUMAN_STATIC, ErrorKind.HUMAN_LEARNING):
            return np.minimum(0.4 * gap, 0.05)
        if kind is ErrorKind.TRUTH_LEARNING:
            return np.minimum(0.4 * np.minimum(np.abs(inst.a), gap), 0.05)
        if kind is ErrorKind.LEARNING_SPEED:
            return 0.05
        return np.full(inst.n, 0.02)

    violations = 0
    for inst in (three, two):
        for kind in ErrorKind:
            spec = ErrorSpec(kind, eps_for(inst, kind))
            report = validate_bound(
                inst, spec, trials=1000, seed=88, dynamic=learner
            )
            violations += report.violations
    record(
        8,
        "5 error kinds x 2 scenarios x 1000 seeded trials: zero bound violations",
        violations == 0,
    )


def test_criterion_9_large_instance_performance(record, tmp_path, capsys):
    rng = np.random.default_rng(901)
    n = 100_000
    a = rng.uniform(0.05, 2.0, n) * rng.choice([-1.0, 1.0], n)
    h0 = rng.normal(0.0, 1.0, n)
    inst = ProblemInstance(a=a, c=0.2, h0=h0, c_bar=0.1, k=5000, delta=0.9)
    dyn = Exponential(0.5)
    # Best of three guards against scheduler stalls on shared runners; the
    # operation itself is deterministic.
    elapsed = np.inf
    for _ in range(3):
        gc.collect()
        start = time.perf_counter()
        plan = optimal_stationary_sequence(inst, dyn)
        elapsed = min(elapsed, time.perf_counter() - start)
    sane = (
        plan.order.size == n
        and len(plan.subset) <= inst.k
        and np.all(plan.values[plan.selected] > 0)
    )

    # The CLI carries the same size end to end (file parsing not timed).
    scenario = tmp_path / "large.json"
    scenario.write_text(
        json.dumps(
            {
                "features": [
                    {"a": float(ai), "h0": float(hi)} for ai, hi in zip(a, h0)
                ],
                "c": 0.2,
                "c_bar": 0.1,
                "k": 5000,
                "delta": 0.9,
                "dynamic": {"type": "exponential", "params": {"w": 0.5}},
            }
        )
    )
    out_path = tmp_path / "plan.csv"
    code = main(
        ["plan-stationary", str(scenario), "--format", "csv", "--out", str(out_path)]
    )
    capsys.readouterr()
    with open(out_path) as report:
        cli_ok = code == 0 and sum(1 for _ in report) == n + 1
    record(
        9,
        f"stationary planning over 100,000 features in {elapsed:.3f}s < 0.25s (CLI carries the size)",
        sane and elapsed < 0.25 and cli_ok,
    )


def test_patience_analysis_speed():
    """Every pair threshold and the patience partition at n = 120, k = 12,
    under a geometric and a tabulated dynamic, in under 0.5 s together.

    The bound may be tightened, never loosened.
    """
    rng = np.random.default_rng(1201)
    n = 120
    a = rng.uniform(0.05, 2.0, n) * rng.choice([-1.0, 1.0], n)
    h0 = rng.normal(0.0, 1.0, n)
    inst = ProblemInstance(a=a, c=0.2, h0=h0, c_bar=0.1, k=12, delta=0.9)
    dynamics = (Exponential(0.5), Tabulated((1.0, 0.6, 0.6, 0.25, 0.1), tail_w=0.7))
    # Best of three guards against scheduler stalls on shared runners.
    elapsed = np.inf
    for _ in range(3):
        gc.collect()
        start = time.perf_counter()
        results = [
            (all_switch_points(inst, dyn), enumerate_optimal_subsets(inst, dyn))
            for dyn in dynamics
        ]
        elapsed = min(elapsed, time.perf_counter() - start)
    for table, intervals in results:
        assert table.i.size == n * (n - 1) // 2
        assert intervals.lo[0] == 0.0 and intervals.hi[-1] == 1.0
        assert len(intervals.subsets[-1]) == inst.k
    assert elapsed < 0.5, f"patience analysis took {elapsed:.3f}s, over 0.5s"


@pytest.mark.parametrize(
    "dynamic",
    [Exponential(0.5), Tabulated((1.0, 0.7, 0.5, 0.45), tail_w=0.6)],
    ids=["geometric", "tabulated"],
)
def test_enumeration_speed_at_n_2000(dynamic):
    """The patience partition at n = 2000, k = 200 in under 0.2 s, best of
    three: the sweep visits the swaps of the top k, not the 2e6 pair
    thresholds.

    The bound may be tightened, never loosened.
    """
    rng = np.random.default_rng(2000)
    n = 2000
    a = rng.normal(0.0, 1.0, n)
    inst = ProblemInstance(
        a=a, c=0.0, h0=a + rng.normal(0.0, 0.8, n), c_bar=0.0, k=200, delta=0.9
    )
    elapsed = np.inf
    for _ in range(3):
        gc.collect()
        start = time.perf_counter()
        intervals = enumerate_optimal_subsets(inst, dynamic)
        elapsed = min(elapsed, time.perf_counter() - start)
    assert intervals.lo[0] == 0.0 and intervals.hi[-1] == 1.0
    assert len(intervals) > 10
    assert elapsed < 0.2, f"enumeration took {elapsed:.3f}s, over 0.2s"


def test_misspec_validation_speed():
    """10,000 seeded truth-learning trials at n = 8, k = 3 in under 0.1 s.

    The bound may be tightened, never loosened.
    """
    rng = np.random.default_rng(1202)
    n = 8
    a = rng.uniform(0.2, 2.0, n) * rng.choice([-1.0, 1.0], n)
    h0 = a + rng.uniform(0.1, 1.5, n) * rng.choice([-1.0, 1.0], n)
    inst = ProblemInstance(a=a, c=0.0, h0=h0, c_bar=0.0, k=3, delta=0.9)
    spec = ErrorSpec(ErrorKind.TRUTH_LEARNING, 0.01)
    # Best of three guards against scheduler stalls on shared runners.
    elapsed = np.inf
    for _ in range(3):
        gc.collect()
        start = time.perf_counter()
        report = validate_bound(inst, spec, trials=10_000, seed=1, dynamic=Exponential(0.5))
        elapsed = min(elapsed, time.perf_counter() - start)
    assert report.trials == 10_000 and report.violations == 0
    assert elapsed < 0.1, f"misspec validation took {elapsed:.3f}s, over 0.1s"


def test_verify_search_speed():
    """Six exact prefix searches at n = 4, k = 2, prefix length 4, three per
    dynamic, in under 0.03 s together.

    The bound may be tightened, never loosened.
    """
    rng = np.random.default_rng(1203)
    cases = [verify_search_case(rng, idx) for idx in range(6)]
    # Best of three guards against scheduler stalls on shared runners.
    elapsed = np.inf
    for _ in range(3):
        gc.collect()
        start = time.perf_counter()
        results = [exhaustive_prefix_search(inst, dyn, 4) for inst, dyn in cases]
        elapsed = min(elapsed, time.perf_counter() - start)
    for (inst, dyn), (_, value) in zip(cases, results):
        stationary = optimal_stationary_sequence(inst, dyn).total_value
        assert value <= stationary + 1e-9
    assert elapsed < 0.03, f"verify searches took {elapsed:.3f}s, over 0.03s"


def test_criterion_10_value_loss_duality(record):
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(1000):
        inst = random_instance(rng, delta=float(rng.uniform(0.05, 0.95)))
        dyn = Exponential(float(rng.uniform(0, 0.95)))

        def subset():
            size = int(rng.integers(0, inst.k + 1))
            return tuple(sorted(rng.choice(inst.n, size=size, replace=False).tolist()))

        seq = SelectionSequence(
            prefix=tuple(subset() for _ in range(int(rng.integers(0, 4)))),
            tail=subset(),
        )
        residual = abs(
            sequence_value(inst, dyn, seq)
            + sequence_loss(inst, dyn, seq)
            - discounted_baseline_loss(inst)
        )
        worst = max(worst, residual)
    record(
        10,
        f"value + loss == baseline for 1000 random sequences (worst {worst:.2e} < 2e-9)",
        worst < 2e-9,
    )
