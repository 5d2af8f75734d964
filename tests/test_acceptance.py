"""Acceptance suite: exact analytic checks, calibration round-trips, and
Monte Carlo vs closed-form agreement, each printed as one pass/fail line
(run with `pytest tests/test_acceptance.py -v -s`)."""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from annocamp.campaign import (
    pack_hits,
    qc_flag,
    reproduce,
    run_campaign,
    simulate_campaign,
    worker_stats_from_events,
)
from annocamp.costmodel import (
    DEFAULT_TIME_MODEL,
    HitBudget,
    TimingObservation,
    fit_time_model,
    subset_sizes,
    task_time,
    videos_per_hit,
)
from annocamp.evaluate import (
    aggregate,
    metrics,
    truth_matrix,
    union_precision,
)
from annocamp.planner import BudgetConstraint, enumerate_plans, optimize
from annocamp.taxonomy import partition_questions, singleton_taxonomy
from annocamp.workersim import (
    ModifierSet,
    Worker,
    default_behavior,
    fit_hard_mixture,
    make_random_truth,
    mixture_union_recall,
    sample_worker_pool,
)

NONE = ModifierSet()


@contextmanager
def criterion(num, description, max_seconds=None):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"\nACCEPTANCE {num}: FAIL - {description}")
        raise
    elapsed = time.perf_counter() - start
    if max_seconds is not None:
        assert elapsed < max_seconds, (
            f"criterion {num} took {elapsed:.2f}s, cap is {max_seconds}s"
        )
    print(f"\nACCEPTANCE {num}: PASS - {description} ({elapsed:.2f}s)")


def simulate_union_curve(behavior, n_videos, iterations, seed, checkpoints):
    """Union recall/precision after selected iteration counts, one stream."""
    tax = singleton_taxonomy(behavior.qtop)
    truths = make_random_truth(n_videos, behavior.qtop, behavior.prevalence, seed)
    truth = truth_matrix(truths, behavior.qtop)
    video_ids = tuple(sorted(t.video_id for t in truths))
    votes = np.zeros((n_videos, behavior.qtop), dtype=np.int16)
    out = {}
    batches = simulate_campaign(tax, truths, behavior.qtop, iterations, behavior, seed)
    for n, events in enumerate(batches, start=1):
        votes += aggregate(events, tax, video_ids=video_ids).votes
        if n in checkpoints:
            binary = votes >= 1
            scored = metrics(binary, truth)
            out[n] = (scored.recall, scored.precision, int(truth.sum()), int(binary.sum()))
    return out


def test_criterion_1_expected_recall_exactness():
    with criterion(1, "closed-form expected recall is exact", max_seconds=1.0):
        # The independence law (no hard pairs) at the passes 8.61 minutes buy
        # at 1.10 minutes a pass, against its direct evaluation.
        value = mixture_union_recall(0.45, 8.61 / 1.10, 0.0, 0.0)
        assert value == pytest.approx(1.0 - 0.55 ** (8.61 / 1.10), abs=1e-12)
        assert value == pytest.approx(0.99072, abs=1e-4)
        rng = np.random.default_rng(11)
        for r in rng.random(100):
            assert mixture_union_recall(r, 1.7 / 1.7, 0.0, 0.0) == pytest.approx(r, abs=1e-15)


def test_criterion_2_time_model_round_trip():
    with criterion(2, "task-time fit recovers its generating line", max_seconds=1.0):
        exact = fit_time_model(
            [TimingObservation(q, 14.1 + 1.15 * q) for q in (1, 5, 12, 26, 40, 52)]
        )
        assert exact.base_seconds == pytest.approx(14.1, abs=1e-9)
        assert exact.per_question_seconds == pytest.approx(1.15, abs=1e-9)

        # 10% multiplicative noise, 100 points per seed; the average of the
        # 20 per-seed estimates must recover the coefficients within 5%.
        a_hats, b_hats = [], []
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            obs = []
            for i in range(100):
                q = 1 + (i % 52)
                y = (14.1 + 1.15 * q) * (1 + 0.1 * rng.standard_normal())
                obs.append(TimingObservation(q, max(y, 0.1)))
            model = fit_time_model(obs)
            a_hats.append(model.base_seconds)
            b_hats.append(model.per_question_seconds)
        assert abs(np.mean(a_hats) - 14.1) / 14.1 < 0.05
        assert abs(np.mean(b_hats) - 1.15) / 1.15 < 0.05


def test_criterion_3_calibration_consistency():
    with criterion(3, "derived false-positive rate reproduces measured precision", max_seconds=10.0):
        behavior = default_behavior()
        assert behavior.fp_rate(52) == pytest.approx(0.00543, abs=5e-5)
        curve = simulate_union_curve(behavior, 10000, 1, seed=301, checkpoints={1})
        _, precision, _, _ = curve[1]
        assert precision == pytest.approx(0.864, abs=0.005)


def test_criterion_4_independence_model_agreement():
    with criterion(4, "simulation matches the independence model at n=1,3,5", max_seconds=30.0):
        behavior = default_behavior()  # hard_fraction = 0
        f = behavior.fp_rate(52)
        curve = simulate_union_curve(behavior, 10000, 5, seed=401, checkpoints={1, 3, 5})
        for n, (recall, precision, n_pos, n_pred) in curve.items():
            a_recall = 1.0 - 0.55**n  # the independence law, evaluated directly
            assert mixture_union_recall(0.45, n, 0.0, 0.0) == pytest.approx(a_recall, abs=1e-12)
            a_precision = union_precision(a_recall, f, 3.7, 52, n)
            se_r = math.sqrt(a_recall * (1 - a_recall) / n_pos)
            se_p = math.sqrt(a_precision * (1 - a_precision) / n_pred)
            assert abs(recall - a_recall) <= 3 * se_r, f"recall off at n={n}"
            assert abs(precision - a_precision) <= 3 * se_p, f"precision off at n={n}"


def test_criterion_5_correlated_mixture_fit():
    with criterion(5, "difficulty mixture reproduces multi-pass recall", max_seconds=30.0):
        behavior = fit_hard_mixture(default_behavior())
        assert behavior.hard_fraction > 0
        curve = simulate_union_curve(behavior, 10000, 5, seed=501, checkpoints={3, 5})
        assert curve[3][0] == pytest.approx(0.767, abs=0.02)
        assert curve[5][0] == pytest.approx(0.853, abs=0.02)
        # The independence assumption overshoots the same observations.
        independent_3 = 1 - 0.55**3
        independent_5 = 1 - 0.55**5
        assert independent_3 == pytest.approx(0.834, abs=5e-4)
        assert independent_5 == pytest.approx(0.950, abs=5e-4)
        assert independent_3 - 0.767 > 0.02
        assert independent_5 - 0.853 > 0.02


def test_criterion_6_many_question_dominance():
    with criterion(6, "optimizer picks the full-width interface at any budget", max_seconds=5.0):
        behavior = fit_hard_mixture(default_behavior())
        for budget in (2.0, 4.0, 7.1, 10.0):
            plan = optimize(behavior, DEFAULT_TIME_MODEL, BudgetConstraint(budget))
            assert plan.k == 52, f"budget {budget}: chose k={plan.k}"
        chosen = optimize(behavior, DEFAULT_TIME_MODEL, BudgetConstraint(7.1))
        rivals = enumerate_plans(
            behavior, DEFAULT_TIME_MODEL, BudgetConstraint(7.1), [1], max_n=3
        )
        best_single = max(p.predicted_recall for p in rivals)
        assert chosen.predicted_recall - best_single >= 0.10


def test_criterion_7_hit_packing():
    with criterion(7, "HIT packing holds the effort target and bias fraction"):
        tax = singleton_taxonomy(52)
        budget = HitBudget()
        model = DEFAULT_TIME_MODEL
        g = 3.7
        for k in range(1, 53):
            sizes = set(subset_sizes(52, k))
            counts = {videos_per_hit(model, s, budget) for s in sizes}
            n_videos = math.lcm(*counts) * 2
            videos = [f"v{i}" for i in range(n_videos)]
            plan = partition_questions(tax, k, seed=7)
            limit = task_time(model, k)
            for seconds in pack_hits(tax, videos, plan, budget, model, seed=7).expected_seconds:
                assert seconds <= budget.target_seconds + 1e-9
                assert seconds >= budget.target_seconds - limit - 1e-9
            known = np.zeros((n_videos, 52), dtype=bool)
            known[:, 0] = True  # question 0 known positive for every video
            biased = pack_hits(tax, videos, plan, budget, model, seed=7, known=known)
            slot_hit = np.repeat(biased.hit, biased.lengths)
            golds = np.bincount(slot_hit[biased.gold], minlength=len(biased))
            for slots, gold in zip(np.bincount(slot_hit).tolist(), golds.tolist()):
                base = slots - gold
                fraction = (base * g / 52 + gold) / (base + gold)
                assert abs(fraction - 1 / 3) <= 0.05, f"k={k}: fraction {fraction:.3f}"


def qc_trial(seed, plant_spammer):
    tax = singleton_taxonomy(52)
    behavior = default_behavior()
    truths = make_random_truth(60, 52, 3.7, seed=seed * 7 + 1, min_labels=1)
    pool = sample_worker_pool(50, behavior, 0.0, seed)
    if plant_spammer:
        pool = pool + [Worker("spammer", spammer=True, time_scale=0.2)]
    events = run_campaign(
        tax,
        truths,
        5,
        1,
        behavior,
        seed * 13 + 5,
        modifiers=ModifierSet(positive_bias=True),
        pool=pool,
    )
    stats = worker_stats_from_events(events)
    return stats, qc_flag(stats)


def test_criterion_9_quality_control():
    with criterion(9, "planted spammer caught, honest workers spared"):
        detected = 0
        for seed in range(100):
            _, flags = qc_trial(seed, plant_spammer=True)
            for flag in flags:
                if flag.worker_id == "spammer" and len(flag.signals) >= 2:
                    detected += 1
        assert detected >= 95, f"spammer detected in only {detected}/100 trials"

        flagged = total = 0
        for seed in range(100):
            stats, flags = qc_trial(seed, plant_spammer=False)
            flagged += len(flags)
            total += len(stats)
        assert flagged / total <= 0.05, f"false-flag rate {flagged / total:.3f}"


@pytest.mark.parametrize(
    "name",
    [
        "question-count-sweep",
        "expected-recall-budget",
        "multi-iteration",
        "length-breakdown",
        "worker-correlations",
    ],
)
def test_criterion_10_reproduction_determinism(name, tmp_path):
    with criterion(10, f"byte-identical reproduction: {name}"):
        first = reproduce(name, seed=42, out_path=tmp_path / "a.csv")
        second = reproduce(name, seed=42, out_path=tmp_path / "b.csv")
        blob = first.read_bytes()
        assert blob == second.read_bytes()
        assert blob.count(b"\r") == 0  # LF line endings
