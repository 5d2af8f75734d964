import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from annocamp import workersim
from annocamp.campaign import campaign_rows
from annocamp.costmodel import DEFAULT_TIME_MODEL, scale_base_for_duration, task_time
from annocamp.evaluate import aggregate, metrics, truth_matrix
from annocamp.seeding import id_keys
from annocamp.taxonomy import (
    load_taxonomy,
    partition_questions,
    singleton_taxonomy,
)
from annocamp.cli import sample_taxonomy_path
from annocamp.workersim import (
    DEFAULT_ANCHORS,
    EventTable,
    HARD_FRACTION_GRID,
    HARD_MULTIPLIER_GRID,
    AccuracyAnchor,
    ModifierSet,
    VideoTruth,
    Worker,
    WorkerBehavior,
    apply_modifiers,
    calibrate,
    default_behavior,
    easy_recall,
    fit_hard_mixture,
    fp_rate_from_precision,
    hard_pairs,
    load_truths,
    make_random_truth,
    mixture_union_recall,
    sample_worker_pool,
    simulate_block,
    slot_table,
)
from helpers import GAPPED_TAX, event_rows

NONE = ModifierSet()


def simulate_one(behavior, tax, video, seed, *, questions=None, worker=Worker("w0"),
                 gold_questions=(), subset_index=0):
    """One worker's task on one video, the questions in order and then one
    flagged event per gold duplicate: the one-row case of simulate_block."""
    questions = list(tax.questions if questions is None else questions)
    asked = [(q.id, False) for q in questions] + [(q.id, True) for q in gold_questions]
    positions, gold = zip(*((tax.position(i), g) for i, g in asked))
    rows = campaign_rows(tax, [video], [worker], behavior, seed)
    slots = slot_table(tax, rows, np.array([0]), np.array([subset_index]),
                       np.array([len(asked)]), np.array(positions), np.array(gold))
    return simulate_block(behavior, tax, NONE, seed, rows, slots, np.array([0]))


def perfect_behavior(qtop=52):
    return WorkerBehavior(
        recall_points=((1, 1.0), (qtop, 1.0)),
        fp_points=((1, 0.0), (qtop, 0.0)),
        qtop=qtop,
    )


def flat_behavior(r, f, qtop=52, **kwargs):
    return WorkerBehavior(
        recall_points=((1, r), (qtop, r)),
        fp_points=((1, f), (qtop, f)),
        qtop=qtop,
        **kwargs,
    )


# ---------------------------------------------------------------------------
# Calibration
# ---------------------------------------------------------------------------


def test_fp_rate_identity_against_direct_formula():
    # Independent restatement of the precision identity.
    r, p, g, qtop = 0.450, 0.864, 3.7, 52
    expected = r * g * (1 - p) / (p * (qtop - g))
    assert fp_rate_from_precision(r, p, g, qtop) == pytest.approx(expected, rel=1e-12)
    assert fp_rate_from_precision(r, p, g, qtop) == pytest.approx(0.00543, abs=5e-5)


def test_fp_rate_monte_carlo_cross_check():
    # Workers marking positives at r and negatives at f must reproduce the
    # measured precision; estimated by direct simulation of the identity.
    r, p, g, qtop = 0.450, 0.864, 3.7, 52
    f = fp_rate_from_precision(r, p, g, qtop)
    rng = np.random.default_rng(77)
    videos = 40000
    positives = rng.random((videos, qtop)) < g / qtop
    said_yes = np.where(
        positives, rng.random((videos, qtop)) < r, rng.random((videos, qtop)) < f
    )
    tp = np.logical_and(said_yes, positives).sum()
    precision = tp / said_yes.sum()
    assert precision == pytest.approx(p, abs=0.01)


def test_fp_rate_edge_cases():
    assert fp_rate_from_precision(0.5, 1.0, 3.7, 52) == 0.0
    with pytest.raises(ValueError):
        fp_rate_from_precision(0.5, 0.0, 3.7, 52)
    with pytest.raises(ValueError):
        fp_rate_from_precision(0.5, 0.8, 0.0, 52)


def test_calibrate_rejects_degenerate_anchors():
    with pytest.raises(ValueError):
        calibrate([DEFAULT_ANCHORS[0]])
    with pytest.raises(ValueError):
        calibrate([DEFAULT_ANCHORS[0], DEFAULT_ANCHORS[0]])


def test_anchor_validation():
    with pytest.raises(ValueError):
        AccuracyAnchor(k=1, recall=1.2, precision=0.8, iteration_minutes=1.0)
    with pytest.raises(ValueError):
        AccuracyAnchor(k=1, recall=0.5, precision=0.8, iteration_minutes=0.0)


def test_calibrated_curves_interpolate_anchors():
    b = default_behavior()
    assert b.recall(1) == pytest.approx(0.563)
    assert b.recall(52) == pytest.approx(0.450)
    mid = b.recall(26)
    assert 0.450 < mid < 0.563
    assert b.precision(52) == pytest.approx(0.864, abs=1e-9)
    assert b.precision(1) == pytest.approx(0.810, abs=1e-9)
    assert b.observed_iteration_minutes(52) == pytest.approx(1.10)
    assert b.observed_iteration_minutes(26) is None


# ---------------------------------------------------------------------------
# Difficulty mixture
# ---------------------------------------------------------------------------


def test_mixture_preserves_single_pass_recall():
    for h, m in [(0.0, 0.0), (0.1, 0.0), (0.2, 0.3), (0.05, 0.9)]:
        assert mixture_union_recall(0.45, 1, h, m) == pytest.approx(0.45, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(
    r=st.floats(0.0, 1.0),
    h=st.floats(0.0, 0.5),
    m=st.floats(0.0, 1.0),
)
def test_mixture_union_recall_monotone_and_anchored(r, h, m):
    # The easy-pair rate is not clipped at 1, so one pass recovers r exactly.
    assume(r <= (1.0 - h) + h * m)
    assert mixture_union_recall(r, 1, h, m) == pytest.approx(r, abs=1e-12)
    values = [mixture_union_recall(r, n, h, m) for n in range(1, 30)]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
    assert values[-1] <= 1.0 + 1e-12


def test_mixture_reduces_to_independence_when_h_zero():
    for n in range(1, 8):
        assert mixture_union_recall(0.45, n, 0.0, 0.0) == pytest.approx(
            1 - 0.55**n, abs=1e-12
        )


def test_fit_hard_mixture_hits_reference_points():
    b = fit_hard_mixture(default_behavior())
    assert b.hard_fraction > 0
    r3 = mixture_union_recall(0.45, 3, b.hard_fraction, b.hard_recall_multiplier)
    r5 = mixture_union_recall(0.45, 5, b.hard_fraction, b.hard_recall_multiplier)
    assert r3 == pytest.approx(0.767, abs=0.005)
    assert r5 == pytest.approx(0.853, abs=0.005)
    # Independence overshoots the same points.
    assert 1 - 0.55**3 > 0.767 + 0.02
    assert 1 - 0.55**5 > 0.853 + 0.02


def test_the_fit_runs_once_for_each_recall_and_targets():
    # The grid search is kept per process by (recall(qtop), targets): the
    # same pair is looked up, and other targets (a list, as a config's JSON
    # gives them) or another anchored recall get a search of their own.
    workersim._fit_grid.cache_clear()
    default = fit_hard_mixture(default_behavior())
    assert fit_hard_mixture(default_behavior()) == default
    other = fit_hard_mixture(default_behavior(), targets=[[3, 0.8]])
    anchors = (DEFAULT_ANCHORS[0], replace(DEFAULT_ANCHORS[1], recall=0.4))
    lower = fit_hard_mixture(calibrate(anchors))
    assert workersim._fit_grid.cache_info()[:2] == (1, 3)  # hits, misses
    assert 0 < other.hard_fraction < default.hard_fraction
    assert (lower.hard_fraction, lower.hard_recall_multiplier) != (
        default.hard_fraction, default.hard_recall_multiplier)
    # Each is what a fresh search gives.
    workersim._fit_grid.cache_clear()
    assert fit_hard_mixture(default_behavior(), targets=((3, 0.8),)) == other
    assert fit_hard_mixture(calibrate(anchors)) == lower


def test_mixture_without_easy_mass_finds_nothing():
    # h = 1, m = 0 leaves no detectable pair: the easy-recall denominator is 0.
    assert easy_recall(0.5, 1.0, 0.0) == 0.0
    assert mixture_union_recall(0.5, 3, 1.0, 0.0) == 0.0
    assert easy_recall(0.5, np.array([0.0, 1.0]), 0.0).tolist() == [0.5, 0.0]


def _fit_by_loop(r, targets):
    """The grid search as a loop over scalars, first strict improvement by
    more than 1e-15 kept: the reference for the vectorized fit."""
    best = (math.inf, 0.0, 0.0)
    for h in HARD_FRACTION_GRID.tolist():
        for m in HARD_MULTIPLIER_GRID.tolist():
            denom = (1.0 - h) + h * m
            r_easy = min(1.0, r / denom) if denom > 0 else 0.0
            sse = sum(
                ((1.0 - h) * (1.0 - (1.0 - r_easy) ** n)
                 + h * (1.0 - (1.0 - m * r_easy) ** n) - target) ** 2
                for n, target in targets
            )
            if sse < best[0] - 1e-15:
                best = (sse, h, m)
    return best[1:]


@settings(max_examples=30, deadline=None)
@given(
    r=st.floats(0.0, 1.0),
    targets=st.lists(st.tuples(st.integers(1, 10), st.floats(0.0, 1.0)), max_size=3),
)
@example(r=1.192092896e-07, targets=[(3, 1.0), (3, 1.0)])  # errors within 1e-15 of the least
def test_fit_hard_mixture_matches_grid_loop(r, targets):
    behavior = WorkerBehavior(recall_points=((52, r),), fp_points=((52, 0.01),))
    fitted = fit_hard_mixture(behavior, targets=targets)
    assert (fitted.hard_fraction, fitted.hard_recall_multiplier) == _fit_by_loop(r, targets)


def test_mixture_union_converges_to_reachable_mass():
    # With undetectable hard pairs the union saturates at 1 - h.
    h = 0.2
    assert mixture_union_recall(0.45, 400, h, 0.0) == pytest.approx(1 - h, abs=1e-9)
    # A nonzero hard multiplier eventually recovers everything.
    assert mixture_union_recall(0.45, 2000, h, 0.1) == pytest.approx(1.0, abs=1e-6)


def test_hard_pairs_shared_across_workers():
    flags = [hard_pairs(9, id_keys(["v1"]), [3], 0.3)[0, 0] for _ in range(5)]
    assert len(set(flags)) == 1
    mask = hard_pairs(9, id_keys(f"v{i}" for i in range(2000)), range(7), 0.3)
    froze = mask[np.arange(2000), np.arange(2000) % 7]
    assert froze.mean() == pytest.approx(0.3, abs=0.05)
    assert not hard_pairs(9, id_keys(["v1"]), [3], 0.0)[0, 0]


# ---------------------------------------------------------------------------
# Modifiers
# ---------------------------------------------------------------------------


def test_apply_modifiers_identity():
    # Exact: the planner and the simulator read the unmodified operating
    # point through apply_modifiers.
    b = default_behavior()
    for k in (1, 3, 26, 52):
        adj = apply_modifiers(b, NONE, k)
        assert adj.recall == b.recall(k)
        assert adj.fp_rate == b.fp_rate(k)
        assert adj.time_ratio == 1.0
        assert adj.extra_seconds == 0.0


def test_positive_bias_recall_ratio_few_questions():
    b = default_behavior()
    adj = apply_modifiers(b, ModifierSet(positive_bias=True), 3)
    assert adj.recall / b.recall(3) == pytest.approx(57.9 / 53.2, rel=1e-9)
    assert adj.time_ratio == pytest.approx(3.6 / 4.6)


def test_forced_response_time_ratio_many_questions():
    b = default_behavior()
    adj = apply_modifiers(b, ModifierSet(forced_response=True), 26)
    assert adj.time_ratio == pytest.approx(2.2 / 1.6)
    assert adj.recall / b.recall(26) == pytest.approx(55.7 / 63.3, rel=1e-9)


def test_summary_prompt_adds_flat_time():
    b = default_behavior()
    adj = apply_modifiers(b, ModifierSet(summary_prompt=True), 52)
    assert adj.extra_seconds == 36.0
    assert adj.time_ratio == pytest.approx(1.0)


def test_modifier_undefined_for_regime():
    b = default_behavior()
    with pytest.raises(ValueError, match="many-question"):
        apply_modifiers(b, ModifierSet(positive_bias=True), 26)
    with pytest.raises(ValueError, match="few-question"):
        apply_modifiers(b, ModifierSet(summary_prompt=True), 3)


def test_modifier_precision_feeds_fp_rate():
    b = default_behavior()
    adj = apply_modifiers(b, ModifierSet(grouping=True), 3)
    p_adj = min(1.0, b.precision(3) * (81.4 / 77.7))
    expected_f = fp_rate_from_precision(adj.recall, p_adj, b.prevalence, b.qtop)
    assert adj.fp_rate == pytest.approx(expected_f, rel=1e-9)


def test_modifier_label():
    assert NONE.label() == "none"
    assert ModifierSet(positive_bias=True, grouping=True).label() == "bias+group"


# ---------------------------------------------------------------------------
# Task simulation
# ---------------------------------------------------------------------------


def test_perfect_worker_reproduces_truth():
    tax = load_taxonomy(sample_taxonomy_path())
    truth = VideoTruth(video_id="v0", labels=frozenset({0, 1, 57, 140}))
    events = simulate_one(perfect_behavior(), tax, truth, seed=5)
    found = set()
    for _, _, question, members, _, _, _ in event_rows(events, tax):
        gate_should_fire = any(m in truth.labels for m in tax.question(question).members)
        assert bool(members) == gate_should_fire
        found |= set(members)
    assert found == set(truth.labels)


def test_blind_worker_marks_nothing():
    tax = singleton_taxonomy(20)
    truth = VideoTruth(video_id="v0", labels=frozenset({1, 2, 3}))
    blind = flat_behavior(0.0, 0.0, qtop=20)
    events = simulate_one(blind, tax, truth, seed=5)
    assert not events.gate.any() and not events.members.any()
    assert len(events) == 20


def test_simulate_task_determinism():
    tax = singleton_taxonomy(52)
    truth = VideoTruth(video_id="v9", labels=frozenset({4, 9, 31}))
    b = default_behavior()
    a = simulate_one(b, tax, truth, seed=123)
    c = simulate_one(b, tax, truth, seed=123)
    d = simulate_one(b, tax, truth, seed=124)
    assert a == c
    assert a != d
    e = simulate_one(b, tax, truth, seed=123, subset_index=1)
    assert a != e


def test_simulated_recall_monotone_in_r():
    tax = singleton_taxonomy(52)
    truths = make_random_truth(3000, 52, 3.7, seed=1)
    truth = truth_matrix(truths, 52)
    recalls = []
    for r in (0.3, 0.5):
        b = flat_behavior(r, 0.005)
        # Every task is simulate_one's one-video case of this block.
        n = len(truths)
        rows = campaign_rows(tax, truths, [Worker("w0")], b, 77)
        slots = slot_table(tax, rows, np.arange(n), np.zeros(n, dtype=np.int64),
                           np.full(n, 52), np.tile(np.arange(52), n), np.zeros(52 * n, bool))
        events = simulate_block(b, tax, NONE, 77, rows, slots, np.zeros(n, int))
        scored = metrics(aggregate(events, tax).binary(1), truth)
        recalls.append(scored.recall)
    assert recalls[1] > recalls[0]


def test_event_timing_scales_with_duration(monkeypatch):
    # One task per video: under the log-normal noise (sigma 0.25) the 55-s
    # task comes out shorter than the 10-s one for about a fifth of all
    # streams, so the noise is switched off and the scaled model checked.
    monkeypatch.setattr(workersim, "ELAPSED_SIGMA", 0.0)
    tax = singleton_taxonomy(52)
    b = default_behavior()
    short = VideoTruth(video_id="s", duration_seconds=10.0, labels=frozenset({1}))
    long = VideoTruth(video_id="l", duration_seconds=55.0, labels=frozenset({1}))
    quick = sum(simulate_one(b, tax, short, seed=3).elapsed.tolist())
    slow = sum(simulate_one(b, tax, long, seed=3).elapsed.tolist())
    for seconds, duration in ((quick, 10.0), (slow, 55.0)):
        model = scale_base_for_duration(DEFAULT_TIME_MODEL, duration)
        assert seconds == pytest.approx(task_time(model, 52), rel=1e-12)
    assert slow > quick


def test_gold_questions_emitted_and_flagged():
    tax = singleton_taxonomy(52)
    truth = VideoTruth(video_id="v1", labels=frozenset({2}))
    b = perfect_behavior()
    gold = [tax.question(2), tax.question(2)]
    events = simulate_one(b, tax, truth, seed=1, gold_questions=gold)
    assert events.gold.sum() == 2
    assert events.gate[events.gold].all()
    assert (~events.gold).sum() == 52


def select_members_loop(probs, draws) -> int:
    """The sequential scheme one member at a time: the members mask of one gate."""
    n = len(probs)
    tail = [1.0] * (n + 1)
    for i in range(n - 1, -1, -1):
        tail[i] = tail[i + 1] * (1.0 - probs[i])
    mask = 0
    for i in range(n):
        if mask:
            take = draws[i] < probs[i]
        else:
            none_later = 1.0 - tail[i]
            take = draws[i] < probs[i] / none_later if none_later > 0 else i == n - 1
        mask |= int(take) << i
    return mask


probability = st.one_of(st.sampled_from([0.0, 1e-300, 0.5, 1.0]), st.floats(0.0, 1.0))
member = st.tuples(probability, st.floats(0.0, 1.0, exclude_max=True))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(member, min_size=2, max_size=6), min_size=1, max_size=8))
def test_select_members_matches_the_loop(rows):
    width = max(map(len, rows))
    probs, u = np.zeros((len(rows), width)), np.full((len(rows), width), 0.5)
    for i, row in enumerate(rows):
        probs[i, : len(row)], u[i, : len(row)] = zip(*row)
    count = np.array([len(row) for row in rows])
    expected = [select_members_loop(*zip(*row)) for row in rows]
    assert workersim._select_members(probs, u, count).tolist() == expected


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32), k=st.sampled_from([1, 5, 7, 52]), data=st.data())
def test_block_equals_its_split_into_runs(seed, k, data):
    # Tasks of the plan's subsets, mixed sizes and gold duplicates included,
    # answered by a pool with spammers: one call equals the concatenated
    # calls over any split of the tasks into consecutive runs (HITs,
    # subsets, or the blocks of a bounded loop).
    tax = load_taxonomy(sample_taxonomy_path())
    b = fit_hard_mixture(default_behavior())
    pool = sample_worker_pool(6, b, 0.5, seed)
    n = data.draw(st.integers(1, 8), label="tasks")
    truths = make_random_truth(n, tax.label_count, 3.7, seed, min_labels=1)
    subsets = partition_questions(tax, k, seed)
    subset = np.array(data.draw(st.lists(st.integers(0, len(subsets) - 1), min_size=n,
                                         max_size=n), label="subsets"))
    tasks = []
    for truth, s in zip(truths, subset.tolist()):
        positives = [p for p, q in enumerate(tax.questions) if truth.labels & set(q.members)]
        gold = data.draw(st.lists(st.sampled_from(positives), max_size=3), label="gold")
        slots = [(q, False) for q in subsets[s]] + [(q, True) for q in gold]
        tasks.append(data.draw(st.permutations(slots), label="slots"))
    question, gold = map(np.array, zip(*(s for task in tasks for s in task)))
    durations = data.draw(st.lists(st.sampled_from([10.0, 30.1, 55.0]), min_size=n,
                                   max_size=n), label="durations")
    truths = [replace(t, duration_seconds=d) for t, d in zip(truths, durations)]
    rows = campaign_rows(tax, truths, pool, b, seed)
    iteration = data.draw(st.integers(0, 3))
    worker = np.array(data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=n,
                                         max_size=n), label="workers"))
    lengths = np.array([len(task) for task in tasks])
    offsets = np.concatenate([[0], np.cumsum(lengths)])

    def run(start, stop):
        at = slice(offsets[start], offsets[stop])
        slots = slot_table(tax, rows, np.arange(start, stop), subset[start:stop],
                           lengths[start:stop], question[at], gold[at])
        return simulate_block(b, tax, NONE, seed, rows, slots, worker[start:stop], iteration)

    cuts = data.draw(st.sets(st.integers(1, n - 1)) if n > 1 else st.just(set()), label="cuts")
    bounds = [0, *sorted(cuts), n]
    assert run(0, n) == EventTable.concat(run(a, z) for a, z in zip(bounds, bounds[1:]))


@pytest.mark.parametrize("worker, message", [
    ([0] * 43, "43 worker rows for the slot table's 44 tasks"),
    ([0] * 45, "45 worker rows for the slot table's 44 tasks"),
    ([0] * 40 + [1, 3, 2, 5], "task 41: worker row 3 is not in the pool's 3 rows"),
    ([0] * 7 + [-1] + [2] * 36, "task 7: worker row -1 is not in the pool's 3 rows"),
])
def test_block_checks_its_worker_rows(worker, message):
    # One row of the pool per task; a row of -1 would otherwise answer, and
    # be written, as the pool's last worker.
    tax = singleton_taxonomy(52)
    b = default_behavior()
    pool = [Worker(f"w{i}") for i in range(3)]
    rows = campaign_rows(tax, make_random_truth(44, 52, 3.7, seed=1), pool, b, 1)
    one = np.ones(44, dtype=np.int64)
    slots = slot_table(tax, rows, np.arange(44), 0 * one, one, 0 * one, np.zeros(44, bool))
    with pytest.raises(ValueError) as exc:
        simulate_block(b, tax, NONE, 1, rows, slots, np.array(worker))
    assert str(exc.value) == message


@pytest.mark.parametrize("tax", [load_taxonomy(sample_taxonomy_path()), GAPPED_TAX],
                         ids=["sample", "gapped"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_positive_slots_equal_a_loop_over_members(tax, data):
    # A slot is positive when its question has a member true for its video,
    # and hard-positive when every such member is a hard pair; gold slots
    # are classified too. The reference walks each slot's members.
    n = data.draw(st.integers(1, 4), label="videos")
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, tax.label_count - 1))
    true_pairs = data.draw(st.sets(pair, max_size=3 * n), label="truth")
    hard_set = data.draw(st.sets(st.sampled_from(sorted(true_pairs)) if true_pairs else pair)
                         | st.sets(pair, max_size=n), label="hard")
    truth, hard = np.zeros((2, n, tax.label_count), dtype=bool)
    for matrix, pairs in ((truth, true_pairs), (hard, hard_set)):
        matrix[tuple(np.array(sorted(pairs), dtype=np.int64).reshape(-1, 2).T)] = True
    video = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=6),
                               label="tasks"))
    # Questions drawn half the time among those with a true member.
    met = sorted({p for p, q in enumerate(tax.questions) for v, m in true_pairs if m in q.members})
    position = st.integers(0, tax.question_count - 1)
    slot = st.tuples(st.sampled_from(met) | position if met else position, st.booleans())
    tasks = [data.draw(st.lists(slot, min_size=1, max_size=5), label="slots") for _ in video]
    tasks = [[(task[0][0], False), *task[1:]] for task in tasks]  # a non-gold slot first
    question, gold = (np.array(c) for c in zip(*(s for task in tasks for s in task)))
    rows = campaign_rows(tax, [VideoTruth(f"v{i}") for i in range(n)], [Worker("w0")],
                         default_behavior(), 0)._replace(truth=truth, hard=hard)
    slots = slot_table(tax, rows, video, np.zeros(len(video), np.int64),
                       np.array(list(map(len, tasks))), question, gold)
    slot_video = [v for v, task in zip(video.tolist(), tasks) for _ in task]
    positive, hard_positive = [], []
    for i, (v, p) in enumerate(zip(slot_video, question.tolist())):
        true = [m for m in tax.questions[p].members if truth[v, m]]
        if true:
            positive.append(i)
            if all(hard[v, m] for m in true):
                hard_positive.append(i)
    assert slots.positive.tolist() == positive
    assert slots.hard_positive.tolist() == hard_positive


# ---------------------------------------------------------------------------
# Worker pool
# ---------------------------------------------------------------------------


def test_worker_pool_all_honest():
    pool = sample_worker_pool(20, default_behavior(), 0.0, seed=4)
    assert len(pool) == 20
    assert not any(w.spammer for w in pool)
    assert all(0.9 <= w.recall_scale <= 1.1 for w in pool)


def test_worker_pool_spammer_quota():
    pool = sample_worker_pool(100, default_behavior(), 0.05, seed=4)
    again = sample_worker_pool(100, default_behavior(), 0.05, seed=4)
    assert pool == again
    assert sum(w.spammer for w in pool) == 5  # 100 * 0.05 is exact
    fractional = sample_worker_pool(10, default_behavior(), 0.25, seed=4)
    assert sum(w.spammer for w in fractional) in (2, 3)


def test_worker_pool_fraction_validation():
    with pytest.raises(ValueError):
        sample_worker_pool(10, default_behavior(), 1.5, seed=0)


@pytest.mark.parametrize("n", [0, -3])
def test_worker_pool_needs_a_worker(n):
    with pytest.raises(ValueError, match="at least one worker"):
        sample_worker_pool(n, default_behavior(), 0.0, seed=0)


def test_spammer_gold_recall_is_half():
    tax = singleton_taxonomy(52)
    spammer = Worker("spam", spammer=True, time_scale=0.2)
    b = default_behavior()
    hits = trials = 0
    for i in range(80):
        truth = VideoTruth(video_id=f"v{i}", labels=frozenset(range(10)))
        events = simulate_one(
            b,
            tax,
            truth,
            seed=50,
            questions=tax.questions[:10],
            worker=spammer,
            gold_questions=[tax.question(j) for j in range(5)],
        )
        trials += int(events.gold.sum())
        hits += int(events.gate[events.gold].sum())
    se = (0.25 / trials) ** 0.5
    assert hits / trials == pytest.approx(0.5, abs=4 * se)


# ---------------------------------------------------------------------------
# Ground truth plumbing
# ---------------------------------------------------------------------------


def test_make_random_truth_prevalence():
    truths = make_random_truth(4000, 52, 3.7, seed=2)
    mean = np.mean([len(t.labels) for t in truths])
    assert mean == pytest.approx(3.7, abs=0.15)
    forced = make_random_truth(500, 52, 3.7, seed=2, min_labels=1)
    assert all(len(t.labels) >= 1 for t in forced)


def test_make_random_truth_rejects_unreachable_min_labels():
    with pytest.raises(ValueError, match="min_labels 6 exceeds label_count 5"):
        make_random_truth(3, 5, 1.0, seed=0, min_labels=6)


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(0, 20),
    m=st.integers(0, 20),
    seed=st.integers(0, 2**32 - 1),
    min_labels=st.integers(0, 4),
)
def test_make_random_truth_is_a_prefix_of_a_longer_draw(n, m, seed, min_labels):
    longer = make_random_truth(n + m, 52, 3.7, seed, min_labels=min_labels)
    assert make_random_truth(n, 52, 3.7, seed, min_labels=min_labels) == longer[:n]


def test_load_truths_reads_every_field(tmp_path):
    truths = [
        VideoTruth(video_id="a", duration_seconds=20.0, labels=frozenset({1, 5})),
        VideoTruth(video_id="b", duration_seconds=42.0, labels=frozenset()),
        VideoTruth(video_id="7"),
    ]
    path = tmp_path / "truths.jsonl"
    path.write_text(
        '{"video": "a", "duration": 20, "labels": [5, 1]}\n'
        '\n{"video": "b", "duration": 42.0, "labels": []}\n{"video": "7"}\n'
    )
    assert load_truths(path) == truths


@pytest.mark.parametrize("video", ["null", "5", '["a"]', "true"])
def test_load_truths_rejects_a_video_id_that_is_not_a_string(tmp_path, video):
    path = tmp_path / "ids.jsonl"
    path.write_text(f'{{"video": "b"}}\n{{"video": {video}}}\n')
    with pytest.raises(ValueError) as exc:
        load_truths(path)
    shown = repr(json.loads(video))
    assert str(exc.value) == f"{path}: line 2: video must be a string, got {shown}"


def test_load_truths_parses_a_rewritten_file_again(tmp_path):
    # The parse is memoized on the file's text, not on its path; each call
    # returns a list of its own.
    path = tmp_path / "truths.jsonl"
    path.write_text('{"video": "a", "labels": [1]}\n')
    first = load_truths(path)
    first.append(VideoTruth("appended"))
    assert load_truths(path) == [VideoTruth("a", labels=frozenset({1}))]
    path.write_text('{"video": "b"}\n{"video": "c", "duration": 12}\n')
    assert load_truths(path) == [VideoTruth("b"), VideoTruth("c", 12.0)]


def test_load_truths_error_names_the_path_of_each_call(tmp_path):
    path, other = tmp_path / "truths.jsonl", tmp_path / "other.jsonl"
    path.write_text('{"video": "a"}\n')
    load_truths(path)
    for broken in (path, other):
        broken.write_text('{"video": "a"}\n{"video": "a"}\n')
        with pytest.raises(ValueError) as exc:
            load_truths(broken)
        assert str(exc.value) == f"{broken}: line 2: video 'a' repeats line 1"


def test_load_truths_reports_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"video": "a", "labels": [1]}\n{"duration": 5}\n')
    with pytest.raises(ValueError, match="line 2"):
        load_truths(path)


def test_load_truths_rejects_a_repeated_video(tmp_path):
    path = tmp_path / "twice.jsonl"
    path.write_text('{"video": "a"}\n{"video": "b"}\n\n{"video": "a", "labels": [1]}\n')
    with pytest.raises(ValueError) as exc:
        load_truths(path)
    assert str(exc.value) == f"{path}: line 4: video 'a' repeats line 1"


def test_load_truths_rejects_a_carriage_return_in_an_id(tmp_path):
    path = tmp_path / "cr.jsonl"
    path.write_text('{"video": "a"}\n{"video": "v\\r1"}\n')
    with pytest.raises(ValueError) as exc:
        load_truths(path)
    assert str(exc.value) == f"{path}: line 2: video id 'v\\r1' holds a carriage return"


@pytest.mark.parametrize(
    "line, reason",
    [
        ('{"video": "a", "segments": {"1": [[2, 8.5]]}}', "unknown key 'segments'"),
        ('{"video": "a", "lables": [1]}', "unknown key 'lables'"),
        ('["a", 30.1, [1]]', "not a JSON object"),
    ],
    ids=["segments", "typo", "array"],
)
def test_load_truths_rejects_keys_it_does_not_read(tmp_path, line, reason):
    path = tmp_path / "keys.jsonl"
    path.write_text(f'{{"video": "b"}}\n{line}\n')
    with pytest.raises(ValueError) as exc:
        load_truths(path)
    assert str(exc.value) == f"{path}: line 2: {reason}"


@pytest.mark.parametrize("duration", ["0", "-1", "NaN", "Infinity", "-Infinity", "1e999"])
def test_load_truths_rejects_a_duration_that_is_not_finite_and_positive(tmp_path, duration):
    path = tmp_path / "duration.jsonl"
    path.write_text(f'{{"video": "b"}}\n{{"video": "a", "duration": {duration}}}\n')
    with pytest.raises(ValueError) as exc:
        load_truths(path)
    shown = float(duration)
    assert str(exc.value) == (
        f"{path}: line 2: video 'a': duration must be finite and positive, got {shown}"
    )


@pytest.mark.parametrize("duration", ["true", "false", '"40"', "null", "[5]"])
def test_load_truths_rejects_a_duration_that_is_not_a_number(tmp_path, duration):
    path = tmp_path / "duration.jsonl"
    path.write_text(f'{{"video": "b"}}\n{{"video": "a", "duration": {duration}}}\n')
    with pytest.raises(ValueError) as exc:
        load_truths(path)
    shown = repr(json.loads(duration))
    assert str(exc.value) == f"{path}: line 2: video 'a': duration must be a number, got {shown}"


def test_load_truths_names_a_missing_video_key(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text('{"duration": 5}\n')
    with pytest.raises(ValueError) as exc:
        load_truths(path)
    assert str(exc.value) == f"{path}: line 1: missing key 'video'"


def test_load_truths_reports_a_duration_too_large_for_a_float(tmp_path):
    path = tmp_path / "duration.jsonl"
    path.write_text(f'{{"video": "a", "duration": 1{"0" * 400}}}\n')
    with pytest.raises(ValueError, match=r"line 1: int too large to convert to float"):
        load_truths(path)


@pytest.mark.parametrize("labels", ['"12"', "[1.7, true]", "[true]", "[1, 2.0]", "{}", "null"])
def test_load_truths_rejects_labels_that_are_not_an_array_of_integers(tmp_path, labels):
    path = tmp_path / "labels.jsonl"
    path.write_text(f'{{"video": "b", "labels": [3]}}\n{{"video": "a", "labels": {labels}}}\n')
    with pytest.raises(ValueError) as exc:
        load_truths(path)
    assert str(exc.value) == f"{path}: line 2: video 'a': labels must be an array of integers"


def test_concat_of_one_table_is_that_table():
    def table(worker_ids, rows=2):
        columns = [np.zeros(rows, int)] * 3 + [np.zeros(rows, np.uint64), np.ones(rows),
                                               np.zeros(rows, int), np.zeros(rows, bool)]
        return EventTable(worker_ids, ("v0",), *columns)

    t = table(("w0",))
    assert EventTable.concat([t]) is t
    assert EventTable.concat(iter([t])) is t
    assert len(EventTable.concat([t, table(("w0",), 3)])) == 5
    for tables in ([t, table(("w1",))], [t, t, table(("w0", "w1"))]):
        with pytest.raises(ValueError, match="different vocabularies"):
            EventTable.concat(tables)
