import contextlib
import csv
import dataclasses
import errno
import io
import itertools
import logging
import math
import mmap
import statistics
import tracemalloc
import types
from collections import Counter
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from annocamp import campaign
from annocamp.campaign import (
    HIT_ID,
    Hits,
    QcThresholds,
    WorkerStats,
    assign_workers,
    build_verification_queue,
    campaign_rows,
    ingest,
    pack_hits,
    qc_flag,
    reproduce,
    run_campaign,
    sidecar_path,
    simulate_campaign,
    worker_stats_from_events,
    write_events_csv,
)
from annocamp.costmodel import (DEFAULT_TIME_MODEL, HitBudget, TimeModel, scale_base_for_duration,
                                task_time, videos_per_hit)
from annocamp.evaluate import LabelMatrix, aggregate, group_ids, metrics
from annocamp.planner import FEW_QUESTION_BUNDLE, BudgetConstraint, InfeasiblePlanError, optimize
from annocamp.cli import sample_taxonomy_path
from annocamp.seeding import draw_key, fold, id_key, id_keys, key_order, order, uniforms
from annocamp.taxonomy import (
    Taxonomy,
    load_taxonomy,
    partition_questions,
    question_positive,
    singleton_taxonomy,
)
from annocamp.workersim import (
    DEFAULT_PREVALENCE,
    EVENT_FIELDS,
    EventTable,
    ModifierSet,
    VideoTruth,
    Worker,
    default_behavior,
    fit_hard_mixture,
    make_random_truth,
    regime,
    sample_worker_pool,
    simulate_block,
    slot_table,
)
from helpers import event_rows

NONE = ModifierSet()
BIAS = ModifierSet(positive_bias=True)


@pytest.fixture(scope="module")
def tax():
    return singleton_taxonomy(52)


@pytest.fixture(scope="module")
def sample_tax():
    return load_taxonomy(sample_taxonomy_path())


@pytest.fixture(scope="module")
def behavior():
    return default_behavior()


# ---------------------------------------------------------------------------
# Packing
# ---------------------------------------------------------------------------


def task_slots(hits, tax):
    """Per task: (HIT number, video id, base question ids in the order asked,
    gold question ids in the order asked)."""
    ends = np.cumsum(hits.lengths).tolist()
    question, gold = tax.question_ids[hits.question].tolist(), hits.gold.tolist()
    for hit, video, start, end in zip(hits.hit.tolist(), hits.video.tolist(), [0, *ends], ends):
        slots = list(zip(question[start:end], gold[start:end]))
        base = tuple(q for q, g in slots if not g)
        yield hit, hits.video_ids[video], base, tuple(q for q, g in slots if g)


def base_orders(hits, tax):
    """Per HIT: the base question orders of its videos, in task order."""
    orders = [[] for _ in range(len(hits))]
    for hit, _, base, _ in task_slots(hits, tax):
        orders[hit].append(base)
    return orders


def slot_counts(hits):
    """Per HIT: (base slots, gold slots)."""
    slot_hit = np.repeat(hits.hit, hits.lengths)
    gold = np.bincount(slot_hit[hits.gold], minlength=len(hits))
    base = np.bincount(slot_hit, minlength=len(hits)) - gold
    return list(zip(base.tolist(), gold.tolist()))


def known_matrix(tax, video_ids, known_positives):
    """The (videos x questions) matrix of known positives, from each video's
    known positive question ids (a video may have none, or no entry)."""
    known = np.zeros((len(video_ids), tax.question_count), dtype=bool)
    for row, video in enumerate(video_ids):
        known[row, list(map(tax.position, known_positives.get(video, ())))] = True
    return known


def known_by_id(tax, video_ids, known):
    """Each video's known positive question ids, in taxonomy order: the
    reference packers' form of a known-positives matrix."""
    return {v: tax.question_ids[row].tolist() for v, row in zip(video_ids, known)}


def subset_ids(tax, subsets):
    """The question ids of each subset of positions."""
    return [tax.question_ids[list(subset)].tolist() for subset in subsets]


def test_pack_reference_counts(tax):
    videos = [f"v{i}" for i in range(140)]
    plan = partition_questions(tax, 52, seed=0)
    hits = pack_hits(tax, videos, plan, HitBudget(), DEFAULT_TIME_MODEL, seed=0)
    assert len(hits) == 70
    assert np.bincount(hits.hit).tolist() == [2] * 70
    assert hits.pay == 0.40


def test_pack_conservation(tax):
    videos = [f"v{i}" for i in range(30)]
    plan = partition_questions(tax, 7, seed=1)
    hits = pack_hits(tax, videos, plan, HitBudget(), DEFAULT_TIME_MODEL, seed=1)
    subsets = subset_ids(tax, plan)
    seen = {}
    for hit, video, base, _ in task_slots(hits, tax):
        subset = set(subsets[hits.subset[hit]])
        assert set(base) == subset
        for qid in base:
            key = (video, qid)
            assert key not in seen, f"{key} packed twice"
            seen[key] = hits.hit_ids[hit]
    assert len(seen) == 30 * 52


def test_pack_grouping_shares_question_order(tax):
    videos = [f"v{i}" for i in range(20)]
    plan = partition_questions(tax, 10, seed=2)
    hits = pack_hits(tax, videos, plan, HitBudget(), DEFAULT_TIME_MODEL, seed=2, grouping=True)
    for orders in base_orders(hits, tax):
        assert len(set(orders)) == 1
    loose = pack_hits(tax, videos, plan, HitBudget(), DEFAULT_TIME_MODEL, seed=2)
    mixed = [len(set(orders)) for orders in base_orders(loose, tax)]
    assert any(count > 1 for count in mixed)


def test_pack_expected_time_bound_on_full_hits(tax):
    budget = HitBudget()
    videos = [f"v{i}" for i in range(72)]  # divisible by 2, 3, 4, 6, 8, 9
    for k in (1, 4, 9, 18, 52):
        plan = partition_questions(tax, k, seed=3)
        hits = pack_hits(tax, videos, plan, budget, DEFAULT_TIME_MODEL, seed=3)
        for subset_index, seconds, count in zip(
            hits.subset.tolist(), hits.expected_seconds.tolist(), np.bincount(hits.hit).tolist()
        ):
            size = len(plan[subset_index])
            per_video = task_time(DEFAULT_TIME_MODEL, size)
            full = count == int(budget.target_seconds // per_video)
            assert seconds <= budget.target_seconds + 1e-9
            if full:
                assert seconds > budget.target_seconds - per_video


def test_pack_positive_bias_fraction(tax):
    videos = [f"v{i}" for i in range(36)]
    known = known_matrix(tax, videos, {v: [0, 3] for v in videos})
    g = 3.7
    for k in (3, 26, 52):
        plan = partition_questions(tax, k, seed=4)
        hits = pack_hits(tax, videos, plan, HitBudget(), DEFAULT_TIME_MODEL, seed=4, known=known)
        for base, gold in slot_counts(hits):
            assert gold > 0
            expected_true = base * g / 52
            fraction = (expected_true + gold) / (base + gold)
            assert abs(fraction - 1 / 3) <= 0.05


def test_pack_gold_comes_from_known_positives(tax):
    videos = ["a", "b"]
    known_positives = {"a": [7], "b": [9]}
    plan = partition_questions(tax, 52, seed=5)
    hits = pack_hits(tax, videos, plan, HitBudget(), DEFAULT_TIME_MODEL, seed=5,
                     known=known_matrix(tax, videos, known_positives))
    assert len(hits) == 1
    for _, video, _, gold in task_slots(hits, tax):
        assert set(gold) <= set(known_positives[video])


def test_pack_errors(tax):
    plan = partition_questions(tax, 52, seed=0)
    with pytest.raises(ValueError, match="empty video list"):
        pack_hits(tax, [], plan, HitBudget(), DEFAULT_TIME_MODEL, seed=0)
    with pytest.raises(ValueError, match="no video has a known positive"):
        pack_hits(tax, ["a"], plan, HitBudget(), DEFAULT_TIME_MODEL, seed=0,
                  known=np.zeros((1, 52), dtype=bool))
    for shape in [(1, 52), (2, 51), (2,)]:
        with pytest.raises(ValueError) as exc:
            pack_hits(tax, ["a", "b"], plan, HitBudget(), DEFAULT_TIME_MODEL, seed=0,
                      known=np.ones(shape, dtype=bool))
        assert str(exc.value) == f"known has shape {shape}, not (2, 52)"


def test_pack_hits_rejects_a_repeated_video_id(tax):
    plan = partition_questions(tax, 52, seed=0)
    with pytest.raises(ValueError) as exc:
        pack_hits(tax, ["a", "b", "a", "b"], plan, HitBudget(), DEFAULT_TIME_MODEL, seed=0)
    assert str(exc.value) == "video 'a' is listed more than once"


@settings(max_examples=40, deadline=None)
@example(seed=0, k=5, grouping=True, positive_bias=True, known_lists=[[0, 3]] * 25)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 52),
    grouping=st.booleans(),
    positive_bias=st.booleans(),
    known_lists=st.lists(
        st.lists(st.integers(0, 51), min_size=1, max_size=4, unique=True),
        min_size=1,
        max_size=25,
    ),
)
def test_pack_properties(tax, seed, k, grouping, positive_bias, known_lists):
    videos = [f"v{i}" for i in range(len(known_lists))]
    known_positives = dict(zip(videos, known_lists))
    plan = partition_questions(tax, k, seed)
    hits = pack_hits(
        tax,
        videos,
        plan,
        HitBudget(),
        DEFAULT_TIME_MODEL,
        seed,
        grouping=grouping,
        known=known_matrix(tax, videos, known_positives) if positive_bias else None,
    )
    subsets = subset_ids(tax, plan)
    tasks = list(task_slots(hits, tax))
    subset_of = hits.subset.tolist()
    packed = [(video, subset_of[hit]) for hit, video, _, _ in tasks]
    # Each (video, subset) is packed exactly once.
    assert len(packed) == len(set(packed)) == len(videos) * len(plan)
    asked = {v: [] for v in videos}
    for hit, video, base, gold in tasks:
        subset = subsets[subset_of[hit]]
        assert sorted(base) == sorted(subset)
        asked[video].extend(base)
        # Gold slots come only from the video's known positives.
        assert set(gold) <= set(known_positives[video])
        if not positive_bias:
            assert gold == ()
    for hit, orders in enumerate(base_orders(hits, tax)):
        subset = subsets[subset_of[hit]]
        if grouping:
            # One shared base order per HIT, gold slots or not.
            assert len(set(orders)) == 1
        if grouping and len(subset) > 1:
            # The HIT's order is the draw keyed by its subset and chunk.
            chunk_index = int(hits.hit_ids[hit].rsplit("-", 1)[1])
            drawn = order(seed, subset, subset_of[hit], chunk_index, "order")
            assert orders[0] == tuple(subset[i] for i in drawn)
    # Each base question once per video.
    assert all(sorted(q) == list(range(52)) for q in asked.values())


class _Slot(NamedTuple):
    question_id: int
    gold: bool = False


def _pack_hits_loop(tax, video_ids, subsets, budget, model, seed, *, grouping=False, known=None,
                    prevalence=DEFAULT_PREVALENCE):
    """The packer as one loop over HITs, each HIT's slots built as tuples
    of question ids, from each video's known positives by id: (HIT id,
    subset index, video ids, slots per video, expected seconds)."""
    video_ids = list(video_ids)
    if not video_ids:
        raise ValueError("cannot pack an empty video list")
    positive_bias = known is not None
    known_positives = known_by_id(tax, video_ids, known) if positive_bias else None
    subsets = subset_ids(tax, subsets)
    qtop = sum(len(s) for s in subsets)
    video_keys = id_keys(video_ids)
    hits = []
    for subset_index, subset in enumerate(subsets):
        size = len(subset)
        per_hit = videos_per_hit(model, size, budget)
        packed = key_order(draw_key(seed, "pack", subset_index, video_keys))
        shuffled, shuffled_keys = [video_ids[i] for i in packed], video_keys[packed]
        subset_key = draw_key(seed, subset_index)
        in_order = tuple(_Slot(qid) for qid in subset)
        starts = range(0, len(shuffled), per_hit)
        if grouping and size > 1:
            chunk_keys = id_keys(range(len(starts)))[:, None]
            shared_orders = key_order(draw_key(seed, subset_index, chunk_keys, "order",
                                               id_keys(subset))).tolist()
        for chunk_index, chunk_start in enumerate(starts):
            chunk = shuffled[chunk_start : chunk_start + per_hit]
            hit_id = f"hit-{subset_index:03d}-{chunk_index:05d}"
            gold_by_video = {v: () for v in chunk}
            if positive_bias:
                base_slots = len(chunk) * size
                expected_pos = len(chunk) * prevalence * size / qtop
                duplicates = max(0, round((base_slots - 3.0 * expected_pos) / 2.0))
                donors = [v for v in chunk if known_positives.get(v)]
                if duplicates and not donors:
                    raise ValueError(f"{hit_id}: no video has a known positive to duplicate")
                for i in range(duplicates):
                    video = donors[i % len(donors)]
                    pool = known_positives[video]
                    slot = _Slot(pool[len(gold_by_video[video]) % len(pool)], True)
                    gold_by_video[video] += (slot,)
            base = in_order
            if grouping and size > 1:
                base = tuple(in_order[i] for i in shared_orders[chunk_index])
            slots = [base + gold_by_video[v] for v in chunk]
            shuffle = [len(e) > 1 and (len(e) > size or not grouping) for e in slots]
            if any(shuffle):
                width = np.arange(max(map(len, slots)))
                keys = shuffled_keys[chunk_start : chunk_start + per_hit]
                u = uniforms(fold(subset_key, keys, id_key("slots"))[:, None], width)
                u[width >= np.array([len(e) for e in slots])[:, None]] = 2.0
                orders = np.argsort(u, axis=1).tolist()
                for row, e in enumerate(slots):
                    if shuffle[row]:
                        placed = [e[i] for i in orders[row][: len(e)]]
                        if grouping:
                            shared = iter(base)
                            placed = [s if s.gold else next(shared) for s in placed]
                        slots[row] = tuple(placed)
            hits.append((hit_id, subset_index, tuple(chunk), tuple(slots),
                         len(chunk) * task_time(model, size)))
    return hits


def _packed_or_error(pack, *args, **kwargs):
    try:
        return pack(*args, **kwargs), None
    except ValueError as exc:
        return None, str(exc)


@settings(max_examples=60, deadline=None)
@example(seed=0, k=5, n=20, grouping=False, positive_bias=True, known_lists=[[3]] * 40,
         empty=set(range(1, 20))).via("a chunk with no donor")
@example(seed=0, k=5, n=60, grouping=True, positive_bias=True, known_lists=[[0, 3]] * 60,
         empty=set()).via("the grouping case of test_pack_properties")
@example(seed=0, k=52, n=5, grouping=True, positive_bias=True, known_lists=[[7, 9]] * 40,
         empty=set()).via("more gold slots than known positives")
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.sampled_from([1, 5, 7, 52]),
    n=st.integers(1, 40),
    grouping=st.booleans(),
    positive_bias=st.booleans(),
    known_lists=st.lists(
        st.lists(st.integers(0, 51), min_size=1, max_size=4, unique=True), min_size=40, max_size=40
    ),
    empty=st.sets(st.integers(0, 39), max_size=6),
)
def test_pack_columns_equal_the_hit_loop(sample_tax, seed, k, n, grouping, positive_bias,
                                         known_lists, empty):
    """The columns are the per-HIT loop's HITs, flattened: the same HITs,
    tasks and slots in the same order, or the same error."""
    videos = [f"v{i}" for i in range(n)]
    # The videos in `empty` have no known positive.
    known = known_matrix(sample_tax, videos, {v: known_lists[i] for i, v in enumerate(videos)
                                              if i not in empty})
    plan = partition_questions(sample_tax, k, seed)
    args = (sample_tax, videos, plan, HitBudget(), DEFAULT_TIME_MODEL, seed)
    kwargs = {"grouping": grouping, "known": known if positive_bias else None}
    loop, loop_error = _packed_or_error(_pack_hits_loop, *args, **kwargs)
    hits, error = _packed_or_error(pack_hits, *args, **kwargs)
    assert error == loop_error
    if error:
        return
    assert len(hits) == len(loop)
    assert hits.hit_ids == [h[0] for h in loop]
    assert hits.subset.tolist() == [h[1] for h in loop]
    assert hits.expected_seconds.tolist() == [h[4] for h in loop]
    assert hits.pay == HitBudget().pay_per_hit
    tasks = [(i, v, s) for i, h in enumerate(loop) for v, s in zip(h[2], h[3])]
    assert hits.hit.tolist() == [i for i, _, _ in tasks]
    assert [hits.video_ids[v] for v in hits.video.tolist()] == [v for _, v, _ in tasks]
    assert hits.lengths.tolist() == [len(s) for _, _, s in tasks]
    assert sample_tax.question_ids[hits.question].tolist() == [
        q.question_id for _, _, s in tasks for q in s]
    assert hits.gold.tolist() == [q.gold for _, _, s in tasks for q in s]


def _pack_hits_per_subset(
    tax: Taxonomy,
    video_ids,
    subsets,
    budget: HitBudget,
    model: TimeModel,
    seed: int,
    *,
    grouping: bool = False,
    known: np.ndarray | None = None,
    prevalence: float = DEFAULT_PREVALENCE,
) -> Hits:
    """The packer as one array program per question subset, in a loop over
    the subsets whose parts are joined at the end, on question ids and each
    video's known positives by id."""
    video_ids = tuple(video_ids)
    if not video_ids:
        raise ValueError("cannot pack an empty video list")
    if len(set(video_ids)) < len(video_ids):
        repeated = next(v for v, count in Counter(video_ids).items() if count > 1)
        raise ValueError(f"video {repeated!r} is listed more than once")
    positive_bias = known is not None
    subsets = subset_ids(tax, subsets)
    qtop = sum(len(s) for s in subsets)
    n = len(video_ids)
    video_keys = id_keys(video_ids)
    # Each video's known positives, as one flat array with offsets.
    pools = list(known_by_id(tax, video_ids, known).values()) if positive_bias else []
    pool_len = np.array(list(map(len, pools)), dtype=np.int64)
    pool_start = np.cumsum(pool_len) - pool_len
    pooled = np.array([q for pool in pools for q in pool], dtype=np.int64)
    parts = []
    for subset_index, subset in enumerate(subsets):
        size = len(subset)
        per_hit = videos_per_hit(model, size, budget)
        # Task t is the video packed[t] of chunk t // per_hit; the shuffle
        # order(seed, video_ids, "pack", subset_index) draws the packing.
        packed = key_order(draw_key(seed, "pack", subset_index, video_keys))
        chunk = np.arange(n) // per_hit
        chunk_len = np.bincount(chunk)
        chunks = len(chunk_len)
        # A task's slots are its base questions, then its gold duplicates.
        in_order = np.array(subset, dtype=np.int64)
        slots = np.broadcast_to(in_order, (n, size))
        if grouping and size > 1:
            # One question order shared by every video of a HIT: chunk c's is
            # order(seed, subset, subset_index, c, "order").
            chunk_keys = id_keys(range(chunks))[:, None]
            shared = key_order(draw_key(seed, subset_index, chunk_keys, "order", id_keys(subset)))
            slots = in_order[shared][chunk]
        lengths = np.full(n, size)
        if positive_bias:
            # A chunk's duplicates go round-robin over its donors (the videos
            # with known positives, in pack order); a video's j-th gold slot
            # repeats its known positive j modulo their count.
            expected_pos = chunk_len * prevalence * size / qtop
            duplicates = np.maximum(0, np.rint((chunk_len * size - 3.0 * expected_pos) / 2.0))
            duplicates = duplicates.astype(np.int64)
            donor = pool_len[packed] > 0
            donors = np.bincount(chunk[donor], minlength=chunks)
            empty = np.flatnonzero((duplicates > 0) & (donors == 0))
            if len(empty):
                hit_id = HIT_ID.format(subset_index, empty[0])
                raise ValueError(f"{hit_id}: no video has a known positive to duplicate")
            nth = np.cumsum(donor) - 1 - (np.cumsum(donors) - donors)[chunk]
            turns, extra = np.divmod(duplicates, np.maximum(donors, 1))
            golds = np.where(donor, turns[chunk] + (nth < extra[chunk]), 0)
            j = np.arange(golds.max())
            at = pool_start[packed][:, None] + j % np.maximum(pool_len[packed], 1)[:, None]
            slots = np.concatenate([slots, pooled[np.where(j < golds[:, None], at, 0)]], axis=1)
            lengths += golds
        # Slots are shuffled, the rows of all chunks at once, by argsort of
        # counter uniforms keyed by (seed, subset, video), the padding past a
        # row's end sorting last. Under grouping the shuffle only places the
        # gold slots, in their drawn order, and the base slots keep the
        # shared order; without gold slots it is skipped there.
        width = np.arange(slots.shape[1])
        placed, is_gold = slots, np.broadcast_to(width >= size, slots.shape)
        if len(width) > 1 and (len(width) > size or not grouping):
            keys = fold(draw_key(seed, subset_index), video_keys[packed], id_key("slots"))
            u = uniforms(keys[:, None], width)
            u[width >= lengths[:, None]] = 2.0
            perm = np.argsort(u, axis=1)
            placed, is_gold = np.take_along_axis(slots, perm, axis=1), perm >= size
            if grouping:
                rank = np.cumsum(~is_gold, axis=1) - 1
                placed = np.where(is_gold, placed, np.take_along_axis(slots, rank, axis=1))
        asked = width < lengths[:, None]
        parts.append({
            "subset": np.full(chunks, subset_index),
            "chunk": np.arange(chunks),
            "expected_seconds": chunk_len * task_time(model, size),
            "hit": sum(len(part["chunk"]) for part in parts) + chunk,
            "video": packed,
            "lengths": lengths,
            "question": placed[asked],
            "gold": is_gold[asked],
        })
    columns = {name: np.concatenate([part[name] for part in parts]) for name in parts[0]}
    # The slots as the taxonomy's positions.
    columns["question"] = np.array([tax.position(q) for q in columns["question"].tolist()],
                                   dtype=np.int64)
    return Hits(video_ids, pay=budget.pay_per_hit, **columns)


SUBSET_FIELDS = ("subset", "chunk", "expected_seconds", "hit", "video", "lengths", "question",
                 "gold")


def cut_plan(order, cuts):
    """Hand-built subsets: the question positions in `order`, cut into
    subsets of the sizes in `cuts`, so that sizes may repeat in any order."""
    positions = order.tolist()
    starts = np.cumsum([0, *cuts]).tolist()
    return tuple(tuple(positions[a:b]) for a, b in zip(starts, starts[1:]) if a < len(positions))


KNOWN = [[3, 9], [0], [51, 7, 12], [20]] * 8


@settings(max_examples=80, deadline=None)
@example(seed=0, k=52, n=1, cuts=None, grouping=True, positive_bias=True, known_lists=KNOWN,
         empty=set(), repeat=False).via("one video")
@example(seed=1, k=1, n=5, cuts=None, grouping=False, positive_bias=True, known_lists=KNOWN,
         empty=set(), repeat=False).via("per_hit above the video count")
@example(seed=2, k=5, n=30, cuts=None, grouping=True, positive_bias=True, known_lists=KNOWN,
         empty={0, 3, 7}, repeat=False).via("an uneven last subset, bias, grouping")
@example(seed=3, k=1, n=30, cuts=[2, 1, 3, 1, 2, 5, 1] * 8, grouping=True, positive_bias=True,
         known_lists=KNOWN, empty={1, 4}, repeat=False).via("sizes interleave")
@example(seed=1, k=1, n=10, cuts=[1, 2] * 26, grouping=False, positive_bias=True,
         known_lists=KNOWN, empty=set(range(5, 10)),
         repeat=False).via("a HIT with no donor in subset 7, after subsets of another size")
@example(seed=5, k=7, n=6, cuts=None, grouping=False, positive_bias=False, known_lists=KNOWN,
         empty=set(), repeat=True).via("a repeated video id")
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 52),
    n=st.integers(1, 30),
    cuts=st.none() | st.lists(st.integers(1, 6), min_size=52, max_size=52),
    grouping=st.booleans(),
    positive_bias=st.booleans(),
    known_lists=st.lists(
        st.lists(st.integers(0, 51), min_size=1, max_size=4, unique=True), min_size=30, max_size=30
    ),
    empty=st.sets(st.integers(0, 29), max_size=6),
    repeat=st.booleans(),
)
def test_pack_hits_equals_the_per_subset_loop(sample_tax, seed, k, n, cuts, grouping,
                                              positive_bias, known_lists, empty, repeat):
    """Packing a pass at once gives the per-subset loop's columns, field by
    field, or the same error; `cuts` hand-builds the plan."""
    if cuts is None:
        plan = partition_questions(sample_tax, k, seed)
    else:
        plan = cut_plan(order(seed, range(52), "cuts"), cuts)
    videos = [f"v{i}" for i in range(n)] + (["v0"] if repeat else [])
    # The videos in `empty` have no known positive.
    known = known_matrix(sample_tax, videos, {v: known_lists[i] for i, v in enumerate(videos[:n])
                                              if i not in empty})
    args = (sample_tax, videos, plan, HitBudget(), DEFAULT_TIME_MODEL, seed)
    kwargs = {"grouping": grouping, "known": known if positive_bias else None}
    loop, loop_error = _packed_or_error(_pack_hits_per_subset, *args, **kwargs)
    hits, error = _packed_or_error(pack_hits, *args, **kwargs)
    assert error == loop_error
    if error:
        return
    assert (hits.video_ids, hits.pay) == (loop.video_ids, loop.pay)
    for name in SUBSET_FIELDS:
        got, want = getattr(hits, name), getattr(loop, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name


# ---------------------------------------------------------------------------
# Simulation driver
# ---------------------------------------------------------------------------


def _rows(events, tax):
    return sorted(event_rows(events, tax))


@settings(max_examples=12, deadline=None)
@example(seed=9, k=13, shard=[0, 5, 6, 11])
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.sampled_from([1, 5, 13, 52]),
    shard=st.lists(st.integers(0, 11), min_size=1, max_size=11, unique=True),
)
def test_campaign_deterministic_and_shard_invariant(tax, behavior, seed, k, shard):
    truths = make_random_truth(12, 52, 3.7, seed=6)
    one = run_campaign(tax, truths, k, 2, behavior, seed=seed)
    assert run_campaign(tax, truths, k, 2, behavior, seed=seed) == one
    assert run_campaign(tax, truths, k, 2, behavior, seed=seed + 1) != one
    # Each task's stream depends only on (seed, worker, video, iteration,
    # subset), so with the one-worker pool a shard of the videos yields
    # exactly the full run's rows for those videos.
    part = [truths[i] for i in shard]
    wanted = {t.video_id for t in part}
    sharded = run_campaign(tax, part, k, 2, behavior, seed=seed)
    assert _rows(sharded, tax) == sorted(r for r in event_rows(one, tax) if r[1] in wanted)


@pytest.mark.parametrize("k, modifiers", [(5, BIAS), (52, NONE)])
def test_passes_share_only_read_only_columns(tax, behavior, k, modifiers):
    # The passes' events share the campaign's slot table's video, question
    # and gold columns, which are read-only; every other column is the
    # pass's own, shared with no other column of any pass.
    passes = list(simulate_campaign(tax, make_random_truth(6, 52, 3.7, seed=2), k, 3,
                                    behavior, seed=1, modifiers=modifiers))
    columns = [(f.name, getattr(events, f.name)) for events in passes
               for f in dataclasses.fields(events) if isinstance(getattr(events, f.name), np.ndarray)]
    shared = {(x, y) for i, (x, a) in enumerate(columns) for y, b in columns[:i]
              if np.shares_memory(a, b)}
    assert shared == {("video", "video"), ("question", "question"), ("gold", "gold")}
    for events in passes:
        for name in ("video", "question", "gold"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(events, name)[0] = 0


@pytest.mark.parametrize("k, modifiers", [(1, NONE), (5, BIAS), (52, NONE)])
def test_the_question_column_is_one_buffer_from_packing_to_the_events(sample_tax, behavior,
                                                                      monkeypatch, k, modifiers):
    # pack_hits writes each slot's question position and gold flag once: the
    # slot table and every pass's events hold those arrays, read-only, and
    # each pass's iteration column is its one value at stride 0.
    made = {}

    def spy(name, function):
        def wrapper(*args, **kwargs):
            made[name] = function(*args, **kwargs)
            return made[name]
        monkeypatch.setattr(campaign, name, wrapper)

    spy("pack_hits", campaign.pack_hits)
    spy("slot_table", campaign.slot_table)
    truths = make_random_truth(6, sample_tax.label_count, 3.7, seed=2, min_labels=1)
    passes = list(simulate_campaign(sample_tax, truths, k, 3, behavior, seed=1,
                                    modifiers=modifiers))
    hits, slots = made["pack_hits"], made["slot_table"]
    for name in ("question", "gold"):
        assert not getattr(hits, name).flags.writeable
        assert np.shares_memory(getattr(hits, name), getattr(slots, name))
        for events in passes:
            assert np.shares_memory(getattr(hits, name), getattr(events, name))
    for iteration, events in enumerate(passes):
        assert events.iteration.strides == (0,) and not events.iteration.flags.writeable
        assert events.iteration.tolist() == [iteration] * len(events)


@pytest.mark.parametrize("bundled", [False, True])
@pytest.mark.parametrize("k", [1, 5, 52])
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_events_do_not_depend_on_input_order(sample_tax, behavior, k, bundled, data):
    # Every draw is keyed by ids, so listing the videos and the workers in
    # another order gives the same HITs, assignments and answers.
    modifiers = NONE
    if bundled:  # positive bias has no measured effect past FEW_QUESTION_MAX
        modifiers = FEW_QUESTION_BUNDLE if regime(k) == "few" else ModifierSet(grouping=True)
    truths = make_random_truth(12, sample_tax.label_count, 3.7, seed=3, min_labels=1)
    pool = sample_worker_pool(12, behavior, 0.25, seed=3)

    def rows(truths, pool):
        events = run_campaign(sample_tax, truths, k, 2, behavior, seed=4, pool=pool,
                              modifiers=modifiers)
        return list(event_rows(events, sample_tax))

    shuffled = rows(data.draw(st.permutations(truths)), data.draw(st.permutations(pool)))
    assert shuffled == rows(truths, pool)


def test_campaign_covers_every_pair_each_iteration(tax, behavior):
    truths = make_random_truth(10, 52, 3.7, seed=7)
    batches = list(simulate_campaign(tax, truths, 5, 2, behavior, seed=1))
    assert len(batches) == 2
    for iteration, events in enumerate(batches):
        seen = {(r[1], r[2]) for r in event_rows(events, tax) if not r[6]}
        assert len(seen) == 10 * 52
        assert (events.iteration == iteration).all()


@pytest.mark.parametrize("repeat", ["video", "worker"])
def test_campaign_rejects_repeated_ids(tax, behavior, repeat):
    truths = make_random_truth(3, 52, 3.7, seed=7)
    pool = [Worker("w0"), Worker("w1")]
    if repeat == "video":
        truths.append(truths[0])
    else:
        pool.append(Worker("w0", recall_scale=0.5))
    with pytest.raises(ValueError, match="ids must be unique"):
        next(simulate_campaign(tax, truths, 5, 1, behavior, seed=1, pool=pool))


def per_subset_passes(tax, truths, k, iterations, behavior, seed, *, modifiers, pool):
    """The reference: simulate_campaign as one simulate_block call per
    question subset, its tasks s*n to s*n+n-1, the calls joined by
    EventTable.concat."""
    video_ids = tuple(t.video_id for t in truths)
    worker_ids = [w.worker_id for w in pool]
    plan = partition_questions(tax, k, seed)
    rows = campaign_rows(tax, truths, pool, behavior, seed)
    known = question_positive(tax, rows.truth) if modifiers.positive_bias else None
    hits = pack_hits(tax, video_ids, plan, HitBudget(), DEFAULT_TIME_MODEL, seed,
                     grouping=modifiers.grouping, known=known, prevalence=behavior.prevalence)
    n = len(video_ids)
    bounds = np.concatenate([[0], np.cumsum(hits.lengths)])[::n].tolist()
    subsets = [(s, slice(s * n, s * n + n), slice(bounds[s], bounds[s + 1]))
               for s in range(len(plan))]
    for iteration in range(iterations):
        # Each HIT's worker: the seeded shuffle of the pool, cycled.
        perm = order(seed, worker_ids, "assign", iteration)
        worker = perm[np.arange(len(hits)) % len(pool)][hits.hit]
        yield EventTable.concat(
            simulate_block(behavior, tax, modifiers, seed, rows,
                           slot_table(tax, rows, hits.video[tasks], np.full(n, s),
                                      hits.lengths[tasks], hits.question[at], hits.gold[at]),
                           worker[tasks], iteration)
            for s, tasks, at in subsets
        )


def passes_or_error(simulate, *args, **kwargs):
    try:
        return list(simulate(*args, **kwargs))
    except ValueError as exc:
        return str(exc)


MODIFIER_SETS = [ModifierSet(*flags) for flags in itertools.product([False, True], repeat=4)]


@settings(max_examples=60, deadline=None)
@example(seed=0, k=10, modifiers=ModifierSet(summary_prompt=True, forced_response=True),
         durations=[10.0, 30.1, 55.0], spammers=0.5)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.sampled_from([1, 5, 7, 10, 52]),
    modifiers=st.sampled_from(MODIFIER_SETS),
    durations=st.lists(st.sampled_from([10.0, 30.1, 47.3, 55.0]), min_size=1, max_size=10),
    spammers=st.sampled_from([0.0, 0.3, 1.0]),
)
def test_one_call_per_pass_equals_the_per_subset_loop(sample_tax, seed, k, modifiers, durations,
                                                      spammers):
    # Mixed subset sizes (k = 5, 7 and 10 leave a last subset of 2, 3 and
    # 2), every modifier set with its regime errors, spammers, gold
    # duplicates and videos of different lengths. Three passes: the slot
    # table simulate_campaign builds once serves two passes after the first,
    # while the reference builds its own in every call.
    behavior = fit_hard_mixture(default_behavior())
    truths = make_random_truth(len(durations), sample_tax.label_count, 3.7, seed, min_labels=1)
    truths = [dataclasses.replace(t, duration_seconds=d) for t, d in zip(truths, durations)]
    pool = sample_worker_pool(5, behavior, spammers, seed)
    args = (sample_tax, truths, k, 3, behavior, seed)
    expected = passes_or_error(per_subset_passes, *args, modifiers=modifiers, pool=pool)
    assert passes_or_error(simulate_campaign, *args, modifiers=modifiers, pool=pool) == expected


@pytest.mark.parametrize("k", [1, 5, 52])
def test_one_simulator_call_per_pass(sample_tax, behavior, k, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(len(args[6]))
        return simulate_block(*args, **kwargs)

    monkeypatch.setattr(campaign, "simulate_block", counted)
    truths = make_random_truth(20, sample_tax.label_count, 3.7, seed=1, min_labels=1)
    passes = list(simulate_campaign(sample_tax, truths, k, 3, behavior, seed=1,
                                    modifiers=BIAS if k < 52 else NONE))
    tasks = 20 * len(partition_questions(sample_tax, k, seed=1))
    assert calls == [tasks] * 3 and len(passes) == 3


def test_event_csv_round_trip(tax, behavior, tmp_path):
    truths = make_random_truth(12, 52, 3.7, seed=8, min_labels=1)
    events = run_campaign(
        tax, truths, 5, 1, behavior, seed=2, modifiers=BIAS
    )
    path = tmp_path / "events.csv"
    write_events_csv(events, tax, path)
    result = ingest(path, tax)
    assert len(result) != 0
    key = lambda r: (r[5], r[1], r[2], r[6], r[0])  # iteration, video, question, gold, worker
    recovered = sorted(event_rows(result, tax), key=key)
    original = sorted(event_rows(events, tax), key=key)
    assert recovered == original


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.sampled_from([1, 2, 3, 5, 7]),
    grouping=st.booleans(),
    workers=st.integers(1, 6),
)
def test_ingest_inverts_write_events_csv(sample_tax, behavior, tmp_path_factory, seed, k,
                                         grouping, workers):
    # Simulated tables with gold rows and multi-member answers come back
    # equal, up to the order of the vocabularies.
    truths = make_random_truth(9, sample_tax.label_count, 3.7, seed=seed, min_labels=1)
    pool = sample_worker_pool(workers, behavior, 0.2, seed)
    modifiers = ModifierSet(positive_bias=True, grouping=grouping)
    table = run_campaign(sample_tax, truths, k, 2, behavior, seed, pool=pool,
                         modifiers=modifiers)
    assert table.gold.any()
    path = tmp_path_factory.mktemp("round-trip") / "events.csv"
    write_events_csv(table, sample_tax, path)
    back = ingest(path, sample_tax)
    worker_row = {w: i for i, w in enumerate(back.worker_ids)}
    video_row = {v: i for i, v in enumerate(back.video_ids)}
    relabelled = dataclasses.replace(
        table,
        worker_ids=back.worker_ids,
        video_ids=back.video_ids,
        worker=[worker_row[table.worker_ids[w]] for w in table.worker],
        video=[video_row[table.video_ids[v]] for v in table.video],
    )
    assert back == relabelled


def test_write_events_csv_replaces_the_file_whole(tax, behavior, tmp_path, monkeypatch):
    # A write that fails mid-file leaves the CSV and its sidecar as they were.
    truths = make_random_truth(4, 52, 3.7, seed=8)
    path = tmp_path / "events.csv"
    write_events_csv(run_campaign(tax, truths, 52, 1, behavior, seed=2), tax, path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert sorted(before) == ["events.csv", sidecar_path(path).name]
    writes = []
    atomic_open = campaign.atomic_open

    @contextlib.contextmanager
    def disk_full_on_third_write(target, binary=False):
        with atomic_open(target, binary) as fh:
            def write(data):
                writes.append(data)
                if len(writes) == 3:
                    raise OSError(errno.ENOSPC, "No space left on device")
                return fh.write(data)
            yield types.SimpleNamespace(write=write)

    monkeypatch.setattr(campaign, "ROW_CHUNK", 50)
    monkeypatch.setattr(campaign, "atomic_open", disk_full_on_third_write)
    with pytest.raises(OSError, match="No space left"):
        write_events_csv(run_campaign(tax, truths, 52, 1, behavior, seed=3), tax, path)
    assert len(writes) == 3  # the header, 50 rows, then the failure
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


# Ids that csv.writer must quote, and a lone carriage return it leaves bare.
ID_TEXT = st.text(st.sampled_from('ab ,"\n\r;'), max_size=3)


def reads_back(ident: str) -> bool:
    """Whether csv.writer's field for the id reads back as the id."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow((ident, ""))
    try:
        return list(csv.reader(io.StringIO(buf.getvalue(), newline=""))) == [[ident, ""]]
    except csv.Error:
        return False


ELAPSED = st.one_of(
    st.floats(1e-3, 1e4),
    st.sampled_from([0.0, -0.0, -1.5, math.inf, math.nan, 5e-324, 1e300]),
)


@st.composite
def event_tables(draw, tax, ids=ID_TEXT):
    """Event tables over `tax`: vocabularies of `ids` that may repeat an id;
    answers (question, members) whose members bits now and then stray past
    the question's members; elapsed times now and then not positive or not
    finite; and now and then a copy of a row, with its own elapsed time and
    gold flag, besides the repeats of a (worker, video, question, iteration)
    that the draws give."""
    worker_ids = draw(st.lists(ids, min_size=1, max_size=3))
    video_ids = draw(st.lists(ids, min_size=1, max_size=3))
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        position = draw(st.integers(0, 3))
        q = tax.questions[position]
        mask = draw(st.integers(0, 2 ** len(q.members) - 1))
        if draw(st.integers(0, 19)) == 0:
            mask |= 1 << draw(st.integers(len(q.members), 63))
        elapsed = draw(ELAPSED if draw(st.integers(0, 9)) == 0 else st.floats(1e-3, 1e4))
        rows.append((
            draw(st.integers(0, len(worker_ids) - 1)),
            draw(st.integers(0, len(video_ids) - 1)),
            position, mask, elapsed, draw(st.integers(-1, 2)), draw(st.booleans()),
        ))
    if rows and draw(st.integers(0, 3)) == 0:
        copy = list(draw(st.sampled_from(rows)))
        copy[4:] = draw(st.floats(1e-3, 1e4)), copy[5], draw(st.booleans())
        rows.insert(draw(st.integers(0, len(rows))), tuple(copy))
    columns = zip(*rows) if rows else [[]] * 7
    return EventTable(tuple(worker_ids), tuple(video_ids), *columns)


def stray_rows(table, tax) -> list[int]:
    """The rows whose members bits lie past their question's members."""
    return [r for r, (q, mask) in enumerate(zip(table.question.tolist(), table.members.tolist()))
            if mask >> len(tax.questions[q].members)]


def csv_writer_bytes(table, tax) -> bytes:
    """The events CSV as csv.writer writes the row view."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    gold = table.gold.any()
    writer.writerow(campaign.EVENT_COLUMNS + (("gold",) if gold else ()))
    for worker, video, q, members, elapsed, iteration, is_gold in event_rows(table, tax):
        row = (worker, video, q, int(bool(members)), ";".join(map(str, members)),
               repr(elapsed), iteration, int(is_gold))
        writer.writerow(row if gold else row[:-1])
    return buf.getvalue().encode()


def csv_lines(data: bytes) -> list[int]:
    """The line on which csv.reader ends each row after the header."""
    reader = csv.reader(io.StringIO(data.decode(), newline=""))
    next(reader)
    return [reader.line_num for _ in reader]


def ingest_outcome(path, tax):
    try:
        return ingest(path, tax)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_write_events_csv_bytes_are_csv_writers(sample_tax, tmp_path_factory, data):
    # The round trip: the writer refuses a table before it opens the file,
    # naming an id that would not read back, rows with stray members bits,
    # or else just what ingest names in csv.writer's bytes of the table.
    # Otherwise it writes those bytes and a sidecar, and ingest returns the
    # table on its first-seen vocabularies, with the sidecar and without it.
    table = data.draw(event_tables(sample_tax))
    path = tmp_path_factory.mktemp("writer") / "events.csv"
    unreadable = [i for i in table.worker_ids + table.video_ids if not reads_back(i)]
    try:
        write_events_csv(table, sample_tax, path)
    except ValueError as exc:
        assert not any(path.parent.iterdir())
        if unreadable:
            assert str(exc) == f"id {unreadable[0]!r} would not read back from an events CSV"
        elif stray_rows(table, sample_tax):
            lines = csv_lines(csv_writer_bytes(table, sample_tax))
            assert all(f"line {lines[r]}: question {sample_tax.question_ids[table.question[r]]}: "
                       "members bits past its members" in str(exc)
                       for r in stray_rows(table, sample_tax))
        else:
            path.write_bytes(csv_writer_bytes(table, sample_tax))
            assert ingest_outcome(path, sample_tax) == str(exc)
        return
    assert path.read_bytes() == csv_writer_bytes(table, sample_tax)
    worker_ids, worker = campaign._first_seen(table.worker_ids, table.worker)
    video_ids, video = campaign._first_seen(table.video_ids, table.video)
    expected = dataclasses.replace(table, worker_ids=worker_ids, video_ids=video_ids,
                                   worker=worker, video=video)
    assert ingest(path, sample_tax) == expected
    sidecar_path(path).unlink()
    assert ingest(path, sample_tax) == expected


def test_write_events_csv_rejects_an_id_that_would_not_read_back(sample_tax, behavior,
                                                                 tmp_path):
    events = run_campaign(sample_tax, [VideoTruth("v\r1", labels=frozenset({1}))], 5, 1,
                          behavior, seed=0)
    path = tmp_path / "events.csv"
    with pytest.raises(ValueError) as exc:
        write_events_csv(events, sample_tax, path)
    assert str(exc.value) == "id 'v\\r1' would not read back from an events CSV"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("edit, problem", [
    ({"elapsed": [0.0, 2.0]}, "line 2: elapsed must be positive"),
    ({"elapsed": [1.0, math.inf]}, "line 3: elapsed must be finite"),
    ({"question": [0, 0]},
     "line 3: duplicates line 2 (same worker, video, question 0 and iteration)"),
    ({"members": [2, 0]}, "line 2: question 0: members bits past its members"),
    ({"question": [0, 9]}, "line 3: unknown question position 9 (the taxonomy has 2 questions)"),
], ids=["elapsed-0", "elapsed-inf", "repeated-answer", "stray-members-bit", "unknown-question"])
def test_write_events_csv_refuses_rows_ingest_would_reject(tmp_path, edit, problem):
    # Named as ingest names them, by CSV line, before any file is opened.
    columns = dict(worker=[0, 0], video=[0, 0], question=[0, 1], members=[1, 0],
                   elapsed=[1.0, 2.0], iteration=[0, 0], gold=[False, False])
    table = EventTable(("w",), ("v",), **{**columns, **edit})
    path = tmp_path / "events.csv"
    with pytest.raises(ValueError) as exc:
        write_events_csv(table, singleton_taxonomy(2), path)
    assert str(exc.value) == f"{path}: {problem}"
    assert list(tmp_path.iterdir()) == []


# The readers of a table that index the vocabularies by its codes. A code
# outside them is refused when the table is built, so none of them meets it.
CODE_READERS = {
    "write_events_csv": lambda t, tmp: write_events_csv(t, singleton_taxonomy(1), tmp / "e.csv"),
    "aggregate": lambda t, tmp: aggregate(t, singleton_taxonomy(1)),
    "worker_stats_from_events": lambda t, tmp: worker_stats_from_events(t),
}


@pytest.mark.parametrize("column, row, code, count", [
    ("worker", 1, -1, 2), ("worker", 1, 2, 2), ("video", 0, -1, 1), ("video", 1, 1, 1),
], ids=["worker-negative", "worker-past-the-end", "video-negative", "video-past-the-end"])
@pytest.mark.parametrize("reader", CODE_READERS)
def test_codes_outside_the_vocabularies_are_refused(tmp_path, column, row, code, count, reader):
    # A -1 would index the last id, and a code past the end no id at all.
    columns = dict(worker=[0, 1], video=[0, 0], question=[0, 0], members=[1, 0],
                   elapsed=[1.0, 2.0], iteration=[0, 1], gold=[False, False])
    columns[column][row] = code
    with pytest.raises(ValueError) as exc:
        CODE_READERS[reader](EventTable(("w0", "w1"), ("v",), **columns), tmp_path)
    assert str(exc.value) == f"row {row}: {column} code {code} is not among the {count} {column} ids"
    assert list(tmp_path.iterdir()) == []


def test_write_events_csv_names_the_row_of_an_unknown_question(tmp_path):
    # A table names a question by its position, a CSV by its id.
    path = tmp_path / "events.csv"
    for position in (9, 2, -1):
        table = EventTable(("w",), ("v",), worker=[0], video=[0], question=[position],
                           members=[1], elapsed=[1.0], iteration=[0], gold=[False])
        with pytest.raises(ValueError) as exc:
            write_events_csv(table, singleton_taxonomy(2), path)
        assert str(exc.value) == (f"{path}: line 2: unknown question position {position} "
                                  "(the taxonomy has 2 questions)")
        assert list(tmp_path.iterdir()) == []
    # ingest names a row of an unknown question id by that id.
    path.write_text("worker,video,question,gate,members,elapsed,iteration\nw,v,9,1,9,1.0,0\n")
    with pytest.raises(ValueError) as exc:
        ingest(path, singleton_taxonomy(2))
    assert str(exc.value) == f"{path}: line 2: unknown question id 9"


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_ingest_of_the_sidecar_equals_the_csv_parse(sample_tax, tmp_path_factory, data):
    # The sidecar the writer leaves is, byte for byte, the one ingest saves
    # after it parses the CSV.
    table = data.draw(event_tables(sample_tax, ID_TEXT.filter(reads_back)))
    path = tmp_path_factory.mktemp("sidecar") / "events.csv"
    try:
        write_events_csv(table, sample_tax, path)
    except ValueError:
        return  # the round trip above checks the refusals
    written = sidecar_path(path).read_bytes()
    sidecar_path(path).unlink()
    ingest(path, sample_tax)
    assert sidecar_path(path).read_bytes() == written


def group_ids_row_problems(table: EventTable, lines, tax) -> list[tuple[int, str]]:
    """`campaign._row_problems` as it was before its sort-based repeat
    check, kept as the reference: `group_ids` names every repeat, by its
    question's id."""
    elapsed = table.elapsed
    bad = ~((elapsed > 0) & (elapsed < np.inf))
    problems = [(lines[r], "elapsed must be " + ("finite" if elapsed[r] > 0 else "positive"))
                for r in np.flatnonzero(bad)]
    kept = np.flatnonzero(~bad & ~table.gold)
    columns = (table.worker, table.video, table.iteration, table.question)
    task, first = group_ids(*(c[kept] for c in columns))
    original = kept[first[task]]
    for row, first_row in zip(kept[original != kept], original[original != kept]):
        problems.append((lines[row], f"duplicates line {lines[first_row]} (same worker, "
                         f"video, question {tax.question_ids[table.question[row]]} and "
                         "iteration)"))
    return problems


@st.composite
def tables_with_repeats(draw, tax):
    """`event_tables`, then copies of some rows, each with its own elapsed
    time and gold flag, shuffled in among them."""
    table = draw(event_tables(tax))
    rows = list(range(len(table)))
    columns = {f.name: getattr(table, f.name).tolist() for f in EVENT_FIELDS}
    for _ in range(draw(st.integers(0, 6)) if rows else 0):
        row = draw(st.sampled_from(rows))
        for name, column in columns.items():
            column.append(column[row])
        columns["elapsed"][-1] = draw(ELAPSED)
        columns["gold"][-1] = draw(st.booleans())
    shuffled = draw(st.permutations(range(len(columns["worker"]))))
    return EventTable(table.worker_ids, table.video_ids,
                      *([column[i] for i in shuffled] for column in columns.values()))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_row_checks_equal_the_group_ids_reference(sample_tax, data):
    table = data.draw(tables_with_repeats(sample_tax))
    lines = sorted(data.draw(st.lists(st.integers(2, 10**6), min_size=len(table),
                                      max_size=len(table), unique=True)))
    for at in (range(len(table)), lines):
        assert (campaign._row_problems(table, at, sample_tax)
                == group_ids_row_problems(table, at, sample_tax))


@pytest.fixture
def small_events(sample_tax, behavior):
    truths = make_random_truth(6, sample_tax.label_count, 3.7, seed=5, min_labels=1)
    pool = sample_worker_pool(4, behavior, 0.25, seed=5)
    return run_campaign(sample_tax, truths, 5, 2, behavior, seed=5, pool=pool,
                        modifiers=ModifierSet(positive_bias=True, grouping=True))


def csv_only(path, tax):
    """`ingest` of a copy of the CSV that has no sidecar."""
    copy = path.parent / "csv-only" / path.name
    copy.parent.mkdir(exist_ok=True)
    copy.write_bytes(path.read_bytes())
    sidecar_path(copy).unlink(missing_ok=True)
    return ingest(copy, tax)


def refuse_to_parse(*args):
    raise AssertionError("the CSV was parsed")


def test_a_table_past_the_int32_range_round_trips_through_its_sidecar(sample_tax, small_events,
                                                                      tmp_path, monkeypatch):
    wide = dataclasses.replace(small_events, iteration=small_events.iteration + 2**31)
    path = tmp_path / "events.csv"
    write_events_csv(wide, sample_tax, path)
    expected = csv_only(path, sample_tax)
    assert expected.iteration.min() == 2**31
    monkeypatch.setattr(campaign, "_parse_events", refuse_to_parse)
    assert ingest(path, sample_tax) == expected


def buffer_root(column: np.ndarray):
    """The object whose memory a numpy array views, past any arrays and memoryviews."""
    root = column
    while isinstance(root, np.ndarray) and root.base is not None:
        root = root.base
    return root.obj if isinstance(root, memoryview) else root


def test_a_sidecar_hit_maps_its_columns_read_only(sample_tax, small_events, tmp_path):
    path = tmp_path / "events.csv"
    write_events_csv(small_events, sample_tax, path)
    table = ingest(path, sample_tax)
    columns = [getattr(table, f.name) for f in EVENT_FIELDS]
    assert not any(column.flags.writeable for column in columns)
    roots = [buffer_root(column) for column in columns]
    assert isinstance(roots[0], mmap.mmap)
    assert all(root is roots[0] for root in roots)


def test_a_mapped_table_outlives_a_rewrite_of_its_files(sample_tax, small_events, tmp_path):
    # The writer replaces the CSV and its sidecar whole, so a table mapped
    # from the old sidecar keeps the old rows.
    path = tmp_path / "events.csv"
    write_events_csv(small_events, sample_tax, path)
    table = ingest(path, sample_tax)
    copied = EventTable(table.worker_ids, table.video_ids,
                        *(np.array(getattr(table, f.name)) for f in EVENT_FIELDS))
    other = EventTable(small_events.worker_ids, small_events.video_ids,
                       *(getattr(small_events, f.name)[::2] for f in EVENT_FIELDS))
    write_events_csv(other, sample_tax, path)
    assert len(ingest(path, sample_tax)) == len(other)
    assert table == copied


def test_an_ingest_hit_allocates_less_than_its_columns(sample_tax, behavior, tmp_path):
    # The columns are views of the mapped file: a hit allocates only its
    # checks' working arrays and the derived gate.
    truths = make_random_truth(100, sample_tax.label_count, 3.7, seed=3, min_labels=1)
    pool = sample_worker_pool(20, behavior, 0.1, seed=3)
    events = run_campaign(sample_tax, truths, 5, 2, behavior, seed=3, pool=pool,
                          modifiers=ModifierSet(positive_bias=True, grouping=True))
    path = tmp_path / "events.csv"
    write_events_csv(events, sample_tax, path)
    ingest(path, sample_tax)
    tracemalloc.start()
    try:
        table = ingest(path, sample_tax)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < sum(getattr(table, f.name).nbytes for f in EVENT_FIELDS)


def test_ingest_reads_the_sidecar_without_parsing(sample_tax, small_events, tmp_path,
                                                  monkeypatch):
    path = tmp_path / "events.csv"
    write_events_csv(small_events, sample_tax, path)
    expected = csv_only(path, sample_tax)
    monkeypatch.setattr(campaign, "_parse_events", refuse_to_parse)
    assert ingest(path, sample_tax) == expected


def test_a_sidecar_hit_never_reads_the_csv_whole(sample_tax, small_events, tmp_path,
                                                monkeypatch):
    # On a hit the CSV is hashed a block at a time, never held whole.
    path = tmp_path / "events.csv"
    write_events_csv(small_events, sample_tax, path)
    expected = csv_only(path, sample_tax)

    def read_bytes(self):
        raise AssertionError(f"{self} was read whole")

    monkeypatch.setattr(campaign.Path, "read_bytes", read_bytes)
    assert ingest(path, sample_tax) == expected


@pytest.mark.parametrize("sidecar", [False, True], ids=["no-sidecar", "sidecar"])
def test_ingest_hashes_the_csv_once(sample_tax, small_events, tmp_path, monkeypatch, sidecar):
    path = tmp_path / "events.csv"
    write_events_csv(small_events, sample_tax, path)
    if not sidecar:
        sidecar_path(path).unlink()
    sizes, sha256 = [], campaign.hashlib.sha256

    class Counted:
        """A SHA-256 that records how many bytes it hashed."""

        def __init__(self, data=b""):
            self.inner, self.size = sha256(), 0
            self.update(data)

        def update(self, data):
            self.inner.update(data)
            self.size += len(data)

        def digest(self):
            sizes.append(self.size)
            return self.inner.digest()

    monkeypatch.setattr(campaign, "hashlib", types.SimpleNamespace(sha256=Counted))
    ingest(path, sample_tax)
    assert sizes.count(path.stat().st_size) == 1


def test_stale_sidecar_is_ignored(sample_tax, small_events, tmp_path):
    path = tmp_path / "events.csv"
    write_events_csv(small_events, sample_tax, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    assert len(ingest(path, sample_tax)) == len(small_events) - 1
    # An edit that adds a bad row, after the sidecar above was written.
    bad = lines[1].split(",")
    bad[5] = "-1.0"
    path.write_text("\n".join([*lines[:-1], ",".join(bad)]) + "\n")
    with pytest.raises(ValueError, match=f"line {len(lines)}: elapsed must be positive$"):
        ingest(path, sample_tax)


def test_sidecar_of_another_taxonomy_is_ignored(sample_tax, small_events, tmp_path):
    # Reversed member lists give every multi-member answer another mask.
    reversed_members = Taxonomy(sample_tax.labels, tuple(
        dataclasses.replace(q, members=q.members[::-1]) for q in sample_tax.questions
    ))
    path = tmp_path / "events.csv"
    write_events_csv(small_events, sample_tax, path)
    expected = csv_only(path, reversed_members)
    assert expected != ingest(path, sample_tax)
    assert ingest(path, reversed_members) == expected


FORMAT_LINE = len(b"annocamp events table 4\n")  # every format's first line is this long
# Format 4's column dtypes, in field order: 33 bytes a row.
FORMAT_4_DTYPES = ("<i4", "<i4", "<i4", "<u8", "<f8", "<i4", "u1")
FORMAT_4_ROW_BYTES = sum(np.dtype(d).itemsize for d in FORMAT_4_DTYPES)


def format_4(data: bytes) -> bytes:
    """The sidecar as format 4 laid it out: its own format line, the columns
    straight after the ids, and worker, video, question and iteration as int32."""
    rows, workers, videos = np.frombuffer(data, "<i8", 3, FORMAT_LINE + 64).tolist()
    lengths = np.frombuffer(data, "<i8", workers + videos, FORMAT_LINE + 88)
    ids_end = FORMAT_LINE + 88 + lengths.nbytes + int(lengths.sum())
    at, columns = len(data) - rows * campaign.ROW_BYTES, []
    for dtype, old in zip(campaign.SIDECAR_DTYPES.values(), FORMAT_4_DTYPES):
        columns.append(np.frombuffer(data, dtype, rows, at).astype(old).tobytes())
        at += rows * dtype.itemsize
    return b"annocamp events table 4\n" + data[FORMAT_LINE:ids_end] + b"".join(columns)


def format_3(data: bytes, tax) -> bytes:
    """The format-4 sidecar `data` as format 3 laid it out: its own format
    line, and the question column by id where format 4 stores positions."""
    rows = int(np.frombuffer(data, "<i8", 1, FORMAT_LINE + 64)[0])
    at = len(data) - rows * FORMAT_4_ROW_BYTES + 8 * rows  # past worker and video
    ids = tax.question_ids[np.frombuffer(data, "<i4", rows, at)].astype("<i4").tobytes()
    return b"annocamp events table 3\n" + data[FORMAT_LINE:at] + ids + data[at + 4 * rows :]


def format_2(data: bytes) -> bytes:
    """The format-4 sidecar `data` as format 2 laid it out: its own format
    line, and a gate byte a row (set where members are) after the question
    column."""
    rows = int(np.frombuffer(data, "<i8", 1, FORMAT_LINE + 64)[0])
    at = len(data) - rows * FORMAT_4_ROW_BYTES + 12 * rows  # past worker, video and question
    gate = (np.frombuffer(data, "<u8", rows, at) != 0).astype("u1").tobytes()
    return b"annocamp events table 2\n" + data[FORMAT_LINE:at] + gate + data[at:]


@pytest.mark.parametrize("damage", ["truncated", "garbage", "empty", "format-2", "format-3",
                                    "format-4"])
def test_unreadable_sidecar_falls_back_with_one_warning(sample_tax, small_events, tmp_path,
                                                        caplog, damage):
    path = tmp_path / "events.csv"
    write_events_csv(small_events, sample_tax, path)
    expected = csv_only(path, sample_tax)
    sidecar = sidecar_path(path)
    data = sidecar.read_bytes()
    assert data.startswith(b"annocamp events table 5\n")
    sidecar.write_bytes({"truncated": data[: len(data) // 2], "garbage": b"PK\x03\x04 junk",
                         "empty": b"", "format-2": format_2(format_4(data)),
                         "format-3": format_3(format_4(data), sample_tax),
                         "format-4": format_4(data)}[damage])
    with caplog.at_level(logging.WARNING, logger="annocamp"):
        assert ingest(path, sample_tax) == expected
        assert [(r.name, r.levelname) for r in caplog.records] == [
            ("annocamp.campaign", "WARNING")
        ]
        # The parse wrote a good sidecar, of format 5, in its place.
        assert sidecar.read_bytes() == data
        assert ingest(path, sample_tax) == expected
        assert len(caplog.records) == 1


def first_row(mask) -> int:
    return int(np.flatnonzero(mask)[0])


def with_value(data: bytes, column: str, row: int, value) -> bytes:
    """The sidecar with one row's value of one column replaced."""
    rows = int(np.frombuffer(data, "<i8", 1, len(campaign.SIDECAR_FORMAT) + 64)[0])
    at = len(data) - rows * campaign.ROW_BYTES
    for name, dtype in campaign.SIDECAR_DTYPES.items():
        if name == column:
            at += row * dtype.itemsize
            return data[:at] + np.array(value, dtype).tobytes() + data[at + dtype.itemsize :]
        at += rows * dtype.itemsize
    raise KeyError(column)


# Values that no CSV could give, each as the (column, row, value) to write
# into the sidecar's bytes: an EventTable refuses such codes, so no
# tampered table could be saved.
TAMPERED = {
    "stray-member-bit": lambda t: ("members", first_row(t.gate), 1 << 40),
    "unknown-question": lambda t: ("question", 3, 999),
    "worker-past-vocabulary": lambda t: ("worker", 3, len(t.worker_ids)),
    "negative-video": lambda t: ("video", 3, -1),
}


@pytest.mark.parametrize("tamper", TAMPERED)
def test_tampered_sidecar_is_not_trusted(sample_tax, small_events, tmp_path, caplog, tamper):
    # A sidecar under the CSV's own key whose table no CSV could give is
    # ignored with one warning: the CSV's table stands.
    path = tmp_path / "events.csv"
    write_events_csv(small_events, sample_tax, path)
    expected = csv_only(path, sample_tax)
    sidecar = sidecar_path(path)
    sidecar.write_bytes(with_value(sidecar.read_bytes(), *TAMPERED[tamper](expected)))
    with caplog.at_level(logging.WARNING, logger="annocamp"):
        assert ingest(path, sample_tax) == expected
    assert [(r.name, r.levelname) for r in caplog.records] == [("annocamp.campaign", "WARNING")]


def vocabulary_length_past_the_end(data: bytes) -> bytes:
    """The sidecar with its first id length raised past the end of the file.
    That length follows the format line, the key (two SHA-256 digests) and
    the three counts."""
    at = len(campaign.SIDECAR_FORMAT) + 64 + 24
    return data[:at] + np.array(len(data), "<i8").tobytes() + data[at + 8 :]


SIDECAR_DAMAGE = {
    "one-byte-short": lambda data: data[:-1],
    "one-byte-extra": lambda data: data + b"\0",
    "vocabulary-length-past-the-end": vocabulary_length_past_the_end,
    "gold-flag-2": lambda data: data[:-1] + b"\2",  # the last byte is the last row's gold
}


@pytest.mark.parametrize("damage", SIDECAR_DAMAGE)
def test_damaged_sidecar_body_falls_back_with_one_warning(sample_tax, small_events, tmp_path,
                                                          caplog, damage):
    # The key still matches the CSV; what follows it does not add up.
    path = tmp_path / "events.csv"
    write_events_csv(small_events, sample_tax, path)
    expected = csv_only(path, sample_tax)
    sidecar = sidecar_path(path)
    sidecar.write_bytes(SIDECAR_DAMAGE[damage](sidecar.read_bytes()))
    with caplog.at_level(logging.WARNING, logger="annocamp"):
        assert ingest(path, sample_tax) == expected
    assert [(r.name, r.levelname) for r in caplog.records] == [("annocamp.campaign", "WARNING")]


def test_assign_workers_requires_eligible_pool(tax, behavior):
    with pytest.raises(ValueError, match="^the worker pool is empty$"):
        assign_workers([], [], seed=0, iteration=0)
    with pytest.raises(ValueError, match="^the worker pool is empty$"):
        run_campaign(tax, make_random_truth(5, 52, 3.7, seed=0), 5, 1, behavior, 0, pool=[])


# ---------------------------------------------------------------------------
# Ingestion validation
# ---------------------------------------------------------------------------


def write_rows(tmp_path, rows, header="worker,video,question,gate,members,elapsed,iteration"):
    path = tmp_path / "events.csv"
    path.write_text(header + "\n" + "\n".join(rows) + "\n")
    return path


def test_ingest_reports_line_numbers(tax, tmp_path):
    path = write_rows(tmp_path, ["w0,v0,0,yes?,,10.0,0"])
    with pytest.raises(ValueError, match="line 2"):
        ingest(path, tax)


def test_ingest_rejects_unknown_question(tax, tmp_path):
    path = write_rows(tmp_path, ["w0,v0,99,0,,10.0,0"])
    with pytest.raises(ValueError, match="99"):
        ingest(path, tax)


def test_ingest_rejects_affirmative_without_members(tax, tmp_path):
    path = write_rows(tmp_path, ["w0,v0,0,1,,10.0,0"])
    with pytest.raises(ValueError, match="selects no members"):
        ingest(path, tax)


def test_ingest_rejects_stray_members(tax, tmp_path):
    path = write_rows(tmp_path, ["w0,v0,0,1,5,10.0,0"])
    with pytest.raises(ValueError, match="not members"):
        ingest(path, tax)


def test_ingest_rejects_members_on_negative_gate(tax, tmp_path):
    path = write_rows(tmp_path, ["w0,v0,0,0,0,10.0,0"])
    with pytest.raises(ValueError, match="negative gate"):
        ingest(path, tax)


def test_ingest_rejects_bad_elapsed(tax, tmp_path):
    path = write_rows(tmp_path, ["w0,v0,0,0,,-3.0,0"])
    with pytest.raises(ValueError, match="elapsed"):
        ingest(path, tax)


def test_ingest_rejects_infinite_elapsed(tax, tmp_path):
    rows = ["w0,v0,0,0,,1.0,0", "w0,v0,1,0,,inf,0", "w0,v0,2,0,,2.0,0", "w0,v0,3,0,,-inf,0"]
    with pytest.raises(ValueError) as err:
        ingest(write_rows(tmp_path, rows), tax)
    message = str(err.value)
    assert "line 3: elapsed must be finite" in message
    assert "line 5: elapsed must be positive" in message
    assert "line 2:" not in message and "line 4:" not in message


def test_ingest_reports_every_bad_row(tax, tmp_path):
    rows = ["w0,v0,0,0,,abc,0", "w0,v0,1,0,,-3.0,0", "w0,v0,2,0,,,0", "w0,v0,3,0,,1.0,0"]
    with pytest.raises(ValueError) as err:
        ingest(write_rows(tmp_path, rows), tax)
    message = str(err.value)
    assert [f"line {n}:" in message for n in (2, 3, 4, 5)] == [True, True, True, False]
    assert "elapsed must be positive" in message


def test_ingest_names_a_short_row(tax, tmp_path):
    path = write_rows(tmp_path, ["w0,v0,0,0,,1.0,0", "w0,v0,1,0"])
    with pytest.raises(ValueError, match=r"line 3: too few fields \(4 of 7\)$"):
        ingest(path, tax)


def test_ingest_shows_20_bad_rows_and_counts_the_rest(tax, tmp_path):
    path = write_rows(tmp_path, [f"w0,v0,{q},0,,0,0" for q in range(25)])
    with pytest.raises(ValueError, match=r"line 21: elapsed must be positive \(\+5 more\)$"):
        ingest(path, tax)


def test_ingest_rejects_missing_columns(tax, tmp_path):
    path = tmp_path / "events.csv"
    path.write_text("worker,video\nw0,v0\n")
    with pytest.raises(ValueError, match="missing columns"):
        ingest(path, tax)


def test_ingest_rejects_duplicate_rows(tax, behavior, tmp_path):
    truths = make_random_truth(3, 52, 3.7, seed=8, min_labels=1)
    events = run_campaign(tax, truths, 5, 1, behavior, seed=2, modifiers=BIAS)
    path = tmp_path / "events.csv"
    write_events_csv(events, tax, path)
    assert len(ingest(path, tax))
    header, *rows = path.read_text().splitlines()
    base = next(i for i, row in enumerate(rows) if row.endswith(",0"))  # the first non-gold row
    path.write_text("\n".join([header, *rows, *rows]) + "\n")
    first, second = 2 + base, 2 + len(rows) + base
    with pytest.raises(ValueError, match=f"line {second}: duplicates line {first}"):
        ingest(path, tax)


def test_ingest_allows_repeated_gold_rows(tax, tmp_path):
    rows = [f"w0,v0,{q},0,,1.0,0,0" for q in range(52)]
    rows += ["w0,v0,3,1,3,1.0,0,1", "w0,v0,3,0,,1.0,0,1"]
    path = write_rows(
        tmp_path, rows, header="worker,video,question,gate,members,elapsed,iteration,gold"
    )
    result = ingest(path, tax)
    assert (~result.gold).sum() == 52
    assert result.gold.sum() == 2


# ---------------------------------------------------------------------------
# Worker statistics and QC
# ---------------------------------------------------------------------------


def test_worker_stats_median_against_sort_oracle(tax, behavior):
    truths = make_random_truth(40, 52, 3.7, seed=10)
    pool = sample_worker_pool(10, behavior, 0.0, seed=5)
    events = run_campaign(tax, truths, 26, 1, behavior, seed=6, pool=pool)
    stats = worker_stats_from_events(events)
    assert len(stats) == 10
    per_worker_tasks = {}
    for worker, video, _, _, elapsed, iteration, _ in event_rows(events, tax):
        per_worker_tasks.setdefault(worker, {}).setdefault((video, iteration), 0.0)
        per_worker_tasks[worker][(video, iteration)] += elapsed
    for s in stats:
        durations = sorted(per_worker_tasks[s.worker_id].values())
        n = len(durations)
        if n % 2:
            oracle = durations[n // 2]
        else:
            oracle = (durations[n // 2 - 1] + durations[n // 2]) / 2
        assert s.median_seconds_per_task == pytest.approx(oracle)
        assert s.tasks_completed == n


def worker_stats_by_mask(table: EventTable) -> list[WorkerStats]:
    """`worker_stats_from_events` as it was before its one stable sort by
    worker, kept as the reference: a mask over every task for each worker."""
    n, gold = len(table.worker_ids), table.gold
    worker = table.worker[~gold]
    task, first = group_ids(worker, table.video[~gold], table.iteration[~gold])
    seconds = np.bincount(task, weights=table.elapsed[~gold])
    answered = np.bincount(worker, minlength=n)
    yes = np.bincount(worker[table.gate[~gold]], minlength=n)
    gold_asked = np.bincount(table.worker[gold], minlength=n)
    gold_yes = np.bincount(table.worker[gold & table.gate], minlength=n)
    stats = []
    for w in sorted(np.flatnonzero(answered).tolist(), key=table.worker_ids.__getitem__):
        durations = seconds[worker[first] == w].tolist()
        stats.append(WorkerStats(
            worker_id=table.worker_ids[w],
            tasks_completed=len(durations),
            median_seconds_per_task=statistics.median(durations),
            gold_recall=int(gold_yes[w]) / int(gold_asked[w]) if gold_asked[w] else None,
            positive_rate=int(yes[w]) / int(answered[w]),
        ))
    return stats


@st.composite
def stats_tables(draw):
    """Event tables of up to 5 workers, some of whom answer nothing or only
    gold rows, over few videos and iterations, with positive elapsed times."""
    workers = draw(st.integers(1, 5))
    rows = draw(st.lists(st.tuples(
        st.integers(0, workers - 1), st.integers(0, 2), st.integers(0, 3),
        st.integers(0, 1), st.floats(1e-3, 1e4), st.integers(0, 2), st.booleans(),
    ), max_size=40))
    columns = zip(*rows) if rows else [[]] * 7
    return EventTable(tuple(f"w{i}" for i in draw(st.permutations(range(workers)))),
                      ("a", "b", "c"), *columns)


@settings(max_examples=200, deadline=None)
@given(table=stats_tables())
def test_worker_stats_equal_the_per_worker_mask_loop(table):
    assert worker_stats_from_events(table) == worker_stats_by_mask(table)


def test_gold_events_split_from_evaluation(tax, behavior, tmp_path):
    truths = make_random_truth(12, 52, 3.7, seed=11, min_labels=1)
    events = run_campaign(tax, truths, 3, 1, behavior, seed=7, modifiers=BIAS)
    assert events.gold.any(), "bias campaign must inject gold duplicates"
    path = tmp_path / "events.csv"
    write_events_csv(events, tax, path)
    result = ingest(path, tax)
    # The gold flags survive the file, row for row.
    assert np.array_equal(result.gold, events.gold)
    # Aggregation sees only the evaluation stream: votes never exceed iterations.
    matrix = aggregate(result, tax)
    assert matrix.iterations == 1
    assert matrix.votes.max() <= 1
    with_gold = {s.worker_id: s.gold_recall for s in worker_stats_from_events(result)}
    assert any(v is not None for v in with_gold.values())


def stats_pool(n, seed, med=40.0):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        out.append(
            WorkerStats(
                worker_id=f"w{i:03d}",
                tasks_completed=12,
                median_seconds_per_task=med * (1 + 0.08 * rng.standard_normal()),
                gold_recall=min(1.0, 0.6 + 0.1 * rng.standard_normal()),
                positive_rate=max(0.0, 0.05 + 0.01 * rng.standard_normal()),
            )
        )
    return out


def test_qc_homogeneous_pool_has_no_flags():
    identical = [
        WorkerStats(
            worker_id=f"w{i}",
            tasks_completed=10,
            median_seconds_per_task=40.0,
            gold_recall=0.6,
            positive_rate=0.05,
        )
        for i in range(12)
    ]
    assert qc_flag(identical) == []


def test_qc_detects_planted_spammer():
    stats = stats_pool(50, seed=2)
    stats.append(
        WorkerStats(
            worker_id="spammer",
            tasks_completed=12,
            median_seconds_per_task=8.0,
            gold_recall=0.5,
            positive_rate=0.5,
        )
    )
    flags = qc_flag(stats)
    spam_flags = [f for f in flags if f.worker_id == "spammer"]
    assert spam_flags and len(spam_flags[0].signals) >= 2
    assert "positive_rate" in spam_flags[0].signals
    assert "median_seconds" in spam_flags[0].signals


def test_qc_slow_but_accurate_worker_not_flagged_on_accuracy():
    stats = stats_pool(30, seed=3)
    stats.append(
        WorkerStats(
            worker_id="slowpoke",
            tasks_completed=12,
            median_seconds_per_task=140.0,
            gold_recall=0.62,
            positive_rate=0.05,
        )
    )
    flags = {f.worker_id: f for f in qc_flag(stats)}
    if "slowpoke" in flags:
        assert "gold_recall" not in flags["slowpoke"].signals
        assert "positive_rate" not in flags["slowpoke"].signals
        assert "median_seconds" in flags["slowpoke"].signals


def test_qc_requires_enough_workers():
    with pytest.raises(ValueError, match="at least 5"):
        qc_flag(stats_pool(4, seed=4))
    flags = qc_flag(stats_pool(4, seed=4) + stats_pool(3, seed=5), QcThresholds(min_workers=7))
    assert isinstance(flags, list)


def test_qc_handles_missing_gold():
    stats = stats_pool(10, seed=6)
    for s in stats:
        s.gold_recall = None
    assert qc_flag(stats) == []


# ---------------------------------------------------------------------------
# Verification queue
# ---------------------------------------------------------------------------


def test_verification_queue_empty_without_positives():
    matrix = LabelMatrix(("v0",), np.zeros((1, 5), dtype=np.int16), iterations=1)
    assert build_verification_queue(matrix) == []


def test_verification_queue_scale():
    # Union density of 9 labels per video over the full release-size corpus.
    videos = 1815
    votes = np.zeros((videos, 157), dtype=np.int16)
    votes[:, :9] = 1
    matrix = LabelMatrix(
        tuple(f"v{i}" for i in range(videos)), votes, iterations=3
    )
    queue = build_verification_queue(matrix)
    assert len(queue) == 16335


def test_verification_queue_idempotent():
    votes = np.zeros((3, 5), dtype=np.int16)
    votes[0, 1] = votes[2, 4] = 1
    matrix = LabelMatrix(("a", "b", "c"), votes, iterations=1)
    queue = build_verification_queue(matrix)
    assert {(t.video, t.label) for t in queue} == {("a", 1), ("c", 4)}
    done = [(t.video, t.label) for t in queue]
    assert build_verification_queue(matrix, already_verified=done) == []


# ---------------------------------------------------------------------------
# Bundled experiments
# ---------------------------------------------------------------------------


def test_reproduce_unknown_name(tmp_path):
    with pytest.raises(ValueError, match="unknown experiment"):
        reproduce("nope", 0, tmp_path / "x.csv")


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def planned(behavior, model, budget_minutes, ks):
    """(k, modifiers, iterations) of `optimize`'s plan at each k searched
    alone, leaving out a k that does not fit the budget."""
    plans = []
    for k in ks:
        try:
            plan = optimize(behavior, model, BudgetConstraint(budget_minutes), k_values=[k])
        except InfeasiblePlanError:
            continue
        plans.append((str(plan.k), plan.modifiers.label(), plan.iterations))
    return plans


def warnings_of(caplog):
    return [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING]


def test_multi_iteration_many_questions_dominate(tmp_path, caplog):
    with caplog.at_level(logging.WARNING):
        path = reproduce("multi-iteration", seed=3, out_path=tmp_path / "mi.csv")
    assert warnings_of(caplog) == []
    rows = read_csv(path)
    # Each k simulates every pass of the planner's plan at that k, 7.1 min/video.
    plans = planned(fit_hard_mixture(default_behavior()), DEFAULT_TIME_MODEL, 7.1, (1, 5, 26, 52))
    assert [(r["k"], r["modifiers"], r["iterations"]) for r in rows] == [
        (k, modifiers, str(n)) for k, modifiers, passes in plans for n in range(1, passes + 1)
    ]
    k52 = [r for r in rows if r["k"] == "52"]
    k1 = [r for r in rows if r["k"] == "1"]
    assert k52 and k1
    for few in k1:
        cheaper = [
            r
            for r in k52
            if float(r["minutes_per_video"]) <= float(few["minutes_per_video"])
        ]
        assert cheaper, "a many-question point should exist at equal or lower cost"
        assert max(float(r["recall"]) for r in cheaper) > float(few["recall"])


def test_length_breakdown_gap_grows_with_duration(tmp_path, caplog):
    with caplog.at_level(logging.WARNING):
        path = reproduce("length-breakdown", seed=4, out_path=tmp_path / "lb.csv")
    assert warnings_of(caplog) == []
    rows = read_csv(path)
    # Each bin runs the planner's plan at each k that fits 4.4 min/video, its
    # passes priced by the time model scaled to the bin's duration.
    behavior = dataclasses.replace(fit_hard_mixture(default_behavior()), observed_minutes=())
    for bin_label, seconds in (("0-20s", 10.0), ("20-40s", 30.1), ("40-60s", 50.0)):
        model = scale_base_for_duration(DEFAULT_TIME_MODEL, seconds)
        assert [
            (r["k"], r["modifiers"], int(r["iterations"]))
            for r in rows if r["length_bin"] == bin_label
        ] == planned(behavior, model, 4.4, (1, 5, 26, 52))

    def gap(bin_label):
        by_k = {r["k"]: float(r["recall"]) for r in rows if r["length_bin"] == bin_label}
        return by_k["52"] - by_k["5"]

    assert gap("40-60s") > gap("0-20s")


def test_expected_recall_budget_is_analytic(tmp_path):
    path = reproduce("expected-recall-budget", seed=0, out_path=tmp_path / "erb.csv")
    rows = read_csv(path)
    assert [r["k"] for r in rows] == ["1", "2", "3", "5", "7", "10", "15", "26", "52"]
    best = max(rows, key=lambda r: float(r["expected_recall"]))
    assert best["k"] == "52"
    k1 = next(r for r in rows if r["k"] == "1")
    assert float(k1["expected_recall"]) == pytest.approx(0.563, abs=1e-6)
