"""Statistical checks of the counter draws and of what the simulator makes of them."""

import hashlib
import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from annocamp.campaign import pack_hits, run_campaign, simulate_campaign
from annocamp.cli import sample_taxonomy_path
from annocamp.costmodel import DEFAULT_TIME_MODEL, HitBudget
from annocamp.evaluate import aggregate, metrics, truth_matrix
from annocamp.seeding import (draw_key, fold, id_key, id_keys, key_order, mix, order, uniforms,
                              white_uniforms, whiten)
from annocamp.taxonomy import (QuestionGroup, Taxonomy, load_taxonomy, partition_questions,
                               singleton_taxonomy)
from annocamp.workersim import (ModifierSet, default_behavior, fit_hard_mixture, hard_pairs,
                                make_random_truth, sample_worker_pool)
from helpers import reference_fold

CHI2_19_P001 = 43.82  # upper 0.1% point of chi-square with 19 degrees of freedom


def _check_uniform(u: np.ndarray) -> None:
    n = u.size
    assert u.dtype == np.float64 and u.min() >= 0.0 and u.max() < 1.0
    counts = np.bincount((u * 20).astype(int), minlength=20)
    expected = n / 20
    assert ((counts - expected) ** 2 / expected).sum() < CHI2_19_P001
    lag1 = np.corrcoef(u[:-1], u[1:])[0, 1]
    assert abs(lag1) < 4 / np.sqrt(n)


def test_uniforms_along_the_counter():
    _check_uniform(uniforms(draw_key(7, "gate"), np.arange(100_000)))


def test_uniforms_across_keys():
    keys = draw_key(7, np.array([id_key(f"v{i:05d}") for i in range(100_000)], dtype=np.uint64))
    _check_uniform(uniforms(keys, 3))


def test_uniforms_have_53_bits():
    u = uniforms(draw_key(1, "bits"), np.arange(1000))
    ints = u * 2.0**53
    assert np.all(ints == np.floor(ints))
    assert set((ints % 2).tolist()) == {0.0, 1.0}  # the lowest of the 53 bits varies
    assert len(np.unique(u)) == 1000


def test_uniforms_scalar_draws_match_the_grid():
    keys = draw_key(5, np.array([id_key("v1"), id_key("v2")], dtype=np.uint64), "tag")
    draws = uniforms(keys[:, None], np.arange(4)[None, :])
    for row, video in enumerate(("v1", "v2")):
        for counter in range(4):
            assert uniforms(draw_key(5, video, "tag"), counter)[0] == draws[row, counter]


def test_hard_mask_matches_scalar_and_fraction():
    h = 0.2
    videos = [f"v{i}" for i in range(400)]
    mask = hard_pairs(11, id_keys(videos), range(52), h)
    assert mask.shape == (400, 52)
    for i in (0, 17, 399):
        pairs = [hard_pairs(11, id_keys([videos[i]]), [label], h)[0, 0] for label in range(52)]
        assert pairs == mask[i].tolist()
        scalar = [uniforms(draw_key(11, videos[i], "hard-pair"), m)[0] < h for m in range(52)]
        assert scalar == mask[i].tolist()
    se = np.sqrt(h * (1 - h) / mask.size)
    assert abs(mask.mean() - h) < 4 * se
    assert not hard_pairs(11, id_keys(["v0"]), range(52), 0.0).any()


@pytest.mark.parametrize("shape", [(1000,), (3, 400)])
def test_key_order_keeps_tied_keys_in_position_order(shape):
    # A repeated key draws a repeated uniform; numpy's default sort would
    # reorder these ties, the stable sort keeps them by position.
    keys = draw_key(3, id_keys(np.arange(np.prod(shape)) % 10)).reshape(shape)
    stable = np.argsort(uniforms(keys, 0), axis=-1, kind="stable")
    assert np.array_equal(key_order(keys), stable)
    distinct = draw_key(3, id_keys(range(np.prod(shape)))).reshape(shape)
    assert np.array_equal(key_order(distinct),
                          np.argsort(uniforms(distinct, 0), axis=-1, kind="stable"))


def test_order_hits_every_permutation_uniformly():
    seeds = 6000
    seen = Counter(tuple(order(seed, ["a", "b", "c"], "tag").tolist()) for seed in range(seeds))
    assert set(seen) == set(itertools.permutations(range(3)))
    p = 1 / 6
    se = np.sqrt(p * (1 - p) / seeds)
    for count in seen.values():
        assert abs(count / seeds - p) < 4 * se


def test_k3_slot_orders_are_uniform_permutations():
    tax = singleton_taxonomy(3)
    plan = partition_questions(tax, 3, seed=2)
    (subset,) = plan
    videos = [f"v{i}" for i in range(6000)]
    hits = pack_hits(tax, videos, plan, HitBudget(), DEFAULT_TIME_MODEL, seed=2)
    assert hits.lengths.tolist() == [3] * len(videos)
    seen = Counter(map(tuple, hits.question.reshape(-1, 3).tolist()))
    assert set(seen) == set(itertools.permutations(subset))
    p = 1 / 6
    se = np.sqrt(p * (1 - p) / len(videos))
    for count in seen.values():
        assert abs(count / len(videos) - p) < 4 * se


def test_simulated_k1_matches_calibration():
    tax = singleton_taxonomy(52)
    behavior = default_behavior()
    truths = make_random_truth(3000, 52, behavior.prevalence, seed=12)
    events = run_campaign(tax, truths, 1, 1, behavior, seed=12)
    binary = aggregate(events, tax).binary(1)
    truth = truth_matrix(truths, 52)
    tp = int((binary & truth).sum())
    positives, marked = int(truth.sum()), int(binary.sum())
    scored = metrics(binary, truth)
    r, p = behavior.recall(1), behavior.precision(1)
    assert scored.recall == pytest.approx(tp / positives)
    assert abs(scored.recall - r) < 4 * np.sqrt(r * (1 - r) / positives)
    assert abs(scored.precision - p) < 4 * np.sqrt(p * (1 - p) / marked)


# ---------------------------------------------------------------------------
# The fold against its plain-numpy reference, and the draws pinned
# ---------------------------------------------------------------------------

U64 = st.integers(0, 2**64 - 1)


@st.composite
def fold_operands(draw):
    """A key and up to three fields: Python ints or uint64 arrays of the
    shapes (), (m,), (n, 1), (1, m) and (n, m), which broadcast together."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    shapes = [None, (), (m,), (n, 1), (1, m), (n, m)]

    def operand():
        shape = draw(st.sampled_from(shapes))
        if shape is None:
            return draw(U64)
        values = draw(st.lists(U64, min_size=int(np.prod(shape)), max_size=int(np.prod(shape))))
        return np.array(values, dtype=np.uint64).reshape(shape)

    return operand(), [operand() for _ in range(draw(st.integers(0, 3)))]


def _same(got, expected) -> bool:
    return got.dtype == np.uint64 and got.shape == expected.shape and np.array_equal(got, expected)


@given(fold_operands())
@example((0, [2**64 - 1]))
@example((2**64 - 1, [0, np.array([0, 2**64 - 1], dtype=np.uint64)]))
def test_fold_and_its_halves_equal_the_reference(operands):
    key, fields = operands
    expected = reference_fold(key, *fields)
    got = fold(key, *fields)
    assert _same(got, expected)
    # fold hands back a fresh array: uniforms shifts it in place.
    assert not any(np.shares_memory(got, a) for a in (key, *fields) if isinstance(a, np.ndarray))
    stepped = key
    for value in fields:
        stepped = mix(stepped, whiten(value))
    assert _same(np.atleast_1d(np.array(stepped, dtype=np.uint64)), expected)
    if fields:
        bits = reference_fold(key, *fields[:-1])
        counters = fields[-1]
        u = (reference_fold(bits, counters) >> np.uint64(11)) * 2.0**-53
        assert np.array_equal(uniforms(bits, counters), u)
        assert np.array_equal(white_uniforms(bits, whiten(counters)), u)


@given(st.integers(0, 2**32), st.lists(st.one_of(st.text(max_size=3), U64), max_size=3))
def test_draw_key_equals_the_reference(seed, ids):
    keys = id_keys(ids)
    expected = reference_fold(id_key(seed), *(id_key(i) for i in ids))
    assert _same(draw_key(seed, *ids), expected)
    assert _same(draw_key(seed, "tag", keys), reference_fold(id_key(seed), id_key("tag"), keys))


@pytest.mark.parametrize("call", [
    lambda: fold(-1), lambda: fold(2**64), lambda: fold(0, -1), lambda: fold(0, 2**64),
    lambda: fold(np.zeros(2, dtype=np.uint64), -1), lambda: whiten(-1), lambda: whiten(2**64),
    lambda: mix(-1, 0), lambda: mix(0, 2**64), lambda: uniforms(0, -1),
    lambda: uniforms(np.zeros(2, dtype=np.uint64), 2**64),
])
def test_out_of_range_ints_overflow_as_numpy_does(call):
    # As np.asarray(-1, dtype=np.uint64) does: the Python-int path never wraps.
    with pytest.raises(OverflowError):
        call()


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def _renumbered(tax):
    """The taxonomy with question ids 1000 - 7 x position, so that no
    question id equals its position."""
    return Taxonomy(tax.labels, tuple(QuestionGroup(1000 - 7 * p, q.prompt, q.members)
                                      for p, q in enumerate(tax.questions)))


# (k, taxonomy, modifiers, spammer fraction)
PINNED_CAMPAIGNS = {
    "k1": (1, "singleton", ModifierSet(), 0.0),
    "k5": (5, "bundled", ModifierSet(positive_bias=True, grouping=True), 0.1),
    "k52": (52, "bundled", ModifierSet(summary_prompt=True, forced_response=True), 0.0),
    "k5-renumbered": (5, "renumbered", ModifierSet(positive_bias=True, grouping=True), 0.1),
}


@pytest.mark.parametrize("case, seed, expected", [
    ("k1", 0, "3058a49ae8a9aa4c"),
    ("k1", 7, "74e107dbf4fe2e2f"),
    ("k1", 2**32 - 1, "ee78949d1c07ec2d"),
    ("k5", 0, "3f90cd12a01f5d5e"),
    ("k5", 7, "54cbf75182fe3ff9"),
    ("k5", 2**32 - 1, "a5b101a04d3ef4ca"),
    ("k52", 0, "72a27c2da6faa491"),
    ("k52", 7, "974cc667855a63f7"),
    ("k52", 2**32 - 1, "7d64c9ac2803bc3c"),
    ("k5-renumbered", 0, "505346dbbdec698e"),
    ("k5-renumbered", 7, "5e4a28259de498f3"),
    ("k5-renumbered", 2**32 - 1, "a19bdcd9d97d2878"),
])
def test_campaign_draws_are_pinned(case, seed, expected):
    # The integer columns of two passes over 30 videos and 20 workers. The
    # elapsed seconds are left out: log, cos and exp may differ in the last
    # ulp from one CPU to another. On the renumbered taxonomy an id taken
    # for a position, or a position for an id, changes the digest.
    k, taxonomy, modifiers, spammers = PINNED_CAMPAIGNS[case]
    tax = singleton_taxonomy(52) if taxonomy == "singleton" else load_taxonomy(
        sample_taxonomy_path())
    if taxonomy == "renumbered":
        tax = _renumbered(tax)
    behavior = fit_hard_mixture(default_behavior())
    truths = make_random_truth(30, tax.label_count, 3.7, seed, min_labels=1)
    pool = sample_worker_pool(20, behavior, spammers, seed)
    columns = []
    for events in simulate_campaign(tax, truths, k, 2, behavior, seed, modifiers=modifiers,
                                    pool=pool):
        columns += [events.worker, events.video, events.question, events.members, events.gold,
                    events.iteration]
    assert _digest(*columns) == expected


def test_order_and_fold_are_pinned():
    assert _digest(order(7, range(52), "partition", 5)) == "303f7c74d15bf10f"
    keys = np.array([0, 1, 0x9E3779B97F4A7C15, 2**64 - 1], dtype=np.uint64)
    assert _digest(fold(keys, 0, 2**64 - 1, np.arange(4, dtype=np.uint64), 12345)) == \
        "1d6fa73770d69115"
    counters = np.array([0, 7, 2**64 - 1], dtype=np.uint64)
    assert _digest(fold(keys[:, None], counters[None, :])) == "47966f8ec85b284f"
    assert fold(3, 5, 2**64 - 1).tolist() == [15391697043434071819]
