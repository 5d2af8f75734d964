"""Statistical checks of the counter draws and of what the simulator makes of them."""

import itertools
from collections import Counter

import numpy as np
import pytest

from annocamp.campaign import pack_hits, run_campaign
from annocamp.costmodel import DEFAULT_TIME_MODEL, HitBudget
from annocamp.evaluate import aggregate, metrics, truth_matrix
from annocamp.seeding import draw_key, id_key, id_keys, key_order, order, uniforms
from annocamp.taxonomy import partition_questions, singleton_taxonomy
from annocamp.workersim import default_behavior, hard_pairs, make_random_truth

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
    mask = hard_pairs(11, videos, range(52), h)
    assert mask.shape == (400, 52)
    for i in (0, 17, 399):
        pairs = [hard_pairs(11, [videos[i]], [label], h)[0, 0] for label in range(52)]
        assert pairs == mask[i].tolist()
        scalar = [uniforms(draw_key(11, videos[i], "hard-pair"), m)[0] < h for m in range(52)]
        assert scalar == mask[i].tolist()
    se = np.sqrt(h * (1 - h) / mask.size)
    assert abs(mask.mean() - h) < 4 * se
    assert not hard_pairs(11, ["v0"], range(52), 0.0).any()


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
    (subset,) = plan.subsets
    videos = [f"v{i}" for i in range(6000)]
    hits = pack_hits(videos, plan, HitBudget(), DEFAULT_TIME_MODEL, seed=2)
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
