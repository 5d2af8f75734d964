"""Micro-benchmarks of the HIT packer and the campaign simulator.

Not collected by a plain `pytest` run (the file name does not start with
`test_`); run them explicitly:

    python -m pytest tests/bench_simulate.py --benchmark-only

With `--benchmark-disable` each benchmarked call runs once, untimed, and
the file is a quick correctness pass.
"""

import tracemalloc

import numpy as np
import pytest

from annocamp import workersim
from annocamp.campaign import assign_workers, campaign_rows, pack_hits, simulate_campaign
from annocamp.cli import sample_taxonomy_path
from annocamp.costmodel import DEFAULT_TIME_MODEL, HitBudget
from annocamp.evaluate import aggregate, truth_matrix
from annocamp.seeding import fold, id_key, id_keys, order
from annocamp.taxonomy import (load_taxonomy, partition_questions, question_positive,
                               singleton_taxonomy)
from annocamp.workersim import (
    ModifierSet,
    Worker,
    default_behavior,
    fit_hard_mixture,
    make_random_truth,
    sample_worker_pool,
    simulate_block,
    slot_table,
)

SEED = 1


def record_rate(benchmark, events: int) -> None:
    """Record the events a benchmarked call made and, when it was timed,
    their rate; under --benchmark-disable nothing is timed."""
    benchmark.extra_info["events"] = events
    if benchmark.stats is not None:
        benchmark.extra_info["events_per_s"] = events / benchmark.stats.stats.median


@pytest.fixture(scope="module")
def tax():
    return singleton_taxonomy(52)


@pytest.fixture(scope="module")
def pool():
    scales = np.random.default_rng(SEED).uniform(0.9, 1.1, 50)
    return [Worker(f"w{i:04d}", recall_scale=float(s)) for i, s in enumerate(scales)]


@pytest.mark.parametrize("k, videos", [(1, 300), (5, 300), (52, 1000)])
def test_pack_hits(benchmark, tax, k, videos):
    # k = 5 packs 10 subsets of 5 questions and one of 2: two subset sizes.
    plan = partition_questions(tax, k, SEED)
    videos = [f"v{i:05d}" for i in range(videos)]
    hits = benchmark(pack_hits, tax, videos, plan, HitBudget(), DEFAULT_TIME_MODEL, SEED)
    assert len(hits.video) == len(videos) * len(plan)


def test_pack_hits_k5_bias_grouping_150_sample_videos(benchmark):
    tax = load_taxonomy(sample_taxonomy_path())
    truths = make_random_truth(150, tax.label_count, 3.7, SEED, min_labels=1)
    video_ids = [t.video_id for t in truths]
    known = question_positive(tax, truth_matrix(truths, tax.label_count, video_ids))
    plan = partition_questions(tax, 5, SEED)
    hits = benchmark(pack_hits, tax, video_ids, plan, HitBudget(), DEFAULT_TIME_MODEL, SEED,
                     grouping=True, known=known)
    assert hits.gold.any()


@pytest.mark.parametrize("k, videos", [(1, 300), (52, 1000)])
def test_simulate_one_pass(benchmark, tax, pool, k, videos):
    behavior = default_behavior() if k == 1 else fit_hard_mixture(default_behavior())
    truths = make_random_truth(videos, 52, behavior.prevalence, SEED)

    def one_pass():
        return next(simulate_campaign(tax, truths, k, 1, behavior, SEED, pool=pool))

    events = benchmark(one_pass)
    assert len(events) == videos * 52
    record_rate(benchmark, len(events))


def test_simulate_k52_five_aggregated_passes(benchmark, tax, pool):
    # The paper's method at 1000 videos: one campaign of five k = 52 passes,
    # each aggregated as it is yielded. Only a campaign of several passes
    # shows the work its passes share. One more, untimed run records the
    # campaign's tracemalloc peak above its start, in MiB.
    behavior = fit_hard_mixture(default_behavior())
    truths = make_random_truth(1000, 52, behavior.prevalence, SEED)

    def campaign():
        rows = 0
        for events in simulate_campaign(tax, truths, 52, 5, behavior, SEED, pool=pool):
            assert aggregate(events, tax).iterations == 1
            rows += len(events)
        return rows

    events = benchmark(campaign)
    assert events == 5 * 1000 * 52
    record_rate(benchmark, events)
    tracemalloc.start()
    try:
        campaign()
        benchmark.extra_info["peak_mib"] = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def k52_campaign(tax, pool):
    """A campaign of sim-k52x5's size, 1000 videos at k = 52: its behaviour,
    truths, constants and HITs."""
    behavior = fit_hard_mixture(default_behavior())
    truths = make_random_truth(1000, 52, behavior.prevalence, SEED)
    rows = campaign_rows(tax, truths, pool, behavior, SEED)
    hits = pack_hits(tax, rows.video_ids, partition_questions(tax, 52, SEED), HitBudget(),
                     DEFAULT_TIME_MODEL, SEED, video_keys=rows.video_keys)
    return behavior, truths, rows, hits


def k52_slots(tax, rows, hits):
    return slot_table(tax, rows, hits.video, hits.subset[hits.hit], hits.lengths, hits.question,
                      hits.gold)


def test_slot_table_k52(benchmark, tax, k52_campaign):
    # The table a campaign builds once for all of its passes, timed apart
    # from them; its events are its slots.
    _, _, rows, hits = k52_campaign
    slots = benchmark(k52_slots, tax, rows, hits)
    assert len(slots.owner) == 1000 * 52
    record_rate(benchmark, len(slots.owner))


def test_simulate_block_k52(benchmark, tax, pool, k52_campaign):
    # One pass on a prebuilt table: the work every pass of sim-k52x5 repeats.
    behavior, truths, rows, hits = k52_campaign
    slots = k52_slots(tax, rows, hits)
    worker = assign_workers(hits, rows.worker_keys, SEED, 0)[hits.hit]
    events = benchmark(simulate_block, behavior, tax, ModifierSet(), SEED, rows, slots, worker)
    assert events == next(simulate_campaign(tax, truths, 52, 1, behavior, SEED, pool=pool))
    record_rate(benchmark, len(events))


def test_simulate_one_pass_k5_bias_grouping_150_sample_videos(benchmark):
    tax = load_taxonomy(sample_taxonomy_path())
    behavior = default_behavior()
    truths = make_random_truth(150, tax.label_count, 3.7, SEED, min_labels=1)
    pool = sample_worker_pool(50, behavior, 0.1, SEED)
    modifiers = ModifierSet(positive_bias=True, grouping=True)

    def one_pass():
        return next(simulate_campaign(tax, truths, 5, 1, behavior, SEED, pool=pool,
                                      modifiers=modifiers))

    events = benchmark(one_pass)
    assert events.gold.any() and len(events) > 150 * tax.question_count


def test_order_50_ids(benchmark):
    # One pass's worker assignment: a shuffle of a 50-worker pool.
    ids = [f"w{i:04d}" for i in range(50)]
    perm = benchmark(order, SEED, ids, "assign", 0)
    assert sorted(perm.tolist()) == list(range(50))


@pytest.mark.parametrize("slots", [0, 15_600], ids=["scalar", "array"])
def test_fold(benchmark, slots):
    # A stream tag and a counter folded into a key: Python ints, or the
    # per-slot keys and question ids of a k = 1 pass over 300 videos.
    if slots:
        key, counter = id_keys(range(slots)), np.arange(slots, dtype=np.uint64) % 52
    else:
        key, counter = id_key(SEED), 3
    bits = benchmark(fold, key, id_key("gate"), counter)
    assert bits.dtype == np.uint64 and len(bits) == max(slots, 1)


def test_fit_hard_mixture(benchmark):
    # The grid search runs once per process for each (recall, targets):
    # emptying its cache before each round times the search, not the lookup.
    behavior = benchmark.pedantic(fit_hard_mixture, (default_behavior(),),
                                  setup=workersim._fit_grid.cache_clear, rounds=50)
    assert behavior.correlated
