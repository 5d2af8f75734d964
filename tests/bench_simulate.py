"""Micro-benchmarks of the HIT packer and the campaign simulator.

Not collected by a plain `pytest` run (the file name does not start with
`test_`); run them explicitly:

    python -m pytest tests/bench_simulate.py --benchmark-only
"""

import numpy as np
import pytest

from annocamp.campaign import pack_hits, simulate_campaign
from annocamp.costmodel import DEFAULT_TIME_MODEL, HitBudget
from annocamp.taxonomy import partition_questions, singleton_taxonomy
from annocamp.workersim import Worker, default_behavior, fit_hard_mixture, make_random_truth

SEED = 1


@pytest.fixture(scope="module")
def tax():
    return singleton_taxonomy(52)


@pytest.fixture(scope="module")
def pool():
    scales = np.random.default_rng(SEED).uniform(0.9, 1.1, 50)
    return [Worker(f"w{i:04d}", recall_scale=float(s)) for i, s in enumerate(scales)]


def test_pack_hits_k1_300_videos(benchmark, tax):
    plan = partition_questions(tax, 1, SEED)
    videos = [f"v{i:05d}" for i in range(300)]
    hits = benchmark(pack_hits, videos, plan, HitBudget(), DEFAULT_TIME_MODEL, SEED)
    assert sum(len(h.video_ids) for h in hits) == 300 * 52


@pytest.mark.parametrize("k, videos", [(1, 300), (52, 1000)])
def test_simulate_one_pass(benchmark, tax, pool, k, videos):
    behavior = default_behavior() if k == 1 else fit_hard_mixture(default_behavior())
    truths = make_random_truth(videos, 52, behavior.prevalence, SEED)

    def one_pass():
        return next(simulate_campaign(tax, truths, k, 1, behavior, SEED, pool=pool))

    events = benchmark(one_pass)
    assert len(events) == videos * 52


def test_fit_hard_mixture(benchmark):
    behavior = benchmark(fit_hard_mixture, default_behavior())
    assert behavior.correlated
