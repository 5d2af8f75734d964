"""Workload inputs, generated from the workload seed with the benchmark's own
numpy generator.

The program's own generators (``make_random_truth``, ``sample_worker_pool``)
are deliberately not used, so a change to the program's RNG leaves the
inputs of every workload unchanged.
"""

from __future__ import annotations

import json

import numpy as np

QUESTIONS = 52
PREVALENCE = 3.7  # expected positive questions per video, as in the paper
POOL_SIZE = 50
RECALL_JITTER = 0.1  # honest workers: recall scaled by 1 +/- 10%
MIN_SECONDS, MAX_SECONDS = 10.0, 60.0

# Fixed per-workload stream keys: the same --seed gives each workload its
# own, reproducible inputs.
STREAM_KEYS = {"sim-k1": 1, "sim-k52x5": 2, "cli-k5": 3}


def generator(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), STREAM_KEYS[workload]])


def singleton_truth(rng: np.random.Generator, videos: int) -> np.ndarray:
    """Boolean (videos, 52) matrix: each label positive at rate 3.7/52."""
    return rng.random((videos, QUESTIONS)) < PREVALENCE / QUESTIONS


def recall_scales(rng: np.random.Generator) -> np.ndarray:
    """Per-worker recall multipliers of an honest pool."""
    return 1.0 + rng.uniform(-RECALL_JITTER, RECALL_JITTER, POOL_SIZE)


def video_id(index: int) -> str:
    return f"v{index:05d}"


def worker_id(index: int) -> str:
    return f"w{index:04d}"


def taxonomy_truth(rng: np.random.Generator, questions, videos: int) -> list[dict]:
    """Ground-truth documents for a grouped taxonomy.

    Each top-level question is positive at rate 3.7/52; a positive question
    marks each member with probability 1/2, at least one. Every video has at
    least one positive question, so positive-bias packing always finds a
    gold donor. Durations are uniform on 10-60 s, to 0.1 s.
    """
    docs = []
    for index in range(videos):
        positive = np.flatnonzero(rng.random(len(questions)) < PREVALENCE / QUESTIONS)
        if positive.size == 0:
            positive = rng.integers(len(questions), size=1)
        labels = []
        for q in positive:
            members = questions[int(q)]["members"]
            chosen = [m for m in members if rng.random() < 0.5]
            labels.extend(chosen or [members[int(rng.integers(len(members)))]])
        docs.append(
            {
                "video": video_id(index),
                "duration": round(float(rng.uniform(MIN_SECONDS, MAX_SECONDS)), 1),
                "labels": sorted(int(label) for label in labels),
            }
        )
    return docs


def write_jsonl(docs, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for doc in docs:
            fh.write(json.dumps(doc) + "\n")
