"""Reference views shared by the test modules."""

import numpy as np

from annocamp.taxonomy import mask_members, taxonomy_from_mapping
from annocamp.workersim import EVENT_FIELDS

# Question ids with a gap, listed out of order.
GAPPED_TAX = taxonomy_from_mapping({
    "labels": [{"id": i, "name": f"l{i}"} for i in range(3)],
    "questions": [{"id": 15, "prompt": "a", "members": [0]},
                  {"id": 10, "prompt": "b", "members": [1]},
                  {"id": 12, "prompt": "c", "members": [2]}],
})


def event_rows(table, tax) -> list[tuple]:
    """The row view of an event table: one (worker id, video id, question id,
    member labels, elapsed, iteration, gold) tuple of Python values per
    event, in table order, as the events CSV shows it. The gate is not
    stored: it is `bool(members)`."""
    columns = {f.name: getattr(table, f.name).tolist() for f in EVENT_FIELDS}
    answers = list(zip(columns["question"], columns["members"]))
    decoded = {(q, mask): mask_members(tax.questions[q], mask) for q, mask in set(answers)}
    columns["question"] = tax.question_ids[table.question].tolist()
    columns["worker"] = [table.worker_ids[w] for w in columns["worker"]]
    columns["video"] = [table.video_ids[v] for v in columns["video"]]
    columns["members"] = [decoded[answer] for answer in answers]
    return list(zip(*columns.values()))


def _reference_mix(x: np.ndarray) -> np.ndarray:
    x ^= x >> 30
    x *= 0xBF58476D1CE4E5B9
    x ^= x >> 27
    x *= 0x94D049BB133111EB
    x ^= x >> 31
    return x


def reference_fold(key, *fields) -> np.ndarray:
    """`seeding.fold` as plain numpy: every step on uint64 arrays, a scalar
    as a 1-element array, each field whitened after it is broadcast."""
    key = np.atleast_1d(np.asarray(key, dtype=np.uint64))
    for value in fields:
        value = np.atleast_1d(np.asarray(value, dtype=np.uint64))
        key = _reference_mix(key ^ _reference_mix(value + 0x9E3779B97F4A7C15))
    return key
