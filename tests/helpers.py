"""Reference views shared by the test modules."""

from annocamp.taxonomy import mask_members
from annocamp.workersim import EVENT_FIELDS


def event_rows(table, tax) -> list[tuple]:
    """The row view of an event table: one (worker id, video id, question,
    member labels, elapsed, iteration, gold) tuple of Python values per
    event, in table order. The gate is not stored: it is `bool(members)`."""
    columns = {f.name: getattr(table, f.name).tolist() for f in EVENT_FIELDS}
    answers = list(zip(columns["question"], columns["members"]))
    decoded = {(q, mask): mask_members(tax.question(q), mask) for q, mask in set(answers)}
    columns["worker"] = [table.worker_ids[w] for w in columns["worker"]]
    columns["video"] = [table.video_ids[v] for v in columns["video"]]
    columns["members"] = [decoded[answer] for answer in answers]
    return list(zip(*columns.values()))
