"""Operational campaign plumbing: HIT generation, ingestion, QC, experiments.

A campaign turns a question-subset plan plus a video list into HIT
specifications (optionally with gold positive-bias duplicates), simulates
or ingests the resulting annotation events, tracks per-worker statistics
for outlier flagging, and drives the bundled desk-scale experiments.
"""

from __future__ import annotations

import csv
import hashlib
import io
import logging
import math
import mmap
import os
import statistics
from array import array
from collections import Counter
from dataclasses import dataclass, field, replace
from itertools import accumulate, chain
from operator import itemgetter
from pathlib import Path

import numpy as np

from .costmodel import (
    DEFAULT_TIME_MODEL,
    REFERENCE_VIDEO_SECONDS,
    HitBudget,
    TimeModel,
    scale_base_for_duration,
    task_time,
    videos_per_hit,
)
from .evaluate import (
    LabelMatrix,
    aggregate,
    event_stats,
    group_ids,
    metrics,
    truth_matrix,
    voting_rows,
)
from .output import atomic_open, csv_chunks, write_csv
from .planner import (NO_MODIFIERS, BudgetConstraint, best_plan, enumerate_plans,
                      plan_iteration_minutes)
from .seeding import draw_key, fold, id_key, id_keys, key_order, uniforms
from .taxonomy import (
    Taxonomy,
    dense_codes,
    expand_answer,
    mask_members,
    members_mask,
    partition_questions,
    question_positive,
    singleton_taxonomy,
)
from .workersim import (
    DEFAULT_PREVALENCE,
    CampaignRows,
    EventTable,
    ModifierSet,
    Worker,
    WorkerBehavior,
    default_behavior,
    fit_hard_mixture,
    hard_pairs,
    make_random_truth,
    mixture_union_recall,
    sample_worker_pool,
    simulate_block,
    slot_table,
)

# The events CSV columns; `gold` follows when a row is gold.
EVENT_COLUMNS = ("worker", "video", "question", "gate", "members", "elapsed", "iteration")
ROW_CHUNK = 1024  # rows the events CSV writer joins at a time; they bound its memory


HIT_ID = "hit-{:03d}-{:05d}"  # by subset index and chunk


@dataclass(frozen=True, eq=False)
class Hits:
    """Packed HITs as columns, question subset by subset in plan order.

    Per HIT: `subset` (its subset's index), `chunk` (its number in the
    subset) and `expected_seconds`; each pays `pay`. Per task (one video of
    one HIT, in HIT order; a subset has one task per video): `hit`, `video`
    (its row in `video_ids`) and `lengths` (its slot count). Per slot, task
    by task in the order asked: `question` (its position in the taxonomy's
    questions) and `gold` (a bias duplicate), both read-only. `pack_hits`
    builds each column for the whole pass at once, from one packing-order
    draw and one slot block per distinct subset size.
    """

    video_ids: tuple[str, ...]
    subset: np.ndarray
    chunk: np.ndarray
    expected_seconds: np.ndarray
    pay: float
    hit: np.ndarray
    video: np.ndarray
    lengths: np.ndarray
    question: np.ndarray
    gold: np.ndarray

    def __len__(self) -> int:
        return len(self.subset)

    @property
    def hit_ids(self) -> list[str]:
        return list(map(HIT_ID.format, self.subset.tolist(), self.chunk.tolist()))


@dataclass
class WorkerStats:
    worker_id: str
    tasks_completed: int
    median_seconds_per_task: float
    gold_recall: float | None
    positive_rate: float


@dataclass(frozen=True)
class VerificationTask:
    """A predicted positive awaiting a temporal extent or a rejection."""

    video: str
    label: int


def pack_hits(
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
    video_keys: np.ndarray | None = None,
) -> Hits:
    """Deterministically pack videos into HITs at the effort target.

    Each HIT holds one question subset (`subsets`: tuples of positions in
    `tax.questions`, as `partition_questions` returns them) over as many
    videos as fit the target. With grouping, all videos in a HIT present
    the identical question order. Given `known`, the (videos x questions)
    boolean matrix of known positives (`question_positive`'s form, row i
    for video_ids[i]), duplicates of questions known positive for the
    member videos are injected until the expected affirmative fraction
    reaches one third; duplicates are flagged gold and excluded from the
    expected-time accounting.

    The pass is packed with no loop over subsets: one draw orders the
    videos of every subset, the HITs and their gold duplicates are sized
    over all HITs at once, each distinct subset size fills its tasks'
    slots as one (subsets x videos x slots) block, and one argsort
    shuffles the slots of every task.

    Slots hold question positions; only the grouping draw is keyed by
    question ids (`tax.question_ids`). `video_keys`, the `id_keys` of
    video_ids, spares a caller that holds them a second hashing of the ids.
    """
    video_ids = tuple(video_ids)
    if not video_ids:
        raise ValueError("cannot pack an empty video list")
    if len(set(video_ids)) < len(video_ids):
        repeated = next(v for v, count in Counter(video_ids).items() if count > 1)
        raise ValueError(f"video {repeated!r} is listed more than once")
    n = len(video_ids)
    if known is not None and np.shape(known) != (n, tax.question_count):
        raise ValueError(f"known has shape {np.shape(known)}, not {(n, tax.question_count)}")
    if video_keys is None:
        video_keys = id_keys(video_ids)
    sizes = np.array(list(map(len, subsets)), dtype=np.int64)
    positions = np.fromiter(chain.from_iterable(subsets), dtype=np.int64)
    first = np.cumsum(sizes) - sizes  # each subset's offset in positions
    subset_keys = id_keys(range(len(sizes)))
    # Row s is subset s's packing order, the shuffle order(seed, video_ids,
    # "pack", s): its task t is the video packed[s, t] of chunk t // per_hit.
    packed = key_order(draw_key(seed, "pack", subset_keys[:, None], video_keys))
    distinct, size_at = dense_codes(sizes)
    per_hit = np.array([videos_per_hit(model, size, budget) for size in distinct.tolist()])
    seconds = np.array([task_time(model, size) for size in distinct.tolist()])[size_at]
    chunk = np.arange(n) // per_hit[size_at, None]
    chunks = chunk[:, -1] + 1
    first_hit = np.cumsum(chunks) - chunks
    hit = (first_hit[:, None] + chunk).ravel()
    hit_subset = np.repeat(np.arange(len(sizes)), chunks)
    hit_chunk = np.arange(len(hit_subset)) - first_hit[hit_subset]
    chunk_len = np.bincount(hit)
    golds = np.zeros((len(sizes), n), dtype=np.int64)
    if known is not None:
        # Each video's known positives in taxonomy order, as one flat array
        # of positions with offsets.
        pool_len = np.count_nonzero(known, axis=1)
        pool_start = np.cumsum(pool_len) - pool_len
        pooled = np.nonzero(known)[1]
        # A HIT's duplicates go round-robin over its donors (the videos with
        # known positives, in pack order); a video's j-th gold slot repeats
        # its known positive j modulo their count.
        hit_size = sizes[hit_subset]
        expected_pos = chunk_len * prevalence * hit_size / len(positions)
        duplicates = np.maximum(0, np.rint((chunk_len * hit_size - 3.0 * expected_pos) / 2.0))
        duplicates = duplicates.astype(np.int64)
        donor = pool_len[packed].ravel() > 0
        donors = np.bincount(hit[donor], minlength=len(chunk_len))
        empty = np.flatnonzero((duplicates > 0) & (donors == 0))
        if len(empty):
            hit_id = HIT_ID.format(hit_subset[empty[0]], hit_chunk[empty[0]])
            raise ValueError(f"{hit_id}: no video has a known positive to duplicate")
        nth = np.cumsum(donor) - 1 - (np.cumsum(donors) - donors)[hit]
        turns, extra = np.divmod(duplicates, np.maximum(donors, 1))
        golds = np.where(donor, turns[hit] + (nth < extra[hit]), 0).reshape(golds.shape)
    lengths = sizes[:, None] + golds
    # A task's slots are its base questions, then its gold duplicates,
    # padded to the widest task; each subset size fills its tasks' slots.
    # Without gold slots or shared orders, the videos of a subset share one
    # row of slots.
    gilded = golds.any()
    alike = not gilded and not (grouping and (sizes > 1).any())
    slots = np.empty((len(sizes), 1 if alike else n, lengths.max()), dtype=np.int64)
    for size_index, size in enumerate(distinct.tolist()):
        rows = np.flatnonzero(size_at == size_index)
        base = positions[first[rows, None, None] + np.arange(size)]  # its videos alike
        if grouping and size > 1:
            # One question order shared by every video of a HIT: chunk c of
            # subset s has order(seed, subset, s, c, "order").
            chunk_keys = id_keys(range(chunks[rows[0]]))[:, None]
            question_keys = id_keys(tax.question_ids[base].ravel().tolist()).reshape(base.shape)
            shared = key_order(draw_key(seed, subset_keys[rows, None, None], chunk_keys, "order",
                                        question_keys))
            base = np.take_along_axis(base, shared, axis=2)[:, chunk[rows[0]]]
        slots[rows, :, :size] = base
        if gilded:
            video = packed[rows]
            j = np.arange(golds[rows].max())
            at = pool_start[video][..., None] + j % np.maximum(pool_len[video], 1)[..., None]
            slots[rows, :, size : size + len(j)] = pooled[np.where(j < golds[rows, :, None], at, 0)]
    # Slots are shuffled, every task of the pass at once, by argsort of
    # counter uniforms keyed by (seed, subset, video), the padding past a
    # task's end sorting last. Under grouping the shuffle only places the
    # gold slots, in their drawn order, and the base slots keep the shared
    # order; without gold slots it is skipped there.
    width = np.arange(slots.shape[2])
    is_gold = width >= sizes[:, None, None]
    if len(width) > 1 and (gilded or not grouping):
        keys = fold(draw_key(seed, subset_keys[:, None]), video_keys[packed], id_key("slots"))
        u = uniforms(keys[..., None], width)
        u[width >= lengths[..., None]] = 2.0
        perm = np.argsort(u, axis=2)
        placed, is_gold = np.take_along_axis(slots, perm, axis=2), perm >= sizes[:, None, None]
        if grouping:
            rank = np.cumsum(~is_gold, axis=2) - 1
            placed = np.where(is_gold, placed, np.take_along_axis(slots, rank, axis=2))
        slots = placed
    asked = width < lengths[..., None]
    slots, is_gold = np.broadcast_to(slots, asked.shape), np.broadcast_to(is_gold, asked.shape)
    question, gold = slots[asked], is_gold[asked]
    question.flags.writeable = gold.flags.writeable = False
    return Hits(video_ids, subset=hit_subset, chunk=hit_chunk,
                expected_seconds=chunk_len * seconds[hit_subset], pay=budget.pay_per_hit,
                hit=hit, video=packed.ravel(), lengths=lengths.ravel(),
                question=question, gold=gold)


def assign_workers(hits, worker_keys, seed: int, iteration: int) -> np.ndarray:
    """Each HIT's worker row: the pool's rows in a seeded shuffle,
    order(seed, worker ids, "assign", iteration), cycled over the HITs.
    `worker_keys` are the `id_keys` of the pool's worker ids, by row. Every
    worker in the pool is eligible; QC flags do not remove anyone."""
    if not len(worker_keys):
        raise ValueError("the worker pool is empty")
    perm = key_order(draw_key(seed, "assign", iteration, worker_keys))
    return perm[np.arange(len(hits)) % len(perm)]


def campaign_rows(tax: Taxonomy, truths, pool, behavior: WorkerBehavior, seed: int,
                  model: TimeModel = DEFAULT_TIME_MODEL) -> CampaignRows:
    """The CampaignRows of a pool and truths, built once; each video's base
    seconds are the model's, scaled to its duration."""
    video_ids = tuple(t.video_id for t in truths)
    video_keys = id_keys(video_ids)
    durations, duration = np.unique([t.duration_seconds for t in truths], return_inverse=True)
    base = [scale_base_for_duration(model, d).base_seconds for d in durations.tolist()]
    return CampaignRows(
        worker_ids=tuple(w.worker_id for w in pool),
        worker_keys=id_keys(w.worker_id for w in pool),
        recall_scale=np.array([w.recall_scale for w in pool]),
        time_scale=np.array([w.time_scale for w in pool]),
        spammer=np.array([w.spammer for w in pool], dtype=bool),
        video_ids=video_ids,
        video_keys=video_keys,
        truth=truth_matrix(truths, tax.label_count, video_ids=video_ids),
        hard=hard_pairs(seed, video_keys, range(tax.label_count), behavior.hard_fraction),
        base_seconds=np.array(base)[duration],
        per_question_seconds=model.per_question_seconds,
    )


def simulate_campaign(
    tax: Taxonomy,
    truths,
    k: int,
    iterations: int,
    behavior: WorkerBehavior,
    seed: int,
    *,
    modifiers: ModifierSet = NO_MODIFIERS,
    model: TimeModel = DEFAULT_TIME_MODEL,
    budget: HitBudget = HitBudget(),
    pool=None,
):
    """Simulate `iterations` complete passes; yields one event table per pass.

    Each pass lists the HITs' events in slot order, on the vocabularies of
    the pool's worker ids and the truths' video ids, which must be unique.
    Built once, before the first pass: the HITs (`pack_hits`, given the
    `question_positive` matrix under positive bias), the campaign's
    constants (`campaign_rows`) and the HITs' pass-invariant slot table
    (`slot_table`), whose video, question and gold columns every pass's
    events share, read-only. A pass is one `simulate_block` call over its
    tasks, which draws only what its workers change. Every draw is a
    counter draw keyed by the ids of the task's worker and video, so the
    events are a pure function of the seed and do not depend on execution
    order. Each pass assigns the HITs over the whole pool (default: one worker).
    """
    if iterations < 1:
        raise ValueError("a campaign needs at least one iteration")
    truths = list(truths)
    if pool is None:
        pool = [Worker("w0")]
    video_ids = tuple(t.video_id for t in truths)
    if len(set(video_ids)) < len(truths) or len({w.worker_id for w in pool}) < len(pool):
        raise ValueError("a campaign's video ids and its pool's worker ids must be unique")
    plan = partition_questions(tax, k, seed)
    rows = campaign_rows(tax, truths, pool, behavior, seed, model)
    known = question_positive(tax, rows.truth) if modifiers.positive_bias else None
    hits = pack_hits(tax, video_ids, plan, budget, model, seed, grouping=modifiers.grouping,
                     known=known, prevalence=behavior.prevalence, video_keys=rows.video_keys)
    slots = slot_table(tax, rows, hits.video, hits.subset[hits.hit], hits.lengths, hits.question,
                       hits.gold)
    for iteration in range(iterations):
        worker = assign_workers(hits, rows.worker_keys, seed, iteration)[hits.hit]
        yield simulate_block(behavior, tax, modifiers, seed, rows, slots, worker, iteration)


def run_campaign(*args, **kwargs) -> EventTable:
    """All iterations of simulate_campaign in one table."""
    return EventTable.concat(simulate_campaign(*args, **kwargs))


# ---------------------------------------------------------------------------
# Event CSV export / ingestion
# ---------------------------------------------------------------------------


logger = logging.getLogger(__name__)

# The first line of every sidecar; a file of another layout never reads.
SIDECAR_FORMAT = b"annocamp events table 5\n"
# Each EVENT_FIELDS column's dtype in the sidecar, in field order: the
# table's own, gold as bytes (viewed as bool once each is 0 or 1).
SIDECAR_DTYPES = {name: np.dtype(dtype) for name, dtype in (
    ("worker", "<i8"), ("video", "<i8"), ("question", "<i8"), ("members", "<u8"),
    ("elapsed", "<f8"), ("iteration", "<i8"), ("gold", "u1"),
)}
ROW_BYTES = sum(dtype.itemsize for dtype in SIDECAR_DTYPES.values())
# Bytes a read takes of a CSV hashed against its sidecar's key.
HASH_BLOCK = 1 << 16


def sidecar_path(events) -> Path:
    """The table sidecar of an events CSV: `<events>.table`, beside it, a flat
    file of the table's columns (`_save_sidecar` gives the layout)."""
    events = Path(events)
    return events.with_name(events.name + ".table")


def _sidecar_key(csv_digest: bytes, tax: Taxonomy) -> bytes:
    """The CSV's digest, then a digest of the question table ingest reads it by."""
    questions = repr([(q.id, q.members) for q in tax.questions]).encode()
    return csv_digest + hashlib.sha256(questions).digest()


def _columns_at(ids_end: int) -> int:
    """Where a sidecar's columns start: the first 8-byte boundary at or past
    the end of its ids."""
    return -(-ids_end // 8) * 8


def _save_sidecar(events, key: bytes, table: EventTable) -> None:
    """Save `table` under `key` as the CSV's sidecar; where no file can be
    written, there is no sidecar.

    The file is SIDECAR_FORMAT, the key, the row count and the two
    vocabulary sizes (`<i8`), each id's UTF-8 length (`<i8`, workers then
    videos), the ids' bytes, zeros up to an 8-byte boundary, then each
    stored column's raw bytes in its SIDECAR_DTYPES dtype, ROW_BYTES a row
    (`question` as positions). `gate` is not stored: the table derives it
    from `members`. The parts are written one by one, and the file replaces
    the old one whole (`atomic_open`), so a table mapped from it stays as
    it was read.
    """
    ids = [[i.encode() for i in vocabulary] for vocabulary in (table.worker_ids, table.video_ids)]
    counts = np.array([len(table), *map(len, ids)], "<i8")
    lengths = np.array([len(i) for i in chain(*ids)], "<i8")
    text = b"".join(chain(*ids))
    ids_end = len(SIDECAR_FORMAT) + len(key) + counts.nbytes + lengths.nbytes + len(text)
    try:
        with atomic_open(sidecar_path(events), binary=True) as fh:
            for part in (SIDECAR_FORMAT, key, counts, lengths, text,
                         bytes(_columns_at(ids_end) - ids_end)):
                fh.write(part)
            for name, dtype in SIDECAR_DTYPES.items():
                fh.write(np.ascontiguousarray(getattr(table, name), dtype))
    except OSError as exc:
        logger.debug("no table sidecar for %s: %s", events, exc)


def _load_sidecar(events, key: bytes, tax: Taxonomy) -> EventTable | None:
    """The table of the CSV's sidecar if it holds `key`; None if it is
    missing, stale, or unreadable or damaged (with a warning)."""
    path = sidecar_path(events)
    try:
        with open(path, "rb") as fh:
            return _read_sidecar(fh, key, tax)
    except FileNotFoundError:
        return None
    except Exception as exc:  # whatever is wrong with the file, the CSV stands in
        logger.warning("ignoring table sidecar %s: %s", path, exc)
        return None


def _read_sidecar(fh, key: bytes, tax: Taxonomy) -> EventTable | None:
    """The table of an open sidecar file, None if it holds another key.

    The header is read; on a key match the file is mapped read-only and
    each column is a read-only view of the mapping, neither copied nor
    widened. The file's size must be exactly what its counts give. A
    ValueError names the first way the file is not a sidecar (or one of
    another format), or holds a table no CSV gives: a question position
    outside the taxonomy, members bits past the question's members
    (`_stray_members`), an id code outside its vocabulary (`EventTable`), or
    a gold flag not 0 or 1.
    """
    size, head_size = os.fstat(fh.fileno()).st_size, len(SIDECAR_FORMAT) + len(key) + 24
    head = fh.read(head_size)
    if not head.startswith(SIDECAR_FORMAT):
        raise ValueError("not an events table sidecar")
    if len(head) < head_size:
        raise ValueError(f"{size} bytes, too few for its header")
    if head[len(SIDECAR_FORMAT) : -24] != key:
        return None
    rows, *sizes = np.frombuffer(head, "<i8", 3, len(head) - 24).tolist()
    if min(rows, *sizes) < 0 or len(head) + 8 * sum(sizes) + rows * ROW_BYTES > size:
        raise ValueError("row or vocabulary counts outside the file")
    data = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    size = len(data)
    lengths = np.frombuffer(data, "<i8", sum(sizes), head_size).tolist()
    ends = list(accumulate(lengths, initial=head_size + 8 * len(lengths)))
    at = _columns_at(ends[-1])
    if min(lengths, default=0) < 0 or size != at + rows * ROW_BYTES:
        raise ValueError(f"{size} bytes where its counts give {at + rows * ROW_BYTES}")
    ids = [data[a:b].decode() for a, b in zip(ends, ends[1:])]
    vocabularies = (tuple(ids[: sizes[0]]), tuple(ids[sizes[0] :]))
    columns = {}
    for name, dtype in SIDECAR_DTYPES.items():
        columns[name] = np.frombuffer(data, dtype, rows, at)
        at += rows * dtype.itemsize
    if rows and columns["gold"].max() > 1:
        raise ValueError("a gold flag is neither 0 nor 1")
    columns["gold"] = columns["gold"].view(bool)
    count = tax.question_count
    if rows and not 0 <= columns["question"].min() <= columns["question"].max() < count:
        raise ValueError(f"a question code outside its {count} values")
    table = EventTable(*vocabularies, **columns)
    if _stray_members(table.question, table.members, tax).any():
        raise ValueError("members bits past their question's members")
    return table


def _stray_members(question: np.ndarray, members: np.ndarray, tax: Taxonomy) -> np.ndarray:
    """Whether each row's members bits lie past its question's (a position)."""
    limits = np.array([(1 << len(q.members)) - 1 for q in tax.questions], np.uint64)
    return members > limits[question]


def _csv_fields(ids) -> list[str]:
    """Each id as csv.writer writes it inside a row. A ValueError names the
    first id that would not read back unchanged (csv.writer leaves a lone
    carriage return unquoted)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    fields = []
    for i in ids:
        buf.seek(0)
        buf.truncate()
        writer.writerow((i, ""))  # the empty second field keeps an empty id unquoted
        fields.append(buf.getvalue()[:-2])
        try:
            back = list(csv.reader([fields[-1] + ","]))
        except csv.Error:
            back = None
        if back != [[i, ""]]:
            raise ValueError(f"id {i!r} would not read back from an events CSV")
    return fields


def _first_seen(ids, codes: np.ndarray) -> tuple[tuple, np.ndarray]:
    """The ids that `codes` use, numbered by first use as `ingest` numbers
    them, and the codes on that vocabulary. Each id's first row is found by
    one `np.minimum.at` over the vocabulary."""
    rows = len(codes)
    first = np.full(len(ids), rows)
    np.minimum.at(first, codes, np.arange(rows))
    index: dict = {}
    renumber = np.zeros(len(ids), np.int64)
    for u in np.argsort(first)[: np.count_nonzero(first < rows)].tolist():
        renumber[u] = index.setdefault(ids[u], len(index))
    return tuple(index), renumber[codes]


def _answer_columns(answers: list, code) -> tuple:
    """The question (position) and members columns of answer codes into `answers`."""
    question, members = zip(*answers) if answers else ((), ())
    return np.array(question, np.int64)[code], np.array(members, np.uint64)[code]


def write_events_csv(table: EventTable, tax: Taxonomy, path) -> None:
    """Write an event table as CSV; the `gold` column appears iff a row is gold.

    The table names questions by position in tax.questions, the CSV by id.
    A table `ingest` would not read back is a ValueError before the file is
    opened: an id that would not read back unchanged, or, by CSV line, rows
    whose question position is outside the taxonomy, whose members bits lie
    past their question's members, whose elapsed time is not positive and
    finite, or that repeat a non-gold (worker, video, question, iteration).
    The checks run on the columns; only when one fails are the CSV lines
    counted and the rows named. Each column's distinct values (each
    answer's id and members, say) are formatted once, and each ROW_CHUNK of
    rows is joined at once (`csv_chunks`). The table as `ingest` returns it
    goes to the CSV's sidecar (`sidecar_path`), keyed by the SHA-256 digest
    of the bytes written.
    """
    workers, videos = _csv_fields(table.worker_ids), _csv_fields(table.video_ids)
    (worker_ids, worker), (video_ids, video) = (_first_seen(table.worker_ids, table.worker),
                                                _first_seen(table.video_ids, table.video))
    parsed = replace(table, worker_ids=worker_ids, video_ids=video_ids, worker=worker, video=video)
    count, question = tax.question_count, table.question
    if ((len(table) and not 0 <= question.min() <= question.max() < count)
            or _stray_members(question, table.members, tax).any()
            or _row_problems(parsed, range(len(table)), tax)):
        known = (question >= 0) & (question < count)
        # ingest counts physical lines, and a quoted id may hold line breaks.
        breaks = [np.array([f.count("\n") + f.count("\r") - f.count("\r\n") for f in fs],
                           np.int64) for fs in (workers, videos)]
        lines = 1 + np.cumsum(1 + breaks[0][table.worker] + breaks[1][table.video])
        stray = np.flatnonzero(known)[_stray_members(question[known], table.members[known], tax)]
        _raise_problems(path, [
            (lines[r], f"unknown question position {question[r]} (the taxonomy has {count} "
                       "questions)") for r in np.flatnonzero(~known)
        ] + [
            (lines[r], f"question {tax.question_ids[question[r]]}: members bits past its "
                       "members") for r in stray
        ] + _row_problems(parsed, lines, tax))
    answer, first = group_ids(table.question, table.members)
    texts = [f"{q.id},{int(mask != 0)},{';'.join(map(str, mask_members(q, mask)))}"
             for q, mask in zip(map(tax.questions.__getitem__, table.question[first].tolist()),
                                table.members[first].tolist())]
    seconds, elapsed = dense_codes(table.elapsed)
    iterations, iteration = dense_codes(table.iteration)
    columns = [
        (workers, table.worker),
        (videos, table.video),
        (texts, answer),
        (map(repr, seconds.tolist()), elapsed),
        (map(str, iterations.tolist()), iteration),
    ]
    gold = table.gold.any()
    if gold:
        columns.append((["0", "1"], table.gold.view(np.uint8)))
    header = ",".join(EVENT_COLUMNS + (("gold",) if gold else ())) + "\n"
    chunks = csv_chunks(columns, len(table), ROW_CHUNK)
    digest = hashlib.sha256()
    with atomic_open(path, binary=True) as fh:
        for text in chain([header], chunks):
            data = text.encode()
            digest.update(data)
            fh.write(data)
    _save_sidecar(path, _sidecar_key(digest.digest(), tax), parsed)


def _parse_bool(raw: str, column: str) -> bool:
    if raw in ("0", "1"):
        return raw == "1"
    if raw.lower() in ("true", "false"):
        return raw.lower() == "true"
    raise ValueError(f"{column} must be 0/1 or true/false, got {raw!r}")


def _answer_code(tax: Taxonomy, raw: tuple[str, str, str], answers: list):
    """Index in `answers` of a raw (question id, gate, members) answer, appended
    as (question position, members mask); or the reason it is invalid."""
    try:
        question_id, gate = int(raw[0]), _parse_bool(raw[1], "gate")
        labels = [int(m) for m in raw[2].split(";") if m.strip()]
        selected = expand_answer(tax, question_id, gate, labels)
    except ValueError as exc:
        return str(exc)
    position = tax.position(question_id)
    answers.append((position, members_mask(tax.questions[position], selected)))
    return len(answers) - 1


def _row_problems(table: EventTable, lines, tax: Taxonomy) -> list[tuple[int, str]]:
    """(line, reason) for each row the table-wide checks reject: a
    non-positive or non-finite elapsed time, or a second non-gold answer to
    one (worker, video, question, iteration), named by the question's id in
    `tax`. Row r is on line lines[r].

    A repeat is looked for by sorting the checked rows' mixed-radix key of
    (worker, video, iteration, question), the vocabulary codes as they are
    and the other two by `dense_codes`, and comparing neighbours; only when
    one repeats does `group_ids` name each repeat by the first line of its
    answer.
    """
    elapsed = table.elapsed
    bad = ~((elapsed > 0) & (elapsed < np.inf))
    problems = [(lines[r], "elapsed must be " + ("finite" if elapsed[r] > 0 else "positive"))
                for r in np.flatnonzero(bad)]
    checked = ~bad & ~table.gold
    key = table.worker * len(table.video_ids)
    key += table.video
    for column in (table.iteration, table.question):
        values, codes = dense_codes(column)
        key *= len(values)
        key += codes
    key = key[checked]
    key.sort()
    if not (key[1:] == key[:-1]).any():
        return problems
    kept = np.flatnonzero(checked)
    columns = (table.worker, table.video, table.iteration, table.question)
    task, first = group_ids(*(c[kept] for c in columns))
    original = kept[first[task]]
    for row, first_row in zip(kept[original != kept], original[original != kept]):
        problems.append((lines[row], f"duplicates line {lines[first_row]} (same worker, "
                         f"video, question {tax.question_ids[table.question[row]]} and "
                         "iteration)"))
    return problems


def ingest(source, tax: Taxonomy) -> EventTable:
    """The event table of an event CSV, validated, with its gold column.

    The CSV names questions by id, the table by position in tax.questions.
    One ValueError names every bad row by line, the first 20 of them: a row
    with too few fields, a value that does not parse, an answer
    `expand_answer` rejects (an unknown question id, say), a non-positive
    or non-finite elapsed time, or a second non-gold answer to one (worker,
    video, question, iteration).

    The table of a CSV that parses is saved in its sidecar (`sidecar_path`),
    keyed by the SHA-256 digests of the CSV's bytes and of the taxonomy's
    questions. Where a sidecar exists, the CSV is hashed as a stream
    (`_file_digest`); a call whose key matches reads the table from the
    sidecar, checks that it is one a CSV could give (`_read_sidecar`) and
    runs the same row checks on it. Any problem, and a missing sidecar,
    sends it to the parse, which reads and hashes the CSV's bytes once, so
    an error always names its lines.
    """
    if os.path.exists(sidecar_path(source)):
        table = _load_sidecar(source, _sidecar_key(_file_digest(source), tax), tax)
        if table is not None and not _row_problems(table, range(len(table)), tax):
            return table
    data = Path(source).read_bytes()
    table = _parse_events(source, data, tax)
    _save_sidecar(source, _sidecar_key(hashlib.sha256(data).digest(), tax), table)
    return table


def _file_digest(path) -> bytes:
    """The SHA-256 digest of a file, read HASH_BLOCK bytes at a time into
    one reused buffer."""
    digest, block = hashlib.sha256(), bytearray(HASH_BLOCK)
    view = memoryview(block)
    with Path(path).open("rb", buffering=0) as fh:
        while size := fh.readinto(block):
            digest.update(view[:size])
    return digest.digest()


def _parse_events(source, data: bytes, tax: Taxonomy) -> EventTable:
    """The validated event table of the CSV bytes `data`, read from `source`."""
    workers: dict[str, int] = {}
    videos: dict[str, int] = {}
    codes: dict[tuple[str, str, str], int | str] = {}  # raw answer -> _answer_code
    answers: list[tuple[int, int]] = []
    fields = array("q")  # worker, video, answer code, iteration and gold of each row
    elapsed, lines, problems = array("d"), array("q"), []
    with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        missing = [c for c in EVENT_COLUMNS if c not in header]
        if missing:
            raise ValueError(f"{source}: missing columns {missing}")
        at = [header.index(c) for c in EVENT_COLUMNS + ("gold",) if c in header]
        width = max(at) + 1
        answer_of = itemgetter(*at[2:5])
        for row in reader:
            if len(row) < width:
                if row:  # a blank line reads as []
                    problems.append((reader.line_num, f"too few fields ({len(row)} of {width})"))
                continue
            code = codes.get(raw := answer_of(row))
            if code is None:
                code = codes[raw] = _answer_code(tax, raw, answers)
            try:
                if isinstance(code, str):
                    raise ValueError(code)
                seconds, iteration = float(row[at[5]]), int(row[at[6]])
                gold = len(at) > 7 and row[at[7]] != "" and _parse_bool(row[at[7]], "gold")
            except ValueError as exc:
                problems.append((reader.line_num, str(exc)))
                continue
            worker = workers.setdefault(row[at[0]], len(workers))
            video = videos.setdefault(row[at[1]], len(videos))
            fields.extend((worker, video, code, iteration, gold))
            elapsed.append(seconds)
            lines.append(reader.line_num)

    worker, video, code, iteration, gold = np.frombuffer(fields, np.int64).reshape(-1, 5).T
    table = EventTable(tuple(workers), tuple(videos), worker, video,
                       *_answer_columns(answers, code), np.frombuffer(elapsed), iteration, gold)
    _raise_problems(source, problems + _row_problems(table, lines, tax))
    return table


def _raise_problems(source, problems: list[tuple[int, str]]) -> None:
    """One ValueError naming the first 20 (line, reason) problems by line, if any."""
    if problems:
        shown = "; ".join(f"line {line}: {reason}" for line, reason in sorted(problems)[:20])
        more = f" (+{len(problems) - 20} more)" if len(problems) > 20 else ""
        raise ValueError(f"{source}: {shown}{more}")


def worker_stats_from_events(table: EventTable) -> list[WorkerStats]:
    """Per-worker task counts, median task seconds, gold recall, positive rate.

    Gold rows count only towards gold recall. A task is one (worker, video,
    iteration); its seconds are summed in row order. One stable sort by
    worker splits the task seconds into each worker's, in task order.
    """
    n, gold, voting = len(table.worker_ids), table.gold, voting_rows(table.gold)
    worker = table.worker[voting]
    task, first = group_ids(worker, table.video[voting], table.iteration[voting])
    seconds = np.bincount(task, weights=table.elapsed[voting])
    answered = np.bincount(worker, minlength=n)
    yes = np.bincount(worker[table.gate[voting]], minlength=n)
    gold_asked = np.bincount(table.worker[gold], minlength=n)
    gold_yes = np.bincount(table.worker[gold & table.gate], minlength=n)
    task_worker = worker[first]
    bounds = [0, *np.cumsum(np.bincount(task_worker, minlength=n)).tolist()]
    by_worker = seconds[np.argsort(task_worker, kind="stable")].tolist()
    stats = []
    for w in sorted(np.flatnonzero(answered).tolist(), key=table.worker_ids.__getitem__):
        durations = by_worker[bounds[w] : bounds[w + 1]]
        stats.append(
            WorkerStats(
                worker_id=table.worker_ids[w],
                tasks_completed=len(durations),
                median_seconds_per_task=statistics.median(durations),
                gold_recall=int(gold_yes[w]) / int(gold_asked[w]) if gold_asked[w] else None,
                positive_rate=int(yes[w]) / int(answered[w]),
            )
        )
    return stats


# ---------------------------------------------------------------------------
# Quality control
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QcThresholds:
    mad_z: float = 3.0
    min_workers: int = 5


@dataclass(frozen=True)
class QcFlag:
    worker_id: str
    signals: tuple[str, ...]
    z_scores: dict = field(default_factory=dict)


def _robust_z(values: list[float]) -> list[float]:
    med = statistics.median(values)
    mad = statistics.median(abs(v - med) for v in values)
    if mad == 0:
        return [0.0 if v == med else math.inf for v in values]
    return [(v - med) / (1.4826 * mad) for v in values]


def qc_flag(stats, thresholds: QcThresholds = QcThresholds()) -> list[QcFlag]:
    """Advisory outlier flags on gold recall, task time, and positive rate.

    Flags mark deviations beyond the robust z threshold from the pool
    median (gold recall: low side only). Flags are advisory: every worker
    stays in the pool that `assign_workers` draws from.
    """
    stats = list(stats)
    if len(stats) < thresholds.min_workers:
        raise ValueError(
            f"need at least {thresholds.min_workers} workers for robust statistics"
        )
    tripped: dict[str, dict[str, float]] = {}

    def check(signal: str, values, low_only: bool = False) -> None:
        workers = [s.worker_id for s, v in zip(stats, values) if v is not None]
        present = [v for v in values if v is not None]
        if len(present) < thresholds.min_workers:
            return
        for worker_id, z in zip(workers, _robust_z(present)):
            out = z < -thresholds.mad_z if low_only else abs(z) > thresholds.mad_z
            if out:
                tripped.setdefault(worker_id, {})[signal] = z

    check("gold_recall", [s.gold_recall for s in stats], low_only=True)
    check("median_seconds", [s.median_seconds_per_task for s in stats])
    check("positive_rate", [s.positive_rate for s in stats])
    return [
        QcFlag(worker_id=w, signals=tuple(sorted(sig)), z_scores=sig)
        for w, sig in sorted(tripped.items())
    ]


# ---------------------------------------------------------------------------
# Verification queue
# ---------------------------------------------------------------------------


def build_verification_queue(
    matrix: LabelMatrix, threshold: int = 1, already_verified=()
) -> list[VerificationTask]:
    """One verification task per unverified predicted-positive pair."""
    done = set(already_verified)
    row, label = matrix.binary(threshold).nonzero()
    pairs = zip(np.array(matrix.video_ids, dtype=object)[row].tolist(), label.tolist())
    return [VerificationTask(*pair) for pair in pairs if pair not in done]


# ---------------------------------------------------------------------------
# Bundled experiments
# ---------------------------------------------------------------------------

_SWEEP_KS = (1, 2, 3, 5, 7, 10, 15, 26, 52)


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def _fitted_behavior() -> WorkerBehavior:
    return fit_hard_mixture(default_behavior())


def _simulated_rows(tax, truths, behavior, plan, seed):
    """Cumulative (n, minutes, recall, precision) rows for one plan's passes."""
    truth = truth_matrix(truths, tax.label_count)
    video_ids = tuple(sorted(t.video_id for t in truths))
    votes = np.zeros((len(video_ids), tax.label_count), dtype=np.int16)
    total_seconds = 0.0
    rows = []
    batches = simulate_campaign(tax, truths, plan.k, plan.iterations, behavior, seed,
                                modifiers=plan.modifiers)
    for n, events in enumerate(batches, start=1):
        matrix = aggregate(events, tax, video_ids=video_ids)
        votes += matrix.votes
        total_seconds += sum(events.elapsed[~events.gold].tolist())
        scored = metrics(votes >= 1, truth)
        minutes = total_seconds / 60.0 / len(video_ids)
        rows.append((n, minutes, scored.recall, scored.precision))
    return rows


_PLANNED_KS = (1, 5, 26, 52)


def _planned_runs(tax, truths, behavior, model, budget_minutes, seed):
    """For each of `_PLANNED_KS` that fits the budget, the planner's plan at
    that k (`best_plan` over its beneficial modifier sets, no precision
    floor) and `_simulated_rows` of that plan's modifiers and passes."""
    plans = enumerate_plans(behavior, model, BudgetConstraint(budget_minutes), _PLANNED_KS,
                            beneficial_only=True)
    for k in _PLANNED_KS:
        at_k = [p for p in plans if p.k == k]
        if at_k:
            plan = best_plan(at_k)
            yield plan, _simulated_rows(tax, truths, behavior, plan, seed)


def _experiment_question_count_sweep(seed: int):
    """One pass at each sweep k: recall, precision, minutes and the
    affirmative rate, on 160 videos."""
    tax = singleton_taxonomy(52)
    behavior = _fitted_behavior()
    truths = make_random_truth(160, tax.label_count, behavior.prevalence, seed)
    truth = truth_matrix(truths, tax.label_count)
    header = ["k", "recall", "precision", "minutes_per_video", "affirmative_per_iteration"]
    rows = []
    for k in _SWEEP_KS:
        events = run_campaign(tax, truths, k, 1, behavior, seed)
        matrix = aggregate(events, tax)
        scored = metrics(matrix.binary(1), truth)
        minutes, affirmative = event_stats(events)
        rows.append(
            [k, _fmt(scored.recall), _fmt(scored.precision), _fmt(minutes), _fmt(affirmative)]
        )
    return header, rows


def _experiment_expected_recall_budget(seed: int):
    """The pass law's expected recall at each sweep k within 8.61 min/video,
    for the passes (fractional) the budget buys; the seed is unused."""
    budget_minutes = 8.61
    behavior = default_behavior()
    header = ["k", "iteration_minutes", "budget_minutes", "expected_recall"]
    rows = []
    for k in _SWEEP_KS:
        minutes = plan_iteration_minutes(behavior, DEFAULT_TIME_MODEL, k)
        value = mixture_union_recall(behavior.recall(k), budget_minutes / minutes,
                                     behavior.hard_fraction, behavior.hard_recall_multiplier)
        rows.append([k, _fmt(minutes), _fmt(budget_minutes), _fmt(value)])
    return header, rows


def _experiment_multi_iteration(seed: int):
    """Each pass of the planner's plan at each planned k within 7.1
    min/video, priced by the fitted behaviour's observed minutes."""
    tax = singleton_taxonomy(52)
    behavior = _fitted_behavior()
    # Every video needs one known positive so gold duplicates have a donor.
    truths = make_random_truth(150, tax.label_count, behavior.prevalence, seed, min_labels=1)
    header = ["k", "modifiers", "iterations", "minutes_per_video", "recall", "precision"]
    rows = []
    for plan, sim in _planned_runs(tax, truths, behavior, DEFAULT_TIME_MODEL, 7.1, seed):
        for n, minutes, recall, precision in sim:
            rows.append(
                [plan.k, plan.modifiers.label(), n, _fmt(minutes), _fmt(recall), _fmt(precision)]
            )
    return header, rows


_LENGTH_BINS = (("0-20s", 10.0), ("20-40s", REFERENCE_VIDEO_SECONDS), ("40-60s", 50.0))


def _experiment_length_breakdown(seed: int):
    """The last pass of the planner's plan at each planned k within 4.4
    min/video, per video-length bin; a k whose one pass does not fit a bin
    is left out of it."""
    tax = singleton_taxonomy(52)
    # Pass times come from the duration-scaled model, never the observed
    # reference-length minutes, which the simulation does not read.
    behavior = replace(_fitted_behavior(), observed_minutes=())
    header = [
        "length_bin",
        "k",
        "modifiers",
        "iterations",
        "minutes_per_video",
        "recall",
        "precision",
    ]
    rows = []
    for bin_index, (bin_label, duration) in enumerate(_LENGTH_BINS):
        truths = make_random_truth(120, tax.label_count, behavior.prevalence, seed + bin_index,
                                   duration_seconds=duration, min_labels=1)
        scaled = scale_base_for_duration(DEFAULT_TIME_MODEL, duration)
        for plan, sim in _planned_runs(tax, truths, behavior, scaled, 4.4, seed + bin_index):
            _, measured_minutes, recall, precision = sim[-1]
            rows.append([bin_label, plan.k, plan.modifiers.label(), plan.iterations,
                         _fmt(measured_minutes), _fmt(recall), _fmt(precision)])
    return header, rows


def _experiment_worker_correlations(seed: int):
    """Per-worker tasks, median seconds, recall and precision of a 30-worker
    pool over two 52-question passes on 80 videos."""
    tax = singleton_taxonomy(52)
    behavior = _fitted_behavior()
    truths = make_random_truth(80, tax.label_count, behavior.prevalence, seed)
    pool = sample_worker_pool(30, behavior, 0.0, seed)
    events = run_campaign(tax, truths, 52, 2, behavior, seed, pool=pool)
    # An event is positive when its question has a member the video shows.
    truth = truth_matrix(truths, tax.label_count, video_ids=events.video_ids)
    positive = question_positive(tax, truth)[events.video, events.question]
    n = len(events.worker_ids)
    positives = np.bincount(events.worker[positive], minlength=n).tolist()
    tp = np.bincount(events.worker[positive & events.gate], minlength=n).tolist()
    fp = np.bincount(events.worker[~positive & events.gate], minlength=n).tolist()
    row_of = {w: i for i, w in enumerate(events.worker_ids)}
    header = ["worker", "tasks", "median_seconds", "recall", "precision"]
    rows = []
    for stats in worker_stats_from_events(events):
        w = row_of[stats.worker_id]
        recall = tp[w] / positives[w] if positives[w] else 0.0
        marked = tp[w] + fp[w]
        precision = tp[w] / marked if marked else 1.0
        rows.append(
            [
                stats.worker_id,
                stats.tasks_completed,
                _fmt(stats.median_seconds_per_task),
                _fmt(recall),
                _fmt(precision),
            ]
        )
    return header, rows


_EXPERIMENT_RUNNERS = {
    "question-count-sweep": _experiment_question_count_sweep,
    "expected-recall-budget": _experiment_expected_recall_budget,
    "multi-iteration": _experiment_multi_iteration,
    "length-breakdown": _experiment_length_breakdown,
    "worker-correlations": _experiment_worker_correlations,
}
EXPERIMENTS = tuple(_EXPERIMENT_RUNNERS)


def reproduce(name: str, seed: int, out_path):
    """Run a bundled experiment and write its figure-shaped CSV to `out_path`
    (None: stdout), which it returns.

    Output is byte-identical for identical (name, seed) across runs.
    `multi-iteration` and `length-breakdown` simulate the plans the planner
    picks. An unknown name is a ValueError.
    """
    try:
        runner = _EXPERIMENT_RUNNERS[name]
    except KeyError:
        raise ValueError(
            f"unknown experiment {name!r}; choose one of {', '.join(EXPERIMENTS)}"
        ) from None
    header, rows = runner(seed)
    write_csv(out_path, header, rows)
    return out_path
