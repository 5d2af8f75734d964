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
import statistics
from array import array
from collections import Counter
from dataclasses import dataclass, field, replace
from itertools import chain
from operator import itemgetter
from pathlib import Path

import numpy as np

from .costmodel import (
    DEFAULT_TIME_MODEL,
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
    expected_recall,
    group_ids,
    metrics,
    truth_matrix,
)
from .output import atomic_open, write_csv
from .planner import FEW_QUESTION_BUNDLE, NO_MODIFIERS, plan_iteration_minutes
from .seeding import draw_key, fold, id_key, id_keys, key_order, order, uniforms
from .taxonomy import (
    SubsetPlan,
    Taxonomy,
    dense_codes,
    expand_answer,
    mask_members,
    members_mask,
    partition_questions,
    question_positions,
    singleton_taxonomy,
)
from .workersim import (
    DEFAULT_PREVALENCE,
    EVENT_FIELDS,
    EventTable,
    ModifierSet,
    Worker,
    WorkerBehavior,
    default_behavior,
    fit_hard_mixture,
    hard_pairs,
    make_random_truth,
    regime,
    sample_worker_pool,
    simulate_block,
)

# The events CSV columns; `gold` follows when a row is gold.
EVENT_COLUMNS = tuple(f.name for f in EVENT_FIELDS if f.name != "gold")
ROW_CHUNK = 4096  # rows the events CSV writer joins into text at a time


HIT_ID = "hit-{:03d}-{:05d}"  # by subset index and chunk


@dataclass(frozen=True, eq=False)
class Hits:
    """Packed HITs as columns, question subset by subset in plan order.

    Per HIT: `subset` (its subset's index), `chunk` (its number in the
    subset) and `expected_seconds`; each pays `pay`. Per task (one video of
    one HIT, in HIT order; a subset has one task per video): `hit`, `video`
    (its row in `video_ids`) and `lengths` (its slot count). Per slot, task
    by task in the order asked: `question` (its id) and `gold` (a bias duplicate).
    `pack_hits` builds each column for the whole pass at once, from one
    packing-order draw and one slot block per distinct subset size.
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


def gate_positives(tax: Taxonomy, video_ids, truth: np.ndarray) -> dict[str, list[int]]:
    """Each video's question ids, in taxonomy order, whose member sets meet
    its true labels: its row of the (videos x labels) truth matrix."""
    positive = (truth[:, tax.member_table] & (tax.member_table >= 0)).any(axis=2)
    return {v: tax.question_ids[row].tolist() for v, row in zip(video_ids, positive)}


def pack_hits(
    video_ids,
    subset_plan: SubsetPlan,
    budget: HitBudget,
    model: TimeModel,
    seed: int,
    *,
    positive_bias: bool = False,
    grouping: bool = False,
    known_positives: dict | None = None,
    prevalence: float = DEFAULT_PREVALENCE,
) -> Hits:
    """Deterministically pack videos into HITs at the effort target.

    Each HIT holds one question subset over as many videos as fit the
    target. With grouping, all videos in a HIT present the identical
    question order. With positive bias, duplicates of questions known
    positive for the member videos are injected until the expected
    affirmative fraction reaches one third; duplicates are flagged gold and
    excluded from the expected-time accounting.

    The pass is packed with no loop over subsets: one draw orders the
    videos of every subset, the HITs and their gold duplicates are sized
    over all HITs at once, each distinct subset size fills its tasks'
    slots as one (subsets x videos x slots) block, and one argsort
    shuffles the slots of every task.
    """
    video_ids = tuple(video_ids)
    if not video_ids:
        raise ValueError("cannot pack an empty video list")
    if len(set(video_ids)) < len(video_ids):
        repeated = next(v for v, count in Counter(video_ids).items() if count > 1)
        raise ValueError(f"video {repeated!r} is listed more than once")
    if positive_bias and not known_positives:
        raise ValueError("positive bias requires known positive questions per video")
    n = len(video_ids)
    video_keys = id_keys(video_ids)
    sizes = np.array(list(map(len, subset_plan.subsets)), dtype=np.int64)
    ids = np.fromiter(chain.from_iterable(subset_plan.subsets), dtype=np.int64)
    first_id = np.cumsum(sizes) - sizes  # each subset's offset in ids
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
    if positive_bias:
        # Each video's known positives, as one flat array with offsets.
        pools = [known_positives.get(v) or () for v in video_ids]
        pool_len = np.array(list(map(len, pools)), dtype=np.int64)
        pool_start = np.cumsum(pool_len) - pool_len
        pooled = np.array([q for pool in pools for q in pool], dtype=np.int64)
        # A HIT's duplicates go round-robin over its donors (the videos with
        # known positives, in pack order); a video's j-th gold slot repeats
        # its known positive j modulo their count.
        hit_size = sizes[hit_subset]
        expected_pos = chunk_len * prevalence * hit_size / len(ids)
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
        subset_ids = ids[first_id[rows, None] + np.arange(size)]
        base = subset_ids[:, None, :]  # every video of a subset alike
        if grouping and size > 1:
            # One question order shared by every video of a HIT: chunk c of
            # subset s has order(seed, subset, s, c, "order").
            chunk_keys = id_keys(range(chunks[rows[0]]))[:, None]
            question_keys = id_keys(subset_ids.ravel().tolist()).reshape(len(rows), 1, size)
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
    return Hits(video_ids, subset=hit_subset, chunk=hit_chunk,
                expected_seconds=chunk_len * seconds[hit_subset], pay=budget.pay_per_hit,
                hit=hit, video=packed.ravel(), lengths=lengths.ravel(),
                question=slots[asked], gold=is_gold[asked])


def assign_workers(hits, pool, seed: int, iteration: int, blacklist=()) -> list[Worker]:
    """One worker per HIT: a seeded shuffle of the pool's worker ids, cycled,
    without the workers whose ids are in `blacklist`."""
    eligible = [w for w in pool if w.worker_id not in blacklist]
    if not eligible:
        raise ValueError("no eligible workers (all blacklisted?)")
    perm = order(seed, [w.worker_id for w in eligible], "assign", iteration)
    return [eligible[perm[i % len(eligible)]] for i in range(len(hits))]


def campaign_rows(tax: Taxonomy, truths, pool, behavior: WorkerBehavior, seed: int,
                  model: TimeModel = DEFAULT_TIME_MODEL) -> dict:
    """The campaign's constants that `simulate_block` reads, built once: the
    pool's columns by worker row, the truths' by video row (truth matrix,
    hard-pair mask and the time model's base scaled to each duration), and
    the per-question seconds."""
    video_ids = tuple(t.video_id for t in truths)
    durations, duration = np.unique([t.duration_seconds for t in truths], return_inverse=True)
    base = [scale_base_for_duration(model, d).base_seconds for d in durations.tolist()]
    return {
        "worker_ids": tuple(w.worker_id for w in pool),
        "worker_keys": id_keys(w.worker_id for w in pool),
        "recall_scale": np.array([w.recall_scale for w in pool]),
        "time_scale": np.array([w.time_scale for w in pool]),
        "spammer": np.array([w.spammer for w in pool], dtype=bool),
        "video_ids": video_ids,
        "video_keys": id_keys(video_ids),
        "truth": truth_matrix(truths, tax.label_count, video_ids=video_ids),
        "hard": hard_pairs(seed, video_ids, range(tax.label_count), behavior.hard_fraction),
        "base_seconds": np.array(base)[duration],
        "per_question_seconds": model.per_question_seconds,
    }


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
    blacklist=(),
):
    """Simulate `iterations` complete passes; yields one event table per pass.

    Each pass lists the HITs' events in slot order, on the vocabularies of
    the pool's worker ids and the truths' video ids, which must be unique.
    `pack_hits` gives the HITs' task and slot columns once, and the worker,
    video and task columns `simulate_block` reads are built once; a pass is
    one `simulate_block` call over all of its tasks. Every draw is a counter
    draw keyed by the ids of the task's worker and video, so the events are
    a pure function of the seed and do not depend on execution order.
    """
    if iterations < 1:
        raise ValueError("a campaign needs at least one iteration")
    truths = list(truths)
    if pool is None:
        pool = [Worker("w0")]
    video_ids = tuple(t.video_id for t in truths)
    worker_row = {w.worker_id: i for i, w in enumerate(pool)}
    if len(set(video_ids)) < len(truths) or len(worker_row) < len(pool):
        raise ValueError("a campaign's video ids and its pool's worker ids must be unique")
    plan = partition_questions(tax, k, seed)
    rows = campaign_rows(tax, truths, pool, behavior, seed, model)
    known = gate_positives(tax, video_ids, rows["truth"]) if modifiers.positive_bias else None
    hits = pack_hits(video_ids, plan, budget, model, seed, positive_bias=modifiers.positive_bias,
                     grouping=modifiers.grouping, known_positives=known,
                     prevalence=behavior.prevalence)
    # Each task's subset, by which its size and draws are keyed.
    subset = hits.subset[hits.hit]
    tasks = {
        "video": hits.video,
        "size": np.array(list(map(len, plan.subsets)))[subset],
        "subset_key": id_keys(range(len(plan.subsets)))[subset],
        "lengths": hits.lengths,
        "question": question_positions(tax, hits.question),
        "gold": hits.gold,
    }
    del subset
    for iteration in range(iterations):
        picks = assign_workers(hits, pool, seed, iteration, blacklist)
        worker = np.array([worker_row[w.worker_id] for w in picks])[hits.hit]
        yield simulate_block(behavior, tax, modifiers, seed, iteration=iteration, worker=worker,
                             **rows, **tasks)


def run_campaign(*args, **kwargs) -> EventTable:
    """All iterations of simulate_campaign in one table."""
    return EventTable.concat(simulate_campaign(*args, **kwargs))


# ---------------------------------------------------------------------------
# Event CSV export / ingestion
# ---------------------------------------------------------------------------


logger = logging.getLogger(__name__)

# Folded into every sidecar key, so a sidecar of another layout never matches.
SIDECAR_FORMAT = b"annocamp events table 1"


def sidecar_path(events) -> Path:
    """The table sidecar of an events CSV: `<events>.npz`, beside it."""
    events = Path(events)
    return events.with_name(events.name + ".npz")


def _sidecar_key(csv_digest: bytes, tax: Taxonomy) -> np.ndarray:
    """The CSV's digest, then a digest of the question table ingest reads it by."""
    questions = repr([(q.id, q.members) for q in tax.questions]).encode()
    tax_digest = hashlib.blake2b(SIDECAR_FORMAT + questions, digest_size=16).digest()
    return np.frombuffer(csv_digest + tax_digest, np.uint8)


def _csv_digest(data: bytes = b""):
    """The blake2b hash of CSV bytes that a sidecar key starts with."""
    return hashlib.blake2b(data, digest_size=32)


def _save_sidecar(events, key: np.ndarray, table: EventTable) -> None:
    """Save `table` under `key` as the CSV's sidecar; where no file can be
    written, there is no sidecar."""
    arrays = {f.name: getattr(table, f.name) for f in EVENT_FIELDS}
    for name in ("worker_ids", "video_ids"):
        encoded = [i.encode() for i in getattr(table, name)]
        arrays[name] = np.frombuffer(b"".join(encoded), np.uint8)
        arrays[name + "_lengths"] = np.array(list(map(len, encoded)), np.int64)
    try:
        with atomic_open(sidecar_path(events), binary=True) as fh:
            np.savez(fh, allow_pickle=False, key=key, **arrays)
    except OSError as exc:
        logger.debug("no table sidecar for %s: %s", events, exc)


def _load_sidecar(events, key: np.ndarray) -> EventTable | None:
    """The table of the CSV's sidecar if it holds `key`; None if it is
    missing, stale or unreadable (with a warning)."""
    path = sidecar_path(events)
    try:
        with np.load(path, allow_pickle=False) as npz:
            if not np.array_equal(npz["key"], key):
                return None
            vocabularies = []
            for name in ("worker_ids", "video_ids"):
                data, ends = npz[name].tobytes(), np.cumsum(npz[name + "_lengths"]).tolist()
                vocabularies.append(tuple(data[a:b].decode() for a, b in zip([0, *ends], ends)))
            return EventTable(*vocabularies, *(npz[f.name] for f in EVENT_FIELDS))
    except FileNotFoundError:
        return None
    except Exception as exc:  # whatever is wrong with the file, the CSV stands in
        logger.warning("ignoring table sidecar %s: %s", path, exc)
        return None


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
    them, and the codes on that vocabulary."""
    inverse, first = group_ids(codes)
    names = [ids[u] for u in codes[first].tolist()]
    index: dict = {}
    for rank in np.argsort(first).tolist():
        index.setdefault(names[rank], len(index))
    return tuple(index), np.array([index[n] for n in names], np.int64)[inverse]


def _answer_columns(answers: list, code) -> tuple:
    """The question, gate and members columns of answer codes into `answers`."""
    return tuple(
        np.array([a[i] for a in answers], dtype)[code]
        for i, dtype in enumerate((np.int64, bool, np.uint64))
    )


def write_events_csv(table: EventTable, tax: Taxonomy, path) -> None:
    """Write an event table as CSV; the `gold` column appears iff a row is gold.

    Each column's distinct values are formatted once: ids by `_csv_fields`,
    answers (question, gate, members), elapsed times by `repr` (0.0 apart
    from -0.0) and iterations; the rows are joined ROW_CHUNK at a time. An
    id that would not read back unchanged is a ValueError before the file is
    opened. When every answer reads back unchanged, the table as `ingest`
    returns it goes to the CSV's sidecar.
    """
    answer, first = group_ids(table.question, table.gate, table.members)
    answers, texts, valid = [], [], True
    for q, gate, mask in zip(*(c[first].tolist() for c in (table.question, table.gate, table.members))):
        raw = (str(q), str(int(gate)), ";".join(map(str, mask_members(tax.question(q), mask))))
        texts.append(",".join(raw))
        valid &= not isinstance(_answer_code(tax, raw, answers), str)
    bits, elapsed = dense_codes(table.elapsed.view(np.uint64))
    iterations, iteration = dense_codes(table.iteration)
    workers, videos = _csv_fields(table.worker_ids), _csv_fields(table.video_ids)
    columns = [
        (workers, table.worker),
        (videos, table.video),
        (texts, answer),
        (list(map(repr, bits.view(np.float64).tolist())), elapsed),
        (list(map(str, iterations.tolist())), iteration),
    ]
    gold = table.gold.any()
    if gold:
        columns.append((["0", "1"], table.gold.view(np.uint8)))
    columns = [(np.array(values, object), codes) for values, codes in columns]
    header = ",".join(EVENT_COLUMNS + (("gold",) if gold else ())) + "\n"
    digest = _csv_digest()
    with atomic_open(path, binary=True) as fh:
        chunks = (
            "".join([",".join(row) + "\n" for row in zip(*(
                values[codes[start : start + ROW_CHUNK]].tolist() for values, codes in columns
            ))])
            for start in range(0, len(table), ROW_CHUNK)
        )
        for text in chain([header], chunks):
            data = text.encode()
            digest.update(data)
            fh.write(data)
    if valid:
        worker_ids, worker = _first_seen(table.worker_ids, table.worker)
        video_ids, video = _first_seen(table.video_ids, table.video)
        parsed = EventTable(worker_ids, video_ids, worker, video,
                            *_answer_columns(answers, answer), table.elapsed,
                            table.iteration, table.gold)
        _save_sidecar(path, _sidecar_key(digest.digest(), tax), parsed)


def _parse_bool(raw: str, column: str) -> bool:
    if raw in ("0", "1"):
        return raw == "1"
    if raw.lower() in ("true", "false"):
        return raw.lower() == "true"
    raise ValueError(f"{column} must be 0/1 or true/false, got {raw!r}")


def _answer_code(tax: Taxonomy, raw: tuple[str, str, str], answers: list):
    """Index in `answers` of a raw (question, gate, members) answer, appended
    as (question id, gate, members mask); or the reason it is invalid."""
    try:
        question_id, gate = int(raw[0]), _parse_bool(raw[1], "gate")
        labels = [int(m) for m in raw[2].split(";") if m.strip()]
        selected = expand_answer(tax, question_id, gate, labels)
    except ValueError as exc:
        return str(exc)
    answers.append((question_id, gate, members_mask(tax.question(question_id), selected)))
    return len(answers) - 1


def _row_problems(table: EventTable, lines) -> list[tuple[int, str]]:
    """(line, reason) for each row the table-wide checks reject: a
    non-positive or non-finite elapsed time, or a second non-gold answer to
    one (worker, video, question, iteration). Row r is on line lines[r]."""
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
                         f"video, question {table.question[row]} and iteration)"))
    return problems


def ingest(source, tax: Taxonomy) -> EventTable:
    """The event table of an event CSV, validated, with its gold column.

    One ValueError names every bad row by line, the first 20 of them: a row
    with too few fields, a value that does not parse, an answer
    `expand_answer` rejects, a non-positive or non-finite elapsed time, or a
    second non-gold answer to one (worker, video, question, iteration).

    The table of a CSV that parses is saved in its sidecar (`sidecar_path`),
    keyed by the digests of the CSV's bytes and of the taxonomy's questions.
    A call whose key matches reads the table from there and runs the same
    row checks on it; any problem sends it to the parse, so an error always
    names its lines.
    """
    data = Path(source).read_bytes()
    key = _sidecar_key(_csv_digest(data).digest(), tax)
    table = _load_sidecar(source, key)
    if table is not None and not _row_problems(table, range(len(table))):
        return table
    table = _parse_events(source, data, tax)
    _save_sidecar(source, key, table)
    return table


def _parse_events(source, data: bytes, tax: Taxonomy) -> EventTable:
    """The validated event table of the CSV bytes `data`, read from `source`."""
    workers: dict[str, int] = {}
    videos: dict[str, int] = {}
    codes: dict[tuple[str, str, str], int | str] = {}  # raw answer -> _answer_code
    answers: list[tuple[int, bool, int]] = []
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
    problems += _row_problems(table, lines)
    if problems:
        problems.sort()
        shown = "; ".join(f"line {line}: {reason}" for line, reason in problems[:20])
        more = f" (+{len(problems) - 20} more)" if len(problems) > 20 else ""
        raise ValueError(f"{source}: {shown}{more}")
    return table


def worker_stats_from_events(table: EventTable) -> list[WorkerStats]:
    """Per-worker task counts, median task seconds, gold recall, positive rate.

    Gold rows count only towards gold recall. A task is one (worker, video,
    iteration); its seconds are summed in row order.
    """
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
    median (gold recall: low side only). Blacklisting stays a separate,
    explicit decision.
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
    pairs = zip(*(a.tolist() for a in matrix.binary(threshold).nonzero()))
    positives = ((matrix.video_ids[row], label) for row, label in pairs)
    return [VerificationTask(*pair) for pair in positives if pair not in done]


# ---------------------------------------------------------------------------
# Bundled experiments
# ---------------------------------------------------------------------------

_SWEEP_KS = (1, 2, 3, 5, 7, 10, 15, 26, 52)


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def _fitted_behavior() -> WorkerBehavior:
    return fit_hard_mixture(default_behavior())


def _simulated_rows(tax, truths, behavior, k, iterations, modifiers, seed):
    """Cumulative (n, minutes, recall, precision) rows for one interface size."""
    truth = truth_matrix(truths, tax.label_count)
    video_ids = tuple(sorted(t.video_id for t in truths))
    votes = np.zeros((len(video_ids), tax.label_count), dtype=np.int16)
    total_seconds = 0.0
    rows = []
    batches = simulate_campaign(
        tax,
        truths,
        k,
        iterations,
        behavior,
        seed,
        modifiers=modifiers,
    )
    for n, events in enumerate(batches, start=1):
        matrix = aggregate(events, tax, video_ids=video_ids)
        votes += matrix.votes
        total_seconds += sum(events.elapsed[~events.gold].tolist())
        scored = metrics(votes >= 1, truth)
        minutes = total_seconds / 60.0 / len(video_ids)
        rows.append((n, minutes, scored.recall, scored.precision))
    return rows


def _experiment_question_count_sweep(seed: int, videos: int = 160):
    tax = singleton_taxonomy(52)
    behavior = _fitted_behavior()
    truths = make_random_truth(videos, tax.label_count, behavior.prevalence, seed)
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


def _experiment_expected_recall_budget(seed: int, budget_minutes: float = 8.61):
    behavior = default_behavior()
    header = ["k", "iteration_minutes", "budget_minutes", "expected_recall"]
    rows = []
    for k in _SWEEP_KS:
        minutes = plan_iteration_minutes(behavior, DEFAULT_TIME_MODEL, k)
        value = expected_recall(behavior.recall(k), minutes, budget_minutes)
        rows.append([k, _fmt(minutes), _fmt(budget_minutes), _fmt(value)])
    return header, rows


def _experiment_multi_iteration(seed: int, videos: int = 150, budget_minutes: float = 7.1):
    tax = singleton_taxonomy(52)
    behavior = _fitted_behavior()
    # Every video needs one known positive so gold duplicates have a donor.
    truths = make_random_truth(
        videos, tax.label_count, behavior.prevalence, seed, min_labels=1
    )
    header = ["k", "modifiers", "iterations", "minutes_per_video", "recall", "precision"]
    rows = []
    for k in (1, 5, 26, 52):
        modifiers = FEW_QUESTION_BUNDLE if regime(k) == "few" else NO_MODIFIERS
        per_pass = plan_iteration_minutes(behavior, DEFAULT_TIME_MODEL, k, modifiers)
        iterations = max(1, int(budget_minutes / per_pass + 1e-9))
        for n, minutes, recall, precision in _simulated_rows(
            tax, truths, behavior, k, iterations, modifiers, seed
        ):
            rows.append(
                [k, modifiers.label(), n, _fmt(minutes), _fmt(recall), _fmt(precision)]
            )
    return header, rows


_LENGTH_BINS = (("0-20s", 10.0), ("20-40s", 30.1), ("40-60s", 50.0))


def _experiment_length_breakdown(
    seed: int, videos_per_bin: int = 120, budget_minutes: float = 4.4
):
    tax = singleton_taxonomy(52)
    behavior = _fitted_behavior()
    # Pass times come from the duration-scaled model, never the observed
    # reference-length minutes.
    unobserved = replace(behavior, observed_minutes=())
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
        truths = make_random_truth(
            videos_per_bin,
            tax.label_count,
            behavior.prevalence,
            seed + bin_index,
            duration_seconds=duration,
            min_labels=1,
        )
        scaled = scale_base_for_duration(DEFAULT_TIME_MODEL, duration)
        for k in (1, 5, 26, 52):
            modifiers = FEW_QUESTION_BUNDLE if regime(k) == "few" else NO_MODIFIERS
            minutes = plan_iteration_minutes(unobserved, scaled, k, modifiers)
            n = int(budget_minutes / minutes + 1e-9)
            if n < 1:
                continue
            sim = _simulated_rows(
                tax, truths, behavior, k, n, modifiers, seed + bin_index
            )
            _, measured_minutes, recall, precision = sim[-1]
            rows.append(
                [
                    bin_label,
                    k,
                    modifiers.label(),
                    n,
                    _fmt(measured_minutes),
                    _fmt(recall),
                    _fmt(precision),
                ]
            )
    return header, rows


def _experiment_worker_correlations(seed: int, videos: int = 80, workers: int = 30):
    tax = singleton_taxonomy(52)
    behavior = _fitted_behavior()
    truths = make_random_truth(videos, tax.label_count, behavior.prevalence, seed)
    pool = sample_worker_pool(workers, behavior, 0.0, seed)
    events = run_campaign(tax, truths, 52, 2, behavior, seed, pool=pool)
    # An event is positive when its question has a member the video shows.
    members = tax.member_table[question_positions(tax, events.question)]
    truth = truth_matrix(truths, tax.label_count, video_ids=events.video_ids)
    positive = (truth[events.video[:, None], members] & (members >= 0)).any(axis=1)
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


def reproduce(name: str, seed: int, out_path, **overrides):
    """Run a bundled experiment and write its figure-shaped CSV to `out_path`
    (None: stdout), which it returns.

    Output is byte-identical for identical (name, seed, overrides) across
    runs.
    """
    try:
        runner = _EXPERIMENT_RUNNERS[name]
    except KeyError:
        raise ValueError(
            f"unknown experiment {name!r}; choose one of {', '.join(EXPERIMENTS)}"
        ) from None
    header, rows = runner(seed, **overrides)
    write_csv(out_path, header, rows)
    return out_path
