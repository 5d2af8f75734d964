"""Operational campaign plumbing: HIT generation, ingestion, QC, experiments.

A campaign turns a question-subset plan plus a video list into HIT
specifications (optionally with gold positive-bias duplicates), simulates
or ingests the resulting annotation events, tracks per-worker statistics
for outlier flagging, and drives the bundled desk-scale experiments.
"""

from __future__ import annotations

import csv
import math
import statistics
from array import array
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from itertools import groupby
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .costmodel import (
    DEFAULT_TIME_MODEL,
    HitBudget,
    TimeModel,
    scale_base_for_duration,
    task_time,
    videos_per_hit,
)
from .evaluate import LabelMatrix, aggregate, event_stats, expected_recall, metrics, truth_matrix
from .output import write_csv
from .planner import FEW_QUESTION_BUNDLE, NO_MODIFIERS, plan_iteration_minutes
from .seeding import draw_key, fold, id_key, substream, uniforms
from .taxonomy import (
    SubsetPlan,
    Taxonomy,
    expand_answer,
    partition_questions,
    singleton_taxonomy,
)
from .workersim import (
    DEFAULT_PREVALENCE,
    AnnotationEvent,
    ModifierSet,
    VideoTruth,
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

# The HITs of a subset are simulated this many at a time, which bounds a
# block's arrays (at k=52, 128 HITs hold 256 videos).
BLOCK_HITS = 128

EVENT_COLUMNS = ("worker", "video", "question", "gate", "members", "elapsed", "iteration")


class QuestionSlot(NamedTuple):
    question_id: int
    gold: bool = False


@dataclass(frozen=True)
class HitSpec:
    """One paid unit of work: several videos, one question subset each."""

    hit_id: str
    subset_index: int
    video_ids: tuple[str, ...]
    slots: tuple[tuple[QuestionSlot, ...], ...]
    expected_seconds: float
    pay: float

    def gold_questions(self, video_index: int) -> tuple[int, ...]:
        return tuple(s.question_id for s in self.slots[video_index] if s.gold)

    def base_questions(self, video_index: int) -> tuple[int, ...]:
        return tuple(s.question_id for s in self.slots[video_index] if not s.gold)


@dataclass
class WorkerStats:
    worker_id: str
    tasks_completed: int
    median_seconds_per_task: float
    gold_recall: float | None
    positive_rate: float


@dataclass(frozen=True)
class BlacklistEntry:
    worker_id: str
    reason: str
    timestamp: str


class Blacklist:
    """Append-only record of workers barred from further assignments."""

    def __init__(self, entries=()):
        self.entries: list[BlacklistEntry] = list(entries)
        self._listed = {e.worker_id for e in self.entries}

    def add(self, worker_id: str, reason: str, timestamp: str | None = None) -> None:
        if timestamp is None:
            timestamp = datetime.now(timezone.utc).isoformat()
        self.entries.append(BlacklistEntry(worker_id, reason, timestamp))
        self._listed.add(worker_id)

    def listed(self) -> frozenset[str]:
        return frozenset(self._listed)

    def __contains__(self, worker_id: str) -> bool:
        return worker_id in self._listed


@dataclass(frozen=True)
class VerificationTask:
    """A predicted positive awaiting a temporal extent or a rejection."""

    video: str
    label: int


def gate_positives(tax: Taxonomy, truth: VideoTruth) -> list[int]:
    """Question ids whose member set intersects the video's true labels."""
    return [q.id for q in tax.questions if any(m in truth.labels for m in q.members)]


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
) -> list[HitSpec]:
    """Deterministically pack videos into HITs at the effort target.

    Each HIT holds one question subset over as many videos as fit the
    target. With grouping, all videos in a HIT present the identical
    question order. With positive bias, duplicates of questions known
    positive for the member videos are injected until the expected
    affirmative fraction reaches one third; duplicates are flagged gold and
    excluded from the expected-time accounting.
    """
    video_ids = list(video_ids)
    if not video_ids:
        raise ValueError("cannot pack an empty video list")
    if positive_bias and not known_positives:
        raise ValueError("positive bias requires known positive questions per video")
    qtop = sum(len(s) for s in subset_plan.subsets)
    hits = []
    for subset_index, subset in enumerate(subset_plan.subsets):
        size = len(subset)
        per_hit = videos_per_hit(model, size, budget)
        order = substream(seed, "pack", subset_index).permutation(len(video_ids))
        shuffled = [video_ids[i] for i in order]
        subset_key = draw_key(seed, subset_index)
        in_order = tuple(QuestionSlot(qid) for qid in subset)
        for chunk_index, chunk_start in enumerate(range(0, len(shuffled), per_hit)):
            chunk = shuffled[chunk_start : chunk_start + per_hit]
            hit_id = f"hit-{subset_index:03d}-{chunk_index:05d}"
            gold_by_video = {v: () for v in chunk}
            if positive_bias:
                base_slots = len(chunk) * size
                expected_pos = len(chunk) * prevalence * size / qtop
                duplicates = max(0, round((base_slots - 3.0 * expected_pos) / 2.0))
                donors = [v for v in chunk if known_positives.get(v)]
                if duplicates and not donors:
                    raise ValueError(
                        f"{hit_id}: no video has a known positive to duplicate"
                    )
                for i in range(duplicates):
                    video = donors[i % len(donors)]
                    pool = known_positives[video]
                    slot = QuestionSlot(pool[len(gold_by_video[video]) % len(pool)], True)
                    gold_by_video[video] += (slot,)
            base = in_order
            if grouping and size > 1:
                # One question order shared by every video of the HIT.
                u = uniforms(fold(subset_key, id_key(chunk_index), id_key("order")), range(size))
                base = tuple(in_order[i] for i in np.argsort(u))
            slots = [base + gold_by_video[v] for v in chunk]
            # Slots are shuffled unless they are one question or a shared
            # order without gold: all rows of the chunk at once, by argsort of
            # counter uniforms keyed by (seed, subset, video), the padding
            # past a row's end sorting last.
            shuffle = [len(e) > 1 and (len(e) > size or not grouping) for e in slots]
            if any(shuffle):
                width = np.arange(max(map(len, slots)))
                keys = np.array([id_key(v) for v in chunk], dtype=np.uint64)
                u = uniforms(fold(subset_key, keys, id_key("slots"))[:, None], width)
                u[width >= np.array([len(e) for e in slots])[:, None]] = 2.0
                orders = np.argsort(u, axis=1).tolist()
                slots = [
                    tuple(e[i] for i in orders[row][: len(e)]) if shuffle[row] else e
                    for row, e in enumerate(slots)
                ]
            hits.append(
                HitSpec(
                    hit_id=hit_id,
                    subset_index=subset_index,
                    video_ids=tuple(chunk),
                    slots=tuple(slots),
                    expected_seconds=len(chunk) * task_time(model, size),
                    pay=budget.pay_per_hit,
                )
            )
    return hits


def assign_workers(
    hits, pool, seed: int, iteration: int, blacklist: Blacklist | None = None
) -> list[Worker]:
    """One worker per HIT: a seeded permutation of the pool, cycled."""
    eligible = [w for w in pool if blacklist is None or w.worker_id not in blacklist]
    if not eligible:
        raise ValueError("no eligible workers (all blacklisted?)")
    perm = substream(seed, "assign", iteration).permutation(len(eligible))
    return [eligible[perm[i % len(eligible)]] for i in range(len(hits))]


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
    known_positives: dict | None = None,
    blacklist: Blacklist | None = None,
):
    """Simulate `iterations` complete passes; yields one event list per pass.

    Each pass lists the HITs' events in slot order. Every draw is a counter
    draw keyed by the ids of the task's worker and video, so the events are
    a pure function of the seed and do not depend on execution order.
    """
    truths = list(truths)
    by_id = {t.video_id: t for t in truths}
    plan = partition_questions(tax, k, seed)
    if modifiers.positive_bias and known_positives is None:
        known_positives = {t.video_id: gate_positives(tax, t) for t in truths}
    hits = pack_hits(
        [t.video_id for t in truths],
        plan,
        budget,
        model,
        seed,
        positive_bias=modifiers.positive_bias,
        grouping=modifiers.grouping,
        known_positives=known_positives,
        prevalence=behavior.prevalence,
    )
    if pool is None:
        pool = [Worker("w0")]
    questions_by_subset = [
        [tax.question(qid) for qid in subset] for subset in plan.subsets
    ]
    row_of = {t.video_id: i for i, t in enumerate(truths)}
    hard = hard_pairs(seed, list(row_of), range(tax.label_count), behavior.hard_fraction)
    for iteration in range(iterations):
        workers = assign_workers(hits, pool, seed, iteration, blacklist)
        events: list[AnnotationEvent] = []
        for subset_index, group in groupby(zip(hits, workers), lambda hw: hw[0].subset_index):
            group = list(group)
            for block in (group[i : i + BLOCK_HITS] for i in range(0, len(group), BLOCK_HITS)):
                video_ids = [v for hit, _ in block for v in hit.video_ids]
                events += simulate_block(
                    behavior,
                    [by_id[v] for v in video_ids],
                    questions_by_subset[subset_index],
                    modifiers,
                    seed,
                    workers=[w for hit, w in block for _ in hit.video_ids],
                    slots=[s for hit, _ in block for s in hit.slots],
                    question_of=tax.question,
                    model=model,
                    iteration=iteration,
                    subset_index=subset_index,
                    hard=hard[[row_of[v] for v in video_ids]],
                )
        yield events


def run_campaign(*args, **kwargs) -> list[AnnotationEvent]:
    """Flattened event list across all iterations of simulate_campaign."""
    return [e for batch in simulate_campaign(*args, **kwargs) for e in batch]


# ---------------------------------------------------------------------------
# Event CSV export / ingestion
# ---------------------------------------------------------------------------


def _format_event(event: AnnotationEvent, include_gold: bool) -> list:
    row = [
        event.worker,
        event.video,
        event.question,
        int(event.gate),
        ";".join(str(m) for m in event.members),
        repr(event.elapsed),
        event.iteration,
    ]
    if include_gold:
        row.append(int(event.gold))
    return row


def write_events_csv(events, path) -> None:
    """Write an event list as CSV; the `gold` column appears iff an event is gold."""
    include_gold = any(e.gold for e in events)
    header = EVENT_COLUMNS + (("gold",) if include_gold else ())
    write_csv(path, header, (_format_event(e, include_gold) for e in events))


@dataclass
class IngestResult:
    events: list[AnnotationEvent]
    gold_events: list[AnnotationEvent]
    stats: list[WorkerStats]


def _parse_bool(raw: str, line: int, column: str) -> bool:
    if raw in ("0", "1"):
        return raw == "1"
    if raw.lower() in ("true", "false"):
        return raw.lower() == "true"
    raise ValueError(f"line {line}: {column} must be 0/1 or true/false, got {raw!r}")


def ingest(source, tax: Taxonomy, known_videos=None) -> IngestResult:
    """Validated events plus per-worker statistics from an event CSV.

    Malformed rows are reported with their line number, and so is a second
    non-gold answer to the same (worker, video, question, iteration); gold
    duplicate answers are split out of the evaluation stream.
    """
    known = set(known_videos) if known_videos is not None else None
    events: list[AnnotationEvent] = []
    gold_events: list[AnnotationEvent] = []
    # Duplicate check: one bitmask of answered questions per (worker, video,
    # iteration) task, plus each evaluation event's line. A dict keyed per
    # row would hold about 2 MB more on a 22k-row file.
    question_bit = {q.id: 1 << i for i, q in enumerate(tax.questions)}
    answered: dict[tuple[str, str, int], int] = {}
    event_lines = array("q")
    with open(source, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in EVENT_COLUMNS if c not in (reader.fieldnames or [])]
        if missing:
            raise ValueError(f"{source}: missing columns {missing}")
        for row in reader:
            line = reader.line_num
            try:
                question_id = int(row["question"])
                gate = _parse_bool(row["gate"], line, "gate")
                raw = row["members"]
                members = tuple(int(m) for m in raw.split(";") if m.strip()) if raw else ()
                expand_answer(tax, question_id, gate, members)
                elapsed = float(row["elapsed"])
                iteration = int(row["iteration"])
                gold = _parse_bool(row.get("gold") or "0", line, "gold")
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"{source}: line {line}: {exc}") from exc
            worker, video = row["worker"], row["video"]
            if known is not None and video not in known:
                raise ValueError(f"{source}: line {line}: unknown video {video!r}")
            if elapsed <= 0:
                raise ValueError(f"{source}: line {line}: elapsed must be positive")
            event = AnnotationEvent(
                worker, video, question_id, gate, members, elapsed, iteration, gold
            )
            if gold:
                gold_events.append(event)
                continue
            task = (worker, video, iteration)
            bit = question_bit[question_id]
            mask = answered.get(task, 0)
            if mask & bit:
                first = next(
                    event_lines[i] for i, e in enumerate(events)
                    if (e.worker, e.video, e.iteration, e.question) == (*task, question_id)
                )
                raise ValueError(
                    f"{source}: line {line}: duplicates line {first} (same worker, "
                    f"video, question {question_id} and iteration)"
                )
            answered[task] = mask | bit
            events.append(event)
            event_lines.append(line)
    stats = worker_stats_from_events(events, gold_events)
    return IngestResult(events=events, gold_events=gold_events, stats=stats)


def worker_stats_from_events(events, gold_events=()) -> list[WorkerStats]:
    """Per-worker task counts, median task seconds, gold recall, positive rate."""
    task_seconds: dict[str, dict[tuple, float]] = {}
    gates: dict[str, list[bool]] = {}
    gold_hits: dict[str, list[bool]] = {}
    for event in events:
        per_task = task_seconds.setdefault(event.worker, {})
        key = (event.video, event.iteration)
        per_task[key] = per_task.get(key, 0.0) + event.elapsed
        gates.setdefault(event.worker, []).append(event.gate)
    for event in gold_events:
        gold_hits.setdefault(event.worker, []).append(event.gate)
    stats = []
    for worker_id in sorted(task_seconds):
        durations = list(task_seconds[worker_id].values())
        answered = gates[worker_id]
        gold = gold_hits.get(worker_id)
        stats.append(
            WorkerStats(
                worker_id=worker_id,
                tasks_completed=len(durations),
                median_seconds_per_task=statistics.median(durations),
                gold_recall=(sum(gold) / len(gold)) if gold else None,
                positive_rate=sum(answered) / len(answered),
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
    binary = matrix.binary(threshold)
    queue = []
    for row, video_id in enumerate(matrix.video_ids):
        for label in np.flatnonzero(binary[row]):
            pair = (video_id, int(label))
            if pair not in done:
                queue.append(VerificationTask(video=video_id, label=int(label)))
    return queue


# ---------------------------------------------------------------------------
# Bundled experiments
# ---------------------------------------------------------------------------

EXPERIMENTS = (
    "question-count-sweep",
    "expected-recall-budget",
    "multi-iteration",
    "length-breakdown",
    "worker-correlations",
)

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
        total_seconds += sum(e.elapsed for e in events if not e.gold)
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
    truth_by_video = {t.video_id: t.labels for t in truths}
    per_worker: dict[str, dict[str, float]] = {}
    for event in events:
        acc = per_worker.setdefault(
            event.worker, {"tp": 0, "fp": 0, "positives": 0}
        )
        members = tax.question(event.question).members
        positive = any(m in truth_by_video[event.video] for m in members)
        if positive:
            acc["positives"] += 1
            acc["tp"] += int(event.gate)
        elif event.gate:
            acc["fp"] += 1
    header = ["worker", "tasks", "median_seconds", "recall", "precision"]
    rows = []
    for stats in worker_stats_from_events(events):
        acc = per_worker[stats.worker_id]
        recall = acc["tp"] / acc["positives"] if acc["positives"] else 0.0
        marked = acc["tp"] + acc["fp"]
        precision = acc["tp"] / marked if marked else 1.0
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


def reproduce(name: str, seed: int, out_path, **overrides) -> Path:
    """Run a bundled experiment and write its figure-shaped CSV.

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
    return write_csv(out_path, header, rows)
