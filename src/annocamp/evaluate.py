"""Aggregation of annotation events into label matrices plus all metrics.

Covers the union consensus rule (a label is positive once any iteration
marked it), the precision of repeated union-merged passes, micro-averaged
precision/recall and event statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .taxonomy import Taxonomy, TaxonomyError, dense_codes


class IncompleteIterationError(ValueError):
    """An iteration is missing answers for some (video, question) pairs."""

    def __init__(self, gaps):
        self.gaps = list(gaps)
        shown = ", ".join(
            f"video {v} iteration {i}: missing questions {sorted(qs)}"
            for v, i, qs in self.gaps[:20]
        )
        more = "" if len(self.gaps) <= 20 else f" (+{len(self.gaps) - 20} more)"
        super().__init__(f"incomplete iterations: {shown}{more}")


@dataclass
class LabelMatrix:
    """Per-(video, label) positive-vote counts accumulated over iterations."""

    video_ids: tuple[str, ...]
    votes: np.ndarray
    iterations: int

    def __post_init__(self):
        if self.votes.max(initial=0) > self.iterations:
            raise ValueError("vote counts cannot exceed the number of iterations")

    def binary(self, threshold: int = 1) -> np.ndarray:
        """Thresholded labels: positive iff at least `threshold` votes."""
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        return self.votes >= threshold


@dataclass(frozen=True)
class Metrics:
    recall: float | None
    precision: float | None


def aggregate(events, taxonomy: Taxonomy, video_ids=None) -> LabelMatrix:
    """Fold an event table into a LabelMatrix of per-iteration votes.

    The table names each question by its position in `taxonomy.questions`,
    which indexes the taxonomy's member table as it is; a position outside
    it is a TaxonomyError. Every (video, iteration) present in the table
    must cover all top-level questions, otherwise IncompleteIterationError
    lists the gaps. Gold duplicate events never contribute, and a label
    marked by two answers in one (video, iteration) gets one vote. Given
    `video_ids`, every event's video must be among them.

    Coverage marks each (video, iteration, question) answered. When as many
    are marked as there are answers, none was answered twice, and since a
    valid taxonomy puts each label in one question, no label can be marked
    twice in one (video, iteration): the marks are counted as they are.
    Otherwise (two workers answered one question in one pass) `group_ids`
    keeps each (video, iteration, label) once.
    """
    voting = voting_rows(events.gold)
    video = events.video[voting]
    if not len(video):
        raise ValueError("no events to aggregate")
    slot = events.question[voting]
    if not 0 <= slot.min() <= slot.max() < taxonomy.question_count:
        outside = slot[(slot < 0) | (slot >= taxonomy.question_count)][0]
        raise TaxonomyError(f"unknown question position {outside} "
                            f"(the taxonomy has {taxonomy.question_count} questions)")
    passes, iteration = dense_codes(events.iteration[voting])
    # Every (video, iteration) pair present must answer every question.
    pair = video if len(passes) == 1 else video * len(passes) + iteration
    asked = np.zeros((len(events.video_ids) * len(passes), taxonomy.question_count), dtype=bool)
    asked.ravel()[pair * taxonomy.question_count + slot] = True  # flat: faster than 2-D
    gaps = [
        (events.video_ids[p // len(passes)], int(passes[p % len(passes)]),
         [q.id for q, answered in zip(taxonomy.questions, asked[p]) if not answered])
        for p in np.flatnonzero(asked.any(axis=1) & ~asked.all(axis=1)).tolist()
    ]
    if gaps:
        raise IncompleteIterationError(sorted(gaps))
    repeated = np.count_nonzero(asked) < len(pair)
    del asked

    if video_ids is None:
        seen = np.flatnonzero(np.bincount(video, minlength=len(events.video_ids)))
        video_ids = tuple(sorted(events.video_ids[v] for v in seen.tolist()))
    else:
        video_ids = tuple(video_ids)
    row = video  # on the table's own vocabulary, a video's row is its code
    if video_ids != events.video_ids:
        index = {v: i for i, v in enumerate(video_ids)}
        row = np.array([index.get(v, -1) for v in events.video_ids], dtype=np.int64)[video]
        outside = row < 0
        if outside.any():
            name = events.video_ids[video[outside][0]]
            raise ValueError(f"events name video {name!r}, which is not among the video ids")

    # Decode each affirmative answer's members bits to labels, keep each
    # (video, iteration, label) once and count its iterations per video.
    labels = taxonomy.label_count
    yes = np.flatnonzero(events.gate[voting])  # one scan; its gathers are small
    table = taxonomy.member_table
    bits = np.arange(table.shape[1], dtype=np.uint64)
    members = events.members[yes if isinstance(voting, slice) else voting[yes]]
    answer, bit = np.nonzero(members[:, None] >> bits & np.uint64(1))
    answer = yes[answer]
    label = table[slot[answer], bit]
    rows = row[answer]
    if repeated:
        marked = group_ids(pair[answer], label)[1]
        rows, label = rows[marked], label[marked]
    votes = np.bincount(rows * labels + label, minlength=len(video_ids) * labels)
    return LabelMatrix(
        video_ids=video_ids,
        votes=votes.reshape(len(video_ids), labels).astype(np.int16),
        iterations=len(passes),
    )


def union_precision(recall: float, f: float, g: float, qtop: int, n: int) -> float:
    """Precision of n union-merged passes reaching `recall`.

    Each pass marks each of the qtop - g negative questions with rate f; g is
    the expected number of positive questions per video.
    """
    tp = g * recall
    fp = (qtop - g) * (1.0 - (1.0 - f) ** n)
    return tp / (tp + fp) if tp + fp > 0 else 1.0


def truth_matrix(truths, label_count: int, video_ids=None) -> np.ndarray:
    """Ground-truth boolean matrix aligned with the given video-id order.

    The first video in that order with no truth, or with a label outside
    [0, label_count), is a ValueError naming it.
    """
    truths = list(truths)
    if video_ids is None:
        video_ids = tuple(sorted(t.video_id for t in truths))
    by_id = {t.video_id: t.labels for t in truths}
    found = [by_id.get(video_id) for video_id in video_ids]
    labels = list(chain.from_iterable(filter(None, found)))
    if None in found or labels and not 0 <= min(labels) <= max(labels) < label_count:
        for video_id, truth in zip(video_ids, found):
            if truth is None:
                raise ValueError(f"video {video_id!r} has no ground truth")
            outside = sorted(label for label in truth if not 0 <= label < label_count)
            if outside:
                raise ValueError(f"video {video_id!r}: labels {outside} outside [0, {label_count})")
    out = np.zeros((len(video_ids), label_count), dtype=bool)
    out[np.repeat(np.arange(len(found)), list(map(len, found))),
        np.array(labels, dtype=np.int64)] = True
    return out


def metrics(binary: np.ndarray, truth: np.ndarray) -> Metrics:
    """Micro-averaged recall and precision over all (video, label) pairs."""
    if binary.shape != truth.shape:
        raise ValueError(f"shape mismatch: {binary.shape} vs {truth.shape}")
    tp = int(np.count_nonzero(np.logical_and(binary, truth)))
    positive, marked = int(np.count_nonzero(truth)), int(np.count_nonzero(binary))  # tp+fn, tp+fp
    recall = tp / positive if positive else None
    precision = tp / marked if marked else None
    return Metrics(recall=recall, precision=precision)


def event_stats(events) -> tuple[float, float]:
    """(total worker minutes per video, affirmative answers per iteration).

    Gold duplicates are excluded from both figures.
    """
    voting = voting_rows(events.gold)
    video = events.video[voting]
    if not len(video):
        raise ValueError("no events")
    seconds = sum(events.elapsed[voting].tolist())
    passes = len(group_ids(video, events.iteration[voting])[1])
    minutes_per_video = seconds / 60.0 / int(np.count_nonzero(np.bincount(video)))
    affirmative_per_iteration = int(np.count_nonzero(events.gate[voting])) / passes
    return minutes_per_video, affirmative_per_iteration


def voting_rows(gold: np.ndarray):
    """The rows that vote, all but the gold duplicates, as an index into the
    event columns: slice(None) when no row is gold, so each column reads as
    it is, and their positions otherwise, so each take copies only them."""
    return np.flatnonzero(~gold) if gold.any() else slice(None)


def group_ids(*columns) -> tuple[np.ndarray, np.ndarray]:
    """A dense id for each row's combination of the integer columns, and the
    first row having each id.

    The ids number the combinations in lexicographic order of the columns'
    values. Each column, and then the combined key, is coded by
    `dense_codes`, which skips the sort whenever the values span no more
    than the rows do, as the indices into a vocabulary whose every entry is
    used do; either path gives the same codes, and so the same ids as
    sorting the combinations.
    """
    rows = len(columns[0])
    key = np.zeros(rows, dtype=np.int64)
    for column in columns:
        values, dense = dense_codes(column)
        key = key * len(values) + dense
    groups, ids = dense_codes(key)
    first = np.full(len(groups), rows)
    np.minimum.at(first, ids, np.arange(rows))
    return ids, first

