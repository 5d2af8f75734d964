"""Label space, question hierarchy, and question partitioning.

A taxonomy is a flat list of labels plus a two-level hierarchy: each
top-level question either gates a group of member labels ("is someone
interacting with a book?" -> opening / closing / holding ...) or asks
about a single label directly. Few-question interfaces are built by
partitioning the top-level questions into fixed-size subsets.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .seeding import order

# An answer's selected labels are stored as a bitmask over its question's
# members, bit i standing for question.members[i]; a uint64 holds 64.
MAX_MEMBERS = 64


class TaxonomyError(ValueError):
    """Malformed or inconsistent taxonomy document."""


@dataclass(frozen=True)
class Label:
    id: int
    name: str


@dataclass(frozen=True)
class QuestionGroup:
    """One top-level question and the labels it unlocks."""

    id: int
    prompt: str
    members: tuple[int, ...]


@dataclass(frozen=True)
class Taxonomy:
    """Labels and top-level questions, with lookup arrays built once, read-only:
    `member_table` holds label ids by (question position, member bit), -1 past
    a question's members, and `question_ids` the question ids by position.
    Event and slot tables name a question by its position; `position` maps an
    id to it. However it is built, it is validated: `_validate` raises on the
    first rule it breaks (one question per label, among others)."""

    labels: tuple[Label, ...]
    questions: tuple[QuestionGroup, ...]
    _question_index: dict = field(init=False, repr=False, compare=False)
    member_table: np.ndarray = field(init=False, repr=False, compare=False)
    question_ids: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _validate(self.labels, self.questions)
        width = max((len(q.members) for q in self.questions), default=0)
        table = np.full((len(self.questions), width), -1)
        for row, q in enumerate(self.questions):
            table[row, : len(q.members)] = q.members
        ids = np.array([q.id for q in self.questions], dtype=np.int64)
        object.__setattr__(self, "_question_index", {q.id: p for p, q in enumerate(self.questions)})
        for name, array in (("member_table", table), ("question_ids", ids)):
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    @property
    def label_count(self) -> int:
        return len(self.labels)

    @property
    def question_count(self) -> int:
        return len(self.questions)

    def position(self, question_id: int) -> int:
        """The position in `questions` of the question with this id."""
        try:
            return self._question_index[question_id]
        except KeyError:
            raise TaxonomyError(f"unknown question id {question_id}") from None

    def question(self, question_id: int) -> QuestionGroup:
        return self.questions[self.position(question_id)]


def _validate(labels: tuple[Label, ...], questions: tuple[QuestionGroup, ...]) -> None:
    """Raise a TaxonomyError on the first rule the fields break: first each
    field's type, entries named by index (a bool is not an integer, and a
    container is a tuple, so the taxonomy hashes), then the rules between
    labels and questions."""
    for i, lab in enumerate(_typed(labels, tuple, "labels")):
        _typed(_typed(lab, Label, "labels[{}]", i).id, int, "labels[{}]: id", i)
        _typed(lab.name, str, "labels[{}]: name", i)
    for i, q in enumerate(_typed(questions, tuple, "questions")):
        _typed(_typed(q, QuestionGroup, "questions[{}]", i).id, int, "questions[{}]: id", i)
        _typed(q.prompt, str, "questions[{}]: prompt", i)
        for j, m in enumerate(_typed(q.members, tuple, "questions[{}]: members", i)):
            _typed(m, int, "questions[{}]: members[{}]", i, j)
    seen_label_ids = set()
    for lab in labels:
        if not lab.name:
            raise TaxonomyError(f"label {lab.id} has an empty name")
        if lab.id in seen_label_ids:
            raise TaxonomyError(f"duplicate label id {lab.id}")
        seen_label_ids.add(lab.id)
    if seen_label_ids != set(range(len(labels))):
        raise TaxonomyError("label ids must be dense (0..N-1)")

    seen_question_ids = set()
    owner: dict[int, int] = {}
    for q in questions:
        if q.id in seen_question_ids:
            raise TaxonomyError(f"duplicate question id {q.id}")
        seen_question_ids.add(q.id)
        if not q.members:
            raise TaxonomyError(f"question {q.id} has no members")
        if len(q.members) > MAX_MEMBERS:
            raise TaxonomyError(
                f"question {q.id} has {len(q.members)} members, more than the "
                f"{MAX_MEMBERS} a members bitmask holds"
            )
        for member in q.members:
            if member not in seen_label_ids:
                raise TaxonomyError(
                    f"question {q.id} references unknown label {member}"
                )
            if member in owner:
                raise TaxonomyError(
                    f"label {member} appears in questions {owner[member]} and {q.id}"
                )
            owner[member] = q.id
    uncovered = seen_label_ids - owner.keys()
    if uncovered:
        raise TaxonomyError(f"labels not covered by any question: {sorted(uncovered)}")


_TYPES = {dict: "an object", list: "an array", str: "a string", int: "an integer",
          tuple: "a tuple", Label: "a Label", QuestionGroup: "a QuestionGroup"}


def _typed(value, kind: type, entry: str, *at):
    """A value, which must be exactly of the type `kind` (a bool is not an
    integer); `entry.format(*at)` names it, built only to raise."""
    if type(value) is not kind:
        raise TaxonomyError(f"{entry.format(*at)} must be {_TYPES[kind]}, got {value!r}")
    return value


def _entries(doc: dict, key: str):
    """(index, object) of each entry of the document's array `key`."""
    return [(i, _typed(entry, dict, key + "[{}]", i))
            for i, entry in enumerate(_typed(doc[key], list, key))]


def taxonomy_from_mapping(doc: dict) -> Taxonomy:
    """Build a Taxonomy from an already-parsed document, each value of its
    JSON type (README, File formats) or a TaxonomyError naming its entry:
    the document's objects and arrays are checked here, the values they
    hold by `_validate`."""
    _typed(doc, dict, "the taxonomy document")
    try:
        labels = tuple(Label(l["id"], l["name"]) for _, l in _entries(doc, "labels"))
        questions = tuple(QuestionGroup(
            q["id"], q["prompt"], tuple(_typed(q["members"], list, "questions[{}]: members", i))
        ) for i, q in _entries(doc, "questions"))
    except KeyError as exc:
        raise TaxonomyError(f"malformed taxonomy document: {exc}") from exc
    return Taxonomy(labels, questions)


def load_taxonomy(source: str | Path) -> Taxonomy:
    """Load and validate a taxonomy from a JSON file. The file is read on
    every call; its parse and checks are memoized on its text, so loading
    the same bytes again in one process returns the same frozen Taxonomy,
    and a rewritten file is parsed again."""
    text = Path(source).read_text(encoding="utf-8")
    try:
        return _parse_taxonomy(text)
    except json.JSONDecodeError as exc:
        raise TaxonomyError(f"cannot parse {source}: {exc}") from exc


@functools.lru_cache(maxsize=8)
def _parse_taxonomy(text: str) -> Taxonomy:
    return taxonomy_from_mapping(json.loads(text))


def singleton_taxonomy(n_questions: int) -> Taxonomy:
    """Synthetic taxonomy where every question asks about exactly one label.

    Useful for calibration experiments where question-level and label-level
    statistics must coincide.
    """
    labels = tuple(Label(i, f"activity {i}") for i in range(n_questions))
    questions = tuple(
        QuestionGroup(i, f"activity {i} occurs", (i,)) for i in range(n_questions)
    )
    return Taxonomy(labels, questions)


def partition_questions(tax: Taxonomy, k: int, seed: int) -> tuple[tuple[int, ...], ...]:
    """Randomly partition the questions into ceil(Q/k) subsets of size k,
    each a tuple of positions in `tax.questions`.

    The draw, order(seed, question ids, "partition", k), is keyed by the
    question ids, so the assignment is a pure function of (taxonomy
    content, k, seed); the final subset may be smaller than k when
    Q mod k != 0.
    """
    qtop = tax.question_count
    if not 1 <= k <= qtop:
        raise ValueError(f"k must be in [1, {qtop}], got {k}")
    shuffled = order(seed, tax.question_ids.tolist(), "partition", k).tolist()
    return tuple(tuple(shuffled[i : i + k]) for i in range(0, qtop, k))


def question_positive(tax: Taxonomy, truth: np.ndarray) -> np.ndarray:
    """Whether each question has a member true for each video: the (videos x
    questions) matrix of a (videos x labels) boolean `truth` matrix."""
    # Past a question's members the label -1 indexes the last label; the mask drops it.
    return (truth[:, tax.member_table] & (tax.member_table >= 0)).any(axis=2)


def expand_answer(
    tax: Taxonomy, question_id: int, gate: bool, selected_members
) -> frozenset[int]:
    """Positive label set implied by one answered question.

    An affirmative gate selects at least one member and only members; a
    negative gate selects none.
    """
    question = tax.question(question_id)
    selected = frozenset(selected_members)
    if not gate:
        if selected:
            raise ValueError(
                f"question {question_id}: members selected on a negative gate"
            )
        return frozenset()
    if not selected:
        raise ValueError(f"affirmative gate on question {question_id} selects no members")
    stray = selected - set(question.members)
    if stray:
        raise ValueError(
            f"question {question_id}: selected labels {sorted(stray)} are not members"
        )
    return selected


def members_mask(question: QuestionGroup, labels) -> int:
    """Bitmask of the given member labels: bit i is question.members[i]."""
    return sum(1 << question.members.index(label) for label in set(labels))


def mask_members(question: QuestionGroup, mask: int) -> tuple[int, ...]:
    """The member labels a bitmask selects, in the question's member order."""
    return tuple(m for i, m in enumerate(question.members) if mask >> i & 1)


def dense_codes(column) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of a 1-D column, ascending, and each row's index
    among them: exactly `np.unique(column, return_inverse=True)`.

    An integer or boolean column whose value span (max - min + 1) is at most
    its length is coded without a sort: each row marks its offset from the
    minimum in a table of the span, and the marked values are ranked by a
    running sum. (A mark, unlike `np.bincount`'s count, does not slow down
    on runs of one value.) Any other column is sorted by `np.unique`.
    """
    column = np.asarray(column)
    work = column.view(np.uint8) if column.dtype == bool else column
    if work.dtype.kind in "iu" and len(work):
        low, high = work.min(), work.max()
        span = int(high) - int(low) + 1
        if span <= len(work):
            # Every offset is below the span, so neither the subtraction
            # nor the cast to an index can wrap.
            offset = (work - low).astype(np.intp, copy=False)
            present = np.zeros(span, dtype=bool)
            present[offset if span > 1 else 0] = True  # one value: marked once
            values = (np.flatnonzero(present).astype(work.dtype) + low).astype(column.dtype)
            # With no value missing from the span, each offset is its rank.
            return values, offset if present.all() else (np.cumsum(present) - 1)[offset]
    return np.unique(column, return_inverse=True)

