import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from annocamp.cli import sample_taxonomy_path
from annocamp.evaluate import truth_matrix
from annocamp.taxonomy import (
    Label,
    QuestionGroup,
    Taxonomy,
    TaxonomyError,
    dense_codes,
    expand_answer,
    load_taxonomy,
    mask_members,
    members_mask,
    partition_questions,
    question_positive,
    singleton_taxonomy,
    taxonomy_from_mapping,
)
from annocamp.workersim import VideoTruth


@pytest.fixture(scope="module")
def sample_tax():
    return load_taxonomy(sample_taxonomy_path())


def write_tax(tmp_path, doc):
    path = tmp_path / "tax.json"
    path.write_text(json.dumps(doc))
    return path


def test_sample_taxonomy_shape(sample_tax):
    assert sample_tax.label_count == 157
    assert sample_tax.question_count == 52
    groups = [q for q in sample_tax.questions if len(q.members) != 1]
    singles = [q for q in sample_tax.questions if len(q.members) == 1]
    assert len(groups) == 33
    assert len(singles) == 19


def test_minimal_taxonomy(tmp_path):
    doc = {
        "labels": [{"id": 0, "name": "solo"}],
        "questions": [{"id": 0, "prompt": "solo?", "members": [0]}],
    }
    tax = load_taxonomy(write_tax(tmp_path, doc))
    assert tax.label_count == 1
    assert tax.question_count == 1


def test_load_taxonomy_parses_a_rewritten_file_again(tmp_path):
    # The parse is memoized on the file's text, not on its path.
    doc = {
        "labels": [{"id": 0, "name": "solo"}],
        "questions": [{"id": 0, "prompt": "solo?", "members": [0]}],
    }
    path = write_tax(tmp_path, doc)
    first = load_taxonomy(path)
    assert load_taxonomy(path) is first
    doc["labels"].append({"id": 1, "name": "duet"})
    doc["questions"].append({"id": 1, "prompt": "duet?", "members": [1]})
    path.write_text(json.dumps(doc))
    assert load_taxonomy(path).label_count == 2


def test_load_taxonomy_error_names_the_path_of_each_call(tmp_path):
    path = write_tax(tmp_path, {
        "labels": [{"id": 0, "name": "solo"}],
        "questions": [{"id": 0, "prompt": "solo?", "members": [0]}],
    })
    load_taxonomy(path)
    other = tmp_path / "other.json"
    for broken in (path, other):
        broken.write_text("{not json")
        with pytest.raises(TaxonomyError, match=f"^cannot parse {re.escape(str(broken))}: "):
            load_taxonomy(broken)


def test_label_in_two_groups_is_rejected(tmp_path):
    doc = {
        "labels": [{"id": i, "name": f"l{i}"} for i in range(10)],
        "questions": [
            {"id": 0, "prompt": "a", "members": [0, 1, 2, 7]},
            {"id": 1, "prompt": "b", "members": [3, 4, 7]},
            {"id": 2, "prompt": "c", "members": [5, 6, 8, 9]},
        ],
    }
    with pytest.raises(TaxonomyError, match="label 7"):
        load_taxonomy(write_tax(tmp_path, doc))


def built(labels=(Label(0, "a"),), questions=(QuestionGroup(0, "a?", (0,)),)):
    """A mutation that builds a one-label Taxonomy directly instead."""
    return lambda doc: Taxonomy(labels, questions)


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: d["labels"].append({"id": 2, "name": "dup"}), "duplicate label"),
        (lambda d: d["questions"][0].update(members=[]), "no members"),
        (lambda d: d["questions"][0].update(members=[0, 99]), "unknown label"),
        (lambda d: d["labels"][0].update(name=""), "empty name"),
        (lambda d: d["labels"][1].update(id=5), "dense"),
        # An id or member that is not a JSON integer is refused, not cast.
        (lambda d: d["labels"][1].update(id=0.9), "labels[1]: id must be an integer, got 0.9"),
        (lambda d: d["labels"][1].update(id="1"), "labels[1]: id must be an integer, got '1'"),
        (lambda d: d["labels"][2].update(id="x"), "labels[2]: id must be an integer, got 'x'"),
        (lambda d: d["questions"][1].update(id=7.5),
         "questions[1]: id must be an integer, got 7.5"),
        (lambda d: d["questions"][0].update(id=True),
         "questions[0]: id must be an integer, got True"),
        (lambda d: d["questions"][0].update(members=[0, 0.2]),
         "questions[0]: members[1] must be an integer, got 0.2"),
        (lambda d: d["questions"][1].update(members=[False]),
         "questions[1]: members[0] must be an integer, got False"),
        # So is a name or prompt that is not a JSON string, and a document,
        # list or entry of another JSON type.
        (lambda d: d["labels"][1].update(name=5), "labels[1]: name must be a string, got 5"),
        (lambda d: d["labels"][2].update(name=None),
         "labels[2]: name must be a string, got None"),
        (lambda d: d["questions"][0].update(prompt=["x"]),
         "questions[0]: prompt must be a string, got ['x']"),
        (lambda d: d["questions"][1].update(members={"0": 2}),
         "questions[1]: members must be an array, got {'0': 2}"),
        (lambda d: d["questions"][1].update(members="2"),
         "questions[1]: members must be an array, got '2'"),
        (lambda d: d.update(labels={"0": "a"}), "labels must be an array, got {'0': 'a'}"),
        (lambda d: d.update(questions={}), "questions must be an array, got {}"),
        (lambda d: d["labels"].append("d"), "labels[3] must be an object, got 'd'"),
        (lambda d: [d], "the taxonomy document must be an object, got [{"),
        # A directly built taxonomy is held to the same types, and its
        # containers are tuples, so that it hashes.
        (built(labels=(Label(0, 5),)), "labels[0]: name must be a string, got 5"),
        (built(questions=(QuestionGroup(0, None, (0,)),)),
         "questions[0]: prompt must be a string, got None"),
        (built(labels=(Label(True, "a"),)), "labels[0]: id must be an integer, got True"),
        (built(questions=(QuestionGroup(0.0, "a?", (0,)),)),
         "questions[0]: id must be an integer, got 0.0"),
        (built(questions=(QuestionGroup(0, "a?", (0.0,)),)),
         "questions[0]: members[0] must be an integer, got 0.0"),
        (built(labels=[Label(0, "a")]), "labels must be a tuple, got [Label(id=0, name='a')]"),
        (built(questions=[]), "questions must be a tuple, got []"),
        (built(questions=(QuestionGroup(0, "a?", [0]),)),
         "questions[0]: members must be a tuple, got [0]"),
        (built(labels=({"id": 0, "name": "a"},)),
         "labels[0] must be a Label, got {'id': 0, 'name': 'a'}"),
        (built(questions=((0, "a?", (0,)),)),
         "questions[0] must be a QuestionGroup, got (0, 'a?', (0,))"),
    ],
)
def test_validation_errors(mutate, message):
    doc = {
        "labels": [{"id": 0, "name": "a"}, {"id": 1, "name": "b"}, {"id": 2, "name": "c"}],
        "questions": [
            {"id": 0, "prompt": "p", "members": [0, 1]},
            {"id": 1, "prompt": "q", "members": [2]},
        ],
    }
    with pytest.raises(TaxonomyError, match=re.escape(message)):
        # A mutation may return a document in place of its own, or raise itself.
        taxonomy_from_mapping(mutate(doc) or doc)


def test_a_directly_built_taxonomy_is_validated():
    # Built without a document, a taxonomy is checked as a loaded one is.
    labels = (Label(0, "a"), Label(1, "b"))
    with pytest.raises(TaxonomyError, match=re.escape("label 0 appears in questions 0 and 1")):
        Taxonomy(labels, (QuestionGroup(0, "a?", (0,)), QuestionGroup(1, "a or b?", (1, 0))))
    with pytest.raises(TaxonomyError, match="label ids must be dense"):
        Taxonomy((Label(1, "b"),), (QuestionGroup(0, "b?", (1,)),))


def test_members_bitmask_holds_64_members(tmp_path):
    doc = {
        "labels": [{"id": i, "name": f"l{i}"} for i in range(65)],
        "questions": [
            {"id": 0, "prompt": "wide", "members": list(range(64))},
            {"id": 1, "prompt": "last", "members": [64]},
        ],
    }
    wide = load_taxonomy(write_tax(tmp_path, doc)).question(0)
    mask = members_mask(wide, [63, 0])
    assert mask == 1 | 1 << 63
    assert mask_members(wide, int(np.uint64(mask))) == (0, 63)
    doc["questions"] = [{"id": 0, "prompt": "too wide", "members": list(range(65))}]
    with pytest.raises(TaxonomyError, match="question 0 has 65 members, more than the 64"):
        load_taxonomy(write_tax(tmp_path, doc))


def test_uncovered_label_is_rejected():
    doc = {
        "labels": [{"id": 0, "name": "a"}, {"id": 1, "name": "b"}],
        "questions": [{"id": 0, "prompt": "p", "members": [0]}],
    }
    with pytest.raises(TaxonomyError, match="not covered"):
        taxonomy_from_mapping(doc)


def test_parse_error_names_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(TaxonomyError, match="broken.json"):
        load_taxonomy(path)


def test_partition_whole_set(sample_tax):
    plan = partition_questions(sample_tax, 52, seed=1)
    assert len(plan) == 1
    assert len(plan[0]) == 52


def test_partition_exact_halves(sample_tax):
    plan = partition_questions(sample_tax, 26, seed=1)
    assert [len(s) for s in plan] == [26, 26]


def test_partition_with_remainder(sample_tax):
    # ceil(52/5) = 11 subsets; all size 5 except a final 52 mod 5 = 2.
    plan = partition_questions(sample_tax, 5, seed=3)
    expected_count = math.ceil(52 / 5)
    assert len(plan) == expected_count
    assert [len(s) for s in plan] == [5] * 10 + [2]


@pytest.mark.parametrize("k", [1, 3, 7, 13, 26, 52])
def test_partition_is_exact_partition(sample_tax, k):
    for seed in (0, 1, 99):
        plan = partition_questions(sample_tax, k, seed)
        flat = [position for subset in plan for position in subset]
        assert sorted(flat) == list(range(sample_tax.question_count))


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 52), seed=st.integers(0, 2**32 - 1))
def test_partition_property_exact(sample_tax, k, seed):
    plan = partition_questions(sample_tax, k, seed)
    flat = [position for subset in plan for position in subset]
    assert sorted(flat) == list(range(sample_tax.question_count))
    assert [len(s) for s in plan[:-1]] == [k] * (len(plan) - 1)
    assert 1 <= len(plan[-1]) <= k


def test_partition_determinism(sample_tax):
    a = partition_questions(sample_tax, 7, seed=42)
    b = partition_questions(sample_tax, 7, seed=42)
    c = partition_questions(sample_tax, 7, seed=43)
    assert a == b
    assert a != c


def test_partition_k_out_of_range(sample_tax):
    with pytest.raises(ValueError):
        partition_questions(sample_tax, 0, seed=1)
    with pytest.raises(ValueError):
        partition_questions(sample_tax, 53, seed=1)


def test_question_positive(sample_tax):
    truth = truth_matrix([VideoTruth("v", labels=frozenset({3, 17}))], 52, ["v"])
    assert np.flatnonzero(question_positive(singleton_taxonomy(52), truth)).tolist() == [3, 17]
    # A question is positive where a member label is true; none for a video without.
    truths = [VideoTruth("a", labels=frozenset({m for q in sample_tax.questions[::-5]
                                                 for m in q.members[-1:]})),
              VideoTruth("b")]
    positive = question_positive(sample_tax, truth_matrix(truths, sample_tax.label_count,
                                                          ["a", "b"]))
    expected = [p for p, q in enumerate(sample_tax.questions) if set(q.members) & truths[0].labels]
    assert positive.shape == (2, 52) and positive.dtype == bool
    assert np.flatnonzero(positive[0]).tolist() == expected and not positive[1].any()


def test_expand_negative_gate(sample_tax):
    assert expand_answer(sample_tax, 0, False, set()) == frozenset()


def test_expand_group_selection(sample_tax):
    group = next(q for q in sample_tax.questions if len(q.members) >= 3)
    picked = set(group.members[:2])
    assert expand_answer(sample_tax, group.id, True, picked) == frozenset(picked)


def test_expand_singleton(sample_tax):
    single = next(q for q in sample_tax.questions if len(q.members) == 1)
    only = single.members[0]
    assert expand_answer(sample_tax, single.id, True, {only}) == frozenset({only})


def test_expand_rejects_foreign_member(sample_tax):
    group = sample_tax.questions[0]
    outsider = sample_tax.questions[1].members[0]
    with pytest.raises(ValueError, match="not members"):
        expand_answer(sample_tax, group.id, True, {outsider})


def test_expand_rejects_members_on_negative_gate(sample_tax):
    group = sample_tax.questions[0]
    with pytest.raises(ValueError, match="negative gate"):
        expand_answer(sample_tax, group.id, False, {group.members[0]})


def test_expand_rejects_affirmative_without_members(sample_tax):
    group = sample_tax.questions[0]
    with pytest.raises(ValueError, match="selects no members"):
        expand_answer(sample_tax, group.id, True, set())


def test_expand_full_coverage(sample_tax):
    covered = set()
    for q in sample_tax.questions:
        covered |= expand_answer(sample_tax, q.id, True, set(q.members))
    assert covered == {lab.id for lab in sample_tax.labels}


def test_singleton_taxonomy_helper():
    tax = singleton_taxonomy(10)
    assert tax.label_count == 10
    assert all(len(q.members) == 1 for q in tax.questions)
    assert all(q.members == (q.id,) for q in tax.questions)


def test_lookup_arrays_are_built_once_and_read_only(sample_tax):
    questions = sample_tax.questions
    table = sample_tax.member_table
    assert table.shape == (52, max(len(q.members) for q in questions))
    for row, q in zip(table.tolist(), questions):
        assert row == [*q.members, *[-1] * (table.shape[1] - len(q.members))]
    assert sample_tax.question_ids.tolist() == [q.id for q in questions]
    for array in (table, sample_tax.question_ids):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    assert [sample_tax.position(q.id) for q in questions[::-3]] == list(range(51, -1, -3))
    with pytest.raises(TaxonomyError, match="unknown question id 99"):
        sample_tax.position(99)
    # The arrays do not enter comparison: equal taxonomies stay equal and hash alike.
    again = load_taxonomy(sample_taxonomy_path())
    assert again == sample_tax and hash(again) == hash(sample_tax)


def assert_codes_like_unique(column):
    values, codes = dense_codes(column)
    want_values, want_codes = np.unique(column, return_inverse=True)
    assert (values.dtype, codes.dtype) == (want_values.dtype, want_codes.dtype)
    assert np.array_equal(values, want_values)
    assert np.array_equal(codes, want_codes)


INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    st.lists(st.integers(-4, 4)),  # negative values, the counting path
    st.lists(st.integers(-(10**12), 10**12), max_size=8),  # spans far above the length
    st.lists(st.integers(INT64_MAX - 3, INT64_MAX)),
    st.lists(st.integers(INT64_MIN, INT64_MIN + 3)),
    st.lists(st.sampled_from([INT64_MIN, -1, 0, INT64_MAX])),
))
@example([])
@example([-3, -1, -3, -2])
@example([0, 10**12, 5])
# The span of these, computed in int64, would wrap to 0 or to a negative count.
@example([INT64_MIN, INT64_MAX])
@example([INT64_MAX, INT64_MIN, INT64_MAX, -1])
def test_dense_codes_matches_unique_on_int64(values):
    assert_codes_like_unique(np.array(values, dtype=np.int64))


@settings(max_examples=100, deadline=None)
@given(st.one_of(
    st.lists(st.booleans()).map(lambda v: np.array(v, dtype=bool)),
    st.lists(st.one_of(st.integers(2**63, 2**63 + 3), st.integers(2**64 - 3, 2**64 - 1),
                       st.integers(0, 3))).map(lambda v: np.array(v, dtype=np.uint64)),
))
@example(np.array([2**64 - 1, 2**63, 2**64 - 1], dtype=np.uint64))
@example(np.array([], dtype=bool))
def test_dense_codes_matches_unique_on_bool_and_uint64(column):
    assert_codes_like_unique(column)


@pytest.mark.parametrize("length", [1, 2, 52_000])
@pytest.mark.parametrize("value", [np.int64(-3), np.uint64(2**64 - 1), np.float64(1.5), True])
def test_dense_codes_of_a_broadcast_column_is_its_one_value(value, length):
    # A simulated pass's iteration column is one value, broadcast (stride 0).
    column = np.broadcast_to(value, length)
    assert column.strides == (0,)
    assert_codes_like_unique(column)


def test_dense_codes_counts_a_column_whose_span_is_at_most_its_length(monkeypatch):
    def no_sort(*args, **kwargs):
        raise AssertionError("np.unique called")

    monkeypatch.setattr(np, "unique", no_sort)
    for column in ([7, 5, 7, 6], [True, False, False], np.array([2**63, 2**63 + 1], np.uint64)):
        values, codes = dense_codes(np.asarray(column))
        assert np.array_equal(values[codes], column)
    with pytest.raises(AssertionError, match="np.unique called"):
        dense_codes(np.array([0, 2]))
