import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from annocamp.campaign import ingest, run_campaign, sidecar_path, write_events_csv
from annocamp.evaluate import (
    IncompleteIterationError,
    LabelMatrix,
    aggregate,
    event_stats,
    group_ids,
    metrics,
    truth_matrix,
    union_precision,
)
from annocamp.taxonomy import (
    QuestionGroup,
    Taxonomy,
    TaxonomyError,
    members_mask,
    singleton_taxonomy,
    taxonomy_from_mapping,
)
from annocamp.workersim import (EVENT_FIELDS, EventTable, ModifierSet, WorkerBehavior,
                                default_behavior, fp_rate_from_precision, make_random_truth,
                                mixture_union_recall)
from helpers import GAPPED_TAX


def make_event(video, question, gate, iteration, members=None, elapsed=1.0, gold=False,
               worker="w0"):
    """One event in the table's row view."""
    if members is None:
        members = (question,) if gate else ()
    return (worker, video, question, gate, tuple(members), elapsed, iteration, gold)


def table(rows, tax) -> EventTable:
    """The EventTable of row-view tuples, vocabularies in order of appearance
    and each question id at its position in the taxonomy."""
    rows = list(rows)
    workers = {r[0]: None for r in rows}
    videos = {r[1]: None for r in rows}
    worker_row = {w: i for i, w in enumerate(workers)}
    video_row = {v: i for i, v in enumerate(videos)}
    return EventTable(
        tuple(workers),
        tuple(videos),
        worker=[worker_row[r[0]] for r in rows],
        video=[video_row[r[1]] for r in rows],
        question=[tax.position(r[2]) for r in rows],
        members=[members_mask(tax.question(r[2]), r[4]) if r[4] else 0 for r in rows],
        elapsed=[r[5] for r in rows],
        iteration=[r[6] for r in rows],
        gold=[r[7] for r in rows],
    )


def full_pass(tax, video, iteration, positives):
    return [
        make_event(video, q.id, q.id in positives, iteration)
        for q in tax.questions
    ]


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def test_aggregate_single_iteration_identity():
    tax = singleton_taxonomy(5)
    events = full_pass(tax, "v0", 0, {1, 3})
    matrix = aggregate(table(events, tax), tax)
    assert matrix.iterations == 1
    assert matrix.binary(1)[0].tolist() == [False, True, False, True, False]


def test_aggregate_union_and_threshold():
    tax = singleton_taxonomy(4)
    events = (
        full_pass(tax, "v0", 0, set())
        + full_pass(tax, "v0", 1, {2})
        + full_pass(tax, "v0", 2, set())
    )
    matrix = aggregate(table(events, tax), tax)
    assert matrix.iterations == 3
    assert matrix.binary(1)[0, 2]  # marked in one iteration is enough
    assert not matrix.binary(2)[0, 2]  # vote count 1 < 2
    assert matrix.votes[0, 2] == 1


def test_aggregate_incomplete_iteration_lists_gaps():
    tax = singleton_taxonomy(4)
    events = full_pass(tax, "v0", 0, set())[:-1]  # drop question 3
    with pytest.raises(IncompleteIterationError) as err:
        aggregate(table(events, tax), tax)
    assert "v0" in str(err.value)
    assert "3" in str(err.value)
    assert err.value.gaps == [("v0", 0, [3])]


def test_aggregate_ignores_gold():
    tax = singleton_taxonomy(3)
    events = full_pass(tax, "v0", 0, set())
    events.append(make_event("v0", 1, True, 0, gold=True))
    matrix = aggregate(table(events, tax), tax)
    assert not matrix.binary(1).any()


def test_aggregate_rejects_video_outside_ids():
    tax = singleton_taxonomy(3)
    events = full_pass(tax, "v0", 0, set()) + full_pass(tax, "v9", 0, set())
    with pytest.raises(ValueError, match="'v9'"):
        aggregate(table(events, tax), tax, video_ids=("v0",))


_SHUFFLE_TAX = singleton_taxonomy(6)
_SHUFFLE_EVENTS = [
    make_event(f"v{v}", q, (v * 7 + q * 3 + i) % 4 == 0, i)
    for v in range(4)
    for i in range(3)
    for q in range(6)
] + [make_event(f"v{v}", 5, True, i, gold=True) for v in (0, 2) for i in range(3)]


@settings(max_examples=50, deadline=None)
@given(order=st.permutations(range(len(_SHUFFLE_EVENTS))))
def test_aggregate_invariant_to_event_order(order):
    # Gold rows (some at every position) never vote, whatever the order.
    base = aggregate(table(_SHUFFLE_EVENTS, _SHUFFLE_TAX), _SHUFFLE_TAX)
    shuffled = aggregate(table([_SHUFFLE_EVENTS[i] for i in order], _SHUFFLE_TAX), _SHUFFLE_TAX)
    assert shuffled.video_ids == base.video_ids
    assert shuffled.iterations == base.iterations
    assert np.array_equal(shuffled.votes, base.votes)


# Question ids apart from positions, and answers of one to three members.
_ORACLE_TAX = taxonomy_from_mapping({
    "labels": [{"id": i, "name": f"l{i}"} for i in range(7)],
    "questions": [
        {"id": 10, "prompt": "a", "members": [4, 0, 2]},
        {"id": 11, "prompt": "b", "members": [1]},
        {"id": 12, "prompt": "c", "members": [6, 3, 5]},
    ],
})


@st.composite
def oracle_events(draw):
    """Complete passes answered by one or two workers, plus gold rows."""
    def answer(question):
        members = draw(st.sets(st.sampled_from(question.members)))
        return bool(members), tuple(m for m in question.members if m in members)

    rows = []
    for video in range(draw(st.integers(1, 4))):
        for iteration in draw(st.sets(st.integers(0, 3), min_size=1, max_size=3)):
            for q in _ORACLE_TAX.questions:
                for worker in draw(st.sampled_from([["w0"], ["w1"], ["w0", "w1"]])):
                    gate, members = answer(q)
                    rows.append(make_event(f"v{video}", q.id, gate, iteration, members,
                                           worker=worker))
                if draw(st.booleans()):
                    gate, members = answer(q)
                    rows.append(make_event(f"v{video}", q.id, gate, iteration, members,
                                           gold=True))
    return draw(st.permutations(rows))


def union_oracle(rows):
    """Row-by-row union: a label votes once per (video, iteration) marking it."""
    marked = {}
    for _, video, _, gate, members, _, iteration, gold in rows:
        if not gold:
            labels = marked.setdefault((video, iteration), set())
            if gate:
                labels.update(members)
    video_ids = tuple(sorted({video for video, _ in marked}))
    votes = np.zeros((len(video_ids), _ORACLE_TAX.label_count), dtype=np.int16)
    for (video, _), labels in marked.items():
        for label in labels:
            votes[video_ids.index(video), label] += 1
    return video_ids, len({iteration for _, iteration in marked}), votes


@settings(max_examples=60, deadline=None)
@given(rows=oracle_events())
def test_aggregate_matches_row_by_row_union(rows):
    matrix = aggregate(table(rows, _ORACLE_TAX), _ORACLE_TAX)
    video_ids, iterations, votes = union_oracle(rows)
    assert matrix.video_ids == video_ids
    assert matrix.iterations == iterations
    assert np.array_equal(matrix.votes, votes)


@settings(max_examples=60, deadline=None)
@given(rows=oracle_events(), data=st.data())
def test_a_row_permutation_of_a_table_aggregates_to_the_same_votes(rows, data):
    # The rows of one table, vocabularies kept, in any order: gold rows,
    # with answers of their own, land between the voting rows, which are
    # taken by index. The votes and the event statistics do not move.
    assume(any(row[-1] for row in rows))
    events = table(rows, _ORACLE_TAX)
    order = np.array(data.draw(st.permutations(range(len(rows)))), dtype=np.int64)
    shuffled = EventTable(events.worker_ids, events.video_ids,
                          *(getattr(events, f.name)[order] for f in EVENT_FIELDS))
    base, moved = aggregate(events, _ORACLE_TAX), aggregate(shuffled, _ORACLE_TAX)
    assert (moved.video_ids, moved.iterations) == (base.video_ids, base.iterations)
    assert np.array_equal(moved.votes, base.votes)
    assert event_stats(shuffled) == event_stats(events)


@settings(max_examples=40, deadline=None)
@given(rows=oracle_events(), data=st.data())
def test_aggregate_is_the_same_on_any_list_of_the_video_ids(rows, data):
    # video_ids=None, the table's own vocabulary (each video's row is its
    # code) and a permuted list with an id the events never name all give
    # each video the oracle's votes.
    events = table(rows, _ORACLE_TAX)
    video_ids, _, votes = union_oracle(rows)
    expected = dict(zip(video_ids, votes.tolist()))
    permuted = data.draw(st.permutations(events.video_ids + ("unseen",)))
    for given_ids in (None, events.video_ids, list(events.video_ids), permuted):
        matrix = aggregate(events, _ORACLE_TAX, video_ids=given_ids)
        assert matrix.video_ids == (video_ids if given_ids is None else tuple(given_ids))
        got = dict(zip(matrix.video_ids, matrix.votes.tolist()))
        assert got == {v: expected.get(v, [0] * _ORACLE_TAX.label_count) for v in got}
    dropped = events.video_ids[0]
    with pytest.raises(ValueError, match=f"events name video '{dropped}', which is not among"):
        aggregate(events, _ORACLE_TAX, video_ids=[v for v in permuted if v != dropped])


def sorted_group_ids(*columns):
    """group_ids by sorting: each column, then the combined key, through np.unique."""
    key = np.zeros(len(columns[0]), dtype=np.int64)
    for column in columns:
        values, dense = np.unique(column, return_inverse=True)
        key = key * len(values) + dense.ravel()
    _, first, ids = np.unique(key, return_index=True, return_inverse=True)
    return ids.ravel(), first


# Columns of the kinds the event table groups: vocabulary indices, wide or
# negative integers, the bool gate and uint64 members masks with the top bit.
_COLUMN_KINDS = (
    (np.int64, st.integers(0, 5)),
    (np.int64, st.integers(-(10**9), 10**9)),
    (np.int64, st.integers(-3, 3)),
    (bool, st.booleans()),
    (np.uint64, st.sampled_from([0, 1, 6, 2**63, 2**64 - 1])),
)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), rows=st.integers(1, 40))
def test_group_ids_matches_sorting(data, rows):
    kinds = data.draw(st.lists(st.sampled_from(_COLUMN_KINDS), min_size=1, max_size=4))
    columns = [np.array(data.draw(st.lists(values, min_size=rows, max_size=rows)), dtype)
               for dtype, values in kinds]
    ids, first = group_ids(*columns)
    want_ids, want_first = sorted_group_ids(*columns)
    assert np.array_equal(ids, want_ids)
    assert np.array_equal(first, want_first)


# Question ids spanning many more values than there are questions.
_WIDE_TAX = taxonomy_from_mapping({
    "labels": [{"id": i, "name": f"l{i}"} for i in range(3)],
    "questions": [{"id": 400, "prompt": "a", "members": [0]},
                  {"id": 10, "prompt": "b", "members": [1]},
                  {"id": 12, "prompt": "c", "members": [2]}],
})


@pytest.mark.parametrize("tax", [_ORACLE_TAX, GAPPED_TAX, _WIDE_TAX],
                         ids=["oracle", "gapped", "wide"])
@settings(max_examples=100, deadline=None)
@given(question_id=st.sampled_from([-2, 0, 9, 10, 11, 12, 13, 15, 40, 400]))
def test_position_matches_a_lookup_per_id(tax, question_id):
    position = {q.id: p for p, q in enumerate(tax.questions)}
    if question_id in position:
        assert tax.position(question_id) == position[question_id]
        assert tax.question(question_id) is tax.questions[position[question_id]]
    else:
        with pytest.raises(TaxonomyError) as exc:
            tax.position(question_id)
        assert str(exc.value) == f"unknown question id {question_id}"


# GAPPED_TAX under the ids 0, 1, 2, its questions in the same order.
_RENUMBERED_TAX = Taxonomy(GAPPED_TAX.labels, tuple(
    QuestionGroup(i, q.prompt, q.members) for i, q in enumerate(GAPPED_TAX.questions)))


def simulated_matrix(tax, behavior, truths, k, path, modifiers=ModifierSet()):
    """simulate -> events CSV -> ingest -> aggregate: the CSV's bytes and
    the matrix of two passes. ingest reads the writer's sidecar, then,
    once that is deleted, parses the CSV to the same table."""
    write_events_csv(run_campaign(tax, truths, k, 2, behavior, seed=3, modifiers=modifiers),
                     tax, path)
    events = ingest(path, tax)
    sidecar_path(path).unlink()
    assert ingest(path, tax) == events
    return path.read_bytes(), aggregate(events, tax)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_gapped_ids_give_the_matrix_of_their_renumbered_twin(tmp_path, k):
    # Inside, a question is its position; at the file, its id. A worker who
    # answers every question truly gives each video its true labels in both
    # passes, on the gapped, unsorted ids as on the ids 0, 1, 2.
    truthful = WorkerBehavior(recall_points=((1, 1.0), (3, 1.0)),
                              fp_points=((1, 0.0), (3, 0.0)), prevalence=1.0, qtop=3)
    truths = make_random_truth(8, 3, 1.0, seed=4)
    data, gapped = simulated_matrix(GAPPED_TAX, truthful, truths, k, tmp_path / "gapped.csv")
    _, twin = simulated_matrix(_RENUMBERED_TAX, truthful, truths, k, tmp_path / "twin.csv")
    questions = {line.split(b",")[2] for line in data.splitlines()[1:]}
    assert questions == {b"15", b"10", b"12"}
    truth = truth_matrix(truths, 3, gapped.video_ids)
    assert gapped.video_ids == twin.video_ids
    assert np.array_equal(gapped.votes, 2 * truth) and np.array_equal(twin.votes, 2 * truth)


@pytest.mark.parametrize("k, modifiers", [
    *(pytest.param(k, ModifierSet(), id=str(k)) for k in (1, 2, 3)),
    *(pytest.param(k, ModifierSet(grouping=True), id=f"{k}-grouping") for k in (1, 2, 3)),
])
def test_listing_the_questions_in_another_order_changes_no_event(tmp_path, k, modifiers):
    # The draws are keyed by question ids, so the same ids at other
    # positions give the same events CSV, byte for byte, and the same
    # matrix; with grouping too, whose shared question orders are drawn by
    # id. (Not with positive bias: its gold duplicates follow the
    # taxonomy's order.)
    reversed_tax = Taxonomy(GAPPED_TAX.labels, GAPPED_TAX.questions[::-1])
    truths = make_random_truth(8, 3, 1.0, seed=4)
    data, matrix = simulated_matrix(GAPPED_TAX, default_behavior(), truths, k,
                                    tmp_path / "gapped.csv", modifiers)
    again, reversed_matrix = simulated_matrix(reversed_tax, default_behavior(), truths, k,
                                              tmp_path / "reversed.csv", modifiers)
    assert again == data
    assert matrix.video_ids == reversed_matrix.video_ids
    assert np.array_equal(matrix.votes, reversed_matrix.votes)


def test_aggregate_unknown_question():
    # A table names a question by its position; one outside the taxonomy is unknown.
    tax = singleton_taxonomy(3)
    for position in (9, 3, -1):
        events = EventTable(("w",), ("v0",), worker=[0], video=[0], question=[position],
                            members=[0], elapsed=[1.0], iteration=[0], gold=[False])
        with pytest.raises(TaxonomyError) as exc:
            aggregate(events, tax)
        assert str(exc.value) == (f"unknown question position {position} "
                                  "(the taxonomy has 3 questions)")


def test_label_matrix_vote_bound():
    with pytest.raises(ValueError):
        LabelMatrix(video_ids=("v0",), votes=np.array([[3]], dtype=np.int16), iterations=2)


# ---------------------------------------------------------------------------
# Closed-form expectations
# ---------------------------------------------------------------------------


# Each law is checked against a direct evaluation of its formula, never
# against the code it is computed by.


def independence(r, n):
    """The union recall of n independent passes: the mixture law with no hard pairs."""
    return mixture_union_recall(r, n, 0.0, 0.0)


def test_expected_recall_reference_point():
    # Direct evaluation oracle: 1 - (1 - 0.45)^(8.61/1.10).
    oracle = 1.0 - 0.55 ** (8.61 / 1.10)
    value = independence(0.45, 8.61 / 1.10)
    assert value == pytest.approx(oracle, abs=1e-12)
    assert value == pytest.approx(0.9907, abs=1e-4)


def test_expected_recall_single_iteration_is_r():
    rng = np.random.default_rng(0)
    for r in rng.random(100):
        assert independence(r, 1.0) == pytest.approx(r, abs=1e-15)


def test_expected_recall_edges():
    assert independence(0.0, 50.0) == 0.0
    assert independence(0.7, 0.0) == 0.0
    assert independence(1.0, 0.5) == 1.0


def test_expected_recall_monotone():
    budgets = np.linspace(0.0, 20.0, 40)
    values = [independence(0.45, t / 1.1) for t in budgets]
    assert all(b >= a for a, b in zip(values, values[1:]))
    rs = np.linspace(0.0, 1.0, 40)
    values = [independence(r, 7.0 / 1.1) for r in rs]
    assert all(b >= a for a, b in zip(values, values[1:]))


@given(r=st.floats(0.0, 1.0), passes=st.floats(0.0, 50.0))
def test_independence_law_is_the_power_law_at_fractional_passes(r, passes):
    # Bit for bit: the expected-recall-budget experiment's column is this law
    # at the fractional passes a budget buys.
    assert independence(r, passes) == 1.0 - (1.0 - r) ** passes


def test_analytic_union_inverts_calibration():
    f = fp_rate_from_precision(0.450, 0.864, 3.7, 52)
    recall = independence(0.450, 1)
    assert recall == pytest.approx(0.450)
    assert union_precision(recall, f, 3.7, 52, 1) == pytest.approx(0.864, abs=1e-9)


def test_analytic_union_three_iterations():
    recall = independence(0.45, 3)
    assert recall == pytest.approx(1 - 0.55**3, abs=1e-12)
    assert recall == pytest.approx(0.8336, abs=1e-4)


def test_analytic_union_zero_fp_is_perfect_precision():
    for n in (1, 3, 10):
        assert union_precision(independence(0.45, n), 0.0, 3.7, 52, n) == 1.0


def test_union_precision_non_increasing_in_n():
    f = fp_rate_from_precision(0.450, 0.864, 3.7, 52)
    precisions = [union_precision(independence(0.45, n), f, 3.7, 52, n) for n in range(1, 10)]
    assert all(b <= a for a, b in zip(precisions, precisions[1:]))


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def test_metrics_exact_match():
    truth = np.zeros((4, 6), dtype=bool)
    truth[0, 1] = truth[2, 3] = True
    scored = metrics(truth.copy(), truth)
    assert scored.recall == 1.0
    assert scored.precision == 1.0


def test_metrics_all_negative_predictions():
    truth = np.zeros((4, 6), dtype=bool)
    truth[0, 1] = True
    scored = metrics(np.zeros_like(truth), truth)
    assert scored.recall == 0.0
    assert scored.precision is None


def test_metrics_empty_truth_recall_absent():
    truth = np.zeros((3, 3), dtype=bool)
    pred = np.zeros_like(truth)
    pred[0, 0] = True
    scored = metrics(pred, truth)
    assert scored.recall is None
    assert scored.precision == 0.0


def test_metrics_counting_fixture():
    # 100 videos x 4 true labels; exactly 180 of 400 positives predicted
    # (45%) plus 26 false positives spread over distinct videos.
    videos, labels = 100, 10
    truth = np.zeros((videos, labels), dtype=bool)
    truth[:, :4] = True
    pred = np.zeros_like(truth)
    for v in range(80):
        pred[v, :2] = True  # 160 hits
    for v in range(80, 100):
        pred[v, 0] = True  # 20 hits -> 180 total
    for v in range(26):
        pred[v, 5] = True  # false positives
    scored = metrics(pred, truth)
    assert scored.recall == pytest.approx(180 / 400, abs=1e-12)
    assert scored.precision == pytest.approx(180 / 206, abs=1e-12)
    assert type(scored.recall) is float and type(scored.precision) is float  # not numpy's


def test_metrics_shape_mismatch():
    with pytest.raises(ValueError):
        metrics(np.zeros((2, 2), dtype=bool), np.zeros((2, 3), dtype=bool))


def test_truth_matrix_alignment():
    from annocamp.workersim import VideoTruth

    truths = [
        VideoTruth(video_id="b", labels=frozenset({0})),
        VideoTruth(video_id="a", labels=frozenset({2})),
    ]
    out = truth_matrix(truths, 3, video_ids=("a", "b"))
    assert out[0].tolist() == [False, False, True]
    assert out[1].tolist() == [True, False, False]
    with pytest.raises(ValueError, match="'c' has no ground truth"):
        truth_matrix(truths, 3, video_ids=("a", "c"))
    with pytest.raises(ValueError, match=r"video 'a': labels \[2\] outside \[0, 2\)"):
        truth_matrix(truths, 2)


def truth_matrix_loop(truths, label_count, video_ids):
    """The per-video loop: the first video in `video_ids` order with no
    truth or with labels out of range is the error."""
    by_id = {t.video_id: t for t in truths}
    out = np.zeros((len(video_ids), label_count), dtype=bool)
    for row, video_id in enumerate(video_ids):
        truth = by_id.get(video_id)
        if truth is None:
            raise ValueError(f"video {video_id!r} has no ground truth")
        outside = sorted(label for label in truth.labels if not 0 <= label < label_count)
        if outside:
            raise ValueError(f"video {video_id!r}: labels {outside} outside [0, {label_count})")
        for label in truth.labels:
            out[row, label] = True
    return out


@settings(max_examples=200, deadline=None)
@given(
    labels=st.dictionaries(
        st.sampled_from("abcdef"), st.frozensets(st.integers(0, 99), max_size=4), max_size=6
    ),
    label_count=st.integers(0, 12),
    outside=st.lists(
        st.tuples(st.sampled_from("abcdef"), st.sampled_from([-1, 12, 2**70])), max_size=2
    ),
    video_ids=st.none() | st.lists(st.sampled_from("abcdefg"), max_size=7),
)
def test_truth_matrix_matches_the_per_video_loop(labels, label_count, outside, video_ids):
    from annocamp.workersim import VideoTruth

    labels = {v: frozenset(l % max(label_count, 1) for l in ls) for v, ls in labels.items()}
    for video, label in outside:
        labels[video] = labels.get(video, frozenset()) | {label}
    truths = [VideoTruth(v, labels=ls) for v, ls in labels.items()]
    order = tuple(sorted(labels)) if video_ids is None else tuple(video_ids)
    try:
        expected = truth_matrix_loop(truths, label_count, order)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            truth_matrix(truths, label_count, video_ids=video_ids)
        assert str(got.value) == str(exc)
    else:
        assert np.array_equal(truth_matrix(truths, label_count, video_ids=video_ids), expected)


def test_event_stats():
    tax = singleton_taxonomy(2)
    events = [
        make_event("v0", 0, True, 0, elapsed=30.0),
        make_event("v0", 1, False, 0, elapsed=30.0),
        make_event("v1", 0, False, 0, elapsed=60.0),
        make_event("v1", 1, False, 0, elapsed=60.0),
        make_event("v0", 0, True, 1, elapsed=30.0),
        make_event("v0", 1, True, 1, elapsed=30.0),
        make_event("v1", 0, False, 1, elapsed=30.0),
        make_event("v1", 1, False, 1, elapsed=30.0),
    ]
    minutes, affirmative = event_stats(table(events, tax))
    assert minutes == pytest.approx((120 + 180) / 60 / 2)
    assert affirmative == pytest.approx(3 / 4)
    assert type(minutes) is float and type(affirmative) is float  # not numpy's
