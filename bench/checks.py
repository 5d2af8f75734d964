"""Output checks, computed apart from the program.

Every checker returns a list of problems; an empty list means the output is
correct. Nothing is compared with saved output: exact outputs are compared
with the benchmark's own recount, and statistical outputs with the paper's
operating points, within Z binomial standard errors at the workload's own
count (see README.md, "Tolerances").
"""

from __future__ import annotations

import csv
import json
import math
import statistics
from pathlib import Path

import numpy as np

Z = 4.0

# The paper's operating points (HCOMP 2016, Sigurdsson et al.).
K1_RECALL, K1_PRECISION = 0.563, 0.810
K52_PRECISION = 0.864
K52_PASSES = 5
K52_UNION_RECALL = {1: 0.450, 3: 0.767, 5: 0.853}
PLAN_MARGIN = 0.10  # k=52 must beat the best k=1 plan by this much recall

SPAMMER_RATE = 0.3  # recounted positive rate above which a worker is a spammer
HONEST_FLAG_RATE = 0.05  # the ceiling on QC's flag rate among honest workers
HONEST_FLAG_ALPHA = 0.05  # significance of the one-sided test against that ceiling


def tolerance(p: float, n: int) -> float:
    """Z binomial standard errors of a proportion p measured on n trials."""
    return Z * math.sqrt(p * (1.0 - p) / n)


def _close(a: float, b: float, places: int = 12) -> bool:
    return math.isclose(a, b, rel_tol=10.0**-places, abs_tol=10.0**-places)


def confusion(binary: np.ndarray, truth: np.ndarray) -> tuple[int, int, int]:
    """(true positives, false positives, false negatives) of a label matrix."""
    tp = int(np.count_nonzero(binary & truth))
    fp = int(np.count_nonzero(binary & ~truth))
    fn = int(np.count_nonzero(~binary & truth))
    return tp, fp, fn


def check_near(problems: list, what: str, value: float, target: float, n: int) -> None:
    """`value` lies within tolerance(target, n) of `target`."""
    if n <= 0:
        problems.append(f"{what}: no trials to measure it on")
        return
    tol = tolerance(target, n)
    if not abs(value - target) <= tol:
        problems.append(f"{what} {value:.4f} is outside {target} +/- {tol:.4f} (n={n})")


def check_recount(problems, what, recall, precision, binary, truth) -> tuple[int, int, int]:
    """The program's recall and precision equal a recount of the same matrix."""
    tp, fp, fn = confusion(binary, truth)
    want_recall = tp / (tp + fn) if tp + fn else None
    want_precision = tp / (tp + fp) if tp + fp else None
    for name, got, want in (
        ("recall", recall, want_recall),
        ("precision", precision, want_precision),
    ):
        if got is None or want is None:
            if got is not want:
                problems.append(f"{what}: {name} {got} but recount gives {want}")
        elif not _close(got, want):
            problems.append(f"{what}: {name} {got!r} but recount gives {want!r}")
    return tp, fp, fn


def check_sim_k1(n_events: int, votes: np.ndarray, recall, precision, truth) -> list[str]:
    """One k=1 pass: event count, metrics recount, paper operating point."""
    problems: list[str] = []
    videos, questions = truth.shape
    if n_events != videos * questions:
        problems.append(f"pass yielded {n_events} events, expected {videos * questions}")
    if votes.shape != truth.shape:
        return problems + [f"vote matrix {votes.shape}, expected {truth.shape}"]
    if votes.min(initial=0) < 0 or votes.max(initial=0) > 1:
        problems.append("one pass gave a vote count outside {0, 1}")
    binary = votes >= 1
    tp, fp, _ = check_recount(problems, "metrics", recall, precision, binary, truth)
    check_near(problems, "k=1 recall", tp / max(1, int(truth.sum())), K1_RECALL, int(truth.sum()))
    check_near(problems, "k=1 precision", tp / max(1, tp + fp), K1_PRECISION, tp + fp)
    return problems


def check_sim_k52x5(
    batch_sizes, votes_by_iteration, scores, truth, reference_votes, plan
) -> list[str]:
    """Five union-consensus k=52 passes plus the planner's choice.

    `votes_by_iteration` holds each campaign pass's own vote matrix, `scores`
    the program's (recall, precision) of the union after each pass, and
    `plan` the tuple (chosen k, its predicted recall, best k=1 recall).
    """
    problems: list[str] = []
    videos, questions = truth.shape
    if len(batch_sizes) != K52_PASSES or len(votes_by_iteration) != K52_PASSES:
        problems.append(f"{len(batch_sizes)} campaign passes, expected {K52_PASSES}")
    for i, size in enumerate(batch_sizes, start=1):
        if size != videos * questions:
            problems.append(f"campaign pass {i}: {size} events, expected {videos * questions}")
    positives = int(truth.sum())
    union = np.zeros(truth.shape, dtype=bool)
    for n, (votes, (recall, precision)) in enumerate(zip(votes_by_iteration, scores), start=1):
        if votes.shape != truth.shape or votes.min(initial=0) < 0 or votes.max(initial=0) > 1:
            problems.append(f"campaign pass {n}: votes are not a 0/1 {truth.shape} matrix")
            return problems
        union |= votes >= 1
        tp, fp, _ = check_recount(problems, f"union after {n}", recall, precision, union, truth)
        if n in K52_UNION_RECALL:
            check_near(problems, f"union recall after {n}", tp / positives,
                       K52_UNION_RECALL[n], positives)
        if n == 1:
            check_near(problems, "k=52 precision after 1", tp / max(1, tp + fp),
                       K52_PRECISION, tp + fp)
    if reference_votes is not None:
        same = len(reference_votes) == len(votes_by_iteration) and all(
            np.array_equal(a, b) for a, b in zip(reference_votes, votes_by_iteration)
        )
        if not same:
            problems.append("votes differ from the first pass's under the same seed")
    chosen_k, chosen_recall, best_k1_recall = plan
    if chosen_k != questions:
        problems.append(f"optimize chose k={chosen_k}, expected k={questions}")
    if not chosen_recall - best_k1_recall >= PLAN_MARGIN:
        problems.append(
            f"optimize's recall {chosen_recall:.4f} beats the best k=1 plan "
            f"({best_k1_recall:.4f}) by less than {PLAN_MARGIN}"
        )
    return problems


# ---------------------------------------------------------------------------
# cli-k5: the benchmark's own parse of the CLI's files
# ---------------------------------------------------------------------------


class EventsRecount:
    """Everything the CLI outputs are checked against, from one parse of the
    events CSV. `problems` lists rows that break the event format."""

    def __init__(self, path, questions: dict, truth: dict, iterations: int):
        self.problems: list[str] = []
        self.rows = 0
        self.gold_rows = 0
        self.seconds = 0.0
        self.task_seconds: dict[str, dict] = {}
        self.answers: dict[str, list[int]] = {}  # worker -> [answered, yes]
        self.gold: dict[str, list[int]] = {}
        self.votes: dict[tuple[str, int], int] = {}
        answered: dict[tuple[str, int], set] = {}
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            if header[:7] != ["worker", "video", "question", "gate", "members",
                              "elapsed", "iteration"]:
                self.problems.append(f"events header {header}")
                return
            for line, row in enumerate(reader, start=2):
                self._row(line, row, questions, truth, answered)
        expected = {(v, i) for v in truth for i in range(iterations)}
        if answered.keys() != expected:
            self.problems.append(
                f"(video, iteration) pairs: {len(answered.keys() - expected)} unexpected, "
                f"{len(expected - answered.keys())} missing"
            )
        for key, qids in answered.items():
            if len(qids) != len(questions):
                self.problems.append(f"{key} answers {len(qids)} of {len(questions)} questions")
        if self.gold_rows == 0:
            self.problems.append("positive bias is on but there are no gold rows")

    def _row(self, line, row, questions, truth, answered) -> None:
        self.rows += 1
        try:
            worker, video, question, gate, members, elapsed, iteration = row[:7]
            qid, iteration, elapsed = int(question), int(iteration), float(elapsed)
            gate = {"0": False, "1": True}[gate]
            gold = len(row) > 7 and row[7] == "1"
            selected = [int(m) for m in members.split(";") if m]
        except (ValueError, KeyError) as exc:
            self.problems.append(f"events line {line}: unreadable ({exc})")
            return
        if qid not in questions or video not in truth:
            self.problems.append(f"events line {line}: unknown question or video")
            return
        if not set(selected) <= set(questions[qid]):
            self.problems.append(f"events line {line}: members {selected} not in question {qid}")
        if gate != bool(selected):
            self.problems.append(f"events line {line}: gate {int(gate)} with members {selected}")
        if gold:
            self.gold_rows += 1
            if not truth[video] & set(questions[qid]):
                self.problems.append(f"events line {line}: gold question {qid} is negative")
            self.gold.setdefault(worker, []).append(int(gate))
            return
        seen = answered.setdefault((video, iteration), set())
        if qid in seen:
            self.problems.append(f"events line {line}: {video} iteration {iteration} "
                                 f"answers question {qid} twice")
        seen.add(qid)
        self.seconds += elapsed
        tasks = self.task_seconds.setdefault(worker, {})
        tasks[(video, iteration)] = tasks.get((video, iteration), 0.0) + elapsed
        counts = self.answers.setdefault(worker, [0, 0])
        counts[0] += 1
        counts[1] += int(gate)
        for label in selected:
            self.votes[(video, label)] = self.votes.get((video, label), 0) + 1

    def positive_rate(self, worker: str) -> float:
        answered, yes = self.answers[worker]
        return yes / answered

    def stats_rows(self) -> list[tuple]:
        rows = []
        for worker in sorted(self.task_seconds):
            gold = self.gold.get(worker)
            rows.append((
                worker,
                len(self.task_seconds[worker]),
                statistics.median(self.task_seconds[worker].values()),
                sum(gold) / len(gold) if gold else None,
                self.positive_rate(worker),
            ))
        return rows


def _read_rows(path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _num(text: str):
    return None if text == "" else float(text)


def _same_number(got, want, places: int = 6) -> bool:
    if got is None or want is None:
        return got is want
    return abs(got - want) <= 10.0**-places


def check_stats(problems, rows, recount: EventsRecount) -> None:
    want = recount.stats_rows()
    got = rows[1:]
    if len(got) != len(want):
        problems.append(f"stats.csv has {len(got)} workers, recount {len(want)}")
        return
    for g, w in zip(got, want):
        worker, tasks, median_s, gold, rate = g
        same = (
            worker == w[0]
            and int(tasks) == w[1]
            and _same_number(float(median_s), w[2])
            and _same_number(_num(gold), w[3])
            and _same_number(float(rate), w[4])
        )
        if not same:
            problems.append(f"stats.csv row {g} but recount gives {w}")
            return


def check_labels(problems, rows, recount: EventsRecount) -> None:
    got = sorted((v, int(label), int(votes), int(pos)) for v, label, votes, pos in rows[1:])
    want = sorted((v, label, votes, 1) for (v, label), votes in recount.votes.items())
    if got != want:
        problems.append(f"labels.csv differs from the recount in "
                        f"{len(set(got) ^ set(want)) or 'duplicated'} rows")


def check_queue(problems, rows, recount: EventsRecount) -> None:
    got = sorted((v, int(label)) for v, label in rows[1:])
    want = sorted(recount.votes)
    if got != want:
        problems.append(f"queue.csv differs from the recount in "
                        f"{len(set(got) ^ set(want)) or 'duplicated'} pairs")


def check_metrics_csv(problems, rows, recount: EventsRecount, truth, k, iterations) -> None:
    tp = sum(1 for (v, label) in recount.votes if label in truth[v])
    recall = tp / sum(len(labels) for labels in truth.values())
    precision = tp / len(recount.votes) if recount.votes else 0.0
    minutes = recount.seconds / 60.0 / len(truth)
    if len(rows) != 2:
        problems.append(f"metrics.csv has {len(rows) - 1} rows")
        return
    row = rows[1]
    if row[1:3] != [str(k), str(iterations)] or not all(
        _same_number(float(got), want)
        for got, want in zip(row[4:7], (recall, precision, minutes))
    ):
        problems.append(f"metrics.csv {row} but recount gives k={k}, "
                        f"iterations={iterations}, {recall:.6f}, {precision:.6f}, {minutes:.6f}")


def honest_flag_limit(honest: int) -> int:
    """The most honest workers QC may flag: the largest count c whose upper
    tail P(Binomial(honest, HONEST_FLAG_RATE) >= c) is at least
    HONEST_FLAG_ALPHA, so flagging more rejects the 5% ceiling one-sidedly."""
    def tail(c: int) -> float:
        p = HONEST_FLAG_RATE
        return sum(math.comb(honest, j) * p**j * (1 - p) ** (honest - j)
                   for j in range(c, honest + 1))
    limit = 0
    while limit < honest and tail(limit + 1) >= HONEST_FLAG_ALPHA:
        limit += 1
    return limit


def check_qc(problems, rows, recount: EventsRecount, spammers: int) -> None:
    """Exactly `spammers` workers have a recounted positive rate above
    SPAMMER_RATE, and QC flags all of them; it flags no more honest workers
    than honest_flag_limit allows."""
    flagged = {row[0] for row in rows[1:]}
    high = {w for w in recount.answers if recount.positive_rate(w) > SPAMMER_RATE}
    if len(high) != spammers:
        problems.append(f"{len(high)} workers have a positive rate > {SPAMMER_RATE}, "
                        f"expected the {spammers} spammers")
    missed = high - flagged
    if missed:
        problems.append(f"qc missed workers with positive rate > {SPAMMER_RATE}: {sorted(missed)}")
    honest = len(recount.answers) - len(high)
    limit = honest_flag_limit(honest)
    if len(flagged - high) > limit:
        problems.append(f"qc flagged {len(flagged - high)} of {honest} honest workers "
                        f"(limit {limit})")


def check_cli(workdir, questions: dict, truth: dict, k: int, iterations: int,
              spammers: int) -> tuple:
    """All checks of one cli-k5 pass; returns (problems, events CSV rows)."""
    workdir = Path(workdir)
    recount = EventsRecount(workdir / "events.csv", questions, truth, iterations)
    problems = list(recount.problems)
    check_stats(problems, _read_rows(workdir / "stats.csv"), recount)
    check_labels(problems, _read_rows(workdir / "labels.csv"), recount)
    check_metrics_csv(problems, _read_rows(workdir / "metrics.csv"), recount, truth, k, iterations)
    check_queue(problems, _read_rows(workdir / "queue.csv"), recount)
    check_qc(problems, _read_rows(workdir / "qc.csv"), recount, spammers)
    plan = json.loads((workdir / "plan.json").read_text(encoding="utf-8"))
    if plan.get("k") != len(questions):
        problems.append(f"plan chose k={plan.get('k')}, expected k={len(questions)}")
    return problems, recount.rows
