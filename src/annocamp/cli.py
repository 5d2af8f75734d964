"""Command-line surface: one subcommand per operation, seed-deterministic.

Every command maps to a single library operation; all randomness flows from
the `--seed` flag. Defaults come from the bundled sample taxonomy and the
reference calibration; a JSON `--config` overrides them, while the
interface modifiers come from `simulate`'s flags alone. Without `--out`,
every command but `simulate` writes its output to stdout.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from importlib import resources
from itertools import islice
from pathlib import Path

import numpy as np

from . import campaign, costmodel, evaluate, events, planner, taxonomy, workersim
from .output import read_records, read_text, write_csv, write_text


def sample_taxonomy_path() -> Path:
    return Path(resources.files("annocamp").joinpath("data/sample_taxonomy.json"))


def _correlation_targets(targets) -> tuple[tuple[int, float], ...]:
    """(passes, union recall) pairs: at least one, each of at least 2 passes
    and a recall strictly between 0 and 1."""
    parsed = tuple((int(n), float(r)) for n, r in targets)
    if not parsed:
        raise ValueError("need at least one (passes, recall) pair")
    for n, r in parsed:
        if n < 2:
            raise ValueError(f"pass count {n} is below 2")
        if not 0.0 < r < 1.0:
            raise ValueError(f"recall {r} at {n} passes is not inside (0, 1)")
    return parsed


def _object(doc, required, optional=()) -> dict:
    """`doc`, a JSON object that holds every `required` key and no key
    outside `required` and `optional`; a ValueError names the first key
    that breaks this."""
    if not isinstance(doc, dict):
        raise ValueError("must be a JSON object")
    for key in doc:
        if key not in required and key not in optional:
            raise ValueError(f"unknown key {key!r}")
    for key in required:
        if key not in doc:
            raise ValueError(f"missing key {key!r}")
    return doc


def _time_model(doc) -> costmodel.TimeModel:
    doc = _object(doc, ("a", "b"))
    return costmodel.TimeModel(float(doc["a"]), float(doc["b"]))


def _budget(doc) -> costmodel.HitBudget:
    doc = _object(doc, (), ("target_seconds", "pay_per_hit"))
    return costmodel.HitBudget(**{key: float(value) for key, value in doc.items()})


def _anchor(doc) -> workersim.AccuracyAnchor:
    doc = _object(doc, ("k", "recall", "precision", "iteration_minutes"))
    return workersim.AccuracyAnchor(
        int(doc["k"]), float(doc["recall"]), float(doc["precision"]),
        float(doc["iteration_minutes"]),
    )


# Each config section: its default, and the parser of its JSON value.
SECTIONS = {
    "taxonomy": (sample_taxonomy_path(), Path),
    "time_model": (costmodel.DEFAULT_TIME_MODEL, _time_model),
    "budget": (costmodel.HitBudget(), _budget),
    "anchors": (workersim.DEFAULT_ANCHORS, lambda docs: tuple(map(_anchor, docs))),
    "correlation_targets": (workersim.DEFAULT_MULTI_PASS_RECALL, _correlation_targets),
    "prevalence": (workersim.DEFAULT_PREVALENCE, float),
    "qtop": (workersim.DEFAULT_QTOP, int),
}


def load_config(path: str | None) -> dict:
    """Every setting, resolved: each section of the JSON config document at
    `path` (None: no document) replaces its default. An unknown key or a
    section that does not parse is a one-line ValueError that names it."""
    try:
        doc = {} if path is None else json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise ValueError(f"cannot parse {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError("config: must be a JSON object")
    config = {key: default for key, (default, _) in SECTIONS.items()}
    for key, value in doc.items():
        if key not in SECTIONS:
            raise ValueError(f"config: unknown key {key!r}")
        try:
            config[key] = SECTIONS[key][1](value)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"config: {key}: {exc}") from None
    return config


def _taxonomy(args, config: dict) -> taxonomy.Taxonomy:
    return taxonomy.load_taxonomy(args.taxonomy or config["taxonomy"])


def _behavior(config: dict, fit_correlation: bool = True) -> workersim.WorkerBehavior:
    behavior = workersim.calibrate(
        config["anchors"], prevalence=config["prevalence"], qtop=config["qtop"]
    )
    if fit_correlation:
        behavior = workersim.fit_hard_mixture(behavior, targets=config["correlation_targets"])
    return behavior


def _aggregated(args, config: dict):
    """The taxonomy, the events of `--events` and their vote matrix."""
    tax = _taxonomy(args, config)
    table = events.ingest(args.events, tax)
    return tax, table, evaluate.aggregate(table, tax)


def _fmt_opt(value) -> str:
    return "" if value is None else f"{value:.6f}"


def cmd_fit_time(args, config: dict) -> int:
    observations = costmodel.read_timings_csv(args.timings)
    write_text(args.out, costmodel.fit_time_model(observations).to_json())
    return 0


def cmd_calibrate(args, config: dict) -> int:
    behavior = _behavior(config, fit_correlation=not args.independence)
    write_text(args.out, json.dumps(dataclasses.asdict(behavior), indent=2))
    return 0


def cmd_pack_hits(args, config: dict) -> int:
    tax = _taxonomy(args, config)
    truths = workersim.load_truths(args.videos)
    video_ids = [t.video_id for t in truths]
    known = None
    if args.positive_bias:
        known = taxonomy.question_positive(
            tax, evaluate.truth_matrix(truths, tax.label_count, video_ids))
    hits = campaign.pack_hits(
        tax, video_ids, taxonomy.partition_questions(tax, args.k, args.seed), config["budget"],
        config["time_model"], args.seed, grouping=args.grouping, known=known,
        prevalence=config["prevalence"],
    )
    slots = iter(zip(tax.question_ids[hits.question].tolist(), hits.gold.tolist()))
    tasks = iter(zip(hits.video.tolist(), hits.lengths.tolist()))
    doc = []
    for hit_id, subset, count, seconds in zip(hits.hit_ids, hits.subset.tolist(),
                                              np.bincount(hits.hit).tolist(),
                                              hits.expected_seconds.tolist()):
        videos = list(islice(tasks, count))
        doc.append({"hit_id": hit_id, "subset_index": subset,
                    "videos": [hits.video_ids[v] for v, _ in videos],
                    "slots": [[{"question": q, "gold": g} for q, g in islice(slots, length)]
                              for _, length in videos],
                    "expected_seconds": seconds, "pay": hits.pay})
    write_text(args.out, json.dumps(doc, indent=2))
    return 0


def cmd_simulate(args, config: dict) -> int:
    if args.out is None:
        raise SystemExit("simulate requires --out (event CSV path)")
    tax = _taxonomy(args, config)
    truths = workersim.load_truths(args.videos)
    behavior = _behavior(config)
    pool = (workersim.sample_worker_pool(args.workers, behavior, args.spammer_fraction, args.seed)
            if args.workers else None)
    modifiers = workersim.ModifierSet(**{name: getattr(args, name)
                                         for name, _ in workersim.MODIFIERS})
    table = campaign.run_campaign(tax, truths, args.k, args.iterations, behavior, args.seed,
                                  modifiers=modifiers, model=config["time_model"],
                                  budget=config["budget"], pool=pool)
    events.write_events_csv(table, tax, args.out)
    return 0


def cmd_ingest(args, config: dict) -> int:
    tax = _taxonomy(args, config)
    stats = campaign.worker_stats_from_events(events.ingest(args.events, tax))
    header = ["worker", "tasks", "median_seconds", "gold_recall", "positive_rate"]
    rows = ([s.worker_id, s.tasks_completed, f"{s.median_seconds_per_task:.6f}",
             _fmt_opt(s.gold_recall), f"{s.positive_rate:.6f}"] for s in stats)
    write_csv(args.out, header, rows)
    return 0


def cmd_aggregate(args, config: dict) -> int:
    _, _, matrix = _aggregated(args, config)
    binary = matrix.binary(args.threshold)
    header = ["video", "label", "votes", "positive"]
    row, label = matrix.votes.nonzero()
    columns = (np.array(matrix.video_ids, dtype=object)[row], label, matrix.votes[row, label],
               binary[row, label].view(np.uint8))
    write_csv(args.out, header, zip(*(column.tolist() for column in columns)))
    return 0


def cmd_metrics(args, config: dict) -> int:
    tax, table, matrix = _aggregated(args, config)
    truths = workersim.load_truths(args.videos)
    truth = evaluate.truth_matrix(truths, tax.label_count, matrix.video_ids)
    scored = evaluate.metrics(matrix.binary(args.threshold), truth)
    minutes, affirmative = evaluate.event_stats(table)
    header = ["experiment", "k", "iterations", "modifiers", "recall", "precision",
              "minutes_per_video"]
    rows = [[args.experiment, "" if args.k is None else args.k, matrix.iterations, args.modifiers,
             _fmt_opt(scored.recall), _fmt_opt(scored.precision), f"{minutes:.6f}"]]
    write_csv(args.out, header, rows)
    return 0


def cmd_plan(args, config: dict) -> int:
    behavior = _behavior(config, fit_correlation=not args.independence)
    constraint = planner.BudgetConstraint(
        max_minutes_per_video=args.budget_minutes,
        min_precision=args.min_precision,
    )
    try:
        k_values = [int(k) for k in args.k_values.split(",")] if args.k_values else None
    except ValueError:
        message = f"--k-values must be comma-separated integers, got {args.k_values!r}"
        raise ValueError(message) from None
    if args.enumerate:
        plans = planner.enumerate_plans(
            behavior,
            config["time_model"],
            constraint,
            k_values,
            max_n=args.max_n,
        )
        rows = (
            [p.k, p.iterations, p.modifiers.label(), f"{p.predicted_recall:.6f}",
             f"{p.predicted_precision:.6f}", f"{p.minutes_per_video:.6f}"]
            for p in plans
        )
        write_csv(args.out, ["k", "n", "modifiers", "recall", "precision", "minutes"], rows)
        return 0
    plan = planner.optimize(
        behavior, config["time_model"], constraint, k_values=k_values, max_n=args.max_n
    )
    doc = dataclasses.asdict(plan)
    doc["modifiers"] = plan.modifiers.label()
    write_text(args.out, json.dumps(doc, indent=2))
    return 0


def _worker_stats(row) -> campaign.WorkerStats:
    """One row of an `ingest` stats CSV; a ValueError names the first field
    outside its range."""
    tasks, seconds = int(row["tasks"]), float(row["median_seconds"])
    gold = float(row["gold_recall"]) if row["gold_recall"] else None
    rate = float(row["positive_rate"])
    for column, value, ok, rule in (
        ("tasks", tasks, tasks >= 1, "at least 1"),
        ("median_seconds", seconds, 0 <= seconds < math.inf, "finite and at least 0"),
        ("gold_recall", gold, gold is None or 0 <= gold <= 1, "empty or in [0, 1]"),
        ("positive_rate", rate, 0 <= rate <= 1, "in [0, 1]"),
    ):
        if not ok:
            raise ValueError(f"{column} must be {rule}, got {value}")
    return campaign.WorkerStats(row["worker"], tasks, seconds, gold, rate)


def cmd_qc(args, config: dict) -> int:
    stats = read_records(
        args.stats,
        ("worker", "tasks", "median_seconds", "gold_recall", "positive_rate"),
        _worker_stats,
    )
    flags = campaign.qc_flag(
        stats, campaign.QcThresholds(mad_z=args.mad_z, min_workers=args.min_workers)
    )
    header = ["worker", "signal", "z"]
    rows = [
        [flag.worker_id, signal, f"{flag.z_scores[signal]:.4f}"]
        for flag in flags
        for signal in flag.signals
    ]
    write_csv(args.out, header, rows)
    return 0


def cmd_verify_queue(args, config: dict) -> int:
    _, _, matrix = _aggregated(args, config)
    done = set()
    if args.done:
        done = set(read_records(
            args.done, ("video", "label"), lambda row: (row["video"], int(row["label"]))
        ))
    queue = campaign.build_verification_queue(
        matrix, threshold=args.threshold, already_verified=done
    )
    write_csv(args.out, ["video", "label"], [[t.video, t.label] for t in queue])
    return 0


def cmd_reproduce(args, config: dict) -> int:
    campaign.reproduce(args.name, args.seed, args.out)
    return 0


def _parent(*flags, **options) -> argparse.ArgumentParser:
    """A parser that holds one argument, for subparsers to share."""
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument(*flags, **options)
    return parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process. It holds no command
    function: `main` looks the command's up on this module at call time."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="master seed for all randomness")
    common.add_argument("--config", default=None, help="JSON config file")
    common.add_argument("--out", default=None, help="output path (default: stdout)")
    tax = _parent("--taxonomy", default=None, help="taxonomy JSON (default: the config's)")
    videos = _parent("--videos", required=True, help="ground-truth JSONL")
    events_csv = _parent("--events", required=True, help="events CSV")
    threshold = _parent("--threshold", type=int, default=1, help="votes that make a positive")
    independence = _parent("--independence", action="store_true",
                           help="skip fitting the multi-pass difficulty mixture")

    parser = argparse.ArgumentParser(
        prog="annocamp",
        description="Plan, simulate and evaluate multi-label video annotation campaigns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, summary, *parents):
        return sub.add_parser(name, parents=[common, *parents], help=summary)

    p = command("fit-time", "fit the linear task-time model")
    p.add_argument("--timings", required=True, help="questions,seconds[,video_seconds] CSV")

    command("calibrate", "build the worker model", independence)

    p = command("pack-hits", "pack videos into HIT specs", tax, videos)
    p.add_argument("--k", type=int, required=True, help="questions per task")
    p.add_argument("--positive-bias", action="store_true")
    p.add_argument("--grouping", action="store_true")

    p = command("simulate", "simulate an annotation campaign", tax, videos)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--iterations", type=int, default=1)
    p.add_argument("--workers", type=int, default=0, help="worker pool size (0: one worker)")
    p.add_argument("--spammer-fraction", type=float, default=0.0)
    for name, _ in workersim.MODIFIERS:
        p.add_argument("--" + name.replace("_", "-"), action="store_true")

    command("ingest", "validate events, emit worker stats", tax, events_csv)
    command("aggregate", "fold events into labels", tax, events_csv, threshold)

    p = command("metrics", "score aggregated labels vs truth", tax, events_csv, videos, threshold)
    p.add_argument("--experiment", default="adhoc")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--modifiers", default="none")

    p = command("plan", "pick the best strategy for a budget", independence)
    p.add_argument("--budget-minutes", type=float, required=True)
    p.add_argument("--min-precision", type=float, default=None)
    p.add_argument("--k-values", default=None, help="comma-separated interface sizes")
    p.add_argument("--max-n", type=int, default=None)
    p.add_argument(
        "--enumerate",
        action="store_true",
        help="emit every feasible plan as CSV instead of the optimum",
    )

    qc = campaign.QcThresholds()
    p = command("qc", "flag outlier workers")
    p.add_argument("--stats", required=True, help="worker stats CSV from ingest")
    p.add_argument("--mad-z", type=float, default=qc.mad_z)
    p.add_argument("--min-workers", type=int, default=qc.min_workers)

    p = command("verify-queue", "queue predicted positives", tax, events_csv, threshold)
    p.add_argument("--done", default=None, help="CSV of already-verified video,label pairs")

    p = command("reproduce", "run a bundled experiment")
    p.add_argument("name", choices=campaign.EXPERIMENTS)

    return parser


def main(argv=None) -> int:
    """Run one subcommand; bad input exits with a one-line message."""
    args = build_parser().parse_args(argv)
    # Built on each call, so a command function replaced on this module
    # after the parser was built is the one that runs.
    command = {
        "fit-time": cmd_fit_time, "calibrate": cmd_calibrate, "pack-hits": cmd_pack_hits,
        "simulate": cmd_simulate, "ingest": cmd_ingest, "aggregate": cmd_aggregate,
        "metrics": cmd_metrics, "plan": cmd_plan, "qc": cmd_qc,
        "verify-queue": cmd_verify_queue, "reproduce": cmd_reproduce,
    }[args.command]
    try:
        return command(args, load_config(args.config))
    except (OSError, ValueError) as exc:
        raise SystemExit(f"annocamp {args.command}: {exc}") from exc


if __name__ == "__main__":
    sys.exit(main())
