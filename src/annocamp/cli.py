"""Command-line surface: one subcommand per operation, seed-deterministic.

Every command maps to a single library operation; all randomness flows from
the `--seed` flag. Defaults come from the bundled sample taxonomy and the
reference calibration; a JSON `--config` overrides them.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import sys
from importlib import resources
from itertools import islice
from pathlib import Path

import numpy as np

from . import campaign, costmodel, evaluate, planner, taxonomy, workersim
from .output import atomic_open, read_records, write_csv


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


class Config:
    """Resolved defaults: taxonomy, time model, calibration, budget.

    Each section of a JSON config document replaces one default; a section
    that does not parse is a one-line ValueError that names it.
    """

    SECTIONS = {
        "taxonomy": Path,
        "time_model": lambda tm: costmodel.TimeModel(float(tm["a"]), float(tm["b"])),
        "budget": lambda b: costmodel.HitBudget(
            float(b.get("target_seconds", 150.0)), float(b.get("pay_per_hit", 0.40))
        ),
        "anchors": lambda anchors: tuple(
            workersim.AccuracyAnchor(
                int(a["k"]), float(a["recall"]), float(a["precision"]),
                float(a["iteration_minutes"]),
            )
            for a in anchors
        ),
        "correlation_targets": _correlation_targets,
        "prevalence": float,
        "qtop": int,
        "modifiers": lambda doc: workersim.ModifierSet(
            **{name: bool(doc.get(name, False)) for name, _ in workersim.MODIFIERS}
        ),
    }

    def __init__(self, doc: dict | None = None):
        doc = doc or {}
        if not isinstance(doc, dict):
            raise ValueError("config: must be a JSON object")
        self.values = {}
        for key, value in doc.items():
            if key not in self.SECTIONS:
                raise ValueError(f"config: unknown key {key!r}")
            try:
                self.values[key] = self.SECTIONS[key](value)
            except KeyError as exc:
                raise ValueError(f"config: {key}: missing key {exc}") from None
            except (AttributeError, TypeError, ValueError) as exc:
                raise ValueError(f"config: {key}: {exc}") from None
        for key in doc.get("modifiers", {}):
            if key not in dict(workersim.MODIFIERS):
                raise ValueError(f"config: unknown modifiers key {key!r}")

    @classmethod
    def load(cls, path: str | None) -> "Config":
        if path is None:
            return cls()
        return cls(json.loads(Path(path).read_text(encoding="utf-8")))

    def taxonomy(self, override: str | None = None) -> taxonomy.Taxonomy:
        path = override or self.values.get("taxonomy", sample_taxonomy_path())
        return taxonomy.load_taxonomy(path)

    def time_model(self) -> costmodel.TimeModel:
        return self.values.get("time_model", costmodel.DEFAULT_TIME_MODEL)

    def budget(self) -> costmodel.HitBudget:
        return self.values.get("budget", costmodel.HitBudget())

    def prevalence(self) -> float:
        return self.values.get("prevalence", workersim.DEFAULT_PREVALENCE)

    def behavior(self, fit_correlation: bool = True) -> workersim.WorkerBehavior:
        qtop = self.values.get("qtop", workersim.DEFAULT_QTOP)
        anchors = self.values.get("anchors", workersim.DEFAULT_ANCHORS)
        behavior = workersim.calibrate(anchors, prevalence=self.prevalence(), qtop=qtop)
        if fit_correlation:
            targets = self.values.get("correlation_targets", workersim.DEFAULT_MULTI_PASS_RECALL)
            behavior = workersim.fit_hard_mixture(behavior, k=qtop, targets=targets)
        return behavior

    def modifiers(self) -> workersim.ModifierSet:
        return self.values.get("modifiers", workersim.ModifierSet())


def _emit_text(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with atomic_open(out) as fh:
            fh.write(text)


def _emit_csv(header, rows, out: str | None) -> None:
    if out is None:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    else:
        write_csv(out, header, rows)


def _fmt_opt(value) -> str:
    return "" if value is None else f"{value:.6f}"


def _modifiers_from_args(args, config: Config) -> workersim.ModifierSet:
    from_args = workersim.ModifierSet(
        **{name: getattr(args, name) for name, _ in workersim.MODIFIERS}
    )
    return from_args if from_args.any else config.modifiers()


def cmd_fit_time(args, config: Config) -> int:
    observations = costmodel.read_timings_csv(args.timings)
    model = costmodel.fit_time_model(observations)
    _emit_text(model.to_json(), args.out)
    return 0


def cmd_calibrate(args, config: Config) -> int:
    behavior = config.behavior(fit_correlation=not args.independence)
    _emit_text(json.dumps(dataclasses.asdict(behavior), indent=2), args.out)
    return 0


def cmd_pack_hits(args, config: Config) -> int:
    tax = config.taxonomy(args.taxonomy)
    truths = workersim.load_truths(args.videos)
    video_ids = [t.video_id for t in truths]
    known = None
    if args.positive_bias:
        truth = evaluate.truth_matrix(truths, tax.label_count, video_ids)
        known = campaign.gate_positives(tax, video_ids, truth)
    hits = campaign.pack_hits(
        video_ids, taxonomy.partition_questions(tax, args.k, args.seed), config.budget(),
        config.time_model(), args.seed, positive_bias=args.positive_bias, grouping=args.grouping,
        known_positives=known, prevalence=config.prevalence(),
    )
    slots = iter(zip(hits.question.tolist(), hits.gold.tolist()))
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
    _emit_text(json.dumps(doc, indent=2), args.out)
    return 0


def cmd_simulate(args, config: Config) -> int:
    if args.out is None:
        raise SystemExit("simulate requires --out (event CSV path)")
    tax = config.taxonomy(args.taxonomy)
    truths = workersim.load_truths(args.videos)
    behavior = config.behavior()
    pool = (
        workersim.sample_worker_pool(args.workers, behavior, args.spammer_fraction, args.seed)
        if args.workers
        else None
    )
    events = campaign.run_campaign(
        tax,
        truths,
        args.k,
        args.iterations,
        behavior,
        args.seed,
        modifiers=_modifiers_from_args(args, config),
        model=config.time_model(),
        budget=config.budget(),
        pool=pool,
    )
    campaign.write_events_csv(events, tax, args.out)
    return 0


def cmd_ingest(args, config: Config) -> int:
    tax = config.taxonomy(args.taxonomy)
    stats = campaign.worker_stats_from_events(campaign.ingest(args.events, tax))
    header = ["worker", "tasks", "median_seconds", "gold_recall", "positive_rate"]
    rows = [
        [
            s.worker_id,
            s.tasks_completed,
            f"{s.median_seconds_per_task:.6f}",
            _fmt_opt(s.gold_recall),
            f"{s.positive_rate:.6f}",
        ]
        for s in stats
    ]
    _emit_csv(header, rows, args.out)
    return 0


def cmd_aggregate(args, config: Config) -> int:
    tax = config.taxonomy(args.taxonomy)
    events = campaign.ingest(args.events, tax)
    matrix = evaluate.aggregate(events, tax)
    binary = matrix.binary(args.threshold)
    header = ["video", "label", "votes", "positive"]
    rows = [
        [matrix.video_ids[row], label, int(matrix.votes[row, label]), int(binary[row, label])]
        for row, label in zip(*(a.tolist() for a in matrix.votes.nonzero()))
    ]
    _emit_csv(header, rows, args.out)
    return 0


def cmd_metrics(args, config: Config) -> int:
    tax = config.taxonomy(args.taxonomy)
    truths = workersim.load_truths(args.videos)
    events = campaign.ingest(args.events, tax)
    matrix = evaluate.aggregate(events, tax)
    truth = evaluate.truth_matrix(truths, tax.label_count, matrix.video_ids)
    scored = evaluate.metrics(matrix.binary(args.threshold), truth)
    minutes, affirmative = evaluate.event_stats(events)
    header = [
        "experiment",
        "k",
        "iterations",
        "modifiers",
        "recall",
        "precision",
        "minutes_per_video",
    ]
    rows = [
        [
            args.experiment,
            args.k if args.k is not None else "",
            matrix.iterations,
            args.modifiers,
            _fmt_opt(scored.recall),
            _fmt_opt(scored.precision),
            f"{minutes:.6f}",
        ]
    ]
    _emit_csv(header, rows, args.out)
    return 0


def cmd_plan(args, config: Config) -> int:
    behavior = config.behavior(fit_correlation=not args.independence)
    constraint = planner.BudgetConstraint(
        max_minutes_per_video=args.budget_minutes,
        min_precision=args.min_precision,
    )
    k_values = (
        [int(k) for k in args.k_values.split(",")] if args.k_values else None
    )
    if args.enumerate:
        if args.out is None:
            raise SystemExit("plan --enumerate requires --out (CSV path)")
        plans = planner.enumerate_plans(
            behavior,
            config.time_model(),
            constraint,
            k_values or [k for k, _ in behavior.recall_points],
            max_n=args.max_n,
        )
        planner.write_plans_csv(plans, args.out)
        return 0
    plan = planner.optimize(
        behavior, config.time_model(), constraint, k_values=k_values, max_n=args.max_n
    )
    doc = dataclasses.asdict(plan)
    doc["modifiers"] = plan.modifiers.label()
    _emit_text(json.dumps(doc, indent=2), args.out)
    return 0


def cmd_qc(args, config: Config) -> int:
    stats = read_records(
        args.stats,
        ("worker", "tasks", "median_seconds", "gold_recall", "positive_rate"),
        lambda row: campaign.WorkerStats(
            worker_id=row["worker"],
            tasks_completed=int(row["tasks"]),
            median_seconds_per_task=float(row["median_seconds"]),
            gold_recall=float(row["gold_recall"]) if row["gold_recall"] else None,
            positive_rate=float(row["positive_rate"]),
        ),
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
    _emit_csv(header, rows, args.out)
    return 0


def cmd_verify_queue(args, config: Config) -> int:
    tax = config.taxonomy(args.taxonomy)
    events = campaign.ingest(args.events, tax)
    matrix = evaluate.aggregate(events, tax)
    done = set()
    if args.done:
        done = set(read_records(
            args.done, ("video", "label"), lambda row: (row["video"], int(row["label"]))
        ))
    queue = campaign.build_verification_queue(
        matrix, threshold=args.threshold, already_verified=done
    )
    _emit_csv(["video", "label"], [[t.video, t.label] for t in queue], args.out)
    return 0


def cmd_reproduce(args, config: Config) -> int:
    if args.out is None:
        raise SystemExit("reproduce requires --out (CSV path)")
    campaign.reproduce(args.name, args.seed, args.out)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process. It holds no command
    function: `main` looks the command's up on this module at call time."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="master seed for all randomness")
    common.add_argument("--config", default=None, help="JSON config file")
    common.add_argument("--out", default=None, help="output path (default: stdout)")

    parser = argparse.ArgumentParser(
        prog="annocamp",
        description="Plan, simulate and evaluate multi-label video annotation campaigns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit-time", parents=[common], help="fit the linear task-time model")
    p.add_argument("--timings", required=True, help="questions,seconds[,video_seconds] CSV")

    p = sub.add_parser("calibrate", parents=[common], help="build the worker model")
    p.add_argument(
        "--independence",
        action="store_true",
        help="skip fitting the multi-pass difficulty mixture",
    )

    p = sub.add_parser("pack-hits", parents=[common], help="pack videos into HIT specs")
    p.add_argument("--taxonomy", default=None)
    p.add_argument("--videos", required=True, help="ground-truth JSONL")
    p.add_argument("--k", type=int, required=True, help="questions per task")
    p.add_argument("--positive-bias", action="store_true")
    p.add_argument("--grouping", action="store_true")

    p = sub.add_parser("simulate", parents=[common], help="simulate an annotation campaign")
    p.add_argument("--taxonomy", default=None)
    p.add_argument("--videos", required=True, help="ground-truth JSONL")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--iterations", type=int, default=1)
    p.add_argument("--workers", type=int, default=0, help="worker pool size (0: one worker)")
    p.add_argument("--spammer-fraction", type=float, default=0.0)
    for name, _ in workersim.MODIFIERS:
        p.add_argument("--" + name.replace("_", "-"), action="store_true")

    p = sub.add_parser("ingest", parents=[common], help="validate events, emit worker stats")
    p.add_argument("--taxonomy", default=None)
    p.add_argument("--events", required=True)

    p = sub.add_parser("aggregate", parents=[common], help="fold events into labels")
    p.add_argument("--taxonomy", default=None)
    p.add_argument("--events", required=True)
    p.add_argument("--threshold", type=int, default=1)

    p = sub.add_parser("metrics", parents=[common], help="score aggregated labels vs truth")
    p.add_argument("--taxonomy", default=None)
    p.add_argument("--events", required=True)
    p.add_argument("--videos", required=True)
    p.add_argument("--threshold", type=int, default=1)
    p.add_argument("--experiment", default="adhoc")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--modifiers", default="none")

    p = sub.add_parser("plan", parents=[common], help="pick the best strategy for a budget")
    p.add_argument("--budget-minutes", type=float, required=True)
    p.add_argument("--min-precision", type=float, default=None)
    p.add_argument("--k-values", default=None, help="comma-separated interface sizes")
    p.add_argument("--max-n", type=int, default=None)
    p.add_argument("--independence", action="store_true")
    p.add_argument(
        "--enumerate",
        action="store_true",
        help="emit every feasible plan as CSV instead of the optimum",
    )

    p = sub.add_parser("qc", parents=[common], help="flag outlier workers")
    p.add_argument("--stats", required=True, help="worker stats CSV from ingest")
    p.add_argument("--mad-z", type=float, default=3.0)
    p.add_argument("--min-workers", type=int, default=5)

    p = sub.add_parser("verify-queue", parents=[common], help="queue predicted positives")
    p.add_argument("--taxonomy", default=None)
    p.add_argument("--events", required=True)
    p.add_argument("--threshold", type=int, default=1)
    p.add_argument("--done", default=None, help="CSV of already-verified video,label pairs")

    p = sub.add_parser("reproduce", parents=[common], help="run a bundled experiment")
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
        return command(args, Config.load(args.config))
    except (OSError, ValueError) as exc:
        raise SystemExit(f"annocamp {args.command}: {exc}") from exc


if __name__ == "__main__":
    sys.exit(main())
