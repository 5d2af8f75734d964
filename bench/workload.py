"""One workload in one single-threaded process: set-up, a warm-up pass, then
timed passes for a fixed number of seconds.

Run by run.py, which passes the monotonic time at which it started this
process, so that set-up time counts from the process's start:

    python3 bench/workload.py --workload sim-k1 --seed 1 --seconds 30 \\
        --trace 0 --t0 <time.monotonic()>

The last line of standard output is one JSON object. The program is imported
from the checkout's own src/ directory and nowhere else.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import reference  # noqa: E402

OUT_DIR = ROOT / ".bench_out"

SIM_K1_VIDEOS = 300
SIM_K52_VIDEOS = 1000
CLI_VIDEOS = 150
BUDGET_MINUTES = 7.1  # the paper's per-video budget
CLI_K, CLI_ITERATIONS = 5, 2
CLI_SPAMMER_FRACTION = 0.1
CLI_SPAMMERS = 5  # --workers 50 --spammer-fraction 0.1: floor = ceil = 5


def import_program():
    """Import annocamp from this checkout, or exit without a result."""
    try:
        import annocamp
        from annocamp import campaign, cli, evaluate, planner, taxonomy, workersim
    except ImportError as exc:
        sys.exit(f"bench: cannot import annocamp from {ROOT / 'src'}: {exc}")
    where = Path(annocamp.__file__).resolve()
    if ROOT / "src" not in where.parents:
        sys.exit(f"bench: annocamp was imported from {where}, not from this checkout")
    return campaign, cli, evaluate, planner, taxonomy, workersim


class Workload:
    """make_inputs() is the benchmark's own work and is not timed; setup()
    and run_pass() call the program; check() returns (problems, work done)."""

    def release(self) -> None:
        """Drop the previous pass's outputs."""

    def close(self) -> None:
        """Remove what the workload wrote."""


class SimWorkload(Workload):
    """Shared set-up of the two library workloads: singleton taxonomy, an
    honest 50-worker pool and ground truth, all built from the seed."""

    videos = 0

    def __init__(self, name, seed, program):
        self.name, self.seed = name, seed
        self.campaign, _, self.evaluate, self.planner, self.taxonomy, self.workersim = program

    def make_inputs(self) -> None:
        rng = inputs.generator(self.name, self.seed)
        self.truth = inputs.singleton_truth(rng, self.videos)
        self.scales = inputs.recall_scales(rng)

    def setup(self) -> None:
        ws = self.workersim
        self.tax = self.taxonomy.singleton_taxonomy(inputs.QUESTIONS)
        self.pool = [
            ws.Worker(inputs.worker_id(i), recall_scale=float(s))
            for i, s in enumerate(self.scales)
        ]
        self.truths = [
            ws.VideoTruth(inputs.video_id(i), labels=frozenset(np.flatnonzero(row).tolist()))
            for i, row in enumerate(self.truth)
        ]
        self.video_ids = [t.video_id for t in self.truths]


class SimK1(SimWorkload):
    """The paper's baseline: one question per viewing, one pass."""

    videos = SIM_K1_VIDEOS

    def setup(self) -> None:
        super().setup()
        self.behavior = self.workersim.default_behavior()

    def run_pass(self):
        events = next(iter(self.campaign.simulate_campaign(
            self.tax, self.truths, 1, 1, self.behavior, self.seed, pool=self.pool
        )))
        matrix = self.evaluate.aggregate(events, self.tax, video_ids=self.video_ids)
        scored = self.evaluate.metrics(matrix.binary(1), self.truth)
        return len(events), matrix.votes, scored.recall, scored.precision

    def check(self, out) -> tuple[list, dict]:
        n_events, votes, recall, precision = out
        return checks.check_sim_k1(n_events, votes, recall, precision, self.truth), {
            "events": n_events
        }


class SimK52x5(SimWorkload):
    """The paper's method: 52 questions per viewing, five union passes."""

    videos = SIM_K52_VIDEOS

    def setup(self) -> None:
        super().setup()
        ws, planner = self.workersim, self.planner
        self.behavior = ws.fit_hard_mixture(ws.default_behavior())
        model = ws.DEFAULT_TIME_MODEL
        constraint = planner.BudgetConstraint(max_minutes_per_video=BUDGET_MINUTES)
        plan = planner.optimize(self.behavior, model, constraint)
        k1 = planner.enumerate_plans(self.behavior, model, constraint, [1], max_n=10)
        best_k1 = max((p.predicted_recall for p in k1), default=0.0)
        self.plan = (plan.k, plan.predicted_recall, best_k1)
        self.reference = None

    def run_pass(self):
        sizes, votes, scores = [], [], []
        union = np.zeros(self.truth.shape, dtype=np.int16)
        for events in self.campaign.simulate_campaign(
            self.tax, self.truths, inputs.QUESTIONS, checks.K52_PASSES, self.behavior,
            self.seed, pool=self.pool,
        ):
            sizes.append(len(events))
            matrix = self.evaluate.aggregate(events, self.tax, video_ids=self.video_ids)
            union += matrix.votes
            scored = self.evaluate.metrics(union >= 1, self.truth)
            votes.append(matrix.votes)
            scores.append((scored.recall, scored.precision))
        return sizes, votes, scores

    def check(self, out) -> tuple[list, dict]:
        sizes, votes, scores = out
        problems = checks.check_sim_k52x5(
            sizes, votes, scores, self.truth, self.reference, self.plan
        )
        if self.reference is None:
            self.reference = votes
        return problems, {"events": sum(sizes)}


class CliK5(Workload):
    """The operational pipeline through annocamp.cli.main, on the bundled
    157-label taxonomy: simulate, then six commands on the events CSV."""

    def __init__(self, name, seed, program):
        self.name, self.seed = name, seed
        self.cli = program[1]
        self.workdir = OUT_DIR / f"{name}-seed{seed}-{os.getpid()}"

    def make_inputs(self) -> None:
        doc = json.loads(
            (ROOT / "src/annocamp/data/sample_taxonomy.json").read_text(encoding="utf-8")
        )
        questions = doc["questions"]
        docs = inputs.taxonomy_truth(inputs.generator(self.name, self.seed), questions,
                                     CLI_VIDEOS)
        self.workdir.mkdir(parents=True, exist_ok=True)
        inputs.write_jsonl(docs, self.workdir / "truth.jsonl")
        self.questions = {int(q["id"]): tuple(q["members"]) for q in questions}
        self.truth = {d["video"]: frozenset(d["labels"]) for d in docs}

    def setup(self) -> None:
        w = lambda name: str(self.workdir / name)  # noqa: E731
        events = ["--events", w("events.csv")]
        self.commands = [
            ["simulate", "--videos", w("truth.jsonl"), "--k", str(CLI_K), "--iterations",
             str(CLI_ITERATIONS), "--workers", str(inputs.POOL_SIZE), "--spammer-fraction",
             str(CLI_SPAMMER_FRACTION), "--positive-bias", "--grouping", "--seed",
             str(self.seed), "--out", w("events.csv")],
            ["ingest", *events, "--out", w("stats.csv")],
            ["aggregate", *events, "--out", w("labels.csv")],
            ["metrics", *events, "--videos", w("truth.jsonl"), "--k", str(CLI_K),
             "--out", w("metrics.csv")],
            ["qc", "--stats", w("stats.csv"), "--out", w("qc.csv")],
            ["verify-queue", *events, "--out", w("queue.csv")],
            ["plan", "--budget-minutes", str(BUDGET_MINUTES), "--out", w("plan.json")],
        ]
        self.outputs = [self.workdir / c[-1] for c in self.commands]

    def release(self) -> None:
        for path in self.outputs:
            path.unlink(missing_ok=True)

    def run_pass(self):
        for argv in self.commands:
            code = self.cli.main(argv)
            if code != 0:
                raise RuntimeError(f"annocamp {argv[0]} exited with {code}")
        return self.workdir

    def check(self, out) -> tuple[list, dict]:
        problems, rows = checks.check_cli(out, self.questions, self.truth, CLI_K,
                                          CLI_ITERATIONS, CLI_SPAMMERS)
        return problems, {"events": rows, "csv_rows": rows}

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {"sim-k1": SimK1, "sim-k52x5": SimK52x5, "cli-k5": CliK5}


def gc_collections() -> int:
    return sum(gen["collections"] for gen in gc.get_stats())


def run(args) -> dict:
    program = import_program()
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    workload = WORKLOADS[args.workload](args.workload, args.seed, program)
    start_inputs = time.monotonic()
    workload.make_inputs()
    inputs_s = time.monotonic() - start_inputs
    set_up_mark = tracer.mark() if tracer else 0
    workload.setup()
    setup_s = time.monotonic() - args.t0 - inputs_s
    if args.setup_only:
        workload.close()
        return {"setup_s": setup_s}
    setup_spans = tracer.spans[set_up_mark:] if tracer else []
    setup_items = tracer.take_items() if tracer else {}
    timer = reference.Timer()
    try:
        result = timed_passes(args, workload, tracer, timer)
    finally:
        timer.close()
        workload.close()
    result["setup_s"] = setup_s
    per_pass = result.pop("per_pass")
    if tracer:
        result["layers"], result["per_layer"], result["absent"] = tracing.per_layer_metrics(
            tracer, setup_spans, setup_items, per_pass, result
        )
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"trace-{args.workload}.json", {
            "workload": args.workload, "seed": args.seed, "layers": result["layers"],
            "per_layer": result["per_layer"], "absent_layers": result["absent"],
            "traced_passes": len(per_pass),
        })
    return result


def timed_passes(args, workload, tracer, timer) -> dict:
    """A warm-up pass, then passes until args.seconds have gone by; the
    reference loop is timed in the Timer's process before every timed pass."""
    attempted = failed = 0
    wrong = False
    times = {False: [], True: []}  # traced? -> pass seconds
    gcs, per_pass = [], []
    references = []
    out = None
    deadline = None
    while deadline is None or time.monotonic() < deadline:
        warm_up = deadline is None
        traced = bool(tracer) and not warm_up and attempted % 2 == 0
        out = None
        workload.release()
        gc.collect()
        if not warm_up:
            references.append(timer.time())
        if tracer:
            tracer.uninstall()
            if traced:
                tracer.install()
            mark = tracer.mark()
        gc_before = gc_collections()
        start = time.perf_counter()
        try:
            out = workload.run_pass()
            error = None
        except Exception as exc:  # a failed pass is counted, and the run goes on
            error = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        gc_count = gc_collections() - gc_before
        if tracer:
            tracer.uninstall()
        attempted += 1
        work = {}
        if error is None:
            try:
                problems, work = workload.check(out)
            except Exception as exc:
                problems = [f"checker raised {type(exc).__name__}: {exc}"]
            if problems:
                wrong = True
        else:
            problems = [error]
        if problems:
            failed += 1
            print(f"bench: {args.workload} pass {attempted} failed: {problems[:5]}",
                  file=sys.stderr)
        if warm_up:
            deadline = time.monotonic() + args.seconds
            continue
        times[traced].append(elapsed)
        if not traced:
            gcs.append(gc_count)
        if traced:
            items = tracer.take_items()
            per_pass.append((tracer.spans[mark:], items, work, tracer.take_rss_growth(),
                             elapsed))
    out = None

    pass_wall_s = statistics.median(times[False] or times[True])
    reference_s = statistics.median(references)
    return {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "pass_s": pass_wall_s * reference.REFERENCE_S / reference_s,
        "pass_wall_s": pass_wall_s,
        "reference_s": reference_s,
        "passes": times[False],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "gc_collections": statistics.median(gcs) if gcs else 0,
        "per_pass": per_pass,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() when the parent started this process")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
