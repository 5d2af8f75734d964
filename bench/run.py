"""annocamp benchmark: run one workload, every workload, or the steadiness check.

    python3 bench/run.py --workload sim-k1 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all
    python3 bench/run.py --steadiness

Each workload runs in its own single-threaded process (workload.py). An
untraced run reports the end-to-end metrics of BENCHMARK.json; set-up time is
the median over several fresh processes. pass_s and setup_s are scaled to a
fixed machine speed by a reference loop timed in processes that never import
the program (reference.py). A traced run (--trace 1) reports the
per-layer metrics instead. The last line of standard output is one JSON
object; on any error the script exits non-zero without printing it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = ROOT / ".bench_out"

# Fresh set-up-only processes per untraced run, besides the measuring one.
# setup_s is the median over all of them of the set-up time, each scaled by
# the reference loop timed REFERENCE_LOOPS times in this process just before
# the child starts.
SETUP_PROCESSES = 10
REFERENCE_LOOPS = 3
STEADINESS_RUNS = 10
CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class BenchError(RuntimeError):
    pass


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def child(workload: str, seed: int, seconds: float, trace: int, setup_only=False) -> dict:
    """Run workload.py in a fresh process and return its JSON result."""
    cmd = [sys.executable, str(BENCH / "workload.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, **CHILD_ENV)
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            cmd + ["--t0", repr(t0)], cwd=ROOT, env=env, stdout=subprocess.PIPE,
            text=True, timeout=seconds + 120,
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise BenchError(f"{workload} did not finish within {exc.timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload} printed no result")
    return json.loads(lines[-1])


def run_workload(spec: dict, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run: the result object the benchmark prints."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    if trace:
        result = child(workload, seed, seconds, 1)
        values = result["per_layer"]
        print_layers(workload, result)
    else:
        setups, scaled = [], []
        for n in range(SETUP_PROCESSES + 1):
            reference_s = reference.median_loop(REFERENCE_LOOPS)
            result = child(workload, seed, seconds, 0, setup_only=n < SETUP_PROCESSES)
            setups.append(result["setup_s"])
            scaled.append(result["setup_s"] * reference.REFERENCE_S / reference_s)
        print(f"{workload:10s} unscaled medians: set-up {statistics.median(setups):.4f} s, "
              f"pass {result['pass_wall_s']:.4f} s; reference loop {result['reference_s']:.4f} s")
        values = {
            "setup_s": statistics.median(scaled),
            "pass_s": result["pass_s"],
            "peak_rss_mb": result["peak_rss_mb"],
        }
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"{workload}: no value for {missing}")
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }


def print_layers(workload: str, result: dict) -> None:
    print(f"{workload}: layer, calls, total s, self s, self share of a traced pass")
    for layer, row in result["layers"].items():
        print(f"  {layer:36s} {row['calls']:9.0f} {row['total_s']:9.4f} "
              f"{row['self_s']:9.4f} {100 * row['share']:6.1f}%")
    if result["absent"]:
        print(f"  absent layers (reported as 0): {', '.join(result['absent'])}")


def print_metrics(workload: str, out: dict) -> None:
    for name, metric in out["metrics"].items():
        print(f"{workload:10s} {name:40s} {metric['value']:14.6g} {metric['unit']}")
    print(f"{workload:10s} {'passes attempted / failed':40s} "
          f"{out['attempted']:>8d} / {out['failed']}")


def steadiness(spec: dict, workloads, first_seed: int, seconds: float) -> bool:
    """Run every workload STEADINESS_RUNS times on seeds first_seed.. and
    report, for each end-to-end metric, the median, quartiles and spread
    (q3 - q1) / median. Returns whether every spread is below a third of its
    bound, but setup_s's, which need only be below its whole bound: set-up
    is over in a fraction of a second and its spread is not gated within a
    set; its median is compared between sets."""
    runs = STEADINESS_RUNS
    values = {w: {m["name"]: [] for m in spec["end_to_end"]} for w in workloads}
    shares = {w: set() for w in workloads}
    for seed in range(first_seed, first_seed + runs):
        for workload in workloads:  # round robin, so slow spells hit every workload
            out = run_workload(spec, workload, seed, seconds, 0)
            shares[workload].add(f"{out['failed']}/{out['attempted']}" if out["failed"]
                                 else "0")
            for name, metric in out["metrics"].items():
                values[workload][name].append(metric["value"])
            print(f"  seed {seed} {workload}: " + ", ".join(
                f"{n}={m['value']:.4f}" for n, m in out["metrics"].items()), flush=True)
    steady = True
    print(f"\nsteadiness: {runs} runs per workload, seeds {first_seed}-"
          f"{first_seed + runs - 1}, {seconds:g} s each")
    print(f"{'workload':10s} {'metric':12s} {'median':>10s} {'q1':>10s} {'q3':>10s} "
          f"{'spread':>8s} {'bound':>6s}")
    summary = {}
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            q1, median, q3 = statistics.quantiles(values[workload][name], n=4)
            spread = (q3 - q1) / median
            if spread >= metric["bound"] / (1 if name == "setup_s" else 3):
                steady = False
            summary[f"{workload}.{name}"] = {"median": median, "q1": q1, "q3": q3,
                                             "spread": spread, "values": values[workload][name]}
            print(f"{workload:10s} {name:12s} {median:10.4f} {q1:10.4f} {q3:10.4f} "
                  f"{100 * spread:7.2f}% {100 * metric['bound']:5.0f}%")
        print(f"{workload:10s} failed share per run: {sorted(shares[workload])}")
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"steadiness-seed{first_seed}.json").write_text(json.dumps(summary, indent=1))
    print("every spread is below a third of its bound (setup_s: below its bound)"
          if steady else "some spread is at or above its limit")
    return steady


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", action="store_true",
                        help=f"run each workload {STEADINESS_RUNS} times on consecutive seeds")
    args = parser.parse_args(argv)
    workloads = names if args.workload == "all" else [args.workload]
    try:
        if args.steadiness:
            steadiness(spec, workloads, args.seed, args.seconds)
            return 0
        results = {}
        for workload in workloads:
            results[workload] = run_workload(spec, workload, args.seed, args.seconds,
                                             args.trace)
            print_metrics(workload, results[workload])
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    if len(workloads) == 1:
        print(json.dumps(results[workloads[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": m for w, r in results.items()
                        for name, m in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
