"""Self-tests of the benchmark's checkers.

    python3 bench/selftest.py

Every workload first runs one pass on each of SEEDS, and its checks must pass:
the second seed shows the statistical tolerances are not fitted to one.
Then each checker is fed a corrupted copy of a real output and must report
a problem. Exits non-zero if any check fails on a clean output or passes on
a corrupted one.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workload as wl  # noqa: E402

SEEDS = (1, 104729)


def one_pass(name: str, seed: int, program):
    """Set up a workload in this process and run one checked pass."""
    work = wl.WORKLOADS[name](name, seed, program)
    work.make_inputs()
    work.setup()
    out = work.run_pass()
    problems, _ = work.check(out)
    return work, out, problems


def rewrite(path: Path, edit) -> None:
    """Apply `edit` to the lines of a text file (header kept at index 0)."""
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(edit(lines)), encoding="utf-8")


def first_plain_row(lines) -> int:
    """Index of the first events row that is not a gold duplicate."""
    return next(i for i, line in enumerate(lines[1:], start=1)
                if not line.rstrip("\n").endswith(",1"))


def drop_row(lines):
    i = first_plain_row(lines)
    return lines[:i] + lines[i + 1:]


def duplicate_row(lines):
    i = first_plain_row(lines)
    return lines[:i + 1] + lines[i:]


def bump_column(column: int, delta: int):
    def edit(lines):
        cells = lines[1].rstrip("\n").split(",")
        cells[column] = str(int(cells[column]) + delta)
        return [lines[0], ",".join(cells) + "\n", *lines[2:]]
    return edit


def unflag_spammer(lines):
    """Drop every qc.csv row of the first worker flagged for a high positive rate."""
    spammer = next(line.split(",")[0] for line in lines[1:]
                   if line.split(",")[1] == "positive_rate" and float(line.split(",")[2]) > 0)
    return [line for line in lines if line.split(",")[0] != spammer]


def flag_honest(workers, count: int):
    """Add qc.csv rows for `count` more of `workers` than are flagged now."""
    def edit(lines):
        flagged = {line.split(",")[0] for line in lines[1:]}
        extra = [w for w in workers if w not in flagged][:count]
        return lines + [f"{w},median_seconds,9.0\n" for w in extra]
    return edit


def sim_corruptions(k1, k1_out, k52, k52_out):
    """(what, problems) for each corrupted library output."""
    n_events, votes, recall, precision = k1_out
    flipped = votes.copy()
    flipped[0, 0] = 1 - flipped[0, 0]
    yield "sim-k1 flipped vote", checks.check_sim_k1(n_events, flipped, recall, precision,
                                                     k1.truth)
    yield "sim-k1 dropped event", checks.check_sim_k1(n_events - 1, votes, recall,
                                                      precision, k1.truth)
    # Recall outside tolerance, with recall and precision consistent with the
    # votes, so only the tolerance check can catch it: drop a third of the
    # true positives.
    found = np.argwhere((votes >= 1) & k1.truth)
    low = votes.copy()
    for row, col in found[: len(found) // 3]:
        low[row, col] = 0
    tp, fp, fn = checks.confusion(low >= 1, k1.truth)
    problems = checks.check_sim_k1(n_events, low, tp / (tp + fn), tp / (tp + fp), k1.truth)
    yield "sim-k1 recall outside tolerance", [p for p in problems if "k=1 recall" in p]

    sizes, k52_votes, scores = k52_out
    flipped = [v.copy() for v in k52_votes]
    flipped[2][0, 0] = 1 - flipped[2][0, 0]
    yield "sim-k52x5 flipped vote", checks.check_sim_k52x5(
        sizes, flipped, scores, k52.truth, k52_votes, k52.plan)
    yield "sim-k52x5 plan not k=52", checks.check_sim_k52x5(
        sizes, k52_votes, scores, k52.truth, k52_votes, (1,) + k52.plan[1:])


def cli_corruptions(cli, workdir: Path):
    """(what, problems) for each corrupted CLI output file."""
    copy_dir = workdir.parent / f"{workdir.name}-corrupt"
    workers = [row[0] for row in checks._read_rows(workdir / "stats.csv")[1:]]
    honest = len(workers) - wl.CLI_SPAMMERS
    cases = {
        "cli-k5 dropped events row": ("events.csv", drop_row),
        "cli-k5 duplicated events row": ("events.csv", duplicate_row),
        "cli-k5 flipped vote": ("labels.csv", bump_column(2, 1)),
        "cli-k5 stats row off by one task": ("stats.csv", bump_column(1, 1)),
        "cli-k5 missing queue pair": ("queue.csv", lambda lines: lines[:1] + lines[2:]),
        "cli-k5 qc misses a spammer": ("qc.csv", unflag_spammer),
        "cli-k5 qc flags too many honest": (
            "qc.csv", flag_honest(workers, checks.honest_flag_limit(honest) + 1)),
    }
    try:
        for what, (name, edit) in cases.items():
            shutil.rmtree(copy_dir, ignore_errors=True)
            shutil.copytree(workdir, copy_dir)
            rewrite(copy_dir / name, edit)
            problems, _ = checks.check_cli(copy_dir, cli.questions, cli.truth, wl.CLI_K,
                                           wl.CLI_ITERATIONS, wl.CLI_SPAMMERS)
            yield what, problems
    finally:
        shutil.rmtree(copy_dir, ignore_errors=True)


def main() -> int:
    program = wl.import_program()
    ok = True
    kept = {}
    for seed in SEEDS:
        for name in wl.WORKLOADS:
            work, out, problems = one_pass(name, seed, program)
            print(f"clean   {name:10s} seed {seed:<7d} "
                  f"{'ok' if not problems else 'FAILED: ' + '; '.join(problems)}")
            ok &= not problems
            if name in kept:
                work.close()
            else:
                kept[name] = (work, out)
    try:
        caught = list(sim_corruptions(*kept["sim-k1"], *kept["sim-k52x5"]))
        caught += list(cli_corruptions(kept["cli-k5"][0], kept["cli-k5"][1]))
    finally:
        kept["cli-k5"][0].close()
    for what, problems in caught:
        print(f"corrupt {what:36s} "
              f"{'caught: ' + problems[0] if problems else 'NOT CAUGHT'}")
        ok &= bool(problems)
    print("selftest passed" if ok else "selftest FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
