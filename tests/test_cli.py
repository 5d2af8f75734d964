import csv
import json
from pathlib import Path

import pytest

from annocamp import campaign, cli, planner
from annocamp.cli import main, sample_taxonomy_path


def run(argv):
    assert main(argv) == 0


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture(scope="module")
def sample_videos():
    return str(sample_taxonomy_path().parent / "sample_videos.jsonl")


@pytest.fixture(scope="module")
def sample_timings():
    return str(sample_taxonomy_path().parent / "sample_timings.csv")


def test_fit_time(tmp_path, sample_timings):
    out = tmp_path / "model.json"
    run(["fit-time", "--timings", sample_timings, "--out", str(out)])
    doc = json.loads(out.read_text())
    assert abs(doc["a"] - 14.1) / 14.1 < 0.10
    assert abs(doc["b"] - 1.15) / 1.15 < 0.10


def test_fit_time_bad_row_names_its_physical_line(tmp_path):
    timings = tmp_path / "timings.csv"
    timings.write_text("questions,seconds\n1,15\n\n\n52,abc\n")
    with pytest.raises(SystemExit, match=r"annocamp fit-time: .*timings.csv: line 5: could not convert"):
        main(["fit-time", "--timings", str(timings)])


def test_fit_time_missing_column_is_named(tmp_path):
    timings = tmp_path / "timings.csv"
    timings.write_text("questions,video_seconds\n1,30.1\n52,30.1\n")
    with pytest.raises(SystemExit, match=r"annocamp fit-time: .*timings.csv: missing columns \['seconds'\]"):
        main(["fit-time", "--timings", str(timings)])


def test_calibrate_fits_mixture(tmp_path):
    out = tmp_path / "behavior.json"
    run(["calibrate", "--out", str(out)])
    doc = json.loads(out.read_text())
    assert doc["hard_fraction"] > 0
    run(["calibrate", "--independence", "--out", str(out)])
    doc = json.loads(out.read_text())
    assert doc["hard_fraction"] == 0


def test_pack_hits(tmp_path, sample_videos):
    out = tmp_path / "hits.json"
    run(["pack-hits", "--videos", sample_videos, "--k", "52", "--seed", "3",
         "--positive-bias", "--out", str(out)])
    hits = json.loads(out.read_text())
    assert hits
    assert all(len(h["videos"]) <= 2 for h in hits)
    assert any(s["gold"] for h in hits for per_video in h["slots"] for s in per_video)


def test_pack_hits_sizes_gold_with_configured_prevalence(tmp_path, sample_videos):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"prevalence": 10.0}))

    def gold_slots(*extra):
        out = tmp_path / "hits.json"
        run(["pack-hits", "--videos", sample_videos, "--k", "5", "--seed", "3",
             "--positive-bias", "--out", str(out), *extra])
        hits = json.loads(out.read_text())
        return sum(s["gold"] for h in hits for per_video in h["slots"] for s in per_video)

    # More expected positives leave fewer duplicates to reach one third.
    assert 0 < gold_slots("--config", str(config)) < gold_slots()


def test_simulate_ingest_aggregate_metrics_chain(tmp_path, sample_videos):
    events = tmp_path / "events.csv"
    run(["simulate", "--videos", sample_videos, "--k", "52", "--iterations", "2",
         "--seed", "5", "--out", str(events)])
    assert events.exists()

    stats = tmp_path / "stats.csv"
    run(["ingest", "--events", str(events), "--out", str(stats)])
    rows = read_csv(stats)
    assert rows and {"worker", "tasks", "median_seconds"} <= set(rows[0])

    labels = tmp_path / "labels.csv"
    run(["aggregate", "--events", str(events), "--out", str(labels)])
    label_rows = read_csv(labels)
    assert label_rows and {"video", "label", "votes", "positive"} == set(label_rows[0])

    scores = tmp_path / "metrics.csv"
    run(["metrics", "--events", str(events), "--videos", sample_videos,
         "--experiment", "demo", "--k", "52", "--out", str(scores)])
    (row,) = read_csv(scores)
    assert row["experiment"] == "demo"
    assert row["iterations"] == "2"
    assert 0.0 <= float(row["recall"]) <= 1.0


def test_simulate_deterministic_output(tmp_path, sample_videos):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for out in (a, b):
        run(["simulate", "--videos", sample_videos, "--k", "26", "--seed", "9",
             "--workers", "4", "--out", str(out)])
    assert a.read_bytes() == b.read_bytes()


def test_plan_cli(tmp_path):
    out = tmp_path / "plan.json"
    run(["plan", "--budget-minutes", "7.1", "--out", str(out)])
    doc = json.loads(out.read_text())
    assert doc["k"] == 52
    assert doc["iterations"] == 6
    assert doc["source"] == "mixture"
    assert doc["modifiers"] == "none"


def test_plan_enumerate_cli(tmp_path):
    out = tmp_path / "plans.csv"
    run(["plan", "--budget-minutes", "8.61", "--enumerate", "--out", str(out)])
    rows = read_csv(out)
    assert rows
    assert {"k", "n", "modifiers", "recall", "precision", "minutes"} == set(rows[0])
    assert any(r["k"] == "52" and r["n"] == "7" for r in rows)
    config = cli.load_config(None)
    plans = planner.enumerate_plans(cli._behavior(config), config["time_model"],
                                    planner.BudgetConstraint(8.61), [1, 52])
    assert len(rows) == len(plans)


@pytest.mark.parametrize(
    "argv",
    [
        ["plan", "--budget-minutes", "7.1", "--enumerate"],
        ["reproduce", "expected-recall-budget", "--seed", "1"],
    ],
    ids=["plan-enumerate", "reproduce"],
)
def test_csv_commands_print_their_file_without_out(tmp_path, capsys, argv):
    out = tmp_path / "out.csv"
    run(argv + ["--out", str(out)])
    capsys.readouterr()
    run(argv)
    assert capsys.readouterr().out.encode() == out.read_bytes()


def test_plan_enumerate_lists_the_optimum(tmp_path):
    # The optimum buys 18 passes; the listing is not capped below that.
    plan, plans = tmp_path / "plan.json", tmp_path / "plans.csv"
    run(["plan", "--budget-minutes", "20", "--out", str(plan)])
    best = json.loads(plan.read_text())
    assert (best["k"], best["iterations"], best["modifiers"]) == (52, 18, "none")
    run(["plan", "--budget-minutes", "20", "--enumerate", "--out", str(plans)])
    rows = read_csv(plans)
    assert any((r["k"], r["n"], r["modifiers"]) == ("52", "18", "none") for r in rows)


def test_qc_cli(tmp_path, sample_videos):
    events = tmp_path / "events.csv"
    run(["simulate", "--videos", sample_videos, "--k", "5", "--seed", "2",
         "--workers", "8", "--spammer-fraction", "0.2", "--positive-bias",
         "--out", str(events)])
    stats = tmp_path / "stats.csv"
    run(["ingest", "--events", str(events), "--out", str(stats)])
    flags = tmp_path / "flags.csv"
    run(["qc", "--stats", str(stats), "--out", str(flags)])
    rows = read_csv(flags)
    assert {"worker", "signal", "z"} == set(rows[0]) if rows else True


def test_verify_queue_cli(tmp_path, sample_videos):
    events = tmp_path / "events.csv"
    run(["simulate", "--videos", sample_videos, "--k", "52", "--seed", "4",
         "--out", str(events)])
    queue = tmp_path / "queue.csv"
    run(["verify-queue", "--events", str(events), "--out", str(queue)])
    rows = read_csv(queue)
    assert rows
    done = tmp_path / "done.csv"
    done.write_text(queue.read_text())
    queue2 = tmp_path / "queue2.csv"
    run(["verify-queue", "--events", str(events), "--done", str(done),
         "--out", str(queue2)])
    assert read_csv(queue2) == []


def test_main_calls_the_command_function_the_module_holds_now(tmp_path, monkeypatch):
    # The parser is built once per process; a command function replaced on
    # the module after that build is the one the next call runs.
    stats = tmp_path / "stats.csv"
    stats.write_text("worker,tasks,median_seconds,gold_recall,positive_rate\n"
                     + "".join(f"w{i},3,{40 + i},,0.1\n" for i in range(5)))
    run(["qc", "--stats", str(stats), "--out", str(tmp_path / "flags.csv")])
    calls = []
    monkeypatch.setattr(cli, "cmd_qc", lambda args, config: calls.append(args.stats) or 0)
    run(["qc", "--stats", str(stats)])
    assert calls == [str(stats)]
    assert cli.build_parser() is cli.build_parser()


def test_qc_stats_errors_name_column_or_line(tmp_path):
    stats = tmp_path / "stats.csv"
    stats.write_text("worker,tasks,median_seconds,positive_rate\nw0,3,40.0,0.1\n")
    with pytest.raises(SystemExit, match=r"qc: .*stats.csv: missing columns \['gold_recall'\]"):
        main(["qc", "--stats", str(stats)])
    stats.write_text("worker,tasks,median_seconds,gold_recall,positive_rate\n"
                     "w0,3,40.0,0.5,0.1\nw1,3,,0.5,0.1\n")
    with pytest.raises(SystemExit, match=r"annocamp qc: .*stats.csv: line 3: could not convert"):
        main(["qc", "--stats", str(stats)])


STATS_HEADER = "worker,tasks,median_seconds,gold_recall,positive_rate\n"


@pytest.mark.parametrize("row, reason", [
    ("w9,0,40.0,,0.1", "tasks must be at least 1, got 0"),
    ("w9,-4,inf,1.7,-0.5", "tasks must be at least 1, got -4"),
    ("w9,3,nan,,0.1", "median_seconds must be finite and at least 0, got nan"),
    ("w9,3,inf,,0.1", "median_seconds must be finite and at least 0, got inf"),
    ("w9,3,-1,,0.1", "median_seconds must be finite and at least 0, got -1.0"),
    ("w9,3,40.0,1.7,0.1", "gold_recall must be empty or in [0, 1], got 1.7"),
    ("w9,3,40.0,nan,0.1", "gold_recall must be empty or in [0, 1], got nan"),
    ("w9,3,40.0,-0.5,0.1", "gold_recall must be empty or in [0, 1], got -0.5"),
    ("w9,3,40.0,,-0.5", "positive_rate must be in [0, 1], got -0.5"),
    ("w9,3,40.0,,nan", "positive_rate must be in [0, 1], got nan"),
])
def test_qc_rejects_a_stat_outside_its_range_by_line(tmp_path, row, reason):
    # A nan median would poison the pool's median and flag honest workers.
    stats = tmp_path / "stats.csv"
    stats.write_text(STATS_HEADER + "".join(f"w{i},3,{40 + i},,0.1\n" for i in range(5))
                     + row + "\nw8,3,nan,,0.1\n")
    with pytest.raises(SystemExit) as exc:
        main(["qc", "--stats", str(stats)])
    assert str(exc.value) == f"annocamp qc: {stats}: line 7: {reason}"


def test_qc_accepts_stats_at_the_ends_of_their_ranges(tmp_path):
    stats = tmp_path / "stats.csv"
    stats.write_text(STATS_HEADER + "w0,1,0,0,0\nw1,3,40,1,1\nw2,2,41,,0.5\n")
    run(["qc", "--stats", str(stats), "--min-workers", "2", "--out", str(tmp_path / "flags.csv")])


def test_qc_reads_the_stats_of_a_median_that_rounds_to_zero(tmp_path):
    # ingest writes medians to six decimals, so a 0.1-us task reads 0.000000.
    events, stats = tmp_path / "events.csv", tmp_path / "stats.csv"
    events.write_text("worker,video,question,gate,members,elapsed,iteration\n"
                      + "".join(f"w{i},v0,0,0,,{1e-07 if i == 0 else 40 + i},0\n"
                                for i in range(6)))
    run(["ingest", "--events", str(events), "--out", str(stats)])
    assert read_csv(stats)[0] == {"worker": "w0", "tasks": "1", "median_seconds": "0.000000",
                                  "gold_recall": "", "positive_rate": "0.000000"}
    run(["qc", "--stats", str(stats), "--out", str(tmp_path / "flags.csv")])


def test_verify_queue_done_errors_name_column_or_line(tmp_path, sample_videos):
    events = tmp_path / "events.csv"
    run(["simulate", "--videos", sample_videos, "--k", "52", "--seed", "4",
         "--out", str(events)])
    done = tmp_path / "done.csv"
    done.write_text("video\nsample000\n")
    argv = ["verify-queue", "--events", str(events), "--done", str(done)]
    with pytest.raises(SystemExit, match=r"verify-queue: .*done.csv: missing columns \['label'\]"):
        main(argv)
    done.write_text("video,label\nsample000,3\nsample001,three\n")
    with pytest.raises(SystemExit, match=r"verify-queue: .*done.csv: line 3: invalid literal"):
        main(argv)


def test_reproduce_cli(tmp_path):
    out = tmp_path / "erb.csv"
    run(["reproduce", "expected-recall-budget", "--seed", "1", "--out", str(out)])
    rows = read_csv(out)
    assert rows[0]["k"] == "1"


def test_config_overrides(tmp_path, sample_videos):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "time_model": {"a": 20.0, "b": 2.0},
        "budget": {"target_seconds": 100.0, "pay_per_hit": 0.5},
    }))
    out = tmp_path / "hits.json"
    run(["pack-hits", "--videos", sample_videos, "--k", "1", "--config",
         str(config), "--out", str(out)])
    hits = json.loads(out.read_text())
    # task_time = 22 s at k=1, so 4 videos per HIT under the 100 s target.
    assert max(len(h["videos"]) for h in hits) == 4
    assert all(h["pay"] == 0.5 for h in hits)


def test_unknown_taxonomy_path_fails(tmp_path, sample_videos):
    with pytest.raises(SystemExit, match="annocamp pack-hits: .*No such file"):
        main(["pack-hits", "--videos", sample_videos, "--k", "1",
              "--taxonomy", str(tmp_path / "missing.json")])


@pytest.mark.parametrize(
    "argv",
    [
        ["pack-hits", "--k", "1", "--videos"],
        ["ingest", "--events"],
        ["calibrate", "--config"],
        ["simulate", "--k", "1", "--videos", "VIDEOS", "--taxonomy"],
        ["qc", "--stats"],
        ["fit-time", "--timings"],
    ],
    ids=["videos", "events", "config", "taxonomy", "stats", "timings"],
)
def test_missing_input_file_is_one_line(tmp_path, sample_videos, argv):
    missing = str(tmp_path / "missing")
    argv = [sample_videos if a == "VIDEOS" else a for a in argv] + [missing]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path / "out")])
    assert str(exc.value) == (
        f"annocamp {argv[0]}: [Errno 2] No such file or directory: {missing!r}"
    )


def test_simulate_on_truths_without_a_video_key_is_one_line(tmp_path):
    truths = tmp_path / "t.jsonl"
    truths.write_text('{"duration": 5}\n')
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--videos", str(truths), "--k", "5",
              "--out", str(tmp_path / "events.csv")])
    assert str(exc.value) == f"annocamp simulate: {truths}: line 1: missing key 'video'"


def test_metrics_on_video_without_truth_exits_with_message(tmp_path, sample_videos):
    events = tmp_path / "events.csv"
    run(["simulate", "--videos", sample_videos, "--k", "52", "--seed", "4",
         "--out", str(events)])
    lines = Path(sample_videos).read_text(encoding="utf-8").splitlines()
    missing = json.loads(lines[-1])["video"]
    short = tmp_path / "short.jsonl"
    short.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(SystemExit, match=f"annocamp metrics: video '{missing}' has no ground truth"):
        main(["metrics", "--events", str(events), "--videos", str(short)])


def test_simulate_checks_out_before_simulating(monkeypatch, sample_videos):
    def fail(*args, **kwargs):
        raise AssertionError("simulated before checking --out")

    monkeypatch.setattr(campaign, "run_campaign", fail)
    with pytest.raises(SystemExit, match="simulate requires --out"):
        main(["simulate", "--videos", sample_videos, "--k", "52"])


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"time_modle": {"a": 1.0, "b": 1.0}}, "unknown key 'time_modle'"),
        ({"modifiers": {"positive_bias": True}}, "unknown key 'modifiers'"),
        ({"budget": {"target_second": 30}}, "budget: unknown key 'target_second'"),
        ({"time_model": {"a": 1.0, "b": 1.0, "c": 1.0}}, "time_model: unknown key 'c'"),
        ({"anchors": [{"k": 1, "recall": 0.5, "precision": 0.8, "iteration_minutes": 8.0,
                       "minutes": 8.0}]}, "anchors: unknown key 'minutes'"),
    ],
    ids=["top-level", "modifiers", "budget", "time_model", "anchors"],
)
def test_config_rejects_unknown_keys(tmp_path, doc, message):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    with pytest.raises(SystemExit) as exc:
        main(["calibrate", "--config", str(config)])
    assert str(exc.value) == f"annocamp calibrate: config: {message}"


def calibrated(tmp_path, doc, *flags):
    config, out = tmp_path / "config.json", tmp_path / "behavior.json"
    config.write_text(json.dumps(doc))
    run(["calibrate", "--config", str(config), "--out", str(out), *flags])
    return json.loads(out.read_text())


def test_config_anchors_set_the_recall_points(tmp_path):
    anchors = [{"k": 1, "recall": 0.6, "precision": 0.8, "iteration_minutes": 8.0},
               {"k": 26, "recall": 0.5, "precision": 0.85, "iteration_minutes": 2.0}]
    assert calibrated(tmp_path, {})["recall_points"] == [[1, 0.563], [52, 0.45]]
    assert calibrated(tmp_path, {"anchors": anchors})["recall_points"] == [[1, 0.6], [26, 0.5]]


def test_config_correlation_targets_set_the_hard_fraction(tmp_path):
    # Less recall lost over three passes than the default .767 needs fewer hard pairs.
    default = calibrated(tmp_path, {})["hard_fraction"]
    fitted = calibrated(tmp_path, {"correlation_targets": [[3, 0.8]]})["hard_fraction"]
    assert 0 < fitted < default


@pytest.mark.parametrize(
    "targets, reason",
    [
        ([[3, float("nan")]], "recall nan at 3 passes is not inside (0, 1)"),
        ([[3, float("inf")]], "recall inf at 3 passes is not inside (0, 1)"),
        ([[-2, 1.7]], "pass count -2 is below 2"),
        ([[3, 1.0]], "recall 1.0 at 3 passes is not inside (0, 1)"),
        ([], "need at least one (passes, recall) pair"),
    ],
    ids=["nan", "inf", "passes", "one", "empty"],
)
def test_config_rejects_bad_correlation_targets(tmp_path, targets, reason):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"correlation_targets": targets}))
    with pytest.raises(SystemExit) as exc:
        main(["calibrate", "--config", str(config)])
    assert str(exc.value) == f"annocamp calibrate: config: correlation_targets: {reason}"


def test_unwritable_sidecar_fails_neither_simulate_nor_ingest(tmp_path, sample_videos):
    events = tmp_path / "events.csv"
    sidecar = campaign.sidecar_path(events)
    sidecar.mkdir()  # a directory where the sidecar goes
    run(["simulate", "--videos", sample_videos, "--k", "5", "--workers", "4", "--seed", "3",
         "--out", str(events)])
    run(["ingest", "--events", str(events), "--out", str(tmp_path / "stats.csv")])
    assert read_csv(tmp_path / "stats.csv")
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["events.csv", sidecar.name,
                                                                  "stats.csv"])
    assert sidecar.is_dir()


@pytest.mark.parametrize(
    "doc, section",
    [
        ({"time_model": {"b": 1}}, "time_model: missing key 'a'"),
        ({"anchors": [{"k": 1}]}, "anchors: missing key 'recall'"),
        ({"budget": 5}, "budget: "),
        ([], "must be a JSON object"),
        (None, "must be a JSON object"),
    ],
    ids=["time_model", "anchors", "budget", "list", "null"],
)
def test_config_malformed_section_is_one_line(tmp_path, sample_videos, doc, section):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", str(config), "--videos", sample_videos, "--k", "5",
              "--out", str(tmp_path / "events.csv")])
    message = str(exc.value)
    assert message.startswith(f"annocamp simulate: config: {section}")
    assert "\n" not in message
