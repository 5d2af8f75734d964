"""Micro-benchmarks of the event table's layers: CSV writing, ingest (a CSV
parse, and a read of the table sidecar `write_events_csv` leaves beside the
CSV), the row checks and aggregate, on the events of a k=5, two-pass
campaign over 150 videos of the bundled taxonomy (about 22k rows); the
sidecar ingest and the row checks again at 208k rows, a k=5, two-pass
campaign over 2000 videos and 50 workers; and aggregate on one k=52 pass
over 1000 videos of the 52-question singleton taxonomy (52k rows). Each
reports its rows per second. The input loaders, `load_taxonomy` on the
bundled taxonomy and `load_truths` on the campaign's 150 videos, are timed
as a first parse (their memo cleared before each call) and as a repeat.

Not collected by a plain `pytest` run (the file name does not start with
`test_`); run them explicitly:

    python -m pytest tests/bench_events.py --benchmark-only

With `--benchmark-disable` each benchmarked call runs once, untimed, and
the file is a quick correctness pass.
"""

import json

import pytest

from annocamp import events as eventfile, taxonomy, workersim
from annocamp.campaign import run_campaign
from annocamp.cli import sample_taxonomy_path
from annocamp.evaluate import aggregate
from annocamp.events import ingest, sidecar_path, write_events_csv
from annocamp.taxonomy import load_taxonomy, singleton_taxonomy
from annocamp.workersim import (
    ModifierSet,
    default_behavior,
    fit_hard_mixture,
    load_truths,
    make_random_truth,
    sample_worker_pool,
)

SEED = 1


@pytest.fixture(scope="module")
def tax():
    return load_taxonomy(sample_taxonomy_path())


@pytest.fixture(scope="module")
def truths(tax):
    return make_random_truth(150, tax.label_count, 3.7, SEED, min_labels=1)


@pytest.fixture(scope="module")
def events(tax, truths):
    behavior = fit_hard_mixture(default_behavior())
    pool = sample_worker_pool(50, behavior, 0.1, SEED)
    return run_campaign(tax, truths, 5, 2, behavior, SEED, pool=pool,
                        modifiers=ModifierSet(positive_bias=True, grouping=True))


@pytest.fixture(scope="module")
def events_csv(tax, events, tmp_path_factory):
    path = tmp_path_factory.mktemp("events") / "events.csv"
    write_events_csv(events, tax, path)
    return path


@pytest.fixture(scope="module")
def large_events_csv(tax, tmp_path_factory):
    """The CSV, with its sidecar, of the 208k-row campaign."""
    behavior = fit_hard_mixture(default_behavior())
    truths = make_random_truth(2000, tax.label_count, 3.7, SEED, min_labels=1)
    pool = sample_worker_pool(50, behavior, 0.0, SEED)
    path = tmp_path_factory.mktemp("large") / "events.csv"
    write_events_csv(run_campaign(tax, truths, 5, 2, behavior, SEED, pool=pool), tax, path)
    return path


def report_rows(benchmark, rows):
    benchmark.extra_info["rows"] = rows
    # Under --benchmark-disable nothing is timed, so there is no rate.
    if benchmark.stats is not None:
        benchmark.extra_info["rows_per_s"] = rows / benchmark.stats.stats.median


def test_write_events_csv(benchmark, tax, events, tmp_path):
    benchmark(write_events_csv, events, tax, tmp_path / "events.csv")
    report_rows(benchmark, len(events))


def test_ingest(benchmark, tax, events, events_csv):
    # Each call parses: the sidecar is deleted before it.
    drop_sidecar = lambda: sidecar_path(events_csv).unlink(missing_ok=True)  # noqa: E731
    table = benchmark.pedantic(ingest, (events_csv, tax), setup=drop_sidecar, rounds=20)
    assert len(table) == len(events)
    report_rows(benchmark, len(events))


def test_ingest_stale_sidecar(benchmark, tax, events, events_csv):
    # Each call finds a sidecar under another key: the CSV is hashed as a
    # stream, then read, hashed and parsed.
    stale = lambda: eventfile._save_sidecar(events_csv, bytes(64), events)  # noqa: E731
    table = benchmark.pedantic(ingest, (events_csv, tax), setup=stale, rounds=20)
    assert len(table) == len(events)
    report_rows(benchmark, len(events))


def test_ingest_sidecar(benchmark, tax, events, events_csv):
    write_events_csv(events, tax, events_csv)
    table = benchmark(ingest, events_csv, tax)
    assert len(table) == len(events)
    report_rows(benchmark, len(events))


def test_aggregate(benchmark, tax, events):
    matrix = benchmark(aggregate, events, tax)
    assert matrix.iterations == 2
    report_rows(benchmark, len(events))


def test_row_checks(benchmark, tax, events):
    # The checks every ingest runs, the sidecar's included.
    problems = benchmark(eventfile._row_problems, events, range(len(events)), tax)
    assert problems == []  # the simulator repeats no answer
    report_rows(benchmark, len(events))


def test_ingest_sidecar_208k(benchmark, tax, large_events_csv):
    table = benchmark(ingest, large_events_csv, tax)
    assert len(table) == 208_000
    report_rows(benchmark, len(table))


def test_row_checks_208k(benchmark, tax, large_events_csv):
    table = ingest(large_events_csv, tax)
    assert benchmark(eventfile._row_problems, table, range(len(table)), tax) == []
    report_rows(benchmark, len(table))


def test_aggregate_k52_pass(benchmark):
    tax = singleton_taxonomy(52)
    behavior = fit_hard_mixture(default_behavior())
    truths = make_random_truth(1000, tax.label_count, 3.7, SEED)
    pool = sample_worker_pool(50, behavior, 0.0, SEED)
    events = run_campaign(tax, truths, 52, 1, behavior, SEED, pool=pool)
    matrix = benchmark(aggregate, events, tax)
    assert matrix.iterations == 1
    report_rows(benchmark, len(events))


@pytest.fixture(scope="module")
def truths_jsonl(truths, tmp_path_factory):
    path = tmp_path_factory.mktemp("truths") / "truth.jsonl"
    path.write_text("".join(json.dumps({"video": t.video_id, "duration": t.duration_seconds,
                                        "labels": sorted(t.labels)}) + "\n" for t in truths))
    return path


def test_load_taxonomy_first(benchmark, tax):
    loaded = benchmark.pedantic(load_taxonomy, (sample_taxonomy_path(),),
                                setup=taxonomy._parse_taxonomy.cache_clear, rounds=50)
    assert loaded == tax
    report_rows(benchmark, tax.label_count)


def test_load_taxonomy_repeat(benchmark, tax):
    assert benchmark(load_taxonomy, sample_taxonomy_path()) == tax
    report_rows(benchmark, tax.label_count)


def test_load_truths_first(benchmark, truths, truths_jsonl):
    loaded = benchmark.pedantic(load_truths, (truths_jsonl,),
                                setup=workersim._parse_truths.cache_clear, rounds=50)
    assert loaded == truths
    report_rows(benchmark, len(truths))


def test_load_truths_repeat(benchmark, truths, truths_jsonl):
    assert benchmark(load_truths, truths_jsonl) == truths
    report_rows(benchmark, len(truths))
