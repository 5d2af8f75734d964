"""Spans recorded from outside the program.

The tracer replaces functions in the program's modules with wrappers that
record one span (name, start, end, parent span) per call, under the name
the calling module uses. Spans stay in memory and are written out when the
run ends. A wrapped name the program no longer has is reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import time

# (module, attribute, layer). Each attribute is looked up by the module that
# calls it, so it is wrapped there.
WRAPS = (
    ("annocamp.taxonomy", "substream", "seeding.substream"),
    ("annocamp.workersim", "substream", "seeding.substream"),
    ("annocamp.campaign", "substream", "seeding.substream"),
    ("annocamp.workersim", "unit_fraction", "seeding.unit_fraction"),
    ("annocamp.taxonomy", "load_taxonomy", "taxonomy.load_taxonomy"),
    ("annocamp.campaign", "partition_questions", "taxonomy.partition_questions"),
    ("annocamp.taxonomy", "partition_questions", "taxonomy.partition_questions"),
    ("annocamp.campaign", "simulate_task", "workersim.simulate_task"),
    ("annocamp.workersim", "fit_hard_mixture", "workersim.fit_hard_mixture"),
    ("annocamp.workersim", "load_truths", "workersim.load_truths"),
    ("annocamp.campaign", "pack_hits", "campaign.pack_hits"),
    ("annocamp.campaign", "simulate_campaign", "campaign.simulate"),
    ("annocamp.campaign", "assign_workers", "campaign.assign_workers"),
    ("annocamp.campaign", "write_events_csv", "campaign.write_events_csv"),
    ("annocamp.campaign", "ingest", "campaign.ingest"),
    ("annocamp.campaign", "worker_stats_from_events", "campaign.worker_stats_from_events"),
    ("annocamp.campaign", "qc_flag", "campaign.qc_flag"),
    ("annocamp.campaign", "build_verification_queue", "campaign.build_verification_queue"),
    ("annocamp.evaluate", "aggregate", "evaluate.aggregate"),
    ("annocamp.campaign", "aggregate", "evaluate.aggregate"),
    ("annocamp.evaluate", "truth_matrix", "evaluate.truth_matrix"),
    ("annocamp.evaluate", "metrics", "evaluate.metrics"),
    ("annocamp.campaign", "metrics", "evaluate.metrics"),
    ("annocamp.evaluate", "event_stats", "evaluate.event_stats"),
    ("annocamp.planner", "optimize", "planner.optimize"),
    ("annocamp.planner", "enumerate_plans", "planner.enumerate_plans"),
    ("annocamp.cli", "cmd_simulate", "cli.simulate"),
    ("annocamp.cli", "cmd_ingest", "cli.ingest"),
    ("annocamp.cli", "cmd_aggregate", "cli.aggregate"),
    ("annocamp.cli", "cmd_metrics", "cli.metrics"),
    ("annocamp.cli", "cmd_qc", "cli.qc"),
    ("annocamp.cli", "cmd_verify_queue", "cli.verify-queue"),
    ("annocamp.cli", "cmd_plan", "cli.plan"),
)

# Items counted at a boundary, with len() only: events handed to aggregate
# and to the CSV writer, event batches yielded, HITs packed, plans listed.
ITEMS = {
    "evaluate.aggregate": lambda args, result: len(args[0]),
    "campaign.write_events_csv": lambda args, result: len(args[0]),
    "campaign.pack_hits": lambda args, result: len(result),
    "planner.enumerate_plans": lambda args, result: len(result),
}
GENERATORS = {"campaign.simulate"}  # spans cover each next(), not the caller's work

_PAGE = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 4096


def resident_bytes() -> int:
    """Current resident set size of this process, 0 where unavailable."""
    try:
        with open("/proc/self/statm", "rb") as fh:
            return int(fh.read().split()[1]) * _PAGE
    except (OSError, ValueError, IndexError):
        return 0


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, layer, start_ns, end_ns, parent id)
        self.items: dict[str, int] = {}
        self.rss_growth: list[int] = []  # bytes, one per generator step
        self._stack: list[int] = []
        self._next = 0
        self._saved: list[tuple] = []
        self.absent: list[str] = []
        self.layers: list[str] = []
        for module_name, attr, layer in WRAPS:
            module = importlib.import_module(module_name)
            if layer not in self.layers:
                self.layers.append(layer)
            if not callable(getattr(module, attr, None)):
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, getattr(module, attr), layer))

    def present(self, layer: str) -> bool:
        return any(saved[3] == layer for saved in self._saved)

    def install(self) -> None:
        for module, attr, fn, layer in self._saved:
            wrap = self._wrap_generator if layer in GENERATORS else self._wrap_call
            setattr(module, attr, wrap(fn, layer))

    def uninstall(self) -> None:
        for module, attr, fn, _ in self._saved:
            setattr(module, attr, fn)

    def mark(self) -> int:
        return len(self.spans)

    def _open(self) -> tuple[int, int]:
        span_id = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(span_id)
        return span_id, parent

    def _close(self, span_id, parent, layer, start) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        self.spans.append((span_id, layer, start, end, parent))

    def _wrap_call(self, fn, layer):
        count = ITEMS.get(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id, parent = self._open()
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span_id, parent, layer, start)
            if count is not None:
                self.items[layer] = self.items.get(layer, 0) + count(args, result)
            return result

        return traced

    def _wrap_generator(self, fn, layer):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                before = resident_bytes()
                span_id, parent = self._open()
                start = time.perf_counter_ns()
                try:
                    batch = next(inner)
                except StopIteration:
                    return
                finally:
                    self._close(span_id, parent, layer, start)
                self.rss_growth.append(resident_bytes() - before)
                self.items[layer] = self.items.get(layer, 0) + len(batch)
                yield batch

        return traced

    def take_items(self) -> dict:
        items, self.items = self.items, {}
        return items

    def take_rss_growth(self) -> list:
        growth, self.rss_growth = self.rss_growth, []
        return growth

    def write(self, path, extra: dict) -> None:
        """Write every span, with the run's summary, as one JSON document."""
        doc = dict(extra)
        doc["absent"] = self.absent
        doc["spans_fields"] = ["id", "layer", "start_ns", "end_ns", "parent"]
        doc["spans"] = self.spans
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def layer_table(spans) -> dict:
    """{layer: {"calls", "total_s", "self_s"}} over the given spans.

    Self time is a span's duration minus the duration of its child spans;
    in one thread, children never overlap.
    """
    child_ns: dict[int, int] = {}
    for _, _, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] = child_ns.get(parent, 0) + (end - start)
    table: dict[str, dict] = {}
    for span_id, layer, start, end, _ in spans:
        row = table.setdefault(layer, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += (end - start) / 1e9
        row["self_s"] += (end - start - child_ns.get(span_id, 0)) / 1e9
    return table


def median_table(tables) -> dict:
    """Per-layer median over several per-pass tables (absent counts as 0)."""
    layers = {layer for table in tables for layer in table}
    out = {}
    for layer in layers:
        out[layer] = {
            key: statistics.median(t.get(layer, {}).get(key, 0) for t in tables)
            for key in ("calls", "total_s", "self_s")
        }
    return out


def _merge(a: dict, b: dict) -> dict:
    out = {layer: dict(row) for layer, row in a.items()}
    for layer, row in b.items():
        acc = out.setdefault(layer, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for key, value in row.items():
            acc[key] += value
    return out


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def _pass_metrics(table: dict, items: dict, work: dict, rss_growth: list) -> dict:
    """Per-layer metrics of one traced pass (set-up spans already merged in).

    `.s` is self time, except for the three layers that drive others
    (campaign.simulate, planner.optimize and the cli commands), whose `.s`
    is the whole call. Rates use the whole call.
    """
    def get(layer, key):
        return table.get(layer, {}).get(key, 0)

    events = items.get("campaign.simulate", work.get("events", 0))
    m = {
        "seeding.substream.calls": get("seeding.substream", "calls"),
        "seeding.substream.s": get("seeding.substream", "self_s"),
        "seeding.substream.per_event": _rate(get("seeding.substream", "calls"), events),
        "seeding.unit_fraction.calls": get("seeding.unit_fraction", "calls"),
        "seeding.unit_fraction.s": get("seeding.unit_fraction", "self_s"),
        "taxonomy.load_taxonomy.s": get("taxonomy.load_taxonomy", "self_s"),
        "taxonomy.partition_questions.s": get("taxonomy.partition_questions", "self_s"),
        "workersim.simulate_task.calls": get("workersim.simulate_task", "calls"),
        "workersim.simulate_task.s": get("workersim.simulate_task", "self_s"),
        "workersim.simulate_task.events_per_s": _rate(
            events, get("workersim.simulate_task", "total_s")),
        "workersim.fit_hard_mixture.s": get("workersim.fit_hard_mixture", "self_s"),
        "workersim.load_truths.s": get("workersim.load_truths", "self_s"),
        "campaign.pack_hits.s": get("campaign.pack_hits", "self_s"),
        "campaign.pack_hits.hits": items.get("campaign.pack_hits", 0),
        "campaign.simulate.s": get("campaign.simulate", "total_s"),
        "campaign.simulate.events_per_s": _rate(
            items.get("campaign.simulate", 0), get("campaign.simulate", "total_s")),
        "campaign.simulate.rss_growth_mb": max(rss_growth, default=0) / 2**20,
        "campaign.assign_workers.s": get("campaign.assign_workers", "self_s"),
        "campaign.write_events_csv.s": get("campaign.write_events_csv", "self_s"),
        "campaign.write_events_csv.rows_per_s": _rate(
            items.get("campaign.write_events_csv", 0),
            get("campaign.write_events_csv", "total_s")),
        "campaign.ingest.calls": get("campaign.ingest", "calls"),
        "campaign.ingest.s": get("campaign.ingest", "self_s"),
        "campaign.ingest.rows_per_s": _rate(
            get("campaign.ingest", "calls") * work.get("csv_rows", 0),
            get("campaign.ingest", "total_s")),
        "campaign.worker_stats_from_events.s": get("campaign.worker_stats_from_events",
                                                   "self_s"),
        "campaign.qc_flag.s": get("campaign.qc_flag", "self_s"),
        "campaign.build_verification_queue.s": get("campaign.build_verification_queue",
                                                   "self_s"),
        "evaluate.aggregate.calls": get("evaluate.aggregate", "calls"),
        "evaluate.aggregate.s": get("evaluate.aggregate", "self_s"),
        "evaluate.aggregate.events_per_s": _rate(
            items.get("evaluate.aggregate", 0), get("evaluate.aggregate", "total_s")),
        "evaluate.truth_matrix.s": get("evaluate.truth_matrix", "self_s"),
        "evaluate.metrics.s": get("evaluate.metrics", "self_s"),
        "evaluate.event_stats.s": get("evaluate.event_stats", "self_s"),
        "planner.optimize.s": get("planner.optimize", "total_s"),
        "planner.enumerate_plans.plans": items.get("planner.enumerate_plans", 0),
    }
    for command in ("simulate", "ingest", "aggregate", "metrics", "qc", "verify-queue",
                    "plan"):
        m[f"cli.{command}.s"] = get(f"cli.{command}", "total_s")
    return m


def per_layer_metrics(tracer, setup_spans, setup_items, per_pass, run) -> tuple:
    """(layer table, per-layer metrics) of a traced run.

    Each figure covers the set-up once plus one traced pass, as the median
    over the traced passes. `run` supplies the untraced passes of the same
    run, for the tracing overhead and the collector count.
    """
    setup_table = layer_table(setup_spans)
    tables, metrics, traced_s = [], [], []
    for spans, items, work, rss_growth, elapsed in per_pass:
        table = _merge(setup_table, layer_table(spans))
        merged_items = dict(setup_items)
        for key, value in items.items():
            merged_items[key] = merged_items.get(key, 0) + value
        tables.append(table)
        metrics.append(_pass_metrics(table, merged_items, work, rss_growth))
        traced_s.append(elapsed)
    if not metrics:
        raise RuntimeError("the traced run finished no traced pass")
    out = {name: statistics.median(m[name] for m in metrics) for name in metrics[0]}
    out["python.gc_collections"] = run["gc_collections"]
    traced = statistics.median(traced_s)
    untraced = run["pass_wall_s"]
    out["trace.overhead_s"] = traced - untraced
    out["trace.overhead_pct"] = 100.0 * (traced - untraced) / untraced
    layers = median_table(tables)
    for row in layers.values():
        row["share"] = row["self_s"] / traced
    layers = dict(sorted(layers.items(), key=lambda kv: -kv[1]["self_s"]))
    absent = [layer for layer in tracer.layers if not tracer.present(layer)]
    return layers, out, absent
