"""The event table and its files: the events CSV and the table sidecar.

`EventTable` holds a campaign's answers as columns, each column's dtype
declared once, on its field. The events CSV is the table's file of record:
`write_events_csv` writes it and `ingest` reads it back. Beside each CSV a
sidecar (`sidecar_path`) holds the table's columns as raw bytes, keyed by
the CSV's digest, so that a later `ingest` maps the table instead of
parsing the CSV. `_row_problems` is the one check that a table is one an
events CSV could give: the writer runs it before it opens a file, and
`ingest` on every table it returns, parsed or mapped.
"""

from __future__ import annotations

import csv
import hashlib
import io
import logging
import mmap
import os
from array import array
from dataclasses import dataclass, field, fields, replace
from itertools import accumulate, chain
from operator import itemgetter
from pathlib import Path

import numpy as np

from .evaluate import group_ids
from .output import atomic_open, csv_chunks, decoded
from .taxonomy import Taxonomy, dense_codes, expand_answer, mask_members, members_mask

logger = logging.getLogger(__name__)


def _column(dtype):
    return field(metadata={"dtype": dtype})


@dataclass(frozen=True, eq=False)
class EventTable:
    """Annotation events as columns: one numpy array per field, one row per answer.

    `worker` and `video` index the `worker_ids` and `video_ids` vocabularies
    and `question` the taxonomy's questions (by position, not id); `members`
    is the bitmask of the selected labels (`taxonomy.members_mask`); `gold`
    rows are positive-bias duplicates, which never vote. `gate`, no
    constructor argument, is `members != 0`, computed when the table is
    built. A simulated pass's columns may be read-only views (`simulate_block`).
    A worker or video code outside its vocabulary is a ValueError (rows from 0).
    """

    worker_ids: tuple[str, ...]
    video_ids: tuple[str, ...]
    worker: np.ndarray = _column(np.int64)
    video: np.ndarray = _column(np.int64)
    question: np.ndarray = _column(np.int64)
    members: np.ndarray = _column(np.uint64)
    elapsed: np.ndarray = _column(np.float64)
    iteration: np.ndarray = _column(np.int64)
    gold: np.ndarray = _column(bool)
    gate: np.ndarray = field(init=False)

    def __post_init__(self):
        for f in EVENT_FIELDS:
            column = np.asarray(getattr(self, f.name), f.metadata["dtype"])
            object.__setattr__(self, f.name, column)
        object.__setattr__(self, "gate", self.members != 0)
        if len({getattr(self, f.name).shape for f in EVENT_FIELDS}) > 1 or self.worker.ndim != 1:
            raise ValueError("event columns must be 1-D and of one length")
        for name, ids in (("worker", self.worker_ids), ("video", self.video_ids)):
            codes = getattr(self, name)
            if len(codes) and not 0 <= codes.min() <= codes.max() < len(ids):
                row = int(np.flatnonzero((codes < 0) | (codes >= len(ids)))[0])
                raise ValueError(f"row {row}: {name} code {codes[row]} is not among the "
                                 f"{len(ids)} {name} ids")

    def __len__(self) -> int:
        return len(self.worker)

    def __eq__(self, other) -> bool:
        if not isinstance(other, EventTable):
            return NotImplemented
        return (self.worker_ids, self.video_ids) == (other.worker_ids, other.video_ids) and all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in EVENT_FIELDS
        )

    @classmethod
    def concat(cls, tables) -> "EventTable":
        """The rows of tables that share their vocabularies, in order; a lone table itself."""
        first, *rest = tables
        if not rest:
            return first
        if any((t.worker_ids, t.video_ids) != (first.worker_ids, first.video_ids) for t in rest):
            raise ValueError("event tables with different vocabularies cannot be concatenated")
        columns = (np.concatenate([getattr(t, f.name) for t in (first, *rest)])
                   for f in EVENT_FIELDS)
        return cls(first.worker_ids, first.video_ids, *columns)


EVENT_FIELDS = tuple(f for f in fields(EventTable)[2:] if f.init)

# The events CSV columns; `gold` follows when a row is gold.
EVENT_COLUMNS = ("worker", "video", "question", "gate", "members", "elapsed", "iteration")
ROW_CHUNK = 1024  # rows the events CSV writer joins at a time; they bound its memory

# The first line of every sidecar; a file of another layout never reads.
SIDECAR_FORMAT = b"annocamp events table 5\n"
# Each EVENT_FIELDS column's dtype in the sidecar, in field order: the
# table's own, little-endian.
SIDECAR_DTYPES = {f.name: np.dtype(f.metadata["dtype"]).newbyteorder("<") for f in EVENT_FIELDS}
ROW_BYTES = sum(dtype.itemsize for dtype in SIDECAR_DTYPES.values())
# Bytes a read takes of a CSV hashed against its sidecar's key.
HASH_BLOCK = 1 << 16


def sidecar_path(events) -> Path:
    """The table sidecar of an events CSV: `<events>.table`, beside it, a flat
    file of the table's columns (`_save_sidecar` gives the layout)."""
    events = Path(events)
    return events.with_name(events.name + ".table")


def _sidecar_key(csv_digest: bytes, tax: Taxonomy) -> bytes:
    """The CSV's digest, then a digest of the question table ingest reads it by."""
    questions = repr([(q.id, q.members) for q in tax.questions]).encode()
    return csv_digest + hashlib.sha256(questions).digest()


def _columns_at(ids_end: int) -> int:
    """Where a sidecar's columns start: the first 8-byte boundary at or past
    the end of its ids."""
    return -(-ids_end // 8) * 8


def _save_sidecar(events, key: bytes, table: EventTable) -> None:
    """Save `table` under `key` as the CSV's sidecar; where no file can be
    written, there is no sidecar.

    The file is SIDECAR_FORMAT, the key, the row count and the two
    vocabulary sizes (`<i8`), each id's UTF-8 length (`<i8`, workers then
    videos), the ids' bytes, zeros up to an 8-byte boundary, then each
    column's raw bytes in its SIDECAR_DTYPES dtype, ROW_BYTES a row
    (`question` as positions). `gate` is not stored: the table derives it
    from `members`. The parts are written one by one, and the file replaces
    the old one whole (`atomic_open`), so a table mapped from it stays as
    it was read.
    """
    ids = [[i.encode() for i in vocabulary] for vocabulary in (table.worker_ids, table.video_ids)]
    counts = np.array([len(table), *map(len, ids)], "<i8")
    lengths = np.array([len(i) for i in chain(*ids)], "<i8")
    text = b"".join(chain(*ids))
    ids_end = len(SIDECAR_FORMAT) + len(key) + counts.nbytes + lengths.nbytes + len(text)
    try:
        with atomic_open(sidecar_path(events), binary=True) as fh:
            for part in (SIDECAR_FORMAT, key, counts, lengths, text,
                         bytes(_columns_at(ids_end) - ids_end)):
                fh.write(part)
            for name, dtype in SIDECAR_DTYPES.items():
                fh.write(np.ascontiguousarray(getattr(table, name), dtype))
    except OSError as exc:
        logger.debug("no table sidecar for %s: %s", events, exc)


def _load_sidecar(events, key: bytes, tax: Taxonomy) -> EventTable | None:
    """The table of the CSV's sidecar if it holds `key`; None if it is
    missing or stale, or, with a warning, if it is unreadable or damaged or
    holds a table no CSV gives.

    The file is mapped read-only, and on a key match each column is a
    read-only view of the mapping, neither copied nor widened. Its size
    must be exactly what its counts give and each gold byte 0 or 1; then
    the table must pass `EventTable`'s code checks and `_row_problems`.
    """
    path = sidecar_path(events)
    head = len(SIDECAR_FORMAT) + len(key) + 24
    try:
        with open(path, "rb") as fh:
            data = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        if data[: len(SIDECAR_FORMAT)] != SIDECAR_FORMAT:
            raise ValueError("not an events table sidecar")
        if len(data) < head:
            raise ValueError(f"{len(data)} bytes, too few for its header")
        if data[len(SIDECAR_FORMAT) : head - 24] != key:
            return None
        rows, *sizes = np.frombuffer(data, "<i8", 3, head - 24).tolist()
        if min(rows, *sizes) < 0 or head + 8 * sum(sizes) + rows * ROW_BYTES > len(data):
            raise ValueError("row or vocabulary counts outside the file")
        lengths = np.frombuffer(data, "<i8", sum(sizes), head).tolist()
        ends = list(accumulate(lengths, initial=head + 8 * len(lengths)))
        at = _columns_at(ends[-1])
        if min(lengths, default=0) < 0 or len(data) != at + rows * ROW_BYTES:
            raise ValueError(f"{len(data)} bytes where its counts give {at + rows * ROW_BYTES}")
        ids = [data[a:b].decode() for a, b in zip(ends, ends[1:])]
        columns = {}
        for name, dtype in SIDECAR_DTYPES.items():
            columns[name] = np.frombuffer(data, dtype, rows, at)
            at += rows * dtype.itemsize
        if rows and columns["gold"].view(np.uint8).max() > 1:
            raise ValueError("a gold flag is neither 0 nor 1")
        table = EventTable(tuple(ids[: sizes[0]]), tuple(ids[sizes[0] :]), **columns)
        problems = _row_problems(table, range(rows), tax)
        if problems:
            raise ValueError("row {}: {}".format(*min(problems)))
        return table
    except FileNotFoundError:
        return None
    except Exception as exc:  # whatever is wrong with the file, the CSV stands in
        logger.warning("ignoring table sidecar %s: %s", path, exc)
        return None


def _csv_fields(ids) -> list[str]:
    """Each id as csv.writer writes it inside a row. A ValueError names the
    first id that would not read back unchanged (csv.writer leaves a lone
    carriage return unquoted)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    fields = []
    for i in ids:
        buf.seek(0)
        buf.truncate()
        writer.writerow((i, ""))  # the empty second field keeps an empty id unquoted
        fields.append(buf.getvalue()[:-2])
        try:
            back = list(csv.reader([fields[-1] + ","]))
        except csv.Error:
            back = None
        if back != [[i, ""]]:
            raise ValueError(f"id {i!r} would not read back from an events CSV")
    return fields


def _first_seen(ids, codes: np.ndarray) -> tuple[tuple, np.ndarray]:
    """The ids that `codes` use, numbered by first use as `ingest` numbers
    them, and the codes on that vocabulary. Each id's first row is found by
    one `np.minimum.at` over the vocabulary."""
    rows = len(codes)
    first = np.full(len(ids), rows)
    np.minimum.at(first, codes, np.arange(rows))
    index: dict = {}
    renumber = np.zeros(len(ids), np.int64)
    for u in np.argsort(first)[: np.count_nonzero(first < rows)].tolist():
        renumber[u] = index.setdefault(ids[u], len(index))
    return tuple(index), renumber[codes]


def write_events_csv(table: EventTable, tax: Taxonomy, path) -> None:
    """Write an event table as CSV; the `gold` column appears iff a row is gold.

    The table names questions by position in tax.questions, the CSV by id.
    A table `ingest` would not read back is a ValueError before the file is
    opened: an id that would not read back unchanged, or the rows
    `_row_problems` names, by CSV line. The check runs on the columns; only
    when it fails are the CSV lines counted. Each column's distinct values
    (each answer's id and members, say) are formatted once, and each
    ROW_CHUNK of rows is joined at once (`csv_chunks`). The table as
    `ingest` returns it goes to the CSV's sidecar (`sidecar_path`), keyed
    by the SHA-256 digest of the bytes written.
    """
    workers, videos = _csv_fields(table.worker_ids), _csv_fields(table.video_ids)
    (worker_ids, worker), (video_ids, video) = (_first_seen(table.worker_ids, table.worker),
                                                _first_seen(table.video_ids, table.video))
    parsed = replace(table, worker_ids=worker_ids, video_ids=video_ids, worker=worker, video=video)
    if _row_problems(parsed, range(len(table)), tax):
        # ingest counts physical lines, and a quoted id may hold line breaks.
        breaks = [np.array([f.count("\n") + f.count("\r") - f.count("\r\n") for f in fs],
                           np.int64) for fs in (workers, videos)]
        lines = 1 + np.cumsum(1 + breaks[0][table.worker] + breaks[1][table.video])
        _raise_problems(path, _row_problems(parsed, lines, tax))
    answer, first = group_ids(table.question, table.members)
    texts = [f"{q.id},{int(mask != 0)},{';'.join(map(str, mask_members(q, mask)))}"
             for q, mask in zip(map(tax.questions.__getitem__, table.question[first].tolist()),
                                table.members[first].tolist())]
    seconds, elapsed = dense_codes(table.elapsed)
    iterations, iteration = dense_codes(table.iteration)
    columns = [
        (workers, table.worker),
        (videos, table.video),
        (texts, answer),
        (map(repr, seconds.tolist()), elapsed),
        (map(str, iterations.tolist()), iteration),
    ]
    gold = table.gold.any()
    if gold:
        columns.append((["0", "1"], table.gold.view(np.uint8)))
    header = ",".join(EVENT_COLUMNS + (("gold",) if gold else ())) + "\n"
    chunks = csv_chunks(columns, len(table), ROW_CHUNK)
    digest = hashlib.sha256()
    with atomic_open(path, binary=True) as fh:
        for text in chain([header], chunks):
            data = text.encode()
            digest.update(data)
            fh.write(data)
    _save_sidecar(path, _sidecar_key(digest.digest(), tax), parsed)


def _parse_bool(raw: str, column: str) -> bool:
    if raw in ("0", "1"):
        return raw == "1"
    if raw.lower() in ("true", "false"):
        return raw.lower() == "true"
    raise ValueError(f"{column} must be 0/1 or true/false, got {raw!r}")


def _answer_code(tax: Taxonomy, raw: tuple[str, str, str], answers: list):
    """Index in `answers` of a raw (question id, gate, members) answer, appended
    as (question position, members mask); or the reason it is invalid."""
    try:
        question_id, gate = int(raw[0]), _parse_bool(raw[1], "gate")
        labels = [int(m) for m in raw[2].split(";") if m.strip()]
        selected = expand_answer(tax, question_id, gate, labels)
    except ValueError as exc:
        return str(exc)
    position = tax.position(question_id)
    answers.append((position, members_mask(tax.questions[position], selected)))
    return len(answers) - 1


def _row_problems(table: EventTable, lines, tax: Taxonomy) -> list[tuple[int, str]]:
    """(line, reason) for each row that no events CSV read by `tax` could
    give, row r being on line lines[r]: a question position outside the
    taxonomy, members bits past the question's members, a non-positive or
    non-finite elapsed time, or a second non-gold answer to one (worker,
    video, question, iteration), named by the question's id. A row of an
    unknown question is left out of the members and repeat checks.

    A repeat is looked for by sorting the checked rows' mixed-radix key of
    (worker, video, iteration, question), the vocabulary codes as they are
    and the other two by `dense_codes`, and comparing neighbours; only when
    one repeats does `group_ids` name each repeat by the first line of its
    answer.
    """
    question, elapsed, count = table.question, table.elapsed, tax.question_count
    unknown = (question < 0) | (question >= count)
    problems = [(lines[r], f"unknown question position {question[r]} (the taxonomy has {count} "
                           "questions)") for r in np.flatnonzero(unknown)]
    # Each question's widest members mask; an unknown question's rows index
    # a last limit that no mask exceeds.
    limits = np.array([(1 << len(q.members)) - 1 for q in tax.questions] + [(1 << 64) - 1],
                      np.uint64)
    position = np.where(unknown, count, question) if unknown.any() else question
    stray = table.members > limits[position]
    problems += [(lines[r], f"question {tax.question_ids[question[r]]}: members bits past its "
                            "members") for r in np.flatnonzero(stray)]
    bad = ~((elapsed > 0) & (elapsed < np.inf))
    problems += [(lines[r], "elapsed must be " + ("finite" if elapsed[r] > 0 else "positive"))
                 for r in np.flatnonzero(bad)]
    checked = ~(unknown | bad | table.gold)
    key = table.worker * len(table.video_ids)
    key += table.video
    for column in (table.iteration, question):
        values, codes = dense_codes(column)
        key *= len(values)
        key += codes
    key = key[checked]
    key.sort()
    if not (key[1:] == key[:-1]).any():
        return problems
    kept = np.flatnonzero(checked)
    columns = (table.worker, table.video, table.iteration, question)
    task, first = group_ids(*(c[kept] for c in columns))
    original = kept[first[task]]
    for row, first_row in zip(kept[original != kept], original[original != kept]):
        problems.append((lines[row], f"duplicates line {lines[first_row]} (same worker, "
                         f"video, question {tax.question_ids[question[row]]} and iteration)"))
    return problems


def ingest(source, tax: Taxonomy) -> EventTable:
    """The event table of an event CSV, validated, with its gold column.

    The CSV names questions by id, the table by position in tax.questions.
    One ValueError names every bad row by line, the first 20 of them: a row
    with too few fields, a value that does not parse, an answer
    `expand_answer` rejects (an unknown question id, say), or a row
    `_row_problems` names. Bytes that are not UTF-8 are a ValueError naming
    their line.

    The table of a CSV that parses is saved in its sidecar (`sidecar_path`),
    keyed by the SHA-256 digests of the CSV's bytes and of the taxonomy's
    questions. Where a sidecar exists, the CSV is hashed as a stream
    (`_file_digest`); a call whose key matches reads the table from the
    sidecar (`_load_sidecar`), which checks that it is one a CSV could
    give. Any problem, and a missing sidecar, sends it to the parse, which
    reads and hashes the CSV's bytes once, so an error always names its
    lines.
    """
    if os.path.exists(sidecar_path(source)):
        table = _load_sidecar(source, _sidecar_key(_file_digest(source), tax), tax)
        if table is not None:
            return table
    data = Path(source).read_bytes()
    table = _parse_events(source, data, tax)
    _save_sidecar(source, _sidecar_key(hashlib.sha256(data).digest(), tax), table)
    return table


def _file_digest(path) -> bytes:
    """The SHA-256 digest of a file, read HASH_BLOCK bytes at a time into
    one reused buffer."""
    digest, block = hashlib.sha256(), bytearray(HASH_BLOCK)
    view = memoryview(block)
    with Path(path).open("rb", buffering=0) as fh:
        while size := fh.readinto(block):
            digest.update(view[:size])
    return digest.digest()


def _parse_events(source, data: bytes, tax: Taxonomy) -> EventTable:
    """The validated event table of the CSV bytes `data`, read from `source`."""
    workers: dict[str, int] = {}
    videos: dict[str, int] = {}
    codes: dict[tuple[str, str, str], int | str] = {}  # raw answer -> _answer_code
    answers: list[tuple[int, int]] = []
    fields = array("q")  # worker, video, answer code, iteration and gold of each row
    elapsed, lines, problems = array("d"), array("q"), []
    try:
        with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            missing = [c for c in EVENT_COLUMNS if c not in header]
            if missing:
                raise ValueError(f"{source}: missing columns {missing}")
            at = [header.index(c) for c in EVENT_COLUMNS + ("gold",) if c in header]
            width = max(at) + 1
            answer_of = itemgetter(*at[2:5])
            for row in reader:
                if len(row) < width:
                    if row:  # a blank line reads as []
                        problems.append((reader.line_num,
                                         f"too few fields ({len(row)} of {width})"))
                    continue
                code = codes.get(raw := answer_of(row))
                if code is None:
                    code = codes[raw] = _answer_code(tax, raw, answers)
                try:
                    if isinstance(code, str):
                        raise ValueError(code)
                    seconds, iteration = float(row[at[5]]), int(row[at[6]])
                    gold = len(at) > 7 and row[at[7]] != "" and _parse_bool(row[at[7]], "gold")
                except ValueError as exc:
                    problems.append((reader.line_num, str(exc)))
                    continue
                worker = workers.setdefault(row[at[0]], len(workers))
                video = videos.setdefault(row[at[1]], len(videos))
                fields.extend((worker, video, code, iteration, gold))
                elapsed.append(seconds)
                lines.append(reader.line_num)
    except UnicodeDecodeError:
        decoded(source, data)  # raises, naming the line of the first bad byte
        raise

    worker, video, code, iteration, gold = np.frombuffer(fields, np.int64).reshape(-1, 5).T
    question, members = zip(*answers) if answers else ((), ())
    table = EventTable(tuple(workers), tuple(videos), worker, video,
                       np.array(question, np.int64)[code], np.array(members, np.uint64)[code],
                       np.frombuffer(elapsed), iteration, gold)
    _raise_problems(source, problems + _row_problems(table, lines, tax))
    return table


def _raise_problems(source, problems: list[tuple[int, str]]) -> None:
    """One ValueError naming the first 20 (line, reason) problems by line, if any."""
    if problems:
        shown = "; ".join(f"line {line}: {reason}" for line, reason in sorted(problems)[:20])
        more = f" (+{len(problems) - 20} more)" if len(problems) > 20 else ""
        raise ValueError(f"{source}: {shown}{more}")
