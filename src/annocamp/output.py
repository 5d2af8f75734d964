"""Files in and out: atomic writes, the small-output writers and the one
record reader.

This is the one place the package opens a file for writing, as UTF-8 text
or as bytes. A file appears at its path complete or not at all: contents go
to a temporary file in the same directory, which then replaces the path.
`write_csv` and `write_text` write every small output (the commands' CSVs
and JSON documents, the experiments' CSVs); given None for a path, they
write to stdout. `read_text` reads a small input file whole, and
`read_records` reads the small CSV inputs (timings, worker stats, verified
pairs); bad input, bytes that are not UTF-8 included, is a one-line error
that names the file and the physical line. `csv_chunks` formats the rows of
a large CSV a chunk at a time.
"""

from __future__ import annotations

import csv
import io
import os
import secrets
import sys
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np


@contextmanager
def atomic_open(path, binary: bool = False):
    """Handle whose contents replace `path` when the block exits cleanly: UTF-8
    text without newline translation, or bytes when `binary`."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}-{secrets.token_hex(4)}.tmp")
    # Mode 0666 lets the umask decide, as open() would; O_EXCL never clobbers.
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        text = {} if binary else {"newline": "", "encoding": "utf-8"}
        with os.fdopen(fd, "wb" if binary else "w", **text) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_csv(path, header, rows) -> None:
    """Write `header` then every row of the iterable `rows`, LF-terminated,
    to `path` or, when it is None, to stdout."""
    with nullcontext(sys.stdout) if path is None else atomic_open(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_text(path, text: str) -> None:
    """Write `text` to `path` or, when it is None, to stdout, where it ends
    with a newline."""
    if path is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
        return
    with atomic_open(path) as fh:
        fh.write(text)


def decoded(path, data: bytes) -> str:
    """`data`, the bytes of the file at `path`, as UTF-8 text; a byte that
    does not decode is a one-line ValueError naming the file and the
    physical line it is on."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[: exc.start]
        line = 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
        raise ValueError(f"{path}: line {line}: {exc}") from None


def read_text(path) -> str:
    """The UTF-8 text of the file at `path` (`decoded`)."""
    return decoded(path, Path(path).read_bytes())


def read_records(path, columns, parse) -> list:
    """parse(row) for each row of a CSV that has `columns`; a missing column
    or a bad value is a one-line ValueError naming the file (and line)."""
    reader = csv.DictReader(io.StringIO(read_text(path), newline=""))
    missing = [c for c in columns if c not in (reader.fieldnames or [])]
    if missing:
        raise ValueError(f"{path}: missing columns {missing}")
    records = []
    for row in reader:
        try:
            records.append(parse(row))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    return records


def csv_chunks(columns, rows: int, chunk: int):
    """The CSV text of `rows` rows, `chunk` rows at a time. Each column is a
    pair: its distinct values as CSV fields (any iterable, read once), and
    each row's index among them. Each distinct value is formatted with the separator that follows
    it once; a chunk's fields are gathered into one reused array, a column
    at a time, and joined at once."""
    ends = [","] * (len(columns) - 1) + ["\n"]
    columns = [(np.array([value + end for value in values], object), codes)
               for (values, codes), end in zip(columns, ends)]
    fields = np.empty((chunk, len(columns)), object)
    for start in range(0, rows, chunk):
        chunk_fields = fields[: rows - start]
        for j, (values, codes) in enumerate(columns):
            chunk_fields[:, j] = values[codes[start : start + len(chunk_fields)]]
        yield "".join(chunk_fields.ravel().tolist())
