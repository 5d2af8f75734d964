"""CSV files in and out: atomic writes and the one record reader.

This is the one place the package opens a file for writing, as UTF-8 text
or as bytes. A file appears at its path complete or not at all: contents go
to a temporary file in the same directory, which then replaces the path. `read_records` reads the
small CSV inputs (timings, worker stats, verified pairs); bad input is a
one-line error that names the file and the physical line.
"""

from __future__ import annotations

import csv
import os
import secrets
from contextlib import contextmanager
from pathlib import Path


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


def write_csv(path, header, rows) -> Path:
    """Write `header` then every row of the iterable `rows`, LF-terminated."""
    with atomic_open(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return Path(path)


def read_records(path, columns, parse) -> list:
    """parse(row) for each row of a CSV that has `columns`; a missing column
    or a bad value is a one-line ValueError naming the file (and line)."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
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
