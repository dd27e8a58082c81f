"""Serialization of run records: raw CSV, and summary JSON of boxplot rows.

The raw CSV is the contract everything downstream operates on; the summary
is always reproducible from it alone. Writers and the reader refuse NaN/Inf
values. The reader reads the file once and parses it by column; where that
fails, it checks the rows read in file order and raises the first error.
"""

from __future__ import annotations

import csv
import json
import math
from operator import attrgetter
from pathlib import Path
from typing import Sequence, get_type_hints

import numpy as np

from . import estimators
from .errors import ValidationError
from .harness import RunRecord

# The raw CSV columns are the RunRecord fields, in order. Each column is
# parsed by its field's type; float columns carry exactly 6 fractional digits,
# in the format _FLOAT, which the writer and the summary both use. A row is
# one printf-style _ROW, a conversion per field type: "%.6f" formats as
# format(value, _FLOAT) does, -0.000000 included.
CSV_COLUMNS = RunRecord._fields
_TYPES = tuple(get_type_hints(RunRecord)[name] for name in CSV_COLUMNS)
_FLOAT_COLUMNS = tuple(n for n, t in zip(CSV_COLUMNS, _TYPES) if t is float)
_STR_COLUMNS = tuple(n for n, t in zip(CSV_COLUMNS, _TYPES) if t is str)
_FLOAT = ".6f"
_ROW = ",".join({float: "%" + _FLOAT, int: "%d", str: "%s"}[t] for t in _TYPES)

# Summary rows are grouped by these record fields, in this order.
_GROUP = ("scenario", "sampler", "budget", "estimator")
_group_key = attrgetter(*_GROUP)


def _as_written(values: list[float]) -> list[float]:
    """``values`` as raw.csv holds them: written in the _FLOAT format and
    parsed back, which is what ``read_records_csv`` returns for that text.
    Each distinct value is formatted once. A zero is its own rounding, and
    keeps its sign: 0.0 and -0.0 are one dict key."""
    rounded = {v: float(format(v, _FLOAT)) for v in set(values)}
    return [rounded[v] if v else v for v in values]


def _non_finite(record: RunRecord) -> str | None:
    """"non-finite <field>=<value>" for the first NaN or infinite float field
    of ``record``, or None if there is none."""
    for name in _FLOAT_COLUMNS:
        value = getattr(record, name)
        if not math.isfinite(value):
            return f"non-finite {name}={value!r}"
    return None


def write_records_csv(records: list[RunRecord], path: str | Path) -> None:
    """One row per record; floats carry exactly 6 fractional digits. Fields
    are unquoted, so a string holding a comma, quote or line break is refused."""
    for name in _STR_COLUMNS:
        for value in set(map(attrgetter(name), records)):
            if any(ch in value for ch in ',"\r\n'):
                raise ValidationError(f"refusing to serialize {name}={value!r}: "
                                      "it holds a comma, quote or line break")
    # One pass per float column; only where a column fails does the record
    # loop run, so that the error names the first bad record and field.
    if not all(all(map(math.isfinite, map(attrgetter(n), records))) for n in _FLOAT_COLUMNS):
        for r in records:
            if bad := _non_finite(r):
                raise ValidationError(f"refusing to serialize {bad} "
                                      f"({r.scenario}, rep {r.repetition}, {r.estimator})")
    lines = [",".join(CSV_COLUMNS)]
    lines += [_ROW % r for r in records]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_records_csv(path: str | Path) -> list[RunRecord]:
    """The records of a raw CSV, read once and parsed column by column.
    Where a column fails, or a decoding or CSV syntax error ends the read,
    the rows read are checked in order and the first error in the file is
    raised, a bad row named by the physical line it starts on."""
    rows, held = [], None
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            # extend keeps the rows read before an error.
            rows.extend(csv.reader(fh))
        except csv.Error as exc:
            held = exc
        except UnicodeDecodeError as exc:
            # exc.start counts from the start of the decoder's read chunk;
            # the whole file, decoded at once, gives the offset in the file.
            # A pipe cannot be read again, so its message has no offset.
            held = f"not UTF-8 ({exc.reason})"
            if fh.seekable():
                fh.buffer.seek(0)
                try:
                    fh.buffer.read().decode("utf-8")
                except UnicodeDecodeError as whole:
                    held = f"not UTF-8 ({whole.reason} at byte {whole.start})"
    if not rows and held is None:
        raise ValidationError(f"{path}: empty file, expected a CSV header")
    if rows and rows[0] != list(CSV_COLUMNS):
        raise ValidationError(
            f"{path}: unexpected CSV header {rows[0]!r}; expected {','.join(CSV_COLUMNS)}"
        )
    # The body starts on line 2: a header that matches holds no line break.
    line = 2 if rows else 1
    del rows[:1]
    if held is None and set(map(len, rows)) == {len(CSV_COLUMNS)}:
        try:
            columns = [
                col if parse is str else list(map(parse, col))
                for parse, col in zip(_TYPES, zip(*rows))
            ]
        except ValueError:
            pass
        else:
            floats = (col for parse, col in zip(_TYPES, columns) if parse is float)
            if all(all(map(math.isfinite, col)) for col in floats):
                # Free the parsed fields' text before the records are built.
                rows.clear()
                return list(map(RunRecord, *columns))
    for row in rows:
        if len(row) != len(CSV_COLUMNS):
            raise ValidationError(f"{path}: line {line} has {len(row)} fields")
        try:
            record = RunRecord(*[parse(v) for parse, v in zip(_TYPES, row)])
        except ValueError as exc:
            raise ValidationError(f"{path}: line {line}: {exc}") from exc
        if bad := _non_finite(record):
            raise ValidationError(f"{path}: line {line}: {bad}")
        # Each line break in a quoted field ("\r\n", "\r" or "\n") is a line.
        text = "".join(row)
        line += 1 + text.count("\n") + text.count("\r") - text.count("\r\n")
    if isinstance(held, csv.Error):
        raise ValidationError(f"{path}: line {line}: {held}")
    if held is not None:
        raise ValidationError(f"{path}: {held}")
    return []


def summarize(values: Sequence[float]) -> dict:
    """Boxplot statistics of ``values`` as one summary row, in ``summary.json``
    order. Quartiles are linearly interpolated (``estimators.percentiles``,
    equal to ``numpy.percentile`` bit for bit); the whiskers reach the
    furthest datum within 1.5 IQR."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ValidationError("cannot summarize an empty value list")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("cannot summarize non-finite values")
    q25, median, q75 = estimators.percentiles(arr, (25.0, 50.0, 75.0))
    iqr = q75 - q25
    return {
        "n": int(arr.size),
        "mean": float(arr.mean()),
        "median": median,
        "q25": q25,
        "q75": q75,
        "whisker_low": float(arr[arr >= q25 - 1.5 * iqr].min()),
        "whisker_high": float(arr[arr <= q75 + 1.5 * iqr].max()),
    }


def summarize_records(records: list[RunRecord]) -> list[dict]:
    """Boxplot statistics of the estimate means, grouped by
    (scenario, sampler, budget, estimator), in canonical order. Each value
    is taken as raw.csv holds it, so the summary of the records a run
    writes equals the summary of its raw.csv."""
    groups: dict[tuple, list[RunRecord]] = {}
    for r in records:
        groups.setdefault(_group_key(r), []).append(r)
    rows = []
    for key in sorted(groups):
        members = groups[key]
        truths = _as_written([r.true_baseline for r in members])
        rows.append(
            {
                **dict(zip(_GROUP, key)),
                **summarize(_as_written([r.estimate_mean for r in members])),
                "true_baseline_mean": sum(truths) / len(truths),
            }
        )
    return rows


def write_summary_json(rows: list[dict], path: str | Path) -> None:
    try:
        text = json.dumps({"groups": rows}, indent=2, allow_nan=False)
    except ValueError as exc:
        raise ValidationError(f"refusing to serialize non-finite summary value: {exc}")
    Path(path).write_text(text + "\n", encoding="utf-8")
