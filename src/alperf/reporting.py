"""Serialization of run records: raw CSV, and summary JSON of boxplot rows.

The raw CSV is the contract everything downstream operates on; the summary
is always reproducible from it alone. Writers and the reader refuse NaN/Inf
values.
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
_UNWRITABLE = "refusing to serialize {bad} ({r.scenario}, rep {r.repetition}, {r.estimator})"

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


def _check_finite(record: RunRecord, where: str, **context) -> None:
    """Refuse a record with a NaN or infinite float field. ``where`` is the
    message, a format string given ``bad`` ("non-finite <field>=<value>"),
    the record as ``r``, and ``context``."""
    for name in _FLOAT_COLUMNS:
        value = getattr(record, name)
        if not math.isfinite(value):
            bad = f"non-finite {name}={value!r}"
            raise ValidationError(where.format(bad=bad, r=record, **context))


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
            _check_finite(r, _UNWRITABLE)
    lines = [",".join(CSV_COLUMNS)]
    lines += [_ROW % r for r in records]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _parse_columns(rows: list[list[str]]) -> list[list] | None:
    """The columns of ``rows``, each parsed by its field's type, or None if
    there are none or a row has the wrong field count, an unparsable field
    or a non-finite float."""
    if set(map(len, rows)) != {len(CSV_COLUMNS)}:
        return None
    try:
        columns = [
            col if parse is str else list(map(parse, col))
            for parse, col in zip(_TYPES, zip(*rows))
        ]
    except ValueError:
        return None
    floats = (col for parse, col in zip(_TYPES, columns) if parse is float)
    return columns if all(all(map(math.isfinite, col)) for col in floats) else None


def _read_rows(path) -> list[RunRecord]:
    """The records of a raw CSV, read row by row: the first error in file
    order is raised, a bad row named by the physical line it starts on."""
    records, line = [], 1
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise ValidationError(f"{path}: empty file, expected a CSV header")
            if tuple(header) != CSV_COLUMNS:
                raise ValidationError(
                    f"{path}: unexpected CSV header {header!r}; expected {','.join(CSV_COLUMNS)}"
                )
            line = reader.line_num + 1
            for row in reader:
                if len(row) != len(CSV_COLUMNS):
                    raise ValidationError(f"{path}: line {line} has {len(row)} fields")
                try:
                    record = RunRecord(*[parse(v) for parse, v in zip(_TYPES, row)])
                except ValueError as exc:
                    raise ValidationError(f"{path}: line {line}: {exc}") from exc
                _check_finite(record, "{path}: line {i}: {bad}", path=path, i=line)
                records.append(record)
                line = reader.line_num + 1
    except UnicodeDecodeError as exc:
        # exc.start counts from the start of the decoder's read chunk; the
        # whole file, decoded at once, gives the offset in the file.
        try:
            Path(path).read_bytes().decode("utf-8")
        except UnicodeDecodeError as whole:
            exc = whole
        raise ValidationError(f"{path}: not UTF-8 ({exc.reason} at byte {exc.start})") from None
    except csv.Error as exc:
        raise ValidationError(f"{path}: line {line}: {exc}") from None
    return records


def read_records_csv(path: str | Path) -> list[RunRecord]:
    """The records of a raw CSV, parsed column by column. Where that fails
    (a bad header or row, a decoding or CSV syntax error) or finds no rows,
    the file is read again row by row, which raises the first error in file
    order."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except (UnicodeDecodeError, csv.Error):
        return _read_rows(path)
    columns = _parse_columns(rows[1:]) if rows[:1] == [list(CSV_COLUMNS)] else None
    # Free the parsed fields' text before the records are built.
    rows.clear()
    return _read_rows(path) if columns is None else list(map(RunRecord, *columns))


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
