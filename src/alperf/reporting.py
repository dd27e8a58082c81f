"""Serialization of run records: raw CSV, grouped summary JSON.

The raw CSV is the contract everything downstream operates on; the summary
is always reproducible from it alone. Writers and the reader refuse NaN/Inf
values.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import fields
from operator import attrgetter
from pathlib import Path
from typing import get_type_hints

from .errors import ValidationError
from .harness import RunRecord, summarize

# The raw CSV columns are the RunRecord fields, in order. Each column is
# parsed by its field's type; float columns carry exactly 6 fractional digits.
CSV_COLUMNS = tuple(f.name for f in fields(RunRecord))
_TYPES = tuple(get_type_hints(RunRecord)[name] for name in CSV_COLUMNS)
_FLOAT_COLUMNS = tuple(n for n, t in zip(CSV_COLUMNS, _TYPES) if t is float)
_ROW = ",".join("{:.6f}" if t is float else "{}" for t in _TYPES)
_values = attrgetter(*CSV_COLUMNS)


def _check_finite(record: RunRecord) -> None:
    for name in _FLOAT_COLUMNS:
        value = getattr(record, name)
        if not math.isfinite(value):
            raise ValidationError(
                f"refusing to serialize non-finite {name}={value!r} "
                f"({record.scenario}, rep {record.repetition}, {record.estimator})"
            )


def write_records_csv(records: list[RunRecord], path: str | Path) -> None:
    """One row per record; floats carry exactly 6 fractional digits."""
    lines = [",".join(CSV_COLUMNS)]
    for r in records:
        _check_finite(r)
        lines.append(_ROW.format(*_values(r)))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_records_csv(path: str | Path) -> list[RunRecord]:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise ValidationError(f"{path}: empty file, expected a CSV header")
            if tuple(header) != CSV_COLUMNS:
                raise ValidationError(
                    f"{path}: unexpected CSV header {header!r}; "
                    f"expected {','.join(CSV_COLUMNS)}"
                )
            records = []
            for i, row in enumerate(reader, start=2):
                if len(row) != len(CSV_COLUMNS):
                    raise ValidationError(f"{path}: line {i} has {len(row)} fields")
                try:
                    records.append(RunRecord(*[parse(v) for parse, v in zip(_TYPES, row)]))
                except ValueError as exc:
                    raise ValidationError(f"{path}: line {i}: {exc}") from exc
                for name in _FLOAT_COLUMNS:
                    value = getattr(records[-1], name)
                    if not math.isfinite(value):
                        raise ValidationError(f"{path}: line {i}: non-finite {name}={value!r}")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 ({exc.reason} at byte {exc.start})") from None
    return records


def summarize_records(records: list[RunRecord]) -> list[dict]:
    """Boxplot statistics of the estimate means, grouped by
    (scenario, sampler, budget, estimator), in canonical order."""
    groups: dict[tuple, list[RunRecord]] = {}
    for r in records:
        groups.setdefault((r.scenario, r.sampler, r.budget, r.estimator), []).append(r)
    rows = []
    for key in sorted(groups):
        members = groups[key]
        stats = summarize([r.estimate_mean for r in members])
        truth = sum(r.true_baseline for r in members) / len(members)
        rows.append(
            {
                "scenario": key[0],
                "sampler": key[1],
                "budget": key[2],
                "estimator": key[3],
                "n": stats.n,
                "mean": stats.mean,
                "median": stats.median,
                "q25": stats.q25,
                "q75": stats.q75,
                "whisker_low": stats.whisker_low,
                "whisker_high": stats.whisker_high,
                "true_baseline_mean": truth,
            }
        )
    return rows


def write_summary_json(rows: list[dict], path: str | Path) -> None:
    try:
        text = json.dumps({"groups": rows}, indent=2, allow_nan=False)
    except ValueError as exc:
        raise ValidationError(f"refusing to serialize non-finite summary value: {exc}")
    Path(path).write_text(text + "\n", encoding="utf-8")
