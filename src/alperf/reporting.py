"""Serialization of run records: raw CSV, grouped summary JSON.

The raw CSV is the contract everything downstream operates on; the summary
is always reproducible from it alone. Writers and the reader refuse NaN/Inf
values.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

from .errors import ValidationError
from .harness import RunRecord, summarize

CSV_COLUMNS = (
    "scenario",
    "repetition",
    "sampler",
    "budget",
    "estimator",
    "estimate_mean",
    "estimate_median",
    "estimate_q25",
    "estimate_q75",
    "true_baseline",
    "wall_ms",
)
_FLOAT_FIELDS = (
    "estimate_mean",
    "estimate_median",
    "estimate_q25",
    "estimate_q75",
    "true_baseline",
    "wall_ms",
)


def _check_finite(record: RunRecord) -> None:
    for name in _FLOAT_FIELDS:
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
        lines.append(
            f"{r.scenario},{r.repetition},{r.sampler},{r.budget},{r.estimator},"
            f"{r.estimate_mean:.6f},{r.estimate_median:.6f},{r.estimate_q25:.6f},"
            f"{r.estimate_q75:.6f},{r.true_baseline:.6f},{r.wall_ms:.6f}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_records_csv(path: str | Path) -> list[RunRecord]:
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
                records.append(
                    RunRecord(
                        scenario=row[0],
                        repetition=int(row[1]),
                        sampler=row[2],
                        budget=int(row[3]),
                        estimator=row[4],
                        estimate_mean=float(row[5]),
                        estimate_median=float(row[6]),
                        estimate_q25=float(row[7]),
                        estimate_q75=float(row[8]),
                        true_baseline=float(row[9]),
                        wall_ms=float(row[10]),
                    )
                )
            except ValueError as exc:
                raise ValidationError(f"{path}: line {i}: {exc}") from exc
            for name in _FLOAT_FIELDS:
                value = getattr(records[-1], name)
                if not math.isfinite(value):
                    raise ValidationError(f"{path}: line {i}: non-finite {name}={value!r}")
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
