import dataclasses
import json

import pytest

from alperf.errors import ValidationError
from alperf.harness import RunRecord
from alperf.reporting import (
    CSV_COLUMNS,
    read_records_csv,
    summarize_records,
    write_records_csv,
    write_summary_json,
)


def _record(**overrides):
    base = dict(
        scenario="estimator-comparison",
        repetition=0,
        sampler="unbiased",
        budget=10,
        estimator="cv-3fold",
        estimate_mean=0.5,
        estimate_median=0.5,
        estimate_q25=0.4,
        estimate_q75=0.6,
        true_baseline=0.9,
        wall_ms=1.25,
    )
    base.update(overrides)
    return RunRecord(**base)


@pytest.fixture
def records():
    return [
        _record(repetition=i, estimate_mean=0.4 + 0.05 * i, estimator=est)
        for i in range(4)
        for est in ("cv-3fold", "probabilistic")
    ]


class TestCsv:
    def test_header_contract(self, tmp_path):
        path = tmp_path / "raw.csv"
        write_records_csv([], path)
        assert path.read_text() == (
            "scenario,repetition,sampler,budget,estimator,estimate_mean,"
            "estimate_median,estimate_q25,estimate_q75,true_baseline,wall_ms\n"
        )

    def test_six_fractional_digits(self, tmp_path):
        path = tmp_path / "raw.csv"
        write_records_csv([_record(estimate_mean=0.5)], path)
        line = path.read_text().splitlines()[1]
        assert ",0.500000," in line
        assert line.endswith("1.250000")

    def test_roundtrip_summaries_are_stable(self, tmp_path, records):
        p1 = tmp_path / "a.csv"
        write_records_csv(records, p1)
        once = read_records_csv(p1)
        p2 = tmp_path / "b.csv"
        write_records_csv(once, p2)
        twice = read_records_csv(p2)
        assert summarize_records(once) == summarize_records(twice)
        assert p1.read_text() == p2.read_text()

    def test_rejects_non_finite(self, tmp_path):
        with pytest.raises(ValidationError, match="non-finite"):
            write_records_csv([_record(estimate_mean=float("nan"))], tmp_path / "x.csv")
        with pytest.raises(ValidationError, match="non-finite"):
            write_records_csv(
                [_record(true_baseline=float("inf"))], tmp_path / "y.csv"
            )

    @pytest.mark.parametrize(
        "field",
        ["estimate_mean", "estimate_median", "estimate_q25", "estimate_q75",
         "true_baseline", "wall_ms"],
    )
    def test_every_float_column_checked_both_ways(self, tmp_path, field):
        # The float columns come from the RunRecord fields: each one is
        # refused when non-finite on write, and on read with line and field.
        with pytest.raises(ValidationError, match=f"non-finite {field}=nan"):
            write_records_csv([_record(**{field: float("nan")})], tmp_path / "w.csv")
        path = tmp_path / "r.csv"
        write_records_csv([_record(), _record(repetition=1)], path)
        lines = path.read_text().splitlines()
        cells = lines[2].split(",")
        cells[CSV_COLUMNS.index(field)] = "inf"
        lines[2] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValidationError, match=f"line 3: non-finite {field}=inf"):
            read_records_csv(path)

    def test_read_parses_each_column_by_field_type(self, tmp_path, records):
        path = tmp_path / "raw.csv"
        write_records_csv(records, path)
        parsed = read_records_csv(path)
        assert parsed == records
        assert all(type(r.repetition) is int and type(r.budget) is int for r in parsed)

    def test_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValidationError, match="header"):
            read_records_csv(path)

    def test_rejects_bad_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(",".join(CSV_COLUMNS) + "\nx,0,u,10,e,0.1,0.1,0.1,0.1,oops,1\n")
        with pytest.raises(ValidationError, match="line 2"):
            read_records_csv(path)


class TestSummary:
    def test_grouping_and_order(self, records):
        rows = summarize_records(records)
        assert [r["estimator"] for r in rows] == ["cv-3fold", "probabilistic"]
        assert all(r["n"] == 4 for r in rows)

    def test_means_match_csv_columns(self, tmp_path, records):
        path = tmp_path / "raw.csv"
        write_records_csv(records, path)
        parsed = read_records_csv(path)
        rows = summarize_records(parsed)
        for row in rows:
            members = [
                r.estimate_mean
                for r in parsed
                if (r.scenario, r.sampler, r.budget, r.estimator)
                == (row["scenario"], row["sampler"], row["budget"], row["estimator"])
            ]
            assert abs(row["mean"] - sum(members) / len(members)) < 1e-9

    def test_summary_json_shape(self, tmp_path, records):
        path = tmp_path / "summary.json"
        write_summary_json(summarize_records(records), path)
        data = json.loads(path.read_text())
        assert set(data) == {"groups"}
        for row in data["groups"]:
            assert set(row) == {
                "scenario", "sampler", "budget", "estimator", "n", "mean",
                "median", "q25", "q75", "whisker_low", "whisker_high",
                "true_baseline_mean",
            }

    def test_summary_json_rejects_non_finite(self, tmp_path):
        with pytest.raises(ValidationError, match="non-finite"):
            write_summary_json([{"mean": float("nan")}], tmp_path / "s.json")
