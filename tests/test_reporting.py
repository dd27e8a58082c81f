import dataclasses
import json
import os

import pytest

from alperf.config import BUILTIN_SCENARIOS, resolve_config
from alperf.errors import ValidationError
from alperf.harness import RunRecord, run_experiment
from alperf.reporting import (
    CSV_COLUMNS,
    read_records_csv,
    summarize,
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


def _three_rows(tmp_path, edits):
    """The bytes of a raw CSV of three records, where each (line index,
    field, value) edit puts value in that field; "\udcff" becomes the byte
    0xff, which is not UTF-8."""
    write_records_csv([_record(repetition=i) for i in range(3)], tmp_path / "three.csv")
    lines = (tmp_path / "three.csv").read_text().splitlines()
    for index, field, value in edits:
        cells = lines[index].split(",")
        cells[CSV_COLUMNS.index(field)] = value
        lines[index] = ",".join(cells)
    return ("\n".join(lines) + "\n").encode("utf-8", "surrogateescape")


def _assert_read(path, message):
    """``path`` reads as _three_rows' records when ``message`` is None, and
    is refused with "<path>: <message>" otherwise."""
    if message is None:
        assert read_records_csv(path) == [_record(repetition=i) for i in range(3)]
    else:
        with pytest.raises(ValidationError) as exc:
            read_records_csv(path)
        assert str(exc.value) == f"{path}: {message}"


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

    @pytest.mark.parametrize("builtin, repetitions", [("fig2", 30), ("fig6", 1)])
    def test_rows_are_each_field_formatted_by_its_type(self, tmp_path, builtin, repetitions):
        # Each float field as format(value, ".6f") gives it, -0.000000
        # included, each other field as str gives it.
        config = dict(BUILTIN_SCENARIOS[builtin].config, repetitions=repetitions)
        records = run_experiment(resolve_config(json.dumps(config)).spec)
        records.append(records[0]._replace(estimate_q25=-0.0, wall_ms=-1e-9))
        path = tmp_path / "raw.csv"
        write_records_csv(records, path)
        rows = [
            ",".join(format(v, ".6f") if isinstance(v, float) else str(v) for v in r)
            for r in records
        ]
        assert path.read_text(encoding="utf-8").splitlines()[1:] == rows
        assert rows[-1].endswith(",-0.000000")
        assert ",-0.000000," in rows[-1]

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

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_first_non_finite_in_record_order_is_named(self, tmp_path, bad):
        # The writer checks whole columns first; the error still names the
        # first bad record in record order, and in it the first bad field.
        fields = [n for n in CSV_COLUMNS if isinstance(getattr(_record(), n), float)]
        records = [_record(repetition=i) for i in range(2 * len(fields))]
        for i, field in enumerate(fields):
            records[2 * i + 1] = _record(repetition=2 * i + 1, **{field: bad})
        for start, field in enumerate(fields):
            with pytest.raises(ValidationError) as exc:
                write_records_csv(records[2 * start :], tmp_path / "w.csv")
            assert str(exc.value) == (
                f"refusing to serialize non-finite {field}={bad!r} "
                f"(estimator-comparison, rep {2 * start + 1}, cv-3fold)"
            )
        both = _record(repetition=7, estimate_q75=bad, estimate_median=float("nan"))
        with pytest.raises(ValidationError, match="non-finite estimate_median=nan"):
            write_records_csv([_record(), both, _record(wall_ms=bad)], tmp_path / "w.csv")
        assert not (tmp_path / "w.csv").exists()

    def test_non_finite_messages_name_the_record_and_line(self, tmp_path):
        # The writer names the record; the reader names the file and line,
        # even when the path holds format braces.
        with pytest.raises(ValidationError) as exc:
            write_records_csv([_record(repetition=4, wall_ms=float("inf"))], tmp_path / "w.csv")
        assert str(exc.value) == (
            "refusing to serialize non-finite wall_ms=inf (estimator-comparison, rep 4, cv-3fold)"
        )
        folder = tmp_path / "a{b}"
        folder.mkdir()
        path = folder / "raw.csv"
        write_records_csv([_record()], path)
        path.write_text(path.read_text().replace("0.900000", "nan"))
        with pytest.raises(ValidationError) as exc:
            read_records_csv(path)
        assert str(exc.value) == f"{path}: line 2: non-finite true_baseline=nan"

    def test_read_parses_each_column_by_field_type(self, tmp_path, records):
        path = tmp_path / "raw.csv"
        write_records_csv(records, path)
        parsed = read_records_csv(path)
        assert parsed == records and all(type(r) is RunRecord for r in parsed)
        assert all(type(r.repetition) is int and type(r.budget) is int for r in parsed)

    def test_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValidationError, match="header"):
            read_records_csv(path)

    @pytest.mark.parametrize(
        "line2, line3, message",
        [
            ("true_baseline=nan", "estimate_q25=oops", "line 2: non-finite true_baseline=nan"),
            ("estimate_q25=oops", "true_baseline=nan",
             "line 2: could not convert string to float: 'oops'"),
            ("budget=1.5", "drop", "line 2: invalid literal for int() with base 10: '1.5'"),
            ("drop", "wall_ms=inf", "line 2 has 10 fields"),
            ("wall_ms=-inf", "drop", "line 2: non-finite wall_ms=-inf"),
        ],
    )
    def test_first_bad_line_in_file_order_is_reported(self, tmp_path, line2, line3, message):
        # Columns are parsed whole; an error still names the first bad line.
        path = tmp_path / "raw.csv"
        write_records_csv([_record(), _record(repetition=1), _record(repetition=2)], path)
        lines = path.read_text().splitlines()
        for index, change in ((1, line2), (2, line3)):
            cells = lines[index].split(",")
            if change == "drop":
                cells.pop()
            else:
                field, value = change.split("=")
                cells[CSV_COLUMNS.index(field)] = value
            lines[index] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValidationError) as exc:
            read_records_csv(path)
        assert str(exc.value) == f"{path}: {message}"

    def test_rows_before_a_decoding_error_are_checked_first(self, tmp_path):
        path = tmp_path / "raw.csv"
        write_records_csv([_record(), _record(repetition=1)], path)
        text = path.read_text().replace("0.900000", "nan", 1)
        path.write_bytes(text.encode() + b"x" * 20_000 + b"\xff\n")
        with pytest.raises(ValidationError) as exc:
            read_records_csv(path)
        assert str(exc.value) == f"{path}: line 2: non-finite true_baseline=nan"

    def test_bad_row_is_named_by_its_physical_line(self, tmp_path):
        # A quoted field with a line break makes the row on line 2 span lines
        # 2 and 3, so the next row starts on line 4.
        path = tmp_path / "raw.csv"
        write_records_csv([_record(), _record(repetition=1)], path)
        lines = path.read_text().splitlines()
        lines[1] = lines[1].replace("unbiased", '"un\nbiased"')
        lines[2] = lines[2].replace("0.900000", "nan")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValidationError) as exc:
            read_records_csv(path)
        assert str(exc.value) == f"{path}: line 4: non-finite true_baseline=nan"

    @pytest.mark.parametrize(
        "edits, message",
        [
            ([], None),
            ([(2, "true_baseline", "nan")], "line 3: non-finite true_baseline=nan"),
            ([(1, "sampler", '"un\r\nbiased"'), (2, "true_baseline", "nan")],
             "line 4: non-finite true_baseline=nan"),
            ([(1, "sampler", '"un\rbiased"'), (2, "budget", "x")],
             "line 4: invalid literal for int() with base 10: 'x'"),
            ([(1, "sampler", '"un\nbiased"'), (3, "sampler", "u" * 140_000)],
             "line 5: field larger than field limit (131072)"),
            ([(3, "sampler", "un\udcff")], "not UTF-8 (invalid start byte at byte 344)"),
        ],
        ids=["valid", "nan", "crlf-then-nan", "cr-then-bad-int", "lf-then-syntax", "not-utf8"],
    )
    def test_raw_csv_is_opened_once(self, tmp_path, monkeypatch, edits, message):
        # The file is read once; a bad file is checked in memory, its rows
        # named by the physical line they start on, whatever the line break
        # inside an earlier quoted field.
        path = tmp_path / "raw.csv"
        path.write_bytes(_three_rows(tmp_path, edits))
        opened = []

        def counting_open(*args, **kwargs):
            opened.append(args[0])
            return open(*args, **kwargs)

        monkeypatch.setattr("alperf.reporting.open", counting_open, raising=False)
        _assert_read(path, message)
        assert opened == [path]

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    @pytest.mark.parametrize(
        "edits, message",
        [
            ([], None),
            ([(2, "true_baseline", "nan")], "line 3: non-finite true_baseline=nan"),
            ([(3, "sampler", "un\udcff")], "not UTF-8 (invalid start byte)"),
        ],
        ids=["valid", "nan", "not-utf8"],
    )
    def test_piped_raw_csv_is_read_once(self, tmp_path, edits, message):
        # A pipe can be read only once: its rows are still checked in file
        # order, and a byte that is not UTF-8 is refused without an offset.
        read_end, write_end = os.pipe()
        os.write(write_end, _three_rows(tmp_path, edits))
        os.close(write_end)
        try:
            _assert_read(f"/dev/fd/{read_end}", message)
        finally:
            os.close(read_end)

    @pytest.mark.parametrize("field", ["scenario", "sampler", "estimator"])
    @pytest.mark.parametrize("value", ["a,b", 'say "x"', "a\nb", "a\rb"])
    def test_write_refuses_unquotable_strings(self, tmp_path, field, value):
        # Fields are written unquoted, so such a value could not be read back.
        path = tmp_path / "raw.csv"
        with pytest.raises(ValidationError) as exc:
            write_records_csv([_record(), _record(**{field: value})], path)
        assert str(exc.value).startswith(f"refusing to serialize {field}={value!r}")
        assert not path.exists()

    def test_empty_body_reads_no_records(self, tmp_path):
        path = tmp_path / "raw.csv"
        write_records_csv([], path)
        assert read_records_csv(path) == []

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

    def test_row_is_group_key_then_summarize_then_truth(self, records):
        stats = ["n", "mean", "median", "q25", "q75", "whisker_low", "whisker_high"]
        assert list(summarize([0.4, 0.6])) == stats
        row = summarize_records(records)[0]
        assert list(row) == [
            "scenario", "sampler", "budget", "estimator", *stats, "true_baseline_mean",
        ]
        members = [r for r in records if r.estimator == row["estimator"]]
        assert {k: row[k] for k in stats} == summarize([r.estimate_mean for r in members])

    @pytest.mark.parametrize(
        "values",
        [
            # 6-decimal half-way points, as decimals: each float lies just
            # above or below the half and rounds accordingly.
            (0.1234565, 0.0000005, 0.9999995, 0.0000015, 0.5000005),
            (-0.0, 1e-7, -1e-7, 0.0, 4e-7),
            (-0.0, -0.0, -1e-7, -0.0, -4e-7),
        ],
        ids=["half-way", "zeros", "negative-zeros"],
    )
    def test_in_memory_summary_equals_summary_of_written_csv(self, tmp_path, values):
        # The summary `alperf run` writes comes from the records in memory;
        # it must equal, byte for byte, the summary of the raw.csv it wrote.
        records = [
            _record(repetition=i, estimate_mean=v, true_baseline=values[-1 - i])
            for i, v in enumerate(values)
        ]
        csv_path = tmp_path / "raw.csv"
        write_records_csv(records, csv_path)
        in_memory = summarize_records(records)
        assert in_memory == summarize_records(read_records_csv(csv_path))
        write_summary_json(in_memory, tmp_path / "run.json")
        write_summary_json(summarize_records(read_records_csv(csv_path)), tmp_path / "report.json")
        assert (tmp_path / "run.json").read_bytes() == (tmp_path / "report.json").read_bytes()
        # The values are rounded as written, not summarized as they came.
        unrounded = summarize(list(values))
        assert {k: in_memory[0][k] for k in unrounded} != unrounded

    def test_summary_json_rejects_non_finite(self, tmp_path):
        with pytest.raises(ValidationError, match="non-finite"):
            write_summary_json([{"mean": float("nan")}], tmp_path / "s.json")
