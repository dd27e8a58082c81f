import json
import xml.etree.ElementTree as ET

import pytest

from alperf import __version__
from alperf.cli import cli_main

TINY_CONFIG = {
    "scenario": "estimator-comparison",
    "master_seed": 7,
    "repetitions": 3,
    "budgets": [10, 30],
    "pool_size": 150,
    "subsample_reps": 20,
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(TINY_CONFIG))
    return path


def _csv_without_wall(path):
    lines = path.read_text().splitlines()
    return [line.rsplit(",", 1)[0] for line in lines]


def test_package_exports_its_imported_names():
    import alperf

    assert "run_experiment" in alperf.__all__ and "RunRecord" in alperf.__all__
    assert "harness" not in alperf.__all__ and "synthdata" not in alperf.__all__
    assert all(hasattr(alperf, name) for name in alperf.__all__)
    assert len(alperf.__all__) == 34


class TestScenarios:
    def test_lists_exactly_four_builtins(self, capsys):
        assert cli_main(["scenarios"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 4
        assert [line.split()[0] for line in out] == ["fig2", "fig3", "fig5", "fig6"]

    def test_prints_resolved_builtin(self, capsys):
        assert cli_main(["scenarios", "fig2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["scenario"] == "eval-size-distribution"
        assert doc["master_seed"] == 42
        assert doc["budgets"] == [5, 10, 20, 100]

    def test_unknown_builtin(self, capsys):
        assert cli_main(["scenarios", "fig9"]) == 1


class TestRun:
    def test_outputs_and_reproducibility(self, tmp_path, config_path):
        rc1 = cli_main(
            ["run", "--config", str(config_path), "--out", str(tmp_path / "r1"),
             "--seed", "5"]
        )
        rc2 = cli_main(
            ["run", "--config", str(config_path), "--out", str(tmp_path / "r2"),
             "--seed", "5", "--workers", "4"]
        )
        assert rc1 == rc2 == 0
        a = _csv_without_wall(tmp_path / "r1" / "raw.csv")
        b = _csv_without_wall(tmp_path / "r2" / "raw.csv")
        assert a == b

    def test_seed_changes_output(self, tmp_path, config_path):
        cli_main(["run", "--config", str(config_path), "--out", str(tmp_path / "a"),
                  "--seed", "5"])
        cli_main(["run", "--config", str(config_path), "--out", str(tmp_path / "b"),
                  "--seed", "6"])
        assert _csv_without_wall(tmp_path / "a" / "raw.csv") != _csv_without_wall(
            tmp_path / "b" / "raw.csv"
        )

    def test_bundle_contents(self, tmp_path, config_path):
        cli_main(["run", "--config", str(config_path), "--out", str(tmp_path / "r"),
                  "--seed", "11"])
        bundle = json.loads((tmp_path / "r" / "bundle.json").read_text())
        assert bundle["raw_csv"] == "raw.csv"
        assert bundle["summary_json"] == "summary.json"
        assert bundle["svg"] == []
        assert bundle["seed"] == 11
        assert bundle["version"] == __version__
        assert bundle["config"]["master_seed"] == 11
        assert "classifier.bandwidth" in bundle["defaults_applied"]

    def test_seed_flag_is_not_a_default(self, tmp_path):
        unseeded = {k: v for k, v in TINY_CONFIG.items() if k != "master_seed"}
        path = tmp_path / "unseeded.json"
        path.write_text(json.dumps(unseeded))
        for name, seed in (("plain", []), ("seeded", ["--seed", "7"])):
            rc = cli_main(["run", "--config", str(path), "--out", str(tmp_path / name), *seed])
            assert rc == 0
        plain = json.loads((tmp_path / "plain" / "bundle.json").read_text())
        seeded = json.loads((tmp_path / "seeded" / "bundle.json").read_text())
        assert plain["defaults_applied"][0] == "master_seed"
        assert seeded["defaults_applied"] == plain["defaults_applied"][1:]
        assert seeded["seed"] == seeded["config"]["master_seed"] == 7

    def test_summary_reproducible_from_csv(self, tmp_path, config_path):
        out = tmp_path / "r"
        cli_main(["run", "--config", str(config_path), "--out", str(out)])
        rc = cli_main(["report", str(out / "raw.csv"), "--out", str(tmp_path / "s.json")])
        assert rc == 0
        assert (tmp_path / "s.json").read_text() == (out / "summary.json").read_text()

    def test_missing_config_is_io_error(self, tmp_path):
        assert cli_main(
            ["run", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]
        ) == 2

    def test_invalid_config_is_validation_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"scenario": "estimator-comparison", "budgets": [30, 10]}')
        assert cli_main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize(
        "estimator, field",
        [
            ({"name": ["kfold-cv"]}, "estimators[0].name"),
            ({"name": {"kfold-cv": 3}}, "estimators[0].name"),
            ({"name": "probabilistic", "params": {"count_mode": ["hard"]}},
             "estimators[0]: estimator probabilistic: unknown count_mode"),
            ({"name": "probabilistic", "params": {"count_mode": {"hard": 1}}},
             "estimators[0]: estimator probabilistic: unknown count_mode"),
        ],
        ids=["name-list", "name-object", "count-mode-list", "count-mode-object"],
    )
    def test_non_string_estimator_field_is_validation_error(
        self, tmp_path, capsys, estimator, field
    ):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"scenario": "estimator-comparison", "estimators": [estimator]}))
        assert cli_main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
        assert field in capsys.readouterr().err

    def test_non_utf8_config_is_validation_error(self, tmp_path, capsys):
        bad = tmp_path / "latin1.json"
        bad.write_bytes('{"scenario": "estimator-comparison", "note": "\xe9"}'.encode("latin-1"))
        assert cli_main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert str(bad) in err and "not UTF-8" in err

    def test_invalid_workers(self, tmp_path, config_path):
        assert cli_main(
            ["run", "--config", str(config_path), "--out", str(tmp_path / "o"),
             "--workers", "0"]
        ) == 1


class TestReportAndPlot:
    def test_report_means_match_csv(self, tmp_path, config_path):
        out = tmp_path / "r"
        cli_main(["run", "--config", str(config_path), "--out", str(out)])
        cli_main(["report", str(out / "raw.csv"), "--out", str(tmp_path / "s.json")])
        groups = json.loads((tmp_path / "s.json").read_text())["groups"]
        rows = (out / "raw.csv").read_text().splitlines()[1:]
        for g in groups:
            members = [
                float(r.split(",")[5])
                for r in rows
                if r.split(",")[2] == g["sampler"]
                and int(r.split(",")[3]) == g["budget"]
                and r.split(",")[4] == g["estimator"]
            ]
            assert abs(g["mean"] - sum(members) / len(members)) < 1e-9

    def test_plot_produces_valid_svg(self, tmp_path, config_path):
        out = tmp_path / "r"
        cli_main(["run", "--config", str(config_path), "--out", str(out)])
        svg_path = tmp_path / "plot.svg"
        assert cli_main(["plot", str(out / "raw.csv"), "--out", str(svg_path)]) == 0
        ET.fromstring(svg_path.read_text())

    def test_plot_rejects_non_finite_csv_field(self, tmp_path, config_path, capsys):
        out = tmp_path / "r"
        cli_main(["run", "--config", str(config_path), "--out", str(out)])
        raw = out / "raw.csv"
        lines = raw.read_text().splitlines()
        fields = lines[3].split(",")
        fields[5] = "nan"  # estimate_mean
        lines[3] = ",".join(fields)
        raw.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert cli_main(["plot", str(raw), "--out", str(tmp_path / "plot.svg")]) == 1
        err = capsys.readouterr().err
        assert str(raw) in err and "line 4" in err and "estimate_mean" in err

    @pytest.mark.parametrize("command", ["report", "plot"])
    def test_non_utf8_csv_is_validation_error(self, tmp_path, config_path, capsys, command):
        out = tmp_path / "r"
        cli_main(["run", "--config", str(config_path), "--out", str(out)])
        raw = out / "raw.csv"
        raw.write_bytes(raw.read_bytes().replace(b"unbiased", b"unbiased\xff", 1))
        capsys.readouterr()
        assert cli_main([command, str(raw), "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert str(raw) in err and "not UTF-8" in err

    def test_report_missing_csv_is_io_error(self, tmp_path):
        assert cli_main(
            ["report", str(tmp_path / "missing.csv"), "--out", str(tmp_path / "s.json")]
        ) == 2


class TestUsage:
    def test_unknown_flag_exits_one(self, capsys):
        assert cli_main(["run", "--nope"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_unknown_subcommand_exits_one(self):
        assert cli_main(["frobnicate"]) == 1

    def test_no_arguments_exits_one(self):
        assert cli_main([]) == 1
