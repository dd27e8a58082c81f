import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import alperf
from alperf import __version__
from alperf.cli import cli_main

# Every public name: the specs and data types, one call per computation, and
# the kernel-block constructor the pool estimators need.
PUBLIC_NAMES = {
    "ValidationError",
    "GaussianComponent", "LabeledSet", "SamplingDistribution", "TaskModel",
    "bayes_accuracy", "bayes_posterior_batch", "default_task", "draw_labeled",
    "draw_unlabeled", "unbiased_sampler",
    "ClassifierConfig", "ParzenModel", "fit_arrays", "kernel_block",
    "posterior_batch", "predict_batch",
    "PerformanceEstimate", "generalization_error_estimate", "kfold_cv",
    "probabilistic_performance", "self_label_cv", "subsample_baseline",
    "true_baseline",
    "EstimatorSpec", "ExperimentSpec", "RunRecord", "derive_substream",
    "run_experiment",
    "summarize", "resolve_config",
}

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
    assert set(alperf.__all__) == PUBLIC_NAMES
    assert all(hasattr(alperf, name) for name in alperf.__all__)


def _python_m_cli(*argv):
    env = dict(os.environ)
    src = str(Path(alperf.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "alperf.cli", *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_python_m_runs_the_cli(capsys):
    proc = _python_m_cli("scenarios", "fig3")
    assert proc.returncode == 0, proc.stderr
    assert cli_main(["scenarios", "fig3"]) == 0
    assert proc.stdout == capsys.readouterr().out != ""
    unknown = _python_m_cli("scenarios", "fig9")
    assert unknown.returncode == 1
    assert "unknown scenario 'fig9'" in unknown.stderr


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

    def test_interrupted_rerun_leaves_no_bundle(self, tmp_path, config_path, monkeypatch):
        # A directory holds a finished run exactly when it holds bundle.json:
        # a rerun stopped after raw.csv must not leave the last run's bundle
        # beside its own raw.csv.
        out = tmp_path / "r"
        run = ["run", "--config", str(config_path), "--out", str(out)]
        assert cli_main([*run, "--seed", "1"]) == 0
        assert json.loads((out / "bundle.json").read_text())["seed"] == 1

        def interrupted(records):
            raise KeyboardInterrupt

        monkeypatch.setattr("alperf.cli.summarize_records", interrupted)
        with pytest.raises(KeyboardInterrupt):
            cli_main([*run, "--seed", "2"])
        assert (out / "raw.csv").exists()
        assert not (out / "bundle.json").exists()

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
            # Keys of estimator options that no longer exist.
            ({"name": "reweighted-cv", "params": {"k": 3, "weight_cap": 5.0}},
             "estimators[0].params has unknown key(s): weight_cap"),
            ({"name": "probabilistic", "params": {"count_mode": "kernel"}},
             "estimators[0].params has unknown key(s): count_mode"),
        ],
        ids=["name-list", "name-object", "removed-weight-cap", "removed-count-mode"],
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

    @pytest.mark.parametrize(
        "text",
        [
            "[" * 100_000 + "]" * 100_000,
            '{"scenario": "cv-folds", "task": ' + "[" * 100_000 + "]" * 100_000 + "}",
        ],
        ids=["alone", "task-value"],
    )
    def test_deeply_nested_config_is_validation_error(self, tmp_path, capsys, text):
        deep = tmp_path / "deep.json"
        deep.write_text(text)
        assert cli_main(["run", "--config", str(deep), "--out", str(tmp_path / "o")]) == 1
        assert "config nests too deeply" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_unusable_out_fails_before_the_study_runs(
        self, tmp_path, config_path, monkeypatch, capsys
    ):
        def fail(spec, workers=1):
            raise AssertionError("run_experiment was called")

        monkeypatch.setattr("alperf.cli.run_experiment", fail)
        regular = tmp_path / "file"
        regular.write_text("")
        argv = ["run", "--config", str(config_path), "--out", str(regular / "sub")]
        assert cli_main(argv) == 2
        assert "I/O error" in capsys.readouterr().err

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

    def test_non_utf8_csv_names_the_offset_in_the_file(self, tmp_path, config_path, capsys):
        out = tmp_path / "r"
        cli_main(["run", "--config", str(config_path), "--out", str(out)])
        raw = out / "raw.csv"
        header, body = raw.read_bytes().split(b"\n", 1)
        data = header + b"\n" + body * (30_000 // len(body) + 1)
        offset = data.index(b"unbiased", 20_000) + len(b"unbiased")
        raw.write_bytes(data[:offset] + b"\xff" + data[offset:])
        capsys.readouterr()
        assert cli_main(["report", str(raw), "--out", str(tmp_path / "s.json")]) == 1
        err = capsys.readouterr().err
        assert f"{raw}: not UTF-8 (invalid start byte at byte {offset})" in err

    def test_rows_before_a_non_utf8_byte_are_checked_first(self, tmp_path, config_path, capsys):
        out = tmp_path / "r"
        cli_main(["run", "--config", str(config_path), "--out", str(out)])
        raw = out / "raw.csv"
        lines = raw.read_text().splitlines()
        fields = lines[1].split(",")
        fields[9] = "nan"  # true_baseline
        lines[1] = ",".join(fields)
        raw.write_bytes(("\n".join(lines) + "\n").encode() + b"x" * 20_000 + b"\xff\n")
        capsys.readouterr()
        assert cli_main(["report", str(raw), "--out", str(tmp_path / "s.json")]) == 1
        err = capsys.readouterr().err
        assert f"{raw}: line 2: non-finite true_baseline=nan" in err

    @pytest.mark.parametrize("command", ["report", "plot"])
    def test_oversized_csv_field_is_validation_error(
        self, tmp_path, config_path, capsys, command
    ):
        out = tmp_path / "r"
        cli_main(["run", "--config", str(config_path), "--out", str(out)])
        raw = out / "raw.csv"
        lines = raw.read_text().splitlines()
        fields = lines[4].split(",")
        fields[2] = "u" * 140_000  # sampler, over the csv module's field limit
        lines[4] = ",".join(fields)
        raw.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert cli_main([command, str(raw), "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert f"{raw}: line 5: field larger than field limit" in err

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
