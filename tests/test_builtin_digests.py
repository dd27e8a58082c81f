"""Golden digests of the four built-in studies.

Each built-in runs through the CLI at a reduced repetition count. Every
repetition owns its substreams, so these runs are prefixes of the shipped
runs. The SHA-256 of ``raw.csv`` without its ``wall_ms`` column is compared
with a constant recorded before the arrays-first refactor; any numeric drift
in the data, classifier, estimator or harness layers changes it. The
SHA-256 of ``summary.json``, the grouped boxplot statistics, is compared
with a constant recorded before the quartiles moved to the one-sort
percentile helper. The SHA-256 of ``alperf scenarios <name>``, the fully
resolved configuration each built-in echoes, is compared the same way.
"""

import hashlib
import json

import pytest

from alperf.cli import cli_main
from alperf.config import BUILTIN_SCENARIOS

GOLDEN = {
    "fig2": (50, "027c3e12e756fe1a3a4e8c13eeb5720e71863b86200249457d5da9be2c60fc04"),
    "fig3": (5, "0a7183ea812a5ad4b2eb0cdbde3a0d9fb8b2b87719546567caa104030f963338"),
    "fig5": (3, "d9911ea7fbac58ac17886af59dc4caab325104c8e9970ffbc4e666d52928dbae"),
    "fig6": (2, "62f97a15269aae06d193ce51d22b9227e8d02be2af3ed2412888e35e86b38dae"),
}

# summary.json of the same runs as GOLDEN.
SUMMARY_JSON = {
    "fig2": "0a16493177bdbe46c3f7bba1aa431d86fdebf489c2b5ff7efd30f3c9a283eeb1",
    "fig3": "5ba8be7bc3da58ad311bf06bdb499b3a15d0363b9399237f913c89ca6a9a0b30",
    "fig5": "f0d03e4cc76d70d71f7c8f9feeea04fef1cb7f87d83cde997f7942155fa46e61",
    "fig6": "5b69fd1005c0960327f5f088effced8cef224775aa54486df9a68a222c002c15",
}

SCENARIO_ECHO = {
    "fig2": "9da631a7e670ff1abb11fd8f85e1107ed231f1f13204ad49b836e05fd23e6a04",
    "fig3": "5cd59e79bda4ec73ac57c1ba5184a3353bcc3b883a6644d32add3c879b02df64",
    "fig5": "6fbcab38f5c0781cb665252ef58209a70cdb06d825daa50918f9732f728783f2",
    "fig6": "e3c27449b44375505b658f39f4f0b99c18076e8108173297ab354cab66c9ccb4",
}


def raw_digest(path):
    """SHA-256 of a raw CSV with its last (wall_ms) column dropped."""
    lines = path.read_text(encoding="utf-8").splitlines()
    kept = "".join(line.rsplit(",", 1)[0] + "\n" for line in lines)
    return hashlib.sha256(kept.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def builtin_run(tmp_path_factory):
    """Output directory of each built-in at its GOLDEN repetitions, run once."""
    done = {}

    def run(name):
        if name not in done:
            out = tmp_path_factory.mktemp(name)
            config = out / "config.json"
            config.write_text(
                json.dumps(dict(BUILTIN_SCENARIOS[name].config, repetitions=GOLDEN[name][0]))
            )
            assert cli_main(["run", "--config", str(config), "--out", str(out)]) == 0
            done[name] = out
        return done[name]

    return run


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_builtin_raw_csv_digest(builtin_run, name):
    assert raw_digest(builtin_run(name) / "raw.csv") == GOLDEN[name][1]


@pytest.mark.parametrize("name", sorted(SUMMARY_JSON))
def test_builtin_summary_json_digest(builtin_run, name):
    summary = (builtin_run(name) / "summary.json").read_bytes()
    assert hashlib.sha256(summary).hexdigest() == SUMMARY_JSON[name]


@pytest.mark.parametrize("name", sorted(SCENARIO_ECHO))
def test_builtin_scenario_echo_digest(capsys, name):
    assert cli_main(["scenarios", name]) == 0
    echo = capsys.readouterr().out
    assert hashlib.sha256(echo.encode("utf-8")).hexdigest() == SCENARIO_ECHO[name]
