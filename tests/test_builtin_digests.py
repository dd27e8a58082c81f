"""Golden digests of the four built-in studies.

Each built-in runs through the CLI at a reduced repetition count. Every
repetition owns its substreams, so these runs are prefixes of the shipped
runs. The SHA-256 of ``raw.csv`` without its ``wall_ms`` column is compared
with a constant recorded before the arrays-first refactor; any numeric drift
in the data, classifier, estimator or harness layers changes it. The
SHA-256 of ``alperf scenarios <name>``, the fully resolved configuration
each built-in echoes, is compared the same way.
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


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_builtin_raw_csv_digest(tmp_path, capsys, name):
    repetitions, expected = GOLDEN[name]
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(dict(BUILTIN_SCENARIOS[name].config, repetitions=repetitions))
    )
    assert cli_main(["run", "--config", str(config), "--out", str(tmp_path)]) == 0
    assert raw_digest(tmp_path / "raw.csv") == expected


@pytest.mark.parametrize("name", sorted(SCENARIO_ECHO))
def test_builtin_scenario_echo_digest(capsys, name):
    assert cli_main(["scenarios", name]) == 0
    echo = capsys.readouterr().out
    assert hashlib.sha256(echo.encode("utf-8")).hexdigest() == SCENARIO_ECHO[name]
