"""The names and argument positions the benchmark's tracer relies on.

``perfbench/tracing.py`` wraps module and class attributes of alperf by name
and reads work counts from argument positions (``draw_labeled`` arg 2 is n,
``draw_unlabeled`` arg 1 is n, ``kfold_cv_detail``'s ``reweighted`` is arg 4
or a keyword). Renaming or bypassing one of them crashes the traced
benchmark or silently zeroes its per-layer metrics; this test runs a small
traced study and checks that every layer still records spans.
"""

import contextlib
import io
import json
from pathlib import Path

import alperf.cli
import alperf.estimators
import alperf.parzen
import alperf.synthdata
from alperf.config import BUILTIN_SCENARIOS

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

EXPECTED_SPANS = {
    "config.resolve",
    "harness",
    "reporting.write",
    "reporting.read",
    "reporting.summarize",
    "svgplot.render",
    "synthdata",
    "parzen.fit",
    "parzen.kernel",
    "parzen.posterior",
} | {
    f"estimators.{name}"
    for name in (
        "generalization-error", "kfold-cv", "reweighted-cv", "self-label-cv",
        "probabilistic", "subsample-baseline", "true-baseline",
        "summary", "quantile", "cdf",
    )
}


def _study(tmp_path, name, repetitions):
    config = tmp_path / f"{name}.json"
    config.write_text(
        json.dumps(dict(BUILTIN_SCENARIOS[name].config, repetitions=repetitions))
    )
    out = tmp_path / name
    with contextlib.redirect_stdout(io.StringIO()):
        assert alperf.cli.cli_main(["run", "--config", str(config), "--out", str(out)]) == 0
        assert alperf.cli.cli_main(
            ["plot", str(out / "raw.csv"), "--out", str(out / "boxplots.svg")]
        ) == 0


def test_traced_study_records_every_layer(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer

    tracer = Tracer()
    tracer.install(alperf)
    try:
        _study(tmp_path, "fig6", 1)
        _study(tmp_path, "fig2", 3)
    finally:
        tracer.uninstall()
    totals = tracer.totals(0)
    assert EXPECTED_SPANS <= set(totals), sorted(EXPECTED_SPANS - set(totals))
    assert totals["synthdata"]["count"][0] > 0
    assert totals["parzen.kernel"]["count"][0] > 0
    # uninstall restored the untraced entry points
    assert not hasattr(alperf.cli.run_experiment, "__wrapped__")
    assert not hasattr(alperf.estimators.kfold_cv_detail, "__wrapped__")
