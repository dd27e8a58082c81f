"""Golden digests of the four built-in studies.

Each built-in runs through the CLI at a reduced repetition count. Every
repetition owns its substreams, so these runs are prefixes of the shipped
runs. The SHA-256 of ``raw.csv`` without its ``wall_ms`` column is compared
with a constant recorded before the arrays-first refactor; any numeric drift
in the data, classifier, estimator or harness layers changes it. The
SHA-256 of ``summary.json``, the grouped boxplot statistics, is compared
with a constant recorded before the quartiles moved to the one-sort
percentile helper. The SHA-256 of ``bundle.json``, the resolved
configuration with its applied defaults in order, is compared with a
constant recorded before the scenario defaults moved into one table. The
SHA-256 of ``alperf scenarios <name>``, the fully resolved configuration
each built-in echoes, is compared the same way. The SHA-256 of
``alperf plot`` on each ``raw.csv`` was recorded before the SVG writer got
one function per element kind.

All sixteen constants were re-recorded together when the true baseline
became the exact decision-region integral and the subsample baseline a
Binomial draw of it: that changed the ``true_baseline`` column and the
subsample-baseline rows, and dropped ``true_eval_size`` from the resolved
configuration. Every other ``raw.csv`` field stayed byte-identical.

fig6's ``bundle.json`` and ``scenarios`` echo were re-recorded when the
probabilistic estimator lost its count-mode option: its ``params`` went
from ``{"count_mode": "kernel"}`` to ``{}``, and nothing else changed.

fig5's ``bundle.json`` and ``scenarios`` echo were re-recorded when
bias-sweep lost its own keys ``d_grid`` and ``labeled_size`` and took
``samplers`` and ``budgets`` like every other scenario: the resolved
configuration lists each distance as a symmetric-mixture sampler with the
default std and priors, and the single labeled-set size as ``budgets``, in
the place every scenario gives them. ``test_fig5_echo_changed_only_its_keys``
shows that the old document, rebuilt from the new one, hashes to the old
constant, so nothing else changed.

fig5's and fig6's ``bundle.json`` and ``scenarios`` echo were re-recorded
when a sampler became its kind and its distance: each symmetric-mixture
sampler lost its ``"std": 0.25`` and ``"priors": [0.5, 0.5]``, the fixed
width and weights that no sampler label recorded. The old values are kept
as ``BUNDLE_JSON_BEFORE`` and ``SCENARIO_ECHO_BEFORE``, and
``test_echo_changed_only_the_sampler_width`` shows that putting those two
keys back hashes to them. fig2 and fig3 draw from the data marginal only,
so their documents did not change. ``test_fig5_echo_changed_only_its_keys``
starts from that rebuilt document.
"""

import hashlib
import json

import pytest

from alperf.cli import cli_main
from alperf.config import BUILTIN_SCENARIOS

GOLDEN = {
    "fig2": (50, "881a5426636f4cb75cd1a723e51af37ee4496751d6bf5d52e5a3c4b6f2af3c57"),
    "fig3": (5, "f2f1d8a6d52596647588ee94c013f9fc43273c28be1e6e696b696e187ff4f2f8"),
    "fig5": (3, "ff002f35f31d153da8ad80aa6547d945c94764f6d395b0f75b7e1cb69f13a3b6"),
    "fig6": (2, "203ea4fd70bc71961330993be1e76a6e33a83b6ff42fe6b2288f39aab0894342"),
}

# summary.json of the same runs as GOLDEN.
SUMMARY_JSON = {
    "fig2": "337946a46b662d6d1c25b84926693b4f1a52ca2a6bc404e721a23657affb340f",
    "fig3": "b4ea1984eac80d81d57adc0cee6b6575dd56ab82a9d65f68a63d8c72c905ba19",
    "fig5": "c99a36c55b6fe6289af59c6b4b58717cc913ecc4a0925ac490fdcb2ac69c3bb9",
    "fig6": "c7d966a18489bcd8e57a3e08509cedef89c15e8ba1759a4d81b9df8141682e3d",
}

# bundle.json of the same runs as GOLDEN.
BUNDLE_JSON = {
    "fig2": "6dc13d3a422d361d6f3aa1bb8e65d52bccf910c1bd7be2c9443086c087f62457",
    "fig3": "982d3c1f73fa65342d2937db00a9d444cf33ba22425b5dc39260f94e11b44c70",
    "fig5": "2efcabfab5b6636aee169fb148477a6381177ac9dff21288a970d98154dfd7eb",
    "fig6": "22a85df677628401be644bae2a365cf6a3ec1638b10dc13116cc4c52cc4df190",
}

# alperf plot of the same runs' raw.csv.
PLOT_SVG = {
    "fig2": "c218c8d9dfeb001c5d2e6fcd96bfe4011359ea9dc8c93b2c0c633602714cc4b1",
    "fig3": "9789c5ff182daee262f2dc193d95be57d2e096cb3d1bba98601d3bdfa89ec38d",
    "fig5": "398d4494392ff0d4eb1a4308153ce6bcd6eaf1bb3c33c671e71b883f3ef4845b",
    "fig6": "88bd8ef13308ba09d31e316de9a2e9137de015b67b21ee291203217387788eb1",
}

SCENARIO_ECHO = {
    "fig2": "c63968ebf7d5953c7ab79a6d16404053d5071973a9a9f6dc702218e0631a776a",
    "fig3": "61257ac476bf4bf3543e5d55f339798d3c011f32f3e5ec7bee6b9a8cdbfcc6ea",
    "fig5": "faa6ec0cf522db5fb884c8e4759e0ab29bb80fd8715f542c8fc6a675af400238",
    "fig6": "c4b746fca1dc3e376f1fff469fecc4d70dc0cdec42b3cfb4be7b82aeb7b3a99d",
}

# bundle.json and scenarios echo while a symmetric-mixture sampler also
# echoed its std and priors.
BUNDLE_JSON_BEFORE = {
    "fig5": "4afc7313b9f3836e5e4c7fa04c7f4912bfac325517bf7ff1e4aba64dd3a91a07",
    "fig6": "7cf465649ae1f388a55b4264b6e35312db76e86a1b30f375ce5af07522ce21d0",
}
SCENARIO_ECHO_BEFORE = {
    "fig5": "f4d5619b90a07e505f0fe26498e548c906f1e78ac47fbdbfbc28cda09b17a89e",
    "fig6": "16e5501fc00620586b36faba4c1d3576790c0fd6a39ec7e814d295f1e9d2ec16",
}

# fig5's bundle.json and scenarios echo while bias-sweep took d_grid and
# labeled_size (and a sampler its std and priors).
FIG5_BEFORE = {
    "bundle": "3a054a0dda1c01cf3e28da5b210519b85e24c5b3538fb0112207172bee34ddae",
    "echo": "d16487f142011daf9568d101e51ab5e26602c805a51737e4372a40256fc82ca5",
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


@pytest.mark.parametrize("name", sorted(BUNDLE_JSON))
def test_builtin_bundle_json_digest(builtin_run, name):
    bundle = (builtin_run(name) / "bundle.json").read_bytes()
    assert hashlib.sha256(bundle).hexdigest() == BUNDLE_JSON[name]


@pytest.mark.parametrize("name", sorted(PLOT_SVG))
def test_builtin_plot_svg_digest(builtin_run, name):
    out = builtin_run(name)
    assert cli_main(["plot", str(out / "raw.csv"), "--out", str(out / "plot.svg")]) == 0
    svg = (out / "plot.svg").read_bytes()
    assert hashlib.sha256(svg).hexdigest() == PLOT_SVG[name]


@pytest.mark.parametrize("name", sorted(SCENARIO_ECHO))
def test_builtin_scenario_echo_digest(capsys, name):
    assert cli_main(["scenarios", name]) == 0
    echo = capsys.readouterr().out
    assert hashlib.sha256(echo.encode("utf-8")).hexdigest() == SCENARIO_ECHO[name]


def _json_digest(document):
    """SHA-256 of a document as the CLI writes it."""
    return hashlib.sha256((json.dumps(document, indent=2) + "\n").encode("utf-8")).hexdigest()


def _with_sampler_width(document):
    """A resolved configuration as it read while a sampler also took ``std``
    and ``priors``: each symmetric-mixture sampler with its fixed width and
    equal weights after its kind and d."""
    samplers = [
        dict(s, std=0.25, priors=[0.5, 0.5]) if s["kind"] == "symmetric-mixture" else s
        for s in document["samplers"]
    ]
    return dict(document, samplers=samplers)


@pytest.mark.parametrize("name", sorted(SCENARIO_ECHO_BEFORE))
def test_echo_changed_only_the_sampler_width(builtin_run, capsys, name):
    assert cli_main(["scenarios", name]) == 0
    echo = json.loads(capsys.readouterr().out)
    assert _json_digest(_with_sampler_width(echo)) == SCENARIO_ECHO_BEFORE[name]
    bundle = json.loads((builtin_run(name) / "bundle.json").read_text(encoding="utf-8"))
    bundle["config"] = _with_sampler_width(bundle["config"])
    assert _json_digest(bundle) == BUNDLE_JSON_BEFORE[name]


def _fig5_document_before(document):
    """fig5's resolved configuration as bias-sweep's own keys gave it: the
    samplers' distances as ``d_grid`` and the single budget as
    ``labeled_size``, both after every other key."""
    assert all(
        s == {"kind": "symmetric-mixture", "d": s["d"], "std": 0.25, "priors": [0.5, 0.5]}
        for s in document["samplers"]
    )
    (labeled_size,) = document["budgets"]
    before = {k: v for k, v in document.items() if k not in ("samplers", "budgets")}
    return dict(before, labeled_size=labeled_size, d_grid=[s["d"] for s in document["samplers"]])


def test_fig5_echo_changed_only_its_keys(builtin_run, capsys):
    assert cli_main(["scenarios", "fig5"]) == 0
    echo = _with_sampler_width(json.loads(capsys.readouterr().out))
    assert _json_digest(_fig5_document_before(echo)) == FIG5_BEFORE["echo"]
    bundle = json.loads((builtin_run("fig5") / "bundle.json").read_text(encoding="utf-8"))
    renamed = {"samplers": "d_grid", "budgets": "labeled_size"}
    bundle["config"] = _fig5_document_before(_with_sampler_width(bundle["config"]))
    bundle["defaults_applied"] = [renamed.get(k, k) for k in bundle["defaults_applied"]]
    assert _json_digest(bundle) == FIG5_BEFORE["bundle"]
