"""Which commands load scipy, numpy.random and the process pool, checked in
fresh interpreters.

alperf imports no scipy: a Beta mixture's log B and incomplete Beta function
are computed with numpy alone. So no built-in study, fig6's Beta mixtures
included, loads scipy on one or two workers, and neither do ``report``,
``plot`` and ``scenarios``. Only ``run_experiment`` on two or more workers imports
``concurrent.futures``, and with it ``multiprocessing``. The test process
itself has these loaded, so every check runs its commands in a subprocess.
Importing the CLI loads no ``numpy.random`` module either: only the first
random stream a run builds needs it. A scan of the source checks that no
alperf module reads another module's private (underscore) names.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import alperf

SRC = str(Path(alperf.__file__).resolve().parents[1])

# argv: out directory, built-in name, repetitions, then one --workers count
# per run. Runs the built-in once per count, into out/w<count>, and after the
# first run also report, plot and scenarios. Prints the scipy, concurrent and
# multiprocessing modules loaded after importing alperf.cli and after each step.
SCRIPT = """
import json, sys
from pathlib import Path
from alperf.cli import cli_main
from alperf.config import BUILTIN_SCENARIOS

WATCHED = ("scipy", "concurrent", "multiprocessing")

def watched_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] in WATCHED)

loaded = {"import": watched_modules()}

out, name, reps = Path(sys.argv[1]), sys.argv[2], int(sys.argv[3])
document = dict(BUILTIN_SCENARIOS[name].config, repetitions=reps)
config = out / "config.json"
config.write_text(json.dumps(document))
for workers in sys.argv[4:]:
    run = out / ("w" + workers)
    argv = ["run", "--config", str(config), "--out", str(run), "--workers", workers]
    assert cli_main(argv) == 0
    loaded["run-w" + workers] = watched_modules()
    if workers == sys.argv[4]:
        raw = str(run / "raw.csv")
        assert cli_main(["report", raw, "--out", str(out / "s.json")]) == 0
        assert cli_main(["plot", raw, "--out", str(out / "p.svg")]) == 0
        assert cli_main(["scenarios"]) == 0
        assert cli_main(["scenarios", name]) == 0
        loaded["report-plot-scenarios"] = watched_modules()
print(json.dumps(loaded))
"""


def _python(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *argv],
        env=env, stdout=subprocess.PIPE, text=True, timeout=300, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def _run(tmp_path, name, reps, *workers):
    return _python("-c", SCRIPT, str(tmp_path), name, str(reps), *map(str, workers))


def test_importing_the_cli_loads_no_numpy_random():
    loaded = _python(
        "-c",
        "import json, sys, alperf.cli; print(json.dumps(sorted(m for m in sys.modules"
        " if m == 'numpy.random' or m.startswith('numpy.random.'))))",
    )
    assert loaded == []


def _csv_without_wall(path):
    return [line.rsplit(",", 1)[0] for line in path.read_text().splitlines()]


@pytest.mark.parametrize("name", ["fig2", "fig3", "fig5", "fig6"])
def test_no_builtin_loads_scipy(tmp_path, name):
    assert _run(tmp_path, name, 2, 1) == {
        "import": [], "run-w1": [], "report-plot-scenarios": [],
    }


def test_fig2_loads_the_process_pool_only_on_two_workers(tmp_path):
    loaded = _run(tmp_path, "fig2", 2, 1, 2)
    assert loaded["import"] == loaded["run-w1"] == loaded["report-plot-scenarios"] == []
    assert {"concurrent.futures", "multiprocessing"} <= set(loaded["run-w2"])
    assert not any(m.split(".")[0] == "scipy" for m in loaded["run-w2"])
    assert _csv_without_wall(tmp_path / "w2" / "raw.csv") == _csv_without_wall(
        tmp_path / "w1" / "raw.csv"
    )


def test_fig6_loads_no_scipy_on_one_or_two_workers_with_identical_output(tmp_path):
    loaded = _run(tmp_path, "fig6", 2, 2, 1)
    # This process summarizes the Beta mixtures on 1 worker; on 2 its forked
    # workers do, from the source test_alperf_source_imports_no_scipy reads.
    for step in ("import", "run-w2", "run-w1", "report-plot-scenarios"):
        assert not any(m.split(".")[0] == "scipy" for m in loaded[step]), step
    assert _csv_without_wall(tmp_path / "w2" / "raw.csv") == _csv_without_wall(
        tmp_path / "w1" / "raw.csv"
    )


def test_alperf_source_imports_no_scipy():
    for path in Path(SRC, "alperf").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(n.split(".")[0] == "scipy" for n in names), (path.name, names)


def _private_reads(path, modules):
    """``module._name`` reads, and ``from .module import _name`` imports, in
    the source at ``path`` of a private name of another alperf module, as
    (line, text) pairs. ``modules`` holds the package's module names."""
    own, aliases, found = path.stem, {}, []
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            # "" for the package itself, else the module imported from
            module = node.module or ""
            if node.level == 0:
                if module.split(".")[0] != "alperf":
                    continue
                module = module.removeprefix("alperf").lstrip(".")
            for alias in node.names:
                if not module and alias.name in modules:
                    aliases[alias.asname or alias.name] = alias.name
                elif module in modules and module != own and _private(alias.name):
                    found.append((node.lineno, f"from {module} import {alias.name}"))
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and aliases.get(node.value.id, own) != own
            and _private(node.attr)
        ):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return sorted(found)


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_no_module_reads_another_modules_private_names():
    paths = sorted(Path(SRC, "alperf").glob("*.py"))
    modules = {path.stem for path in paths}
    found = {path.name: _private_reads(path, modules) for path in paths}
    assert {name: reads for name, reads in found.items() if reads} == {}
