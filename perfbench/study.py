"""One benchmark process: repeated alperf study runs of one workload.

Run by ``run.py``, never directly by the user. Each study run is
``alperf run`` followed by ``alperf plot`` on the resulting ``raw.csv``,
both in-process through ``alperf.cli.cli_main``. The runs form one closed
loop: the next starts only when the previous one has finished and its
outputs have been checked.

Modes:
  --probe   import alperf, write the config and start ``alperf run``; print
            the monotonic clock at the moment ``run_experiment`` is entered,
            then stop. ``run.py`` turns that into ``setup_s``.
  default   measure for ``--seconds`` and print one JSON line of results.
            With ``--trace 1`` untraced and traced runs alternate.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import mmap
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench_work"

RAW_HEADER = (
    "scenario,repetition,sampler,budget,estimator,estimate_mean,estimate_median,"
    "estimate_q25,estimate_q75,true_baseline,wall_ms"
)
# At least this many study runs per measurement, however long each takes.
MIN_RUNS = 4
# The untimed warm-up run uses a worker pool of this size. Every timed run
# uses one worker and must reproduce the warm-up's raw.csv byte for byte.
REFERENCE_WORKERS = 2
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


# Load from other tenants of the host changes how fast this process runs by
# up to ~1.7x, switching within seconds; CPU time inflates with wall time, and
# system time (page faults) varies on its own. So every measured interval is
# bracketed by a fixed calibration loop of NumPy ufunc work, interpreter work
# and page faults; the loop's time over REFERENCE_CAL_S is the slowdown during
# that interval, and reported times are divided by it. They are in reference
# seconds: seconds at the speed where the loop takes REFERENCE_CAL_S.
REFERENCE_CAL_S = 0.1


def calibrate() -> float:
    """Seconds taken by the fixed calibration loop."""
    import numpy

    grid = numpy.linspace(-3.0, 3.0, 60_000).reshape(2000, 30)
    # Preallocated output and fresh anonymous maps: the loop's speed must not
    # depend on the state the measured program left the allocator in.
    buf = numpy.empty_like(grid)
    start = time.perf_counter()
    for _ in range(500):
        numpy.multiply(grid, grid, out=buf)
        numpy.negative(buf, out=buf)
        numpy.exp(buf, out=buf)
    total = 0
    for i in range(300_000):
        total += i * i
    # Small maps, so that the loop adds little to the process's peak RSS.
    for _ in range(80):
        with mmap.mmap(-1, 512 << 10) as pages:
            for offset in range(0, len(pages), mmap.PAGESIZE):
                pages[offset] = 1
    return time.perf_counter() - start


def slowdowns(calibrations: list[float]) -> list[float]:
    """Slowdown of each interval between consecutive calibrations."""
    return [(a + b) / 2 / REFERENCE_CAL_S for a, b in zip(calibrations, calibrations[1:])]


@dataclass(frozen=True)
class Workload:
    builtin: str  # built-in config the study starts from, shipped values kept
    repetitions: int  # replaces the built-in repetition count
    rows_per_rep: int  # raw.csv rows one repetition must produce
    units_per_rep: int  # harness units of work (sampler x repetition)


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "comparison": Workload("fig6", 10, 54, 3),
    "eval-size": Workload("fig2", 600, 4, 1),
}


class _SetupDone(Exception):
    pass


def _import_alperf():
    src = ROOT / "src"
    if not (src / "alperf" / "cli.py").is_file():
        raise SystemExit(f"alperf sources not found under {src}")
    sys.path.insert(0, str(src))
    import alperf.cli
    import alperf.estimators
    import alperf.parzen
    import alperf.synthdata

    return alperf


def _write_config(alperf, workload: Workload, path: Path) -> Path:
    document = dict(alperf.config.BUILTIN_SCENARIOS[workload.builtin].config)
    document["repetitions"] = workload.repetitions
    path.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
    return path


def probe(name: str, seed: int) -> None:
    """Stop at the first ``run_experiment`` call and print the clock."""
    workload = WORKLOADS[name]
    alperf = _import_alperf()
    work = WORK_DIR / name
    work.mkdir(parents=True, exist_ok=True)
    config = _write_config(alperf, workload, work / "probe-config.json")
    reached = []

    def stop(spec, workers=1):
        reached.append(time.monotonic())
        raise _SetupDone

    alperf.cli.run_experiment = stop
    argv = ["run", "--config", str(config), "--out", str(work / "probe-out"),
            "--seed", str(seed)]
    try:
        alperf.cli.cli_main(argv)
    except _SetupDone:
        print(json.dumps({"reached": reached[0]}))
        return
    raise SystemExit("alperf run returned before calling run_experiment")


def environment() -> dict:
    import numpy
    import scipy
    import multiprocessing

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "start_method": multiprocessing.get_start_method(),
        "blas_pin": {k: os.environ.get(k, "unset") for k in BLAS_THREAD_VARS},
    }


def check_outputs(out: Path, expected_rows: int) -> tuple[str, float, list[str]]:
    """Check one study run's files. Returns the SHA-256 of raw.csv without
    its wall_ms column, the summed wall_ms, and the problems found."""
    from alperf.reporting import read_records_csv, summarize_records

    problems = []
    lines = (out / "raw.csv").read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != RAW_HEADER:
        problems.append(f"raw.csv header is {lines[:1]!r}")
    if len(lines) - 1 != expected_rows:
        problems.append(f"raw.csv has {len(lines) - 1} rows, expected {expected_rows}")
    wall_ms = 0.0
    for number, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        try:
            values = [float(v) for v in fields[5:10]]
            wall_ms += float(fields[10])
        except (ValueError, IndexError):
            problems.append(f"raw.csv line {number} is malformed: {line!r}")
            break
        if not all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in values):
            problems.append(f"raw.csv line {number} has a value outside [0,1]: {line!r}")
            break
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    if summary != {"groups": summarize_records(read_records_csv(out / "raw.csv"))}:
        problems.append("summary.json differs from summarize_records(raw.csv)")
    if "<svg" not in (out / "boxplots.svg").read_text(encoding="utf-8")[:500]:
        problems.append("boxplots.svg holds no SVG document")
    kept = "".join(line.rsplit(",", 1)[0] + "\n" for line in lines)
    return hashlib.sha256(kept.encode("utf-8")).hexdigest(), wall_ms, problems


def _check_run(run: dict, out: Path, expected_rows: int, ref_digest) -> str | None:
    """Check a finished study run and record its problems in ``run``.
    Returns the raw.csv digest, or None when the files could not be read."""
    problems = run.setdefault("problems", [])
    if run["codes"] != (0, 0):
        problems.append(f"exit codes {run['codes']}")
        return None
    try:
        digest, run["wall_ms"], found = check_outputs(out, expected_rows)
    except Exception:
        traceback.print_exc()
        problems.append("output check raised")
        return None
    problems += found
    if ref_digest is not None and digest != ref_digest:
        problems.append(f"raw.csv digest {digest} differs from the reference {ref_digest}")
    return digest


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def study_run(cli_main, config: Path, out: Path, seed: int, workers: int) -> dict:
    """One timed ``alperf run`` + ``alperf plot``."""
    argv_run = ["run", "--config", str(config), "--out", str(out),
                "--seed", str(seed), "--workers", str(workers)]
    argv_plot = ["plot", str(out / "raw.csv"), "--out", str(out / "boxplots.svg")]
    self0 = resource.getrusage(resource.RUSAGE_SELF)
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        codes = (cli_main(argv_run), cli_main(argv_plot))
    run_s = time.perf_counter() - start
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    children_cpu_s = _cpu(kids1) - _cpu(kids0)
    return {
        "run_s": run_s,
        "cpu_s": _cpu(self1) - _cpu(self0) + children_cpu_s,
        "children_cpu_s": children_cpu_s,
        "codes": codes,
    }


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from tracing import Tracer, layer_metrics, median_metrics

    workload = WORKLOADS[name]
    alperf = _import_alperf()
    work = WORK_DIR / name
    work.mkdir(parents=True, exist_ok=True)
    config = _write_config(alperf, workload, work / "config.json")
    expected_rows = workload.rows_per_rep * workload.repetitions
    cli_main = alperf.cli.cli_main

    # The first run pays lazy imports and first-call costs and is not timed.
    # It runs on a worker pool and is the reference that every one-worker
    # run's raw.csv must match byte for byte.
    calibrations = [calibrate()]
    reference = study_run(cli_main, config, work / "reference", seed, REFERENCE_WORKERS)
    calibrations.append(calibrate())
    ref_digest = _check_run(reference, work / "reference", expected_rows, None)

    tracer = Tracer()
    runs = []
    started = time.perf_counter()
    while True:
        traced = trace and len(runs) % 2 == 1
        out = work / "out"
        main = cli_main
        if traced:
            tracer.run = len(runs)
            tracer.install(alperf)
            main = tracer.wrap("cli", cli_main)
        run = {"traced": traced, "problems": []}
        try:
            run.update(study_run(main, config, out, seed, 1))
        except Exception:
            traceback.print_exc()
            run["problems"].append("study run raised")
        finally:
            if traced:
                tracer.uninstall()
        if "run_s" in run:
            _check_run(run, out, expected_rows, ref_digest)
        runs.append(run)
        calibrations.append(calibrate())
        elapsed = time.perf_counter() - started
        if len(runs) >= MIN_RUNS and elapsed + run.get("run_s", 0.0) > seconds:
            break

    for run, slowdown in zip([reference] + runs, slowdowns(calibrations)):
        run["slowdown"] = slowdown
    failed = [r for r in runs + [reference] if r["problems"]]
    timed = [r for r in runs if "run_s" in r]
    plain = [r for r in timed if not r["traced"]]
    if not plain:
        raise SystemExit("no study run finished")
    run_s = statistics.median(r["run_s"] / r["slowdown"] for r in plain)
    metrics = {
        "run_s": run_s,
        "records_per_s": statistics.median(
            expected_rows * r["slowdown"] / r["run_s"] for r in plain
        ),
        "cpu_s": statistics.median(r["cpu_s"] / r["slowdown"] for r in plain),
        "peak_rss_mb": max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        ) / 1024.0,
        "ok_share": 1.0 - len(failed) / (len(runs) + 1),
    }
    if trace:
        traced_runs = [(i, r) for i, r in enumerate(runs) if r["traced"] and "run_s" in r]
        layers = median_metrics([
            layer_metrics(tracer.totals(i), r) for i, r in traced_runs
        ])
        # The pool is measured on the warm-up run only: timed runs use one worker.
        layers["harness.children_cpu_s"] = reference["children_cpu_s"] / reference["slowdown"]
        layers["harness.pool_busy_share"] = reference["children_cpu_s"] / (
            REFERENCE_WORKERS * reference["run_s"]
        )
        layers["harness.units"] = workload.units_per_rep * workload.repetitions
        layers["harness.records"] = expected_rows
        covered = [r["wall_ms"] / 1000.0 / r["run_s"] for r in plain if "wall_ms" in r]
        layers["harness.wall_ms_coverage"] = statistics.median(covered) if covered else 0.0
        layers["trace.overhead_s"] = (
            statistics.median(r["run_s"] / r["slowdown"] for _, r in traced_runs) - run_s
        )
        layers["bench.wall_run_s"] = statistics.median(r["run_s"] for r in plain)
        layers["bench.slowdown"] = statistics.median(r["slowdown"] for r in plain)
        metrics.update(layers)
        tracer.write(work / "spans.csv")
    return {
        "attempted": len(runs) + 1,
        "failed": len(failed),
        "problems": sorted({p for r in runs + [reference] for p in r["problems"]}),
        "digest": ref_digest,
        "runs_timed": len(plain),
        "run_s_samples": [r["run_s"] for r in plain],
        "slowdown_samples": [r["slowdown"] for r in plain],
        "runs_traced": len(timed) - len(plain),
        "metrics": metrics,
        "environment": environment(),
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)
    if args.probe:
        probe(args.workload, args.seed)
    else:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result))


if __name__ == "__main__":
    main()
