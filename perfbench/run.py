"""Benchmark of alperf's built-in studies, end to end and layer by layer.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``study.WORKLOADS`` and README.md): comparison, eval-size. The seed becomes the study's ``--seed``.

With ``--trace 0`` the command measures set-up time in fresh processes, then
runs the study repeatedly for S seconds in one process and reports the
end-to-end metrics. With ``--trace 1`` it alternates untraced and traced
study runs and reports the per-layer metrics. Metric names and units come
from BENCHMARK.json. Every study run's outputs are checked; the last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from study import ROOT, WORKLOADS, calibrate, slowdowns

HERE = Path(__file__).resolve().parent
STUDY = HERE / "study.py"
# Fresh processes timed for setup_s; the median is reported.
SETUP_PROBES = 5
# The whole command must end within this many seconds.
DEADLINE_S = 175.0


def _last_json_line(stdout: str) -> dict:
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise RuntimeError("the study process printed nothing")
    return json.loads(lines[-1])


def setup_times(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Process start to the first run_experiment call, once per probe, as
    wall seconds and as reference seconds (see study.REFERENCE_CAL_S)."""
    wall, calibrations = [], [calibrate()]
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(STUDY), "--probe", "--workload", workload,
             "--seed", str(seed)],
            stdout=subprocess.PIPE, text=True, timeout=60, check=True,
        )
        wall.append(_last_json_line(proc.stdout)["reached"] - start)
        calibrations.append(calibrate())
    return wall, [t / s for t, s in zip(wall, slowdowns(calibrations))]


def high_percentile(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, if any."""
    n = len(values)
    if n < 20:
        return "no high percentile: fewer than 10 samples beyond any above p50"
    p = int(100 * (1 - 10 / n))
    cut = statistics.quantiles(values, n=100)[p - 1]
    return f"p{p} {cut:.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    began = time.monotonic()
    if not (ROOT / "src" / "alperf" / "cli.py").is_file():
        print(f"error: no alperf sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    setup_wall, setup = ([], []) if args.trace else setup_times(args.workload, args.seed)
    proc = subprocess.run(
        [sys.executable, str(STUDY), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        stdout=subprocess.PIPE, text=True, check=True,
        timeout=DEADLINE_S - (time.monotonic() - began),
    )
    result = _last_json_line(proc.stdout)
    values = dict(result["metrics"])
    if setup:
        values["setup_s"] = statistics.median(setup)

    envinfo = result["environment"]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    print("environment: " + "  ".join(f"{k}={v}" for k, v in envinfo.items()))
    print(f"raw.csv sha256 without wall_ms: {result['digest']}")
    print(f"study runs: {result['attempted']} attempted, {result['failed']} failed, "
          f"failed_share {result['failed'] / result['attempted']:.6g}; "
          f"{result['runs_timed']} timed untraced, {result['runs_traced']} traced")
    for problem in result["problems"]:
        print(f"check failed: {problem}")
    if setup:
        print(f"setup wall seconds: {' '.join(f'{t:.4f}' for t in setup_wall)}")
        print(f"setup reference seconds: {' '.join(f'{t:.4f}' for t in setup)}")
    samples = result["run_s_samples"]
    print(f"run wall seconds: {' '.join(f'{t:.4f}' for t in samples)}")
    print(f"run slowdowns: {' '.join(f'{t:.3f}' for t in result['slowdown_samples'])}")
    print(f"run wall seconds: median {statistics.median(samples):.6g} of {len(samples)} "
          f"runs, {high_percentile(samples)}")
    metrics = {}
    for m in wanted:
        value = values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']} = {value:.6g} {m['unit']}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
