"""Spans around alperf's public entry points, recorded from outside the package.

The wrappers replace module and class attributes. That reaches every call
because alperf looks its layers up as attributes at call time
(``synthdata.draw_labeled``, ``parzen.posterior_batch``, ``self.cdf``), and
because the CLI calls the names it imported into ``alperf.cli``.

Spans stay in memory as tuples ``(name, start, end, parent, run, count)``:
``parent`` is the index of the enclosing span (-1 at the root), ``run`` the
traced study run, and ``count`` a tuple of work counts taken from the call's
arguments. ``Tracer.write`` saves them once, when the benchmark ends.
"""

from __future__ import annotations

import csv
import os
import statistics
import time

ESTIMATOR_NAMES = (
    "generalization-error",
    "kfold-cv",
    "reweighted-cv",
    "self-label-cv",
    "probabilistic",
    "subsample-baseline",
    "true-baseline",
)

# Computed memory traffic of one kernel evaluation: the float64 entry of the
# n_query x n_train kernel matrix is written once and read once by the
# class-mass product. Cache behaviour is not modelled.
_KERNEL_BYTES_PER_EVAL = 16


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _kernel_count(args, kwargs, result):
    query, train = args[0], args[1]
    nq, nt = len(query), len(train)
    classes = result.shape[1]
    # query, train and label vectors in, one-hot matrix and masses out
    arrays = 8 * (nq + 2 * nt + nt * classes + nq * classes)
    return (nq * nt, nq * nt * _KERNEL_BYTES_PER_EVAL + arrays)


def _cdf_count(args, kwargs, result):
    estimate, t = args[0], args[1]
    if estimate.components is not None and 0.0 < t < 1.0:
        return (len(estimate.components),)
    return (0,)


def _kfold_name(args, kwargs):
    reweighted = _arg(args, kwargs, 4, "reweighted", False)
    return "estimators.reweighted-cv" if reweighted else "estimators.kfold-cv"


class Tracer:
    """Records nested spans of wrapped calls for one benchmark process."""

    def __init__(self):
        self.spans: list = []
        self.run = 0
        self._stack: list[int] = []
        self._saved: list = []

    def wrap(self, name, fn, count=None):
        """Return ``fn`` wrapped in a span. ``name`` may be a function of
        the call's arguments; ``count`` maps (args, kwargs, result) to a
        tuple of work counts."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                label = name if isinstance(name, str) else name(args, kwargs)
                spans[index] = (label, start, end, parent, self.run, ())
            if count is not None:
                spans[index] = spans[index][:5] + (count(args, kwargs, result),)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, alperf) -> None:
        """Wrap the public entry points of every alperf layer."""
        cli = alperf.cli
        synthdata, parzen, est = alperf.synthdata, alperf.parzen, alperf.estimators
        pe = est.PerformanceEstimate
        targets = [
            (cli, "resolve_config", "config.resolve", None),
            (cli, "run_experiment", "harness", None),
            (cli, "write_records_csv", "reporting.write",
             lambda a, k, r: (len(a[0]), os.path.getsize(a[1]))),
            (cli, "write_summary_json", "reporting.write",
             lambda a, k, r: (0, os.path.getsize(a[1]))),
            (cli, "read_records_csv", "reporting.read", None),
            (cli, "summarize_records", "reporting.summarize", None),
            (cli, "render_boxplots_svg", "svgplot.render", None),
            (synthdata, "draw_labeled", "synthdata", lambda a, k, r: (a[2],)),
            (synthdata, "draw_unlabeled", "synthdata", lambda a, k, r: (a[1],)),
            (synthdata, "draw_oracle_arrays", "synthdata", lambda a, k, r: (a[1],)),
            (parzen, "fit_arrays", "parzen.fit", None),
            (parzen, "class_kernel_mass", "parzen.kernel", _kernel_count),
            (parzen, "posterior_batch", "parzen.posterior", None),
            (est, "generalization_error_estimate",
             "estimators.generalization-error", None),
            (est, "kfold_cv_detail", _kfold_name, None),
            (est, "self_label_cv", "estimators.self-label-cv", None),
            (est, "probabilistic_performance", "estimators.probabilistic", None),
            (est, "subsample_baseline", "estimators.subsample-baseline", None),
            (est, "true_baseline", "estimators.true-baseline", None),
            (pe, "summary", "estimators.summary", None),
            (pe, "quantile", "estimators.quantile", None),
            (pe, "cdf", "estimators.cdf", _cdf_count),
        ]
        for owner, attr, name, count in targets:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, count))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def totals(self, run: int) -> dict:
        """Per span name: calls, inclusive seconds, self seconds and summed
        counts, over the spans of one traced run."""
        spans = self.spans
        self_s = {}
        for i, (_, start, end, parent, r, _) in enumerate(spans):
            if r != run:
                continue
            self_s[i] = self_s.get(i, 0.0) + (end - start)
            if parent >= 0:
                self_s[parent] = self_s.get(parent, 0.0) - (end - start)
        out: dict = {}
        for i, value in self_s.items():
            name, start, end, _, _, count = spans[i]
            entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "count": []})
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += value
            summed = entry["count"]
            summed.extend([0] * (len(count) - len(summed)))
            for j, c in enumerate(count):
                summed[j] += c
        return out

    def write(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["name", "start_s", "end_s", "parent", "run", "count"])
            for name, start, end, parent, run, count in self.spans:
                writer.writerow(
                    [name, f"{start:.9f}", f"{end:.9f}", parent, run,
                     " ".join(str(c) for c in count)]
                )


def layer_metrics(t: dict, run: dict) -> dict:
    """Per-layer metrics of one traced study run from ``Tracer.totals``.
    Times are divided by the run's slowdown, as the end-to-end times are."""
    slowdown = run["slowdown"]

    def get(name, key="s"):
        if key == "calls":
            return t.get(name, {}).get(key, 0)
        return t.get(name, {}).get(key, 0.0) / slowdown

    def count(name, j):
        summed = t.get(name, {}).get("count", [])
        return summed[j] if len(summed) > j else 0

    kernel_s = get("parzen.kernel")
    m = {
        "synthdata.calls": get("synthdata", "calls"),
        "synthdata.self_s": get("synthdata", "self_s"),
        "synthdata.samples": count("synthdata", 0),
        "parzen.fit_calls": get("parzen.fit", "calls"),
        "parzen.fit_s": get("parzen.fit"),
        "parzen.kernel_calls": get("parzen.kernel", "calls"),
        "parzen.kernel_s": kernel_s,
        "parzen.kernel_evals": count("parzen.kernel", 0),
        "parzen.kernel_bytes": count("parzen.kernel", 1),
        "parzen.kernel_evals_per_s": (
            count("parzen.kernel", 0) / kernel_s if kernel_s > 0 else 0.0
        ),
        "parzen.posterior_s": get("parzen.posterior", "self_s"),
    }
    for name in ESTIMATOR_NAMES:
        m[f"estimators.{name}_calls"] = get(f"estimators.{name}", "calls")
        m[f"estimators.{name}_s"] = get(f"estimators.{name}")
    m.update({
        "estimators.summary_s": get("estimators.summary"),
        "estimators.summary_calls": get("estimators.summary", "calls"),
        "estimators.quantile_calls": get("estimators.quantile", "calls"),
        "estimators.cdf_calls": get("estimators.cdf", "calls"),
        "estimators.cdf_component_evals": count("estimators.cdf", 0),
        "harness.self_s": get("harness", "self_s"),
        "reporting.write_s": get("reporting.write"),
        "reporting.read_s": get("reporting.read"),
        "reporting.summarize_s": get("reporting.summarize"),
        "reporting.rows": count("reporting.write", 0),
        "reporting.bytes_written": count("reporting.write", 1),
        "svgplot.render_s": get("svgplot.render"),
        "config.resolve_s": get("config.resolve"),
        "cli.self_s": get("cli", "self_s"),
        "trace.coverage": sum(v["self_s"] for v in t.values()) / run["run_s"],
    })
    return m


def median_metrics(per_run: list[dict]) -> dict:
    """Median over traced runs; counts stay whole numbers."""
    out = {}
    for key in per_run[0]:
        values = [d[key] for d in per_run]
        if all(isinstance(v, int) for v in values):
            out[key] = statistics.median_low(values)
        else:
            out[key] = statistics.median(values)
    return out
