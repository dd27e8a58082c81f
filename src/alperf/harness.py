"""Experiment scenarios, deterministic seeding, and the repetition runner.

Four scenarios are implemented:

* ``eval-size-distribution`` — one fixed classifier, repeatedly evaluated
  on fresh unbiased sets of increasing size, showing how unstable small
  evaluation sets are.
* ``cv-folds`` — one fixed labeled set, cross-validated with different
  fold counts, showing the bias induced by shrinking the training side.
* ``bias-sweep`` — labeled sets acquired at increasing distance from the
  decision boundary, comparing internal cross-validation against a
  hold-out truth.
* ``estimator-comparison`` — nested label budgets per acquisition
  sequence, with every configured estimator applied to each budget prefix
  under unbiased, boundary-focused and boundary-avoiding acquisition.

Every scenario is one entry of a table: ``units(spec)`` lists its
independent units of work and ``run_unit(spec, unit)`` turns one unit into
records. ``run_experiment`` runs any scenario through that table.

All randomness flows through ``derive_substream``: every unit of work owns
a (master_seed, path) pair, so repetitions are independent, results do not
depend on the worker count, and deleting one repetition leaves the others
bit-identical.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from functools import partial
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import estimators, parzen, synthdata
from .errors import ValidationError
from .parzen import ClassifierConfig
from .synthdata import LabeledSet, SamplingDistribution, TaskModel

EVAL_SIZE_DISTRIBUTION = "eval-size-distribution"
CV_FOLDS = "cv-folds"
BIAS_SWEEP = "bias-sweep"
ESTIMATOR_COMPARISON = "estimator-comparison"
SCENARIOS = (EVAL_SIZE_DISTRIBUTION, CV_FOLDS, BIAS_SWEEP, ESTIMATOR_COMPARISON)

GENERALIZATION_ERROR = "generalization-error"
KFOLD_CV = "kfold-cv"
REWEIGHTED_CV = "reweighted-cv"
SELF_LABEL_CV = "self-label-cv"
PROBABILISTIC = "probabilistic"
SUBSAMPLE_BASELINE = "subsample-baseline"


class EstimatorEntry(NamedTuple):
    """What the harness knows about one estimator."""

    reads: tuple[str, ...]  # the EstimatorSpec fields it reads
    id_template: str  # record id, formatted with k and the count-mode and cap tags
    run: Callable  # run(spec, espec, labeled, pool, model, budget, truth, rng)


# Each run looks its function up in ``estimators`` at call time, so a wrapper
# installed there reaches it.
ESTIMATOR_TABLE = {
    GENERALIZATION_ERROR: EstimatorEntry(
        (), "generalization-error",
        lambda spec, e, labeled, pool, model, budget, truth, rng:
            estimators.generalization_error_estimate(model, pool),
    ),
    KFOLD_CV: EstimatorEntry(
        ("k",), "cv-{k}fold",
        lambda spec, e, labeled, pool, model, budget, truth, rng:
            estimators.kfold_cv(labeled, e.k, spec.classifier, rng),
    ),
    REWEIGHTED_CV: EstimatorEntry(
        ("k", "weight_cap"), "reweighted-cv-{k}fold{cap}",
        lambda spec, e, labeled, pool, model, budget, truth, rng: estimators.kfold_cv(
            labeled, e.k, spec.classifier, rng, reweighted=True, weight_cap=e.weight_cap
        ),
    ),
    SELF_LABEL_CV: EstimatorEntry(
        ("k",), "self-label-cv-{k}fold",
        lambda spec, e, labeled, pool, model, budget, truth, rng:
            estimators.self_label_cv(model, pool, e.k, rng),
    ),
    PROBABILISTIC: EstimatorEntry(
        ("count_mode",), "probabilistic{count_mode}",
        lambda spec, e, labeled, pool, model, budget, truth, rng:
            estimators.probabilistic_performance(model, pool, e.count_mode),
    ),
    SUBSAMPLE_BASELINE: EstimatorEntry(
        (), "subsample-baseline",
        lambda spec, e, labeled, pool, model, budget, truth, rng:
            estimators.subsample_baseline(truth, budget, spec.subsample_reps, rng),
    ),
}
# How each count mode appears in a record id.
_COUNT_MODE_ID = {estimators.KERNEL_COUNT: "", estimators.HARD_COUNT: "-hard"}


def derive_substream(master_seed: int, path: Sequence[int]) -> np.random.Generator:
    """Deterministic, collision-resistant stream for a (seed, path) pair.

    Identical (seed, path) always yields the identical stream; distinct
    paths behave independently. Backed by counter-style seed-sequence
    mixing of the path into the master seed.
    """
    if master_seed < 0:
        raise ValidationError(f"master_seed must be >= 0, got {master_seed}")
    key = tuple(int(p) for p in path)
    if any(p < 0 for p in key):
        raise ValidationError(f"substream path entries must be >= 0, got {key}")
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=key))


# ---------------------------------------------------------------------------
# Summary statistics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoxplotStats:
    """Boxplot summary; whiskers reach the furthest datum within 1.5 IQR."""

    mean: float
    median: float
    q25: float
    q75: float
    whisker_low: float
    whisker_high: float
    n: int


def summarize(values: Sequence[float]) -> BoxplotStats:
    """Boxplot statistics with linearly interpolated quartiles
    (``estimators.percentiles``, equal to ``numpy.percentile`` bit for bit)."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ValidationError("cannot summarize an empty value list")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("cannot summarize non-finite values")
    q25, median, q75 = estimators.percentiles(arr, (25.0, 50.0, 75.0))
    iqr = q75 - q25
    low_limit = q25 - 1.5 * iqr
    high_limit = q75 + 1.5 * iqr
    return BoxplotStats(
        mean=float(arr.mean()),
        median=median,
        q25=q25,
        q75=q75,
        whisker_low=float(arr[arr >= low_limit].min()),
        whisker_high=float(arr[arr <= high_limit].max()),
        n=int(arr.size),
    )


# ---------------------------------------------------------------------------
# Specs and records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EstimatorSpec:
    """One estimator to run, with its parameters."""

    name: str
    k: int = 3
    weight_cap: float | None = None
    count_mode: str = estimators.KERNEL_COUNT

    def __post_init__(self):
        if self.name not in ESTIMATOR_TABLE:
            raise ValidationError(f"unknown estimator {self.name!r}")
        reads = ESTIMATOR_TABLE[self.name].reads
        for f in fields(self):
            if f.name not in ("name", *reads) and getattr(self, f.name) != f.default:
                raise ValidationError(f"estimator {self.name} does not take {f.name}")
        if "k" in reads and self.k < 2:
            raise ValidationError(f"estimator {self.name}: k must be >= 2, got {self.k}")
        if self.weight_cap is not None and not self.weight_cap > 0.0:
            raise ValidationError(
                f"estimator {self.name}: weight_cap must be > 0, got {self.weight_cap}"
            )
        if not isinstance(self.count_mode, str) or self.count_mode not in _COUNT_MODE_ID:
            raise ValidationError(
                f"estimator {self.name}: unknown count_mode {self.count_mode!r}"
            )

    def estimator_id(self) -> str:
        """Stable identifier used in records, files and plots."""
        template = ESTIMATOR_TABLE[self.name].id_template
        # An uncapped estimator has no cap tag; a capped one ends in e.g. "-cap5".
        cap = (
            "" if self.weight_cap is None
            else "-cap" + repr(float(self.weight_cap)).removesuffix(".0")
        )
        return template.format(k=self.k, count_mode=_COUNT_MODE_ID[self.count_mode], cap=cap)


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything needed to reproduce one experiment run.

    Construction checks every range and cross-field rule, so an invalid
    spec fails before any computation, whether it comes from a JSON config
    or from Python. ``budgets`` and ``repetitions`` differ by scenario, so
    they have no default here; the other defaults hold for every scenario.
    """

    scenario: str
    task: TaskModel
    samplers: tuple[SamplingDistribution, ...]
    classifier: ClassifierConfig
    estimators: tuple[EstimatorSpec, ...]
    budgets: tuple[int, ...]
    repetitions: int
    pool_size: int = 1000
    subsample_reps: int = 100
    master_seed: int = 0
    train_size: int = 100

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValidationError(f"unknown scenario {self.scenario!r}")
        for name in ("repetitions", "train_size", "pool_size", "subsample_reps"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not self.budgets:
            raise ValidationError("budgets must be nonempty")
        if any(b < 1 for b in self.budgets):
            raise ValidationError(f"budgets must be >= 1, got {list(self.budgets)}")
        if any(a >= b for a, b in zip(self.budgets, self.budgets[1:])):
            raise ValidationError("budgets must be strictly increasing")
        if self.master_seed < 0:
            raise ValidationError(f"master_seed must be >= 0, got {self.master_seed}")
        if not self.samplers:
            raise ValidationError("at least one sampler is required")
        if not self.estimators:
            raise ValidationError("at least one estimator is required")
        if self.classifier.class_count != self.task.class_count:
            raise ValidationError(
                f"classifier.class_count is {self.classifier.class_count}, "
                f"but the task has {self.task.class_count} classes"
            )
        ids = [e.estimator_id() for e in self.estimators]
        if len(set(ids)) != len(ids):
            raise ValidationError("estimators must be unique (duplicate estimator id)")
        labels = [s.label() for s in self.samplers]
        if len(set(labels)) != len(labels):
            raise ValidationError(f"samplers must be unique, got labels {labels}")
        if PROBABILISTIC in (e.name for e in self.estimators) and self.task.class_count != 2:
            raise ValidationError(
                f"the {PROBABILISTIC} estimator needs a 2-class task, "
                f"got {self.task.class_count} classes"
            )
        if self.scenario in (EVAL_SIZE_DISTRIBUTION, CV_FOLDS) and len(self.samplers) != 1:
            raise ValidationError(f"{self.scenario} uses exactly one sampler")
        if self.scenario == EVAL_SIZE_DISTRIBUTION and ids != [SUBSAMPLE_BASELINE]:
            raise ValidationError(
                "eval-size-distribution supports only the subsample-baseline estimator"
            )
        if self.scenario in (CV_FOLDS, BIAS_SWEEP) and len(self.budgets) != 1:
            raise ValidationError(
                f"{self.scenario} uses exactly one budget (the labeled-set size)"
            )
        if self.scenario == CV_FOLDS:
            bad = [e.name for e in self.estimators if e.name not in (KFOLD_CV, REWEIGHTED_CV)]
            if bad:
                raise ValidationError(
                    f"cv-folds supports only the CV estimators {KFOLD_CV} and "
                    f"{REWEIGHTED_CV}, got {bad}"
                )
        if self.scenario == BIAS_SWEEP:
            if [e.name for e in self.estimators] != [KFOLD_CV]:
                raise ValidationError("bias-sweep runs exactly one kfold-cv estimator")
            ds = [s.d for s in self.samplers]
            if (
                any(s.kind != synthdata.SYMMETRIC_MIXTURE for s in self.samplers)
                or ds[0] <= 0.0
                or any(a >= b for a, b in zip(ds, ds[1:]))
            ):
                raise ValidationError(
                    "bias-sweep needs symmetric-mixture samplers whose distances "
                    f"(the d_grid) are positive and strictly increasing, got {labels}"
                )
        for i, e in enumerate(self.estimators):
            if "k" in ESTIMATOR_TABLE[e.name].reads and e.k > min(self.budgets):
                raise ValidationError(
                    f"estimators[{i}] ({ids[i]}): k={e.k} exceeds the smallest budget "
                    f"({min(self.budgets)})"
                )


@dataclass(frozen=True)
class RunRecord:
    """One estimator evaluation inside one repetition."""

    scenario: str
    repetition: int
    sampler: str
    budget: int
    estimator: str
    estimate_mean: float
    estimate_median: float
    estimate_q25: float
    estimate_q75: float
    true_baseline: float
    wall_ms: float

    def sort_key(self) -> tuple:
        return (self.repetition, self.sampler, self.budget, self.estimator)


def _record(
    scenario: str,
    repetition: int,
    sampler: str,
    budget: int,
    estimator: str,
    estimate: estimators.PerformanceEstimate,
    true_baseline: float,
    t0: float,
) -> RunRecord:
    """The record of one estimate. Callers take ``t0`` right before the
    estimator call; the summary is taken here, so ``wall_ms`` covers both."""
    summary = estimate.summary()
    return RunRecord(
        scenario=scenario,
        repetition=repetition,
        sampler=sampler,
        budget=budget,
        estimator=estimator,
        estimate_mean=summary["mean"],
        estimate_median=summary["median"],
        estimate_q25=summary["q25"],
        estimate_q75=summary["q75"],
        true_baseline=true_baseline,
        wall_ms=(time.perf_counter() - t0) * 1000.0,
    )


# ---------------------------------------------------------------------------
# Scenario: eval-size-distribution
# ---------------------------------------------------------------------------


def _eval_size_units(spec: ExperimentSpec) -> list:
    """One fixed classifier, repeatedly evaluated on fresh sets of each size:
    one unit per repetition, all sharing the classifier's exact accuracy.

    The budget column of the resulting records carries the evaluation-set
    size; each repetition contributes one accuracy value per size, a
    Binomial(size, accuracy) / size draw.
    """
    train_rng = derive_substream(spec.master_seed, (0, 0))
    training = synthdata.draw_labeled(spec.task, spec.samplers[0], spec.train_size, train_rng)
    model = parzen.fit_arrays(training.xs, training.ys, spec.classifier)
    truth = estimators.true_baseline(model, spec.task)
    return [(truth, rep) for rep in range(spec.repetitions)]


def _eval_size_unit(spec: ExperimentSpec, unit) -> list[RunRecord]:
    truth, rep = unit
    records = []
    for i, size in enumerate(spec.budgets):
        rng = derive_substream(spec.master_seed, (1, rep, i))
        t0 = time.perf_counter()
        estimate = estimators.subsample_baseline(truth, size, 1, rng)
        records.append(
            _record(
                spec.scenario, rep, spec.samplers[0].label(), size,
                SUBSAMPLE_BASELINE, estimate, truth, t0,
            )
        )
    return records


# ---------------------------------------------------------------------------
# Scenario: cv-folds
# ---------------------------------------------------------------------------


def _cv_folds_units(spec: ExperimentSpec) -> list:
    """Cross-validate one fixed labeled set with different fold counts: one
    unit per repetition, all sharing the labeled set and its truth.

    The labeled-set size is the single configured budget; the reference is
    the true baseline of the model trained on all acquired labels.
    """
    labeled = synthdata.draw_labeled(
        spec.task, spec.samplers[0], spec.budgets[0],
        derive_substream(spec.master_seed, (0, 0)),
    )
    full_model = parzen.fit_arrays(labeled.xs, labeled.ys, spec.classifier)
    truth = estimators.true_baseline(full_model, spec.task)
    return [(labeled, truth, rep) for rep in range(spec.repetitions)]


def _cv_folds_unit(spec: ExperimentSpec, unit) -> list[RunRecord]:
    labeled, truth, rep = unit
    records = []
    for e_idx, espec in enumerate(spec.estimators):
        rng = derive_substream(spec.master_seed, (1, rep, e_idx))
        run = ESTIMATOR_TABLE[espec.name].run
        t0 = time.perf_counter()
        estimate = run(spec, espec, labeled, None, None, spec.budgets[0], truth, rng)
        records.append(
            _record(
                spec.scenario, rep, spec.samplers[0].label(), spec.budgets[0],
                espec.estimator_id(), estimate, truth, t0,
            )
        )
    return records


# ---------------------------------------------------------------------------
# Scenario: bias-sweep
# ---------------------------------------------------------------------------


def _bias_sweep_units(spec: ExperimentSpec) -> list:
    """Sweep the acquisition distance d; per repetition, compare internal
    CV against the fold-trained models' exact accuracy.

    The labeled-set size is the single configured budget. The hold-out
    truth averages the per-fold models so it refers to the same classifiers
    the CV estimate was computed from.
    """
    return list(range(spec.repetitions))


def _bias_sweep_unit(spec: ExperimentSpec, rep: int) -> list[RunRecord]:
    espec = spec.estimators[0]
    records = []
    for d_idx, sampler in enumerate(spec.samplers):
        labeled = synthdata.draw_labeled(
            spec.task, sampler, spec.budgets[0],
            derive_substream(spec.master_seed, (0, d_idx, rep)),
        )
        t0 = time.perf_counter()
        detail = estimators.kfold_cv_detail(
            labeled, espec.k, spec.classifier,
            derive_substream(spec.master_seed, (1, d_idx, rep)),
        )
        # The hold-out truth is filled in after the record, so wall_ms stops
        # at the estimate's summary.
        record = _record(
            spec.scenario, rep, sampler.label(), spec.budgets[0],
            espec.estimator_id(), detail.estimate, math.nan, t0,
        )
        truth = float(
            np.mean([estimators.true_baseline(m, spec.task) for m in detail.fold_models])
        )
        records.append(replace(record, true_baseline=truth))
    return records


# ---------------------------------------------------------------------------
# Scenario: estimator-comparison
# ---------------------------------------------------------------------------


def acquisition_sequence(
    spec: ExperimentSpec, sampler_index: int, rep: int
) -> LabeledSet:
    """The full fixed acquisition sequence for one (sampler, repetition).

    Budget prefixes are nested by construction: the budget-B labeled set is
    exactly the first B entries of this sequence.
    """
    sampler = spec.samplers[sampler_index]
    rng = derive_substream(spec.master_seed, (0, sampler_index, rep))
    return synthdata.draw_labeled(spec.task, sampler, max(spec.budgets), rng)


def _comparison_units(spec: ExperimentSpec) -> list:
    """Apply every configured estimator to nested budget prefixes of one
    acquisition sequence per (sampler, repetition) unit."""
    return [
        (s_idx, rep)
        for s_idx in range(len(spec.samplers))
        for rep in range(spec.repetitions)
    ]


def _comparison_unit(spec: ExperimentSpec, unit) -> list[RunRecord]:
    s_idx, rep = unit
    sampler = spec.samplers[s_idx]
    sequence = acquisition_sequence(spec, s_idx, rep)
    pool_rng = derive_substream(spec.master_seed, (1, s_idx, rep))
    pool = synthdata.draw_unlabeled(spec.task, spec.pool_size, pool_rng)
    records = []
    for b_idx, budget in enumerate(spec.budgets):
        labeled = sequence[:budget]
        model = parzen.fit_arrays(labeled.xs, labeled.ys, spec.classifier)
        truth = estimators.true_baseline(model, spec.task)
        for e_idx, espec in enumerate(spec.estimators):
            rng = derive_substream(spec.master_seed, (3, s_idx, rep, b_idx, e_idx))
            run = ESTIMATOR_TABLE[espec.name].run
            t0 = time.perf_counter()
            estimate = run(spec, espec, labeled, pool, model, budget, truth, rng)
            records.append(
                _record(
                    spec.scenario, rep, sampler.label(), budget,
                    espec.estimator_id(), estimate, truth, t0,
                )
            )
    return records


# ---------------------------------------------------------------------------

# scenario -> (units(spec), run_unit(spec, unit)). Units are independent and
# each draws only from its own substreams, so they may run in any order on
# any worker.
_SCENARIO_TABLE = {
    # The true baseline is exact and draws nothing. The paths it used to draw
    # on, (0, 1), (2, d, rep) and (2, s, rep, budget_index), are retired; the
    # others keep their numbers.
    # Substream paths: (0, 0) classifier training draws, (1, rep, size_index)
    # per-repetition evaluation (Binomial) draws.
    EVAL_SIZE_DISTRIBUTION: (_eval_size_units, _eval_size_unit),
    # Substream paths: (0, 0) labeled-set acquisition, (1, rep,
    # estimator_index) fold assignment.
    CV_FOLDS: (_cv_folds_units, _cv_folds_unit),
    # Substream paths per (d_index, rep): (0, d, rep) acquisition,
    # (1, d, rep) fold assignment.
    BIAS_SWEEP: (_bias_sweep_units, _bias_sweep_unit),
    # Substream paths per (sampler_index, rep): (0, s, rep) acquisition
    # sequence, (1, s, rep) pool draws, (3, s, rep, budget_index,
    # estimator_index) estimator stream.
    ESTIMATOR_COMPARISON: (_comparison_units, _comparison_unit),
}


def run_experiment(spec: ExperimentSpec, workers: int = 1) -> list[RunRecord]:
    """Run the scenario configured in the spec and return sorted records."""
    units, run_unit = _SCENARIO_TABLE[spec.scenario]
    work = units(spec)
    run = partial(run_unit, spec)
    # A pool may fork all its workers at once: ask for no more than there are units.
    workers = min(workers, len(work))
    if workers <= 1:
        nested = [run(unit) for unit in work]
    else:
        chunk = max(1, math.ceil(len(work) / (workers * 4)))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            nested = list(pool.map(run, work, chunksize=chunk))
    records = [r for sub in nested for r in sub]
    records.sort(key=RunRecord.sort_key)
    return records
