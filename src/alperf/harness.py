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
from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from . import estimators, parzen, synthdata
from .errors import ValidationError
from .estimators import PerformanceEstimate
from .parzen import ClassifierConfig, ParzenModel
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
ESTIMATOR_NAMES = (
    GENERALIZATION_ERROR,
    KFOLD_CV,
    REWEIGHTED_CV,
    SELF_LABEL_CV,
    PROBABILISTIC,
    SUBSAMPLE_BASELINE,
)
_CV_FAMILY = (KFOLD_CV, REWEIGHTED_CV, SELF_LABEL_CV)


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
    """Boxplot statistics with linearly interpolated quartiles."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ValidationError("cannot summarize an empty value list")
    q25, median, q75 = np.percentile(arr, [25.0, 50.0, 75.0])
    iqr = q75 - q25
    low_limit = q25 - 1.5 * iqr
    high_limit = q75 + 1.5 * iqr
    return BoxplotStats(
        mean=float(arr.mean()),
        median=float(median),
        q25=float(q25),
        q75=float(q75),
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
        if self.name not in ESTIMATOR_NAMES:
            raise ValidationError(f"unknown estimator {self.name!r}")
        if self.name in _CV_FAMILY and self.k < 2:
            raise ValidationError(f"estimator {self.name}: k must be >= 2, got {self.k}")
        if self.weight_cap is not None:
            if self.name != REWEIGHTED_CV:
                raise ValidationError(
                    f"estimator {self.name}: weight_cap only applies to {REWEIGHTED_CV}"
                )
            if not self.weight_cap > 0.0:
                raise ValidationError(
                    f"estimator {self.name}: weight_cap must be > 0, got {self.weight_cap}"
                )
        if self.count_mode not in (estimators.KERNEL_COUNT, estimators.HARD_COUNT):
            raise ValidationError(
                f"estimator {self.name}: unknown count_mode {self.count_mode!r}"
            )

    def estimator_id(self) -> str:
        """Stable identifier used in records, files and plots."""
        if self.name == KFOLD_CV:
            return f"cv-{self.k}fold"
        if self.name == REWEIGHTED_CV:
            return f"reweighted-cv-{self.k}fold"
        if self.name == SELF_LABEL_CV:
            return f"self-label-cv-{self.k}fold"
        if self.name == PROBABILISTIC and self.count_mode == estimators.HARD_COUNT:
            return "probabilistic-hard"
        return self.name


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything needed to reproduce one experiment run.

    Construction checks every range and cross-field rule, so an invalid
    spec fails before any computation, whether it comes from a JSON config
    or from Python.
    """

    scenario: str
    task: TaskModel
    samplers: tuple[SamplingDistribution, ...]
    classifier: ClassifierConfig
    estimators: tuple[EstimatorSpec, ...]
    budgets: tuple[int, ...] = (10, 30, 50)
    repetitions: int = 200
    pool_size: int = 1000
    true_eval_size: int = 2000
    subsample_reps: int = 100
    master_seed: int = 0
    train_size: int = 100
    labeled_size: int = 30

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValidationError(f"unknown scenario {self.scenario!r}")
        if self.repetitions < 1:
            raise ValidationError(f"repetitions must be >= 1, got {self.repetitions}")
        if self.train_size < 1:
            raise ValidationError(f"train_size must be >= 1, got {self.train_size}")
        if self.labeled_size < 1:
            raise ValidationError(f"labeled_size must be >= 1, got {self.labeled_size}")
        if not self.budgets:
            raise ValidationError("budgets must be nonempty")
        if any(b < 1 for b in self.budgets):
            raise ValidationError("budgets must be >= 1")
        if any(a >= b for a, b in zip(self.budgets, self.budgets[1:])):
            raise ValidationError("budgets must be strictly increasing")
        if self.pool_size < 1:
            raise ValidationError(f"pool_size must be >= 1, got {self.pool_size}")
        if self.true_eval_size < 1:
            raise ValidationError(
                f"true_eval_size must be >= 1, got {self.true_eval_size}"
            )
        if self.subsample_reps < 1:
            raise ValidationError(
                f"subsample_reps must be >= 1, got {self.subsample_reps}"
            )
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
        if self.scenario == CV_FOLDS:
            if len(self.budgets) != 1:
                raise ValidationError(
                    "cv-folds uses exactly one budget (the labeled-set size)"
                )
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
            k_limit, limit_name = self.labeled_size, "labeled_size"
        else:
            k_limit, limit_name = min(self.budgets), "the smallest budget"
        for i, e in enumerate(self.estimators):
            if e.name in _CV_FAMILY and e.k > k_limit:
                raise ValidationError(
                    f"estimators[{i}] ({ids[i]}): k={e.k} exceeds {limit_name} ({k_limit})"
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
    summary: dict[str, float],
    true_baseline: float,
    wall_ms: float,
) -> RunRecord:
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
        wall_ms=wall_ms,
    )


def _ms_since(t0: float) -> float:
    """Wall milliseconds since ``t0``. Callers take ``t0`` right before the
    estimator call and read this after its summary, so ``wall_ms`` covers
    both."""
    return (time.perf_counter() - t0) * 1000.0


def _apply_estimator(
    spec: ExperimentSpec,
    espec: EstimatorSpec,
    labeled: LabeledSet,
    pool: np.ndarray | None,
    model: ParzenModel | None,
    budget: int,
    rng: np.random.Generator,
) -> PerformanceEstimate:
    if espec.name == GENERALIZATION_ERROR:
        return estimators.generalization_error_estimate(model, pool)
    if espec.name == KFOLD_CV:
        return estimators.kfold_cv(labeled, espec.k, spec.classifier, rng)
    if espec.name == REWEIGHTED_CV:
        return estimators.kfold_cv(
            labeled, espec.k, spec.classifier, rng,
            reweighted=True, weight_cap=espec.weight_cap,
        )
    if espec.name == SELF_LABEL_CV:
        return estimators.self_label_cv(labeled, pool, espec.k, spec.classifier, rng)
    if espec.name == PROBABILISTIC:
        return estimators.probabilistic_performance(
            labeled, pool, spec.classifier.bandwidth, espec.count_mode
        )
    if espec.name == SUBSAMPLE_BASELINE:
        return estimators.subsample_baseline(
            model, spec.task, budget, spec.subsample_reps, rng
        )
    raise ValidationError(f"unknown estimator {espec.name!r}")


# ---------------------------------------------------------------------------
# Scenario: eval-size-distribution
# ---------------------------------------------------------------------------


def _eval_size_units(spec: ExperimentSpec) -> list:
    """One fixed classifier, repeatedly evaluated on fresh sets of each size:
    one unit per repetition, all sharing the classifier and its truth.

    The budget column of the resulting records carries the evaluation-set
    size; each repetition contributes one accuracy value per size.
    """
    train_rng = derive_substream(spec.master_seed, (0, 0))
    training = synthdata.draw_labeled(spec.task, spec.samplers[0], spec.train_size, train_rng)
    model = parzen.fit_arrays(training.xs, training.ys, spec.classifier)
    truth = estimators.true_baseline(
        model, spec.task, spec.true_eval_size, derive_substream(spec.master_seed, (0, 1))
    ).mean()
    return [(model, truth, rep) for rep in range(spec.repetitions)]


def _eval_size_unit(spec: ExperimentSpec, unit) -> list[RunRecord]:
    model, truth, rep = unit
    records = []
    for i, size in enumerate(spec.budgets):
        rng = derive_substream(spec.master_seed, (1, rep, i))
        t0 = time.perf_counter()
        summary = estimators.subsample_baseline(model, spec.task, size, 1, rng).summary()
        records.append(
            _record(
                spec.scenario, rep, spec.samplers[0].label(), size,
                SUBSAMPLE_BASELINE, summary, truth, _ms_since(t0),
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
    truth = estimators.true_baseline(
        full_model, spec.task, spec.true_eval_size,
        derive_substream(spec.master_seed, (0, 1)),
    ).mean()
    return [(labeled, truth, rep) for rep in range(spec.repetitions)]


def _cv_folds_unit(spec: ExperimentSpec, unit) -> list[RunRecord]:
    labeled, truth, rep = unit
    records = []
    for e_idx, espec in enumerate(spec.estimators):
        rng = derive_substream(spec.master_seed, (1, rep, e_idx))
        t0 = time.perf_counter()
        summary = _apply_estimator(
            spec, espec, labeled, None, None, spec.budgets[0], rng
        ).summary()
        records.append(
            _record(
                spec.scenario, rep, spec.samplers[0].label(), spec.budgets[0],
                espec.estimator_id(), summary, truth, _ms_since(t0),
            )
        )
    return records


# ---------------------------------------------------------------------------
# Scenario: bias-sweep
# ---------------------------------------------------------------------------


def _bias_sweep_units(spec: ExperimentSpec) -> list:
    """Sweep the acquisition distance d; per repetition, compare internal
    CV against the fold-trained models' accuracy on a fresh hold-out set.

    The hold-out truth averages the per-fold models so it refers to the
    same classifiers the CV estimate was computed from.
    """
    return list(range(spec.repetitions))


def _bias_sweep_unit(spec: ExperimentSpec, rep: int) -> list[RunRecord]:
    espec = spec.estimators[0]
    records = []
    for d_idx, sampler in enumerate(spec.samplers):
        labeled = synthdata.draw_labeled(
            spec.task, sampler, spec.labeled_size,
            derive_substream(spec.master_seed, (0, d_idx, rep)),
        )
        t0 = time.perf_counter()
        detail = estimators.kfold_cv_detail(
            labeled, espec.k, spec.classifier,
            derive_substream(spec.master_seed, (1, d_idx, rep)),
        )
        summary = detail.estimate.summary()
        wall_ms = _ms_since(t0)
        hold_x, hold_y = synthdata.draw_oracle_arrays(
            spec.task, spec.true_eval_size,
            derive_substream(spec.master_seed, (2, d_idx, rep)),
        )
        truth = float(
            np.mean([parzen.accuracy_arrays(m, hold_x, hold_y) for m in detail.fold_models])
        )
        records.append(
            _record(
                spec.scenario, rep, sampler.label(), spec.labeled_size,
                espec.estimator_id(), summary, truth, wall_ms,
            )
        )
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
        truth = estimators.true_baseline(
            model, spec.task, spec.true_eval_size,
            derive_substream(spec.master_seed, (2, s_idx, rep, b_idx)),
        ).mean()
        for e_idx, espec in enumerate(spec.estimators):
            rng = derive_substream(spec.master_seed, (3, s_idx, rep, b_idx, e_idx))
            t0 = time.perf_counter()
            summary = _apply_estimator(
                spec, espec, labeled, pool, model, budget, rng
            ).summary()
            records.append(
                _record(
                    spec.scenario, rep, sampler.label(), budget,
                    espec.estimator_id(), summary, truth, _ms_since(t0),
                )
            )
    return records


# ---------------------------------------------------------------------------

# scenario -> (units(spec), run_unit(spec, unit)). Units are independent and
# each draws only from its own substreams, so they may run in any order on
# any worker.
_SCENARIO_TABLE = {
    # Substream paths: (0, 0) classifier training draws, (0, 1) true baseline,
    # (1, rep, size_index) per-repetition evaluation draws.
    EVAL_SIZE_DISTRIBUTION: (_eval_size_units, _eval_size_unit),
    # Substream paths: (0, 0) labeled-set acquisition, (0, 1) true baseline of
    # the full-set model, (1, rep, estimator_index) fold assignment.
    CV_FOLDS: (_cv_folds_units, _cv_folds_unit),
    # Substream paths per (d_index, rep): (0, d, rep) acquisition,
    # (1, d, rep) fold assignment, (2, d, rep) hold-out draws.
    BIAS_SWEEP: (_bias_sweep_units, _bias_sweep_unit),
    # Substream paths per (sampler_index, rep): (0, s, rep) acquisition
    # sequence, (1, s, rep) pool draws, (2, s, rep, budget_index) true
    # baseline, (3, s, rep, budget_index, estimator_index) estimator stream.
    ESTIMATOR_COMPARISON: (_comparison_units, _comparison_unit),
}


def run_experiment(spec: ExperimentSpec, workers: int = 1) -> list[RunRecord]:
    """Run the scenario configured in the spec and return sorted records."""
    units, run_unit = _SCENARIO_TABLE[spec.scenario]
    work = units(spec)
    run = partial(run_unit, spec)
    if workers <= 1:
        nested = [run(unit) for unit in work]
    else:
        chunk = max(1, math.ceil(len(work) / (workers * 4)))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            nested = list(pool.map(run, work, chunksize=chunk))
    records = [r for sub in nested for r in sub]
    records.sort(key=RunRecord.sort_key)
    return records
