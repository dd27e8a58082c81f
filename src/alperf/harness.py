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

In every scenario a unit of work is one (sampler index, repetition) pair,
whose records are exactly the rows with that sampler and repetition. Each
scenario is one table entry: ``shared(spec)`` computes, once, what all its
units share, and ``run_unit(spec, shared, unit)`` turns one unit into
records. ``run_experiment`` runs any scenario through that table.

All randomness flows through ``derive_substream``: every unit of work owns
a (master_seed, path) pair, so repetitions are independent, results do not
depend on the worker count, and deleting one repetition leaves the others
bit-identical.
"""

from __future__ import annotations

import math
import operator
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import estimators, parzen, synthdata
from .errors import ValidationError, integer
from .parzen import ClassifierConfig
from .synthdata import LabeledSet, SamplingDistribution, TaskModel

EVAL_SIZE_DISTRIBUTION = "eval-size-distribution"
CV_FOLDS = "cv-folds"
BIAS_SWEEP = "bias-sweep"
ESTIMATOR_COMPARISON = "estimator-comparison"
SCENARIOS = (EVAL_SIZE_DISTRIBUTION, CV_FOLDS, BIAS_SWEEP, ESTIMATOR_COMPARISON)
# The ExperimentSpec sizes each scenario reads; a spec refuses any other size
# set away from its default.
SCENARIO_SIZES = {
    EVAL_SIZE_DISTRIBUTION: ("train_size",),
    CV_FOLDS: (),
    BIAS_SWEEP: (),
    ESTIMATOR_COMPARISON: ("pool_size", "subsample_reps"),
}

GENERALIZATION_ERROR = "generalization-error"
KFOLD_CV = "kfold-cv"
REWEIGHTED_CV = "reweighted-cv"
SELF_LABEL_CV = "self-label-cv"
PROBABILISTIC = "probabilistic"
SUBSAMPLE_BASELINE = "subsample-baseline"


class EstimatorEntry(NamedTuple):
    """What the harness knows about one estimator."""

    reads: tuple[str, ...]  # the EstimatorSpec fields it reads
    id_template: str  # record id, formatted with k
    run: Callable  # run(spec, espec, labeled, pool, budget, truth, rng)
    draws: bool  # whether run reads rng; one that does not is passed None


# Each run looks its function up in ``estimators`` at call time, so a wrapper
# installed there reaches it.
ESTIMATOR_TABLE = {
    GENERALIZATION_ERROR: EstimatorEntry(
        (), "generalization-error",
        lambda spec, e, labeled, pool, budget, truth, rng:
            estimators.generalization_error_estimate(pool),
        False,
    ),
    KFOLD_CV: EstimatorEntry(
        ("k",), "cv-{k}fold",
        lambda spec, e, labeled, pool, budget, truth, rng:
            estimators.kfold_cv(labeled, e.k, spec.classifier, rng),
        True,
    ),
    REWEIGHTED_CV: EstimatorEntry(
        ("k",), "reweighted-cv-{k}fold",
        lambda spec, e, labeled, pool, budget, truth, rng:
            estimators.kfold_cv(labeled, e.k, spec.classifier, rng, reweighted=True),
        True,
    ),
    SELF_LABEL_CV: EstimatorEntry(
        ("k",), "self-label-cv-{k}fold",
        lambda spec, e, labeled, pool, budget, truth, rng:
            estimators.self_label_cv(pool, e.k, rng),
        True,
    ),
    PROBABILISTIC: EstimatorEntry(
        (), "probabilistic",
        lambda spec, e, labeled, pool, budget, truth, rng:
            estimators.probabilistic_performance(pool),
        False,
    ),
    SUBSAMPLE_BASELINE: EstimatorEntry(
        (), "subsample-baseline",
        lambda spec, e, labeled, pool, budget, truth, rng:
            estimators.subsample_baseline(truth, budget, spec.subsample_reps, rng),
        True,
    ),
}


def _words(n: int) -> list[int]:
    """The 32-bit words of ``n >= 0``, least significant first, as numpy
    splits an int for a SeedSequence (0 is one word)."""
    words = [n & 0xFFFFFFFF]
    n >>= 32
    while n:
        words.append(n & 0xFFFFFFFF)
        n >>= 32
    return words


def derive_substream(master_seed: int, path: Sequence[int]) -> np.random.Generator:
    """Deterministic, collision-resistant stream for a (seed, path) pair.

    Identical (seed, path) always yields the identical stream; distinct
    paths behave independently. The stream is that of
    ``np.random.SeedSequence(master_seed, spawn_key=path)``, built from the
    uint32 entropy words numpy assembles for that pair: the seed's words,
    zero-padded to the pool size 4 when the path is non-empty, then each
    path entry's words. Passing them as one uint32 array gives the same
    pool while skipping numpy's per-int conversion.
    """
    if master_seed < 0:
        raise ValidationError(f"master_seed must be >= 0, got {master_seed}")
    key = tuple(map(operator.index, path))
    if key and min(key) < 0:
        raise ValidationError(f"substream path entries must be >= 0, got {key}")
    entropy = _words(operator.index(master_seed))
    if key:
        entropy += [0] * (4 - len(entropy))
        for p in key:
            # Most entries are one word; a call per entry would cost more.
            entropy += _words(p) if p >> 32 else (p,)
    return np.random.default_rng(np.random.SeedSequence(np.array(entropy, dtype=np.uint32)))


# ---------------------------------------------------------------------------
# Specs and records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EstimatorSpec:
    """One estimator to run: its name and, for the CV estimators, the fold count."""

    name: str
    k: int = 3

    def __post_init__(self):
        if not isinstance(self.name, str) or self.name not in ESTIMATOR_TABLE:
            raise ValidationError(f"unknown estimator {self.name!r}")
        object.__setattr__(self, "k", integer(self.k, f"estimator {self.name}: k"))
        reads_k = "k" in ESTIMATOR_TABLE[self.name].reads
        if not reads_k and self.k != EstimatorSpec.k:
            raise ValidationError(f"estimator {self.name} does not take k")
        if reads_k and self.k < 2:
            raise ValidationError(f"estimator {self.name}: k must be >= 2, got {self.k}")

    def estimator_id(self) -> str:
        """Stable identifier used in records, files and plots."""
        return ESTIMATOR_TABLE[self.name].id_template.format(k=self.k)


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything needed to reproduce one experiment run.

    Construction checks every type, range and cross-field rule, so an
    invalid spec fails before any computation, whether it comes from a JSON
    config or from Python. ``budgets`` and ``repetitions`` differ by scenario, so
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
        for name in ("repetitions", "train_size", "pool_size", "subsample_reps", "master_seed"):
            object.__setattr__(self, name, integer(getattr(self, name), name))
        for name, kind in (("task", TaskModel), ("classifier", ClassifierConfig)):
            value = getattr(self, name)
            if not isinstance(value, kind):
                raise ValidationError(f"{name} must be a {kind.__name__}, got {value!r}")
        # A list becomes a tuple, so the spec stays hashable.
        for name, kind in (("samplers", SamplingDistribution), ("estimators", EstimatorSpec)):
            items = getattr(self, name)
            if not isinstance(items, (tuple, list)) or not all(isinstance(v, kind) for v in items):
                raise ValidationError(f"{name} must be a tuple of {kind.__name__}, got {items!r}")
            object.__setattr__(self, name, tuple(items))
        if not isinstance(self.budgets, (tuple, list)):
            raise ValidationError(f"budgets must be a tuple of integers, got {self.budgets!r}")
        budgets = tuple(integer(b, f"budgets[{i}]") for i, b in enumerate(self.budgets))
        object.__setattr__(self, "budgets", budgets)
        for name in ("repetitions", "train_size", "pool_size", "subsample_reps"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("train_size", "pool_size", "subsample_reps"):
            if name not in SCENARIO_SIZES[self.scenario] and (
                getattr(self, name) != getattr(ExperimentSpec, name)
            ):
                raise ValidationError(f"{self.scenario} does not take {name}")
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
        # Every scenario reads the true baseline on this grid.
        synthdata.decision_grid_size(self.task, estimators.truth_step(self.classifier))
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
        # A symmetric-mixture sampler sits about x = 0, so the Bayes rule
        # must change class there.
        if any(s.kind == synthdata.SYMMETRIC_MIXTURE for s in self.samplers):
            joint = synthdata._joint_density(self.task, np.array([-1e-9, 1e-9]))
            below, above = np.argmax(joint, axis=1)
            if below == above:
                raise ValidationError(
                    "symmetric-mixture samplers are placed about x = 0, but the task's "
                    f"Bayes rule predicts class {below + 1} on both sides of it"
                )


class RunRecord(NamedTuple):
    """One estimator evaluation inside one repetition. Immutable; derive a
    changed copy with ``_replace``. ``_fields`` lists the fields in order."""

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
        scenario, repetition, sampler, budget, estimator,
        summary["mean"], summary["median"], summary["q25"], summary["q75"],
        true_baseline, (time.perf_counter() - t0) * 1000.0,
    )


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------


def _fixed_set(spec: ExperimentSpec, size: int) -> tuple[LabeledSet, float]:
    """The labeled set every unit of eval-size and cv-folds shares: ``size``
    draws from the single sampler on path (0, 0), with the exact accuracy of
    the model fitted on all of it."""
    labeled = synthdata.draw_labeled(
        spec.task, spec.samplers[0], size, derive_substream(spec.master_seed, (0, 0))
    )
    model = parzen.fit_arrays(labeled.xs, labeled.ys, spec.classifier)
    return labeled, estimators.true_baseline(model, spec.task)


def _eval_size_unit(spec: ExperimentSpec, shared, unit) -> list[RunRecord]:
    """One fixed classifier, evaluated on a fresh set of each size: the budget
    column carries the size, and each accuracy value is a
    Binomial(size, accuracy) / size draw."""
    (_, truth), (_, rep) = shared, unit
    label = spec.samplers[0].label()
    records = []
    for i, size in enumerate(spec.budgets):
        rng = derive_substream(spec.master_seed, (1, rep, i))
        t0 = time.perf_counter()
        estimate = estimators.subsample_baseline(truth, size, 1, rng)
        records.append(
            _record(spec.scenario, rep, label, size, SUBSAMPLE_BASELINE, estimate, truth, t0)
        )
    return records


def _cv_folds_unit(spec: ExperimentSpec, shared, unit) -> list[RunRecord]:
    """Cross-validate the fixed labeled set, of the single budget's size, with
    each configured fold count, against the model trained on all of it."""
    (labeled, truth), (_, rep) = shared, unit
    records = []
    for e_idx, espec in enumerate(spec.estimators):
        rng = derive_substream(spec.master_seed, (1, rep, e_idx))
        run = ESTIMATOR_TABLE[espec.name].run
        t0 = time.perf_counter()
        estimate = run(spec, espec, labeled, None, spec.budgets[0], truth, rng)
        records.append(
            _record(
                spec.scenario, rep, spec.samplers[0].label(), spec.budgets[0],
                espec.estimator_id(), estimate, truth, t0,
            )
        )
    return records


def _bias_sweep_unit(spec: ExperimentSpec, shared, unit) -> list[RunRecord]:
    """Internal CV of the single budget's labels, acquired at one distance d,
    against the mean exact accuracy of the fold models: the classifiers the
    CV estimate was computed from."""
    d_idx, rep = unit
    sampler, espec = spec.samplers[d_idx], spec.estimators[0]
    labeled = acquisition_sequence(spec, d_idx, rep)
    t0 = time.perf_counter()
    detail = estimators.kfold_cv_detail(
        labeled, espec.k, spec.classifier,
        derive_substream(spec.master_seed, (1, d_idx, rep)),
    )
    # The hold-out truth is filled in after the record, so wall_ms stops at
    # the estimate's summary.
    record = _record(
        spec.scenario, rep, sampler.label(), spec.budgets[0],
        espec.estimator_id(), detail.estimate, math.nan, t0,
    )
    truth = float(
        np.mean([estimators.true_baseline(m, spec.task) for m in detail.fold_models])
    )
    return [record._replace(true_baseline=truth)]


def acquisition_sequence(
    spec: ExperimentSpec, sampler_index: int, rep: int
) -> LabeledSet:
    """The full fixed acquisition sequence for one (sampler, repetition).

    Budget prefixes are nested by construction: the budget-B labeled set is
    exactly the first B entries of this sequence. Bias-sweep's single budget
    takes all of it.
    """
    sampler = spec.samplers[sampler_index]
    rng = derive_substream(spec.master_seed, (0, sampler_index, rep))
    return synthdata.draw_labeled(spec.task, sampler, max(spec.budgets), rng)


def _comparison_unit(spec: ExperimentSpec, shared, unit) -> list[RunRecord]:
    """Every configured estimator on each nested budget prefix of one
    acquisition sequence.

    The sequence is fitted once, and the pool and the truth grid are each
    read under that model once: the pool as one ``parzen.KernelBlock`` whose
    prefixes hold every budget's model and serve its pool estimators, the
    grid as every budget's predicted classes (``parzen.prefix_labels``)."""
    s_idx, rep = unit
    label = spec.samplers[s_idx].label()
    ids = [espec.estimator_id() for espec in spec.estimators]
    sequence = acquisition_sequence(spec, s_idx, rep)
    model = parzen.fit_arrays(sequence.xs, sequence.ys, spec.classifier)
    pool_rng = derive_substream(spec.master_seed, (1, s_idx, rep))
    pool = synthdata.draw_unlabeled(spec.task, spec.pool_size, pool_rng)
    pool_block = parzen.kernel_block(pool, model)
    grid = estimators.truth_grid(spec.task, spec.classifier)
    grid_labels = parzen.prefix_labels(grid, model, spec.budgets)
    records = []
    for b_idx, budget in enumerate(spec.budgets):
        labeled = sequence[:budget]
        block = pool_block.prefix(budget)
        truth = estimators.true_baseline(block.model, spec.task, (grid, grid_labels[b_idx]))
        for e_idx, espec in enumerate(spec.estimators):
            entry = ESTIMATOR_TABLE[espec.name]
            rng = (
                derive_substream(spec.master_seed, (3, s_idx, rep, b_idx, e_idx))
                if entry.draws else None
            )
            t0 = time.perf_counter()
            estimate = entry.run(spec, espec, labeled, block, budget, truth, rng)
            records.append(
                _record(spec.scenario, rep, label, budget, ids[e_idx], estimate, truth, t0)
            )
    return records


# ---------------------------------------------------------------------------

# scenario -> (shared(spec), run_unit(spec, shared, unit)). Units are
# independent and each draws only from its own substreams, so they may run
# in any order on any worker.
_SCENARIO_TABLE = {
    # The true baseline is exact and draws nothing. The paths it used to draw
    # on, (0, 1), (2, d, rep) and (2, s, rep, budget_index), are retired; the
    # others keep their numbers.
    # Substream paths: (0, 0) classifier training draws, (1, rep, size_index)
    # per-repetition evaluation (Binomial) draws.
    EVAL_SIZE_DISTRIBUTION: (lambda spec: _fixed_set(spec, spec.train_size), _eval_size_unit),
    # Substream paths: (0, 0) labeled-set acquisition, (1, rep,
    # estimator_index) fold assignment.
    CV_FOLDS: (lambda spec: _fixed_set(spec, spec.budgets[0]), _cv_folds_unit),
    # Substream paths per (d_index, rep): (0, d, rep) acquisition,
    # (1, d, rep) fold assignment.
    BIAS_SWEEP: (lambda spec: None, _bias_sweep_unit),
    # Substream paths per (sampler_index, rep): (0, s, rep) acquisition
    # sequence, (1, s, rep) pool draws, (3, s, rep, budget_index,
    # estimator_index) estimator stream, derived only for an estimator that
    # draws.
    ESTIMATOR_COMPARISON: (lambda spec: None, _comparison_unit),
}


def run_experiment(spec: ExperimentSpec, workers: int = 1) -> list[RunRecord]:
    """Run the scenario configured in the spec and return sorted records."""
    shared, run_unit = _SCENARIO_TABLE[spec.scenario]
    work = [(s, rep) for s in range(len(spec.samplers)) for rep in range(spec.repetitions)]
    run = partial(run_unit, spec, shared(spec))
    # A pool may fork all its workers at once: ask for no more than there are units.
    workers = min(workers, len(work))
    if workers <= 1:
        nested = [run(unit) for unit in work]
    else:
        # Imported here: the pool pulls in multiprocessing, which a
        # one-worker run never needs.
        from concurrent.futures import ProcessPoolExecutor

        if PROBABILISTIC in (e.name for e in spec.estimators):
            # Beta-mixture summaries need scipy.special: import it once here,
            # so that forked workers inherit it instead of each importing it.
            import scipy.special  # noqa: F401
        chunk = max(1, math.ceil(len(work) / (workers * 4)))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            nested = list(pool.map(run, work, chunksize=chunk))
    records = [r for sub in nested for r in sub]
    records.sort(key=RunRecord.sort_key)
    return records
