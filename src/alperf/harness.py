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
scenario is one ``Scenario`` row of ``SCENARIO_TABLE``: ``shared(spec)``
computes, once, what all its units share, ``paths(spec, unit)`` declares
the substream paths a unit draws from, and ``run_unit(spec, shared, unit,
rngs)`` turns one unit into records, reading one stream per declared path;
the row also names the spec sizes the scenario reads, the estimators it runs
and the collections that hold exactly one entry, which ``ExperimentSpec``
checks, and the defaults a JSON config applies. ``run_experiment`` runs any
scenario through that table.

All randomness flows through (master_seed, path) substreams, each the
stream of ``np.random.SeedSequence(master_seed, spawn_key=path)``.
``derive_substream`` is that numpy stream itself, for any path;
``run_experiment`` derives the seed states of every unit's declared paths in
one vectorized ``derive_states`` pass before any unit runs, and each unit
builds its generators from its own rows. No two units share a path, so
repetitions are independent, results do not depend on the worker count, and
deleting one repetition leaves the others bit-identical.
"""

from __future__ import annotations

import math
import operator
import time
from dataclasses import dataclass
from functools import cache, partial
from itertools import accumulate
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import estimators, parzen, synthdata
from .errors import ValidationError, integer
from .parzen import ClassifierConfig, ParzenModel
from .synthdata import LabeledSet, SamplingDistribution, TaskModel

EVAL_SIZE_DISTRIBUTION = "eval-size-distribution"
CV_FOLDS = "cv-folds"
BIAS_SWEEP = "bias-sweep"
ESTIMATOR_COMPARISON = "estimator-comparison"

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
    run: Callable  # run(spec, espec, labeled, pool, truth, rng)
    draws: bool  # whether run reads rng; one that does not is passed None


# Each run looks its function up in ``estimators`` at call time, so a wrapper
# installed there reaches it. ``_estimates`` makes every run; the labeled set's
# size is the budget.
ESTIMATOR_TABLE = {
    GENERALIZATION_ERROR: EstimatorEntry(
        (), "generalization-error",
        lambda spec, e, labeled, pool, truth, rng:
            estimators.generalization_error_estimate(pool),
        False,
    ),
    KFOLD_CV: EstimatorEntry(
        ("k",), "cv-{k}fold",
        lambda spec, e, labeled, pool, truth, rng:
            estimators.kfold_cv(labeled, e.k, spec.classifier, rng),
        True,
    ),
    REWEIGHTED_CV: EstimatorEntry(
        ("k",), "reweighted-cv-{k}fold",
        lambda spec, e, labeled, pool, truth, rng:
            estimators.kfold_cv(labeled, e.k, spec.classifier, rng, reweighted=True),
        True,
    ),
    SELF_LABEL_CV: EstimatorEntry(
        ("k",), "self-label-cv-{k}fold",
        lambda spec, e, labeled, pool, truth, rng:
            estimators.self_label_cv(pool, e.k, rng),
        True,
    ),
    PROBABILISTIC: EstimatorEntry(
        (), "probabilistic",
        lambda spec, e, labeled, pool, truth, rng:
            estimators.probabilistic_performance(pool),
        False,
    ),
    SUBSAMPLE_BASELINE: EstimatorEntry(
        (), "subsample-baseline",
        lambda spec, e, labeled, pool, truth, rng:
            estimators.subsample_baseline(truth, len(labeled), spec.subsample_reps, rng),
        True,
    ),
}


class Scenario(NamedTuple):
    """What the harness knows about one scenario."""

    shared: Callable  # shared(spec): what all units share, computed once
    # paths(spec, unit): the substream paths one unit draws from, in the
    # order it reads them. Distinct units never share a path, and no unit
    # draws from SHARED_PATH.
    paths: Callable
    # run_unit(spec, shared, unit, rngs): one unit's records, where rngs
    # yields the stream of each of its paths in turn.
    run_unit: Callable
    # The defaults a JSON config applies.
    repetitions: int
    estimators: tuple[EstimatorSpec, ...]
    samplers: tuple[SamplingDistribution, ...]
    budgets: tuple[int, ...]
    sizes: tuple[str, ...] = ()  # the ExperimentSpec sizes it reads
    estimator_names: tuple[str, ...] = ()  # the estimators it runs; empty means any
    single: tuple[str, ...] = ()  # the spec collections that hold exactly one entry


# numpy's SeedSequence (numpy/random/bit_generator.pyx): the pool size, the
# multiplier chains of the entropy hash (A) and of the state output (B), and
# the mix multipliers. Every chain value is fixed, whatever the data.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _words(n: int) -> list[int]:
    """The 32-bit words of ``n >= 0``, least significant first, as numpy
    splits an int for a SeedSequence (0 is one word)."""
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def _seed_states(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence.generate_state(4, np.uint64)`` of every row of uint32
    ``entropy``, shape (rows, 4): numpy's pool mixing, one array operation
    per hash step for all rows at once. uint32 arrays wrap as numpy's C
    code does."""
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const
        return value ^ (value >> 16)

    def mix(x, y):
        result = x * _MIX_MULT_L - y * _MIX_MULT_R
        return result ^ (result >> 16)

    rows, width = entropy.shape
    zeros = np.zeros(rows, dtype=np.uint32)
    pool = [hashmix(entropy[:, i] if i < width else zeros) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, width):
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(entropy[:, src]))
    out_const, words = _INIT_B, []
    for i in range(8):  # 4 uint64 words, low half first
        value = pool[i % _POOL_SIZE] ^ out_const
        out_const = out_const * _MULT_B & _MASK32
        value = value * out_const
        words.append((value ^ (value >> 16)).astype(np.uint64))
    return np.stack([lo | (hi << 32) for lo, hi in zip(words[::2], words[1::2])], axis=1)


def derive_states(master_seed: int, paths: Sequence[Sequence[int]]) -> np.ndarray:
    """The PCG64 seed states of a run's (master_seed, path) pairs in one pass.

    Row i, shape (4,) uint64, is what
    ``np.random.SeedSequence(master_seed, spawn_key=paths[i])`` hands
    ``PCG64``, and ``_generator(row)`` is that pair's stream. It takes the
    paths a ``Scenario`` declares, non-empty and of entries in [0, 2**32),
    each entry one entropy word; paths of one length are hashed together as
    one uint32 block. Any other path is refused before any hashing.
    """
    seed = operator.index(master_seed)
    if seed < 0:
        raise ValidationError(f"master_seed must be >= 0, got {seed}")
    words = _words(seed)
    # The seed's words, zero-padded to the pool size, precede every path's entries.
    padded = np.array(words + [0] * (_POOL_SIZE - len(words)), dtype=np.uint32)
    by_length: dict[int, list[int]] = {}
    for i, path in enumerate(paths):
        by_length.setdefault(len(path), []).append(i)
    blocks = []
    for length, index in by_length.items():
        entries = np.array([paths[i] for i in index])
        if entries.dtype.kind not in "iu":  # not one integer dtype: check each entry
            entries = np.array([list(map(operator.index, paths[i])) for i in index], dtype=object)
        if not length or not 0 <= entries.min() <= entries.max() <= _MASK32:
            raise ValidationError("a run's substream paths are non-empty, of entries in [0, 2**32)")
        seed_words = np.broadcast_to(padded, (len(index), len(padded)))
        blocks.append((index, np.hstack([seed_words, entries.astype(np.uint32)])))
    states = np.empty((len(paths), 4), dtype=np.uint64)
    for index, entropy in blocks:
        states[index] = _seed_states(entropy)
    return states


@cache
def _state_seed_class():
    """A ``numpy.random.bit_generator.ISeedSequence`` that hands a bit
    generator a precomputed state. Made on first use, so that importing
    alperf does not import numpy.random."""
    from numpy.random.bit_generator import ISeedSequence

    class StateSeed(ISeedSequence):
        def __init__(self, state):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            return self.state  # PCG64 asks for 4 uint64 words

    return StateSeed


def _generator(state: np.ndarray) -> np.random.Generator:
    """The stream whose PCG64 is seeded with ``state``, a row of
    ``derive_states``."""
    return np.random.Generator(np.random.PCG64(_state_seed_class()(state)))


def derive_substream(master_seed: int, path: Sequence[int]) -> np.random.Generator:
    """Deterministic, collision-resistant stream for a (seed, path) pair.

    Identical (seed, path) always yields the identical stream; distinct
    paths behave independently. The stream is numpy's own, that of
    ``np.random.SeedSequence(master_seed, spawn_key=path)``, so it can
    ``spawn``; any path of integers >= 0 is taken, the empty one too.
    """
    seed, key = operator.index(master_seed), tuple(map(operator.index, path))
    if seed < 0 or min(key, default=0) < 0:
        raise ValidationError(f"master_seed and path entries must be >= 0, got {seed}, {key}")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))


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
    config or from Python. Its defaults hold for every scenario; ``budgets``
    and ``repetitions`` differ by scenario, so ``SCENARIO_TABLE`` holds theirs.
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
        if not isinstance(self.scenario, str) or self.scenario not in SCENARIO_TABLE:
            raise ValidationError(f"unknown scenario {self.scenario!r}")
        row = SCENARIO_TABLE[self.scenario]
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
            if name not in row.sizes and getattr(self, name) != getattr(ExperimentSpec, name):
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
        for name in row.single:
            count = len(getattr(self, name))
            if count != 1:
                raise ValidationError(f"{self.scenario} uses exactly one {name[:-1]}, got {count}")
        names = row.estimator_names or ESTIMATOR_TABLE
        bad = [e.name for e in self.estimators if e.name not in names]
        if bad:
            raise ValidationError(
                f"{self.scenario} supports only the estimators "
                f"{', '.join(row.estimator_names)}, got {bad}"
            )
        if self.scenario == BIAS_SWEEP:
            ds = [s.d for s in self.samplers]
            if (
                any(s.kind != synthdata.SYMMETRIC_MIXTURE for s in self.samplers)
                or ds[0] <= 0.0
                or any(a >= b for a, b in zip(ds, ds[1:]))
            ):
                raise ValidationError(
                    "bias-sweep needs symmetric-mixture samplers whose distances d "
                    f"are positive and strictly increasing, got {labels}"
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
            posterior = synthdata.bayes_posterior_batch(self.task, np.array([-1e-9, 1e-9]))
            below, above = np.argmax(posterior, axis=1)
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
    summary: dict[str, float],
    true_baseline: float,
    t0: float,
) -> RunRecord:
    """The record of one estimate's ``summary``. Callers take ``t0`` right
    before the estimator call and the summary after it, so ``wall_ms`` covers
    both."""
    return RunRecord(
        scenario, repetition, sampler, budget, estimator,
        summary["mean"], summary["median"], summary["q25"], summary["q75"],
        true_baseline, (time.perf_counter() - t0) * 1000.0,
    )


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------

# The path of the labeled set that every unit of eval-size and cv-folds shares.
SHARED_PATH = (0, 0)


def _fixed_set(spec: ExperimentSpec, size: int) -> tuple[LabeledSet, float]:
    """The labeled set every unit of eval-size and cv-folds shares: ``size``
    draws from the single sampler on ``SHARED_PATH``, with the exact accuracy
    of the model fitted on all of it."""
    labeled = synthdata.draw_labeled(
        spec.task, spec.samplers[0], size, derive_substream(spec.master_seed, SHARED_PATH)
    )
    model = parzen.fit_arrays(labeled.xs, labeled.ys, spec.classifier)
    return labeled, estimators.true_baseline(model, spec.task)


def _eval_size_unit(spec: ExperimentSpec, shared, unit, rngs) -> list[RunRecord]:
    """One fixed classifier, evaluated on a fresh set of each size: the budget
    column carries the size. Each record is one scalar
    Binomial(size, accuracy) / size draw on its own stream
    (``estimators.subsample_accuracy``) and that value's
    ``estimators.point_summary``: the record that
    ``subsample_baseline(accuracy, size, 1, rng)`` would give, built without
    an array or an estimate object."""
    (_, truth), (_, rep) = shared, unit
    label = spec.samplers[0].label()
    records = []
    for size, rng in zip(spec.budgets, rngs):
        t0 = time.perf_counter()
        summary = estimators.point_summary(estimators.subsample_accuracy(truth, size, rng))
        records.append(
            _record(spec.scenario, rep, label, size, SUBSAMPLE_BASELINE, summary, truth, t0)
        )
    return records


def _estimates(spec: ExperimentSpec, rep: int, sampler: str, labeled: LabeledSet,
               pool, truth: float, rngs) -> list[RunRecord]:
    """The record of every configured estimator on ``labeled``, whose size is
    the budget: ``pool`` is the kernel block of the evaluation pool under the
    model of ``labeled`` (None where the scenario has no pool) and ``truth``
    that model's exact accuracy. An estimator that draws reads the next
    stream of ``rngs``."""
    records = []
    for espec in spec.estimators:
        entry = ESTIMATOR_TABLE[espec.name]
        rng = next(rngs) if entry.draws else None
        t0 = time.perf_counter()
        estimate = entry.run(spec, espec, labeled, pool, truth, rng)
        records.append(
            _record(
                spec.scenario, rep, sampler, len(labeled), espec.estimator_id(),
                estimate.summary(), truth, t0,
            )
        )
    return records


def _cv_folds_unit(spec: ExperimentSpec, shared, unit, rngs) -> list[RunRecord]:
    """Cross-validate the fixed labeled set, of the single budget's size, with
    each configured fold count, against the model trained on all of it. Every
    estimator draws, so each reads its own stream."""
    (labeled, truth), (_, rep) = shared, unit
    return _estimates(spec, rep, spec.samplers[0].label(), labeled, None, truth, rngs)


def _bias_sweep_unit(spec: ExperimentSpec, shared, unit, rngs) -> list[RunRecord]:
    """Internal CV of the single budget's labels, acquired at one distance d,
    against the mean exact accuracy of the fold models: the classifiers the
    CV estimate was computed from."""
    d_idx, rep = unit
    sampler, espec = spec.samplers[d_idx], spec.estimators[0]
    labeled = _sequence(spec, d_idx, next(rngs))
    t0 = time.perf_counter()
    estimate, fold_of = estimators.kfold_cv_detail(labeled, espec.k, spec.classifier, next(rngs))
    # The hold-out truth is filled in after the record, so wall_ms stops at
    # the estimate's summary.
    record = _record(
        spec.scenario, rep, sampler.label(), spec.budgets[0],
        espec.estimator_id(), estimate.summary(), math.nan, t0,
    )
    outside = [fold_of != i for i in range(espec.k)]
    models = [ParzenModel(labeled.xs[o], labeled.ys[o], spec.classifier) for o in outside]
    truth = float(np.mean([estimators.true_baseline(m, spec.task) for m in models]))
    return [record._replace(true_baseline=truth)]


def _sequence(spec: ExperimentSpec, sampler_index: int, rng) -> LabeledSet:
    """The acquisition sequence of one sampler, drawn from ``rng``."""
    return synthdata.draw_labeled(
        spec.task, spec.samplers[sampler_index], max(spec.budgets), rng
    )


def acquisition_sequence(
    spec: ExperimentSpec, sampler_index: int, rep: int
) -> LabeledSet:
    """The full fixed acquisition sequence for one (sampler, repetition) of
    a bias-sweep or estimator-comparison spec, drawn on the unit's first path.

    Budget prefixes are nested by construction: the budget-B labeled set is
    exactly the first B entries of this sequence. Bias-sweep's single budget
    takes all of it.
    """
    path = SCENARIO_TABLE[spec.scenario].paths(spec, (sampler_index, rep))[0]
    return _sequence(spec, sampler_index, derive_substream(spec.master_seed, path))


def _comparison_paths(spec: ExperimentSpec, unit) -> list[tuple]:
    """The acquisition sequence, the pool, then per budget one stream for
    each estimator that draws."""
    s_idx, rep = unit
    drawing = [e for e, espec in enumerate(spec.estimators) if ESTIMATOR_TABLE[espec.name].draws]
    return [(0, s_idx, rep), (1, s_idx, rep)] + [
        (3, s_idx, rep, b_idx, e_idx) for b_idx in range(len(spec.budgets)) for e_idx in drawing
    ]


def _comparison_unit(spec: ExperimentSpec, shared, unit, rngs) -> list[RunRecord]:
    """Every configured estimator on each nested budget prefix of one
    acquisition sequence.

    The sequence is fitted once, and the pool and the truth grid (``shared``,
    built once per run) are each read under that model once: the pool as
    one ``parzen.KernelBlock`` whose prefixes hold every budget's model and
    serve its pool estimators, the grid for every budget's exact truth,
    which ``estimators.prefix_truths`` computes before the budget loop."""
    grid, (s_idx, rep) = shared, unit
    label = spec.samplers[s_idx].label()
    sequence = _sequence(spec, s_idx, next(rngs))
    model = parzen.fit_arrays(sequence.xs, sequence.ys, spec.classifier)
    pool = synthdata.draw_unlabeled(spec.task, spec.pool_size, next(rngs))
    pool_block = parzen.kernel_block(pool, model)
    truths = estimators.prefix_truths(model, spec.task, spec.budgets, grid)
    records = []
    for budget, truth in zip(spec.budgets, truths.tolist()):
        block = pool_block.prefix(budget)
        records += _estimates(spec, rep, label, sequence[:budget], block, truth, rngs)
    return records


# ---------------------------------------------------------------------------

# Units are independent and each draws only from its own substreams, so they
# may run in any order on any worker. The true baseline is exact and draws
# nothing; the paths it used to draw on, (0, 1), (2, d, rep) and (2, s, rep,
# budget_index), are retired.
_UNBIASED = (synthdata.unbiased_sampler(),)


def _mixtures(*ds: float) -> tuple[SamplingDistribution, ...]:
    return tuple(SamplingDistribution(synthdata.SYMMETRIC_MIXTURE, d=d) for d in ds)


SCENARIO_TABLE = {
    EVAL_SIZE_DISTRIBUTION: Scenario(
        lambda spec: _fixed_set(spec, spec.train_size),
        # one evaluation stream per size
        lambda spec, unit: [(1, unit[1], i) for i in range(len(spec.budgets))],
        _eval_size_unit,
        repetitions=1000, estimators=(EstimatorSpec(SUBSAMPLE_BASELINE),),
        samplers=_UNBIASED, budgets=(5, 10, 20, 100),
        sizes=("train_size",), estimator_names=(SUBSAMPLE_BASELINE,), single=("samplers",),
    ),
    CV_FOLDS: Scenario(
        lambda spec: _fixed_set(spec, spec.budgets[0]),
        # one fold-assignment stream per estimator
        lambda spec, unit: [(1, unit[1], e) for e in range(len(spec.estimators))],
        _cv_folds_unit,
        repetitions=50, estimators=tuple(EstimatorSpec(KFOLD_CV, k) for k in (2, 5, 10, 20)),
        samplers=_UNBIASED, budgets=(20,),
        estimator_names=(KFOLD_CV, REWEIGHTED_CV), single=("samplers", "budgets"),
    ),
    BIAS_SWEEP: Scenario(
        lambda spec: None,
        # the acquisition, then the fold assignment
        lambda spec, unit: [(0, *unit), (1, *unit)],
        _bias_sweep_unit,
        repetitions=50, estimators=(EstimatorSpec(KFOLD_CV),),
        samplers=_mixtures(0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0, 2.25, 2.5, 2.75, 3.0),
        budgets=(30,),
        estimator_names=(KFOLD_CV,), single=("budgets", "estimators"),
    ),
    # Its samplers are the three acquisition regimes: unbiased,
    # boundary-focused and boundary-avoiding.
    ESTIMATOR_COMPARISON: Scenario(
        lambda spec: estimators.truth_grid(spec.task, spec.classifier),
        _comparison_paths, _comparison_unit,
        repetitions=200,
        estimators=tuple(map(EstimatorSpec, (
            GENERALIZATION_ERROR, KFOLD_CV, SELF_LABEL_CV, REWEIGHTED_CV,
            PROBABILISTIC, SUBSAMPLE_BASELINE,
        ))),
        samplers=_UNBIASED + _mixtures(0.3, 2.0), budgets=(10, 30, 50),
        sizes=("pool_size", "subsample_reps"),
    ),
}


def _run_unit(run_unit: Callable, spec: ExperimentSpec, shared, item) -> list[RunRecord]:
    """One unit's records from its seed states, one row per declared path."""
    unit, states = item
    return run_unit(spec, shared, unit, map(_generator, states))


def run_experiment(spec: ExperimentSpec, workers: int = 1) -> list[RunRecord]:
    """Run the scenario configured in the spec and return sorted records.

    The seed states of every unit's paths come from one ``derive_states``
    pass before any unit runs; each unit gets its rows."""
    if integer(workers, "workers") < 1:
        raise ValidationError(f"workers must be >= 1, got {workers}")
    row = SCENARIO_TABLE[spec.scenario]
    work = [(s, rep) for s in range(len(spec.samplers)) for rep in range(spec.repetitions)]
    paths = [row.paths(spec, unit) for unit in work]
    states = derive_states(spec.master_seed, [p for unit_paths in paths for p in unit_paths])
    ends = list(accumulate(map(len, paths)))
    items = [(unit, states[end - len(p) : end]) for unit, p, end in zip(work, paths, ends)]
    run = partial(_run_unit, row.run_unit, spec, row.shared(spec))
    # A pool may fork all its workers at once: ask for no more than there are units.
    workers = min(workers, len(work))
    if workers <= 1:
        nested = [run(item) for item in items]
    else:
        # Imported here: the pool pulls in multiprocessing, which a
        # one-worker run never needs.
        from concurrent.futures import ProcessPoolExecutor

        chunk = max(1, math.ceil(len(work) / (workers * 4)))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            nested = list(pool.map(run, items, chunksize=chunk))
    records = [r for sub in nested for r in sub]
    records.sort(key=RunRecord.sort_key)
    return records
