"""Runtime performance estimators and the two oracle baselines.

Five estimators work from what a deployed system actually has (the labeled
set, the classifier, and an unlabeled candidate pool): the posterior-based
generalization-error score, plain and reweighted k-fold cross-validation,
cross-validation over a self-labeled pool, and a Beta-mixture model built
from local label statistics. The two baselines (true and subsample) need
oracle access to the data-generating distribution and exist only to judge
the estimators.

Every estimator returns a PerformanceEstimate, an empirical sample (a point
value is a one-value sample) or a Beta mixture, summarized uniformly.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np
from scipy import special

from . import parzen, synthdata
from .errors import ValidationError
from .parzen import ClassifierConfig, ParzenModel
from .synthdata import LabeledSet, TaskModel

KERNEL_COUNT = "kernel"
HARD_COUNT = "hard"

# Beta-mixture quantiles: bracket width at which the solve stops, and the
# Halley step, relative to the local length scale min(1, 1/density,
# density/|slope|), below which the next iterate is returned.
_XTOL = 1e-12
_HALLEY_STOP = 1e-5


def percentiles(values: np.ndarray, percents: Sequence[float]) -> list[float]:
    """Percentiles of finite ``values`` by numpy's default "linear" method,
    from one sort.

    Each level p in [0, 100] has the virtual index i = (n-1) * (p/100) into
    the sorted values; with a, b the values at floor(i) and floor(i)+1 (both
    the last value when i >= n-1) and g = i - floor(i), the result is
    a + (b-a)*g, or b - (b-a)*(1-g) when g >= 0.5. That is numpy's arithmetic
    step for step, so the result equals ``numpy.percentile(values, percents)``
    bit for bit.
    """
    ordered = np.sort(np.asarray(values, dtype=np.float64))
    last = len(ordered) - 1
    out = []
    for p in percents:
        virtual = last * (p / 100.0)
        if virtual >= last:
            # numpy reads the last value on both sides, at index -1
            a = b = float(ordered[last])
            g = virtual + 1.0
        else:
            below = math.floor(virtual)
            a, b = float(ordered[below]), float(ordered[below + 1])
            g = virtual - below
        out.append(b - (b - a) * (1.0 - g) if g >= 0.5 else a + (b - a) * g)
    return out


class _BetaSetup(NamedTuple):
    """What every quantile solve of one Beta mixture shares."""

    a: np.ndarray
    b: np.ndarray
    am1: np.ndarray
    bm1: np.ndarray
    log_norm: np.ndarray  # betaln(a, b)
    mean: float
    var: float


@dataclass(frozen=True)
class PerformanceEstimate:
    """Accuracy as an empirical sample (one value for a point) or a Beta mixture."""

    samples: np.ndarray | None = None
    components: np.ndarray | None = None

    def __post_init__(self):
        if (self.samples is None) == (self.components is None):
            raise ValidationError("an estimate holds either samples or Beta components")
        if self.samples is not None:
            if len(self.samples) == 0:
                raise ValidationError("empirical estimate needs at least one sample")
            if not np.all((self.samples >= 0.0) & (self.samples <= 1.0)):
                raise ValidationError("empirical samples must lie in [0,1]")
            self.samples.setflags(write=False)
        else:
            if len(self.components) == 0:
                raise ValidationError("beta mixture needs at least one component")
            if not np.all(np.isfinite(self.components) & (self.components > 0.0)):
                raise ValidationError("beta parameters must be finite and strictly positive")
            self.components.setflags(write=False)

    @classmethod
    def point(cls, value: float) -> PerformanceEstimate:
        return cls(samples=np.array([float(value)]))

    @classmethod
    def empirical(cls, values: np.ndarray) -> PerformanceEstimate:
        # A copy, so freezing the samples never freezes the caller's array.
        return cls(samples=np.array(values, dtype=np.float64))

    @classmethod
    def beta_mixture(cls, alphas: np.ndarray, betas: np.ndarray) -> PerformanceEstimate:
        return cls(components=np.column_stack([alphas, betas]).astype(np.float64))

    def mean(self) -> float:
        if self.samples is not None:
            return float(self.samples.mean())
        return self._beta.mean

    @cached_property
    def _beta(self) -> _BetaSetup:
        """Beta-mixture set-up, computed once per estimate."""
        a, b = self.components[:, 0], self.components[:, 1]
        means = a / (a + b)
        mu = float(means.mean())
        var = float((means * (a + 1.0) / (a + b + 1.0)).mean()) - mu * mu
        return _BetaSetup(a, b, a - 1.0, b - 1.0, special.betaln(a, b), mu, var)

    def cdf(self, t: float) -> float:
        """Empirical or mixture CDF (a point value's is a step function)."""
        if self.samples is not None:
            return float((self.samples <= t).mean())
        if t <= 0.0:
            return 0.0
        if t >= 1.0:
            return 1.0
        beta = self._beta
        return float(special.betainc(beta.a, beta.b, t).mean())

    def quantile(self, q: float) -> float:
        """Level-q quantile.

        An empirical quantile is numpy's "linear" percentile (see
        ``percentiles``). For a Beta mixture this solves F(t) = q, with
        F = ``cdf``, by a safeguarded Halley iteration. It starts at the
        quantile of the normal distribution with the mixture's mean and
        variance. The mixture density and its derivative come from the
        log-space Beta densities. Every CDF evaluation goes through ``cdf``
        and shrinks a bracket that starts at [0, 1]; a step that would leave
        the bracket is replaced by bisection. The solve stops when the
        bracket is narrower than 1e-12, or after an accepted Halley step
        shorter than 1e-5 of the local length scale (at most 1): convergence
        is cubic, so the error left after such a step is far below 1e-12.
        """
        if not 0.0 <= q <= 1.0:
            raise ValidationError(f"quantile level must be in [0,1], got {q}")
        if self.samples is not None:
            return percentiles(self.samples, (100.0 * q,))[0]
        if q == 0.0:
            return 0.0
        if q == 1.0:
            return 1.0
        _, _, am1, bm1, log_norm, mu, var = self._beta
        lo, hi = 0.0, 1.0
        t = mu + math.sqrt(max(var, 0.0)) * float(special.ndtri(q))
        if not lo < t < hi:
            t = 0.5
        while True:
            excess = self.cdf(t) - q
            if excess == 0.0:
                return t
            if excess < 0.0:
                lo = t
            else:
                hi = t
            if hi - lo < _XTOL:
                return 0.5 * (lo + hi)
            pdf = np.exp(am1 * math.log(t) + bm1 * math.log1p(-t) - log_norm)
            density = float(pdf.mean())
            slope = float((pdf * (am1 / t - bm1 / (1.0 - t))).mean())
            try:
                newton = excess / density
                step = -newton / (1.0 - 0.5 * newton * slope / density)
            except ZeroDivisionError:
                step = math.nan
            if lo < t + step < hi:
                t += step
                # The step is measured against the local length scale, the
                # smaller of 1, 1/density and density/|slope|, so a sharply
                # peaked mixture is solved as finely as a flat one.
                if abs(step) * max(1.0, density, abs(slope / density)) < _HALLEY_STOP:
                    return t
            else:
                t = 0.5 * (lo + hi)

    def median(self) -> float:
        return self.quantile(0.5)

    def summary(self) -> dict[str, float]:
        """Boxplot-style summary: mean, median and quartiles.

        An empirical estimate sorts its samples once and reads all three
        quartiles from that sort (``percentiles``, equal to
        ``numpy.percentile`` bit for bit). For a Beta mixture each quartile
        is a ``quantile`` call; the set-up those solves share is computed
        once per estimate.
        """
        if self.samples is not None:
            q25, median, q75 = percentiles(self.samples, (25.0, 50.0, 75.0))
        else:
            median, q25, q75 = self.median(), self.quantile(0.25), self.quantile(0.75)
        return {"mean": self.mean(), "median": median, "q25": q25, "q75": q75}


# ---------------------------------------------------------------------------
# Generalization error
# ---------------------------------------------------------------------------


def _accuracy_from_posteriors(post: np.ndarray) -> float:
    """1 - mean(1 - max posterior). Contributions are summed in sorted
    order so the result is exactly invariant under permutation of the
    evaluation set."""
    contrib = 1.0 - post.max(axis=1)
    err = float(np.sort(contrib).sum())
    return 1.0 - err / post.shape[0]


def generalization_error_estimate(
    m: ParzenModel, evaluation: np.ndarray
) -> PerformanceEstimate:
    """Self-assessed accuracy from the classifier's own confidence.

    Sums one minus the maximal predicted posterior over the evaluation
    instances and reports accuracy = 1 - error / |evaluation|.
    """
    if len(evaluation) == 0:
        raise ValidationError("no evaluation instances")
    return PerformanceEstimate.point(
        _accuracy_from_posteriors(parzen.posterior_batch(m, evaluation))
    )


# ---------------------------------------------------------------------------
# Cross-validation family
# ---------------------------------------------------------------------------


def random_folds(n: int, k: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Unstratified random folds with sizes within 1 of n/k.

    k == n is leave-one-out; its assignment is forced, so it is built
    deterministically without consuming randomness.
    """
    if k < 2:
        raise ValidationError(f"fold count must be >= 2, got {k}")
    if k > n:
        raise ValidationError(f"cannot split {n} instances into {k} folds")
    if k == n:
        return [np.array([i]) for i in range(n)]
    perm = rng.permutation(n)
    base, extra = divmod(n, k)
    folds = []
    start = 0
    for i in range(k):
        size = base + (1 if i < extra else 0)
        folds.append(np.sort(perm[start : start + size]))
        start += size
    return folds


def _fold_predictions(
    xs: np.ndarray,
    ys: np.ndarray,
    k: int,
    config: ClassifierConfig,
    rng: np.random.Generator,
    train_size: int | None = None,
) -> tuple[np.ndarray, list[ParzenModel]]:
    """Held-out correctness (1.0 or 0.0) of each instance under k-fold CV
    over (xs, ys), and the fold models. Each fold's model trains on the
    instances outside the fold or, with ``train_size``, on a fresh uniform
    subset of at most that many of them."""
    n = len(xs)
    folds = random_folds(n, k, rng)
    correct = np.empty(n, dtype=np.float64)
    models = []
    for fold in folds:
        train = np.ones(n, dtype=bool)
        train[fold] = False
        if train_size is not None:
            outside = np.flatnonzero(train)
            train = rng.choice(outside, size=min(train_size, len(outside)), replace=False)
        model = parzen.fit_arrays(xs[train], ys[train], config)
        models.append(model)
        correct[fold] = parzen.predict_batch(model, xs[fold]) == ys[fold]
    return correct, models


@dataclass(frozen=True)
class KFoldDetail:
    """Cross-validation output plus the per-fold models, for callers that
    also want to evaluate the fold-trained classifiers elsewhere."""

    estimate: PerformanceEstimate
    fold_models: list[ParzenModel]


def kfold_cv_detail(
    labeled: LabeledSet,
    k: int,
    config: ClassifierConfig,
    rng: np.random.Generator,
    reweighted: bool = False,
    weight_cap: float | None = None,
) -> KFoldDetail:
    if len(labeled) == 0:
        raise ValidationError("no labeled instances")
    if weight_cap is not None and not weight_cap > 0.0:
        raise ValidationError(f"weight_cap must be > 0, got {weight_cap}")
    correct, models = _fold_predictions(labeled.xs, labeled.ys, k, config, rng)
    acc = float(correct.mean())
    if reweighted:
        w = 1.0 / labeled.qs
        if weight_cap is not None:
            w = np.minimum(w, weight_cap)
        # Constant weights give the unweighted mean by identity; keeping that
        # value, not the weighted sum, makes the equality exact.
        if np.ptp(w) != 0.0:
            acc = float((w * correct).sum() / w.sum())
    return KFoldDetail(PerformanceEstimate.point(acc), models)


def kfold_cv(
    labeled: LabeledSet,
    k: int,
    config: ClassifierConfig,
    rng: np.random.Generator,
    reweighted: bool = False,
    weight_cap: float | None = None,
) -> PerformanceEstimate:
    """k-fold cross-validation accuracy over the labeled set.

    Fold assignment is randomized per call; predictions are pooled over all
    held-out instances. With ``reweighted`` each prediction is weighted by
    the inverse of its recorded sampling density, which corrects the
    estimate toward the data-generating distribution.
    """
    # reweighted stays the 5th positional argument: tracing names the span by it.
    return kfold_cv_detail(labeled, k, config, rng, reweighted, weight_cap).estimate


def self_label_cv(
    m: ParzenModel, pool: np.ndarray, k: int, rng: np.random.Generator
) -> PerformanceEstimate:
    """Cross-validation over the labeled set plus a self-labeled pool.

    The classifier ``m`` labels the candidate pool; those predictions are
    then treated as ground truth. To keep the training sets comparable to
    the labeled set ``m`` was fitted on, each fold fits ``m.config`` to a
    uniform random subset of size min(|labeled|, instances outside the fold).
    """
    n = len(m.train_x)
    if n == 0:
        raise ValidationError("no labeled instances")
    if k < 2:
        raise ValidationError(f"fold count must be >= 2, got {k}")
    if len(pool) == 0:
        warnings.warn(
            "empty candidate pool: falling back to plain k-fold CV", stacklevel=2
        )
        correct, _ = _fold_predictions(m.train_x, m.train_y, k, m.config, rng)
    else:
        union_xs = np.concatenate([m.train_x, pool])
        union_ys = np.concatenate([m.train_y, parzen.predict_batch(m, pool)])
        correct, _ = _fold_predictions(union_xs, union_ys, k, m.config, rng, train_size=n)
    return PerformanceEstimate.point(float(correct.mean()))


# ---------------------------------------------------------------------------
# Local label statistics / probabilistic performance
# ---------------------------------------------------------------------------


def beta_components_from_stats(
    n: np.ndarray, p_hat: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-instance accuracy Beta parameters from local label statistics:
    alpha = 1 + max(n p, n (1-p)), beta = 1 + min(n p, n (1-p))."""
    n = np.asarray(n, dtype=np.float64)
    p_hat = np.asarray(p_hat, dtype=np.float64)
    majority = np.maximum(n * p_hat, n * (1.0 - p_hat))
    minority = np.minimum(n * p_hat, n * (1.0 - p_hat))
    return 1.0 + majority, 1.0 + minority


def probabilistic_performance(
    m: ParzenModel, evaluation: np.ndarray, count_mode: str = KERNEL_COUNT
) -> PerformanceEstimate:
    """Accuracy as an equal-prior mixture of per-instance Beta distributions.

    Each evaluation instance contributes one Beta component derived from
    the local statistics of the two-class labels ``m`` was fitted on: the
    nearby-label count n and the local class-2 fraction p_hat. The count is
    a soft kernel mass by default; ``count_mode="hard"`` switches to
    counting instances within one bandwidth of ``m.config``. With no mass
    p_hat defaults to 1/2, so instances with no nearby labels contribute
    the uniform Beta(1, 1).
    """
    if len(evaluation) == 0:
        raise ValidationError("no evaluation instances")
    if count_mode not in (KERNEL_COUNT, HARD_COUNT):
        raise ValidationError(f"unknown count mode {count_mode!r}")
    xs, ys, bandwidth = m.train_x, m.train_y, m.config.bandwidth
    if np.any((ys < 1) | (ys > 2)):
        raise ValidationError("local label statistics are defined for 2 classes only")
    if count_mode == KERNEL_COUNT:
        weights = parzen.kernel_weights(evaluation, xs, bandwidth)
    else:
        weights = (
            np.abs(evaluation[:, None] - xs[None, :]) <= bandwidth
        ).astype(np.float64)
    total = weights.sum(axis=1)
    class2 = weights[:, ys == 2].sum(axis=1)
    p_hat = np.where(total > 0.0, class2 / np.where(total > 0.0, total, 1.0), 0.5)
    alphas, betas = beta_components_from_stats(total, p_hat)
    return PerformanceEstimate.beta_mixture(alphas, betas)


# ---------------------------------------------------------------------------
# Oracle baselines
# ---------------------------------------------------------------------------


def true_baseline(m: ParzenModel, model: TaskModel) -> float:
    """Exact accuracy of the classifier under the data-generating
    distribution: ``synthdata.decision_accuracy`` of the class
    ``parzen.predict_batch`` returns, read on a grid of 1/20 bandwidth."""
    return synthdata.decision_accuracy(
        model, lambda xs: parzen.posterior_batch(m, xs), m.config.bandwidth / 20.0
    )


def subsample_baseline(
    accuracy: float, budget: int, reps: int, rng: np.random.Generator
) -> PerformanceEstimate:
    """Distribution of accuracy over repeated budget-sized evaluation sets.

    The classifier stays fixed and each repetition is a fresh unbiased
    oracle-labeled set of ``budget`` instances, so each accuracy value is
    Binomial(budget, accuracy) / budget, drawn directly from the classifier's
    true ``accuracy``.
    """
    if budget < 1:
        raise ValidationError(f"budget must be >= 1, got {budget}")
    if reps < 1:
        raise ValidationError(f"reps must be >= 1, got {reps}")
    if not 0.0 <= accuracy <= 1.0:
        raise ValidationError(f"accuracy must be in [0,1], got {accuracy}")
    return PerformanceEstimate.empirical(rng.binomial(budget, accuracy, reps) / budget)
