"""Runtime performance estimators and the two oracle baselines.

Five estimators work from what a deployed system actually has (the labeled
set, the classifier, and an unlabeled candidate pool): the posterior-based
generalization-error score, plain and reweighted k-fold cross-validation,
cross-validation over a self-labeled pool, and a Beta-mixture model built
from local label statistics. The two baselines (true and subsample) need
oracle access to the data-generating distribution and exist only to judge
the estimators.

Every operation returns a PerformanceEstimate so point values, empirical
distributions and Beta mixtures can be summarized uniformly.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import special

from . import parzen, synthdata
from .errors import ValidationError
from .parzen import ClassifierConfig, ParzenModel
from .synthdata import LabeledSet, TaskModel

POINT = "point"
EMPIRICAL = "empirical"
BETA_MIXTURE = "beta-mixture"

KERNEL_COUNT = "kernel"
HARD_COUNT = "hard"

# Beta-mixture quantiles: bracket width at which the solve stops, and the
# Halley step, relative to the local length scale min(1, 1/density,
# density/|slope|), below which the next iterate is returned.
_XTOL = 1e-12
_HALLEY_STOP = 1e-5


@dataclass(frozen=True)
class PerformanceEstimate:
    """A point value, an empirical sample, or a Beta mixture over accuracy."""

    kind: str
    point_value: float | None = None
    samples: np.ndarray | None = None
    components: np.ndarray | None = None

    def __post_init__(self):
        if self.kind == POINT:
            v = self.point_value
            if v is None or not (0.0 <= v <= 1.0):
                raise ValidationError(f"point estimate must be in [0,1], got {v!r}")
        elif self.kind == EMPIRICAL:
            if self.samples is None or len(self.samples) == 0:
                raise ValidationError("empirical estimate needs at least one sample")
            if np.any(self.samples < 0.0) or np.any(self.samples > 1.0):
                raise ValidationError("empirical samples must lie in [0,1]")
            self.samples.setflags(write=False)
        elif self.kind == BETA_MIXTURE:
            if self.components is None or len(self.components) == 0:
                raise ValidationError("beta mixture needs at least one component")
            if np.any(self.components <= 0.0):
                raise ValidationError("beta parameters must be strictly positive")
            self.components.setflags(write=False)
        else:
            raise ValidationError(f"unknown estimate kind {self.kind!r}")

    @classmethod
    def point(cls, value: float) -> PerformanceEstimate:
        return cls(kind=POINT, point_value=float(value))

    @classmethod
    def empirical(cls, values: np.ndarray) -> PerformanceEstimate:
        return cls(kind=EMPIRICAL, samples=np.asarray(values, dtype=np.float64))

    @classmethod
    def beta_mixture(cls, alphas: np.ndarray, betas: np.ndarray) -> PerformanceEstimate:
        comps = np.column_stack(
            [np.asarray(alphas, dtype=np.float64), np.asarray(betas, dtype=np.float64)]
        )
        return cls(kind=BETA_MIXTURE, components=comps)

    def mean(self) -> float:
        if self.kind == POINT:
            return self.point_value
        if self.kind == EMPIRICAL:
            return float(self.samples.mean())
        a, b = self.components[:, 0], self.components[:, 1]
        return float((a / (a + b)).mean())

    def cdf(self, t: float) -> float:
        """Mixture CDF; defined for every kind (point = step function)."""
        if self.kind == POINT:
            return 1.0 if t >= self.point_value else 0.0
        if self.kind == EMPIRICAL:
            return float((self.samples <= t).mean())
        if t <= 0.0:
            return 0.0
        if t >= 1.0:
            return 1.0
        a, b = self.components[:, 0], self.components[:, 1]
        return float(special.betainc(a, b, t).mean())

    def quantile(self, q: float) -> float:
        """Level-q quantile.

        For a Beta mixture this solves F(t) = q, with F = ``cdf``, by a
        safeguarded Halley iteration. It starts at the quantile of the
        normal distribution with the mixture's mean and variance. The
        mixture density and its derivative come from the log-space Beta
        densities. Every CDF evaluation goes through ``cdf`` and shrinks a
        bracket that starts at [0, 1]; a step that would leave the bracket
        is replaced by bisection. The solve stops when the bracket is
        narrower than 1e-12, or after an accepted Halley step shorter than
        1e-5 of the local length scale (at most 1): convergence is cubic,
        so the error left after such a step is far below 1e-12.
        """
        if not 0.0 <= q <= 1.0:
            raise ValidationError(f"quantile level must be in [0,1], got {q}")
        if self.kind == POINT:
            return self.point_value
        if self.kind == EMPIRICAL:
            return float(np.percentile(self.samples, 100.0 * q))
        if q == 0.0:
            return 0.0
        if q == 1.0:
            return 1.0
        a, b = self.components[:, 0], self.components[:, 1]
        am1, bm1 = a - 1.0, b - 1.0
        log_norm = special.betaln(a, b)
        means = a / (a + b)
        mu = float(means.mean())
        var = float((means * (a + 1.0) / (a + b + 1.0)).mean()) - mu * mu
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
        """Boxplot-style summary: mean, median and quartiles."""
        return {
            "mean": self.mean(),
            "median": self.median(),
            "q25": self.quantile(0.25),
            "q75": self.quantile(0.75),
        }


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


@dataclass(frozen=True)
class KFoldDetail:
    """Cross-validation output plus the per-fold models, for callers that
    also want to evaluate the fold-trained classifiers elsewhere."""

    estimate: PerformanceEstimate
    fold_indices: list[np.ndarray]
    fold_models: list[ParzenModel]


def kfold_cv_detail(
    labeled: LabeledSet,
    k: int,
    config: ClassifierConfig,
    rng: np.random.Generator,
    reweighted: bool = False,
    weight_cap: float | None = None,
) -> KFoldDetail:
    n = len(labeled)
    if n == 0:
        raise ValidationError("no labeled instances")
    xs, ys = labeled.xs, labeled.ys

    folds = random_folds(n, k, rng)
    correct = np.empty(n, dtype=np.float64)
    models = []
    for fold in folds:
        mask = np.ones(n, dtype=bool)
        mask[fold] = False
        model = parzen.fit_arrays(xs[mask], ys[mask], config)
        models.append(model)
        correct[fold] = parzen.predict_batch(model, xs[fold]) == ys[fold]

    if reweighted:
        w = 1.0 / labeled.qs
        if weight_cap is not None:
            if weight_cap <= 0.0:
                raise ValidationError(f"weight_cap must be > 0, got {weight_cap}")
            w = np.minimum(w, weight_cap)
        if np.ptp(w) == 0.0:
            # Constant weights: identical to the unweighted mean by identity;
            # use that path so the equality is exact.
            acc = float(correct.mean())
        else:
            acc = float((w * correct).sum() / w.sum())
    else:
        acc = float(correct.mean())
    return KFoldDetail(PerformanceEstimate.point(acc), folds, models)


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
    return kfold_cv_detail(labeled, k, config, rng, reweighted, weight_cap).estimate


def _subset_restricted_cv(
    xs: np.ndarray,
    ys: np.ndarray,
    train_size: int,
    k: int,
    config: ClassifierConfig,
    rng: np.random.Generator,
) -> PerformanceEstimate:
    """k-fold CV where each fold's training side is a fresh uniform subset
    of at most ``train_size`` instances drawn from the other folds."""
    n = len(xs)
    folds = random_folds(n, k, rng)
    correct = np.empty(n, dtype=np.float64)
    for fold in folds:
        mask = np.ones(n, dtype=bool)
        mask[fold] = False
        available = np.nonzero(mask)[0]
        size = min(train_size, len(available))
        pick = rng.choice(available, size=size, replace=False)
        model = parzen.fit_arrays(xs[pick], ys[pick], config)
        correct[fold] = parzen.predict_batch(model, xs[fold]) == ys[fold]
    return PerformanceEstimate.point(float(correct.mean()))


def self_label_cv(
    labeled: LabeledSet,
    pool: np.ndarray,
    k: int,
    config: ClassifierConfig,
    rng: np.random.Generator,
) -> PerformanceEstimate:
    """Cross-validation over the labeled set plus a self-labeled pool.

    The classifier fitted on the labeled set labels the candidate pool;
    those predictions are then treated as ground truth. To keep the
    training sets comparable to the original labeled set, each fold trains
    on a uniform random subset of size min(|labeled|, instances outside
    the fold).
    """
    if len(labeled) == 0:
        raise ValidationError("no labeled instances")
    if k < 2:
        raise ValidationError(f"fold count must be >= 2, got {k}")
    if len(pool) == 0:
        warnings.warn(
            "empty candidate pool: falling back to plain k-fold CV", stacklevel=2
        )
        return kfold_cv(labeled, k, config, rng)

    base = parzen.fit_arrays(labeled.xs, labeled.ys, config)
    pool_ys = parzen.predict_batch(base, pool)

    union_xs = np.concatenate([labeled.xs, pool])
    union_ys = np.concatenate([labeled.ys, pool_ys])
    return _subset_restricted_cv(union_xs, union_ys, len(labeled), k, config, rng)


# ---------------------------------------------------------------------------
# Local label statistics / probabilistic performance
# ---------------------------------------------------------------------------


def _two_class_masses(
    labeled: LabeledSet,
    query_xs: np.ndarray,
    bandwidth: float,
    count_mode: str,
) -> tuple[np.ndarray, np.ndarray]:
    """(total mass, class-2 mass) at each query; two-class tasks only."""
    if not (bandwidth > 0.0 and math.isfinite(bandwidth)):
        raise ValidationError(f"bandwidth must be > 0, got {bandwidth}")
    if count_mode not in (KERNEL_COUNT, HARD_COUNT):
        raise ValidationError(f"unknown count mode {count_mode!r}")
    nq = len(query_xs)
    if len(labeled) == 0:
        return np.zeros(nq), np.zeros(nq)
    xs, ys = labeled.xs, labeled.ys
    if np.any((ys < 1) | (ys > 2)):
        raise ValidationError("local label statistics are defined for 2 classes only")
    if count_mode == KERNEL_COUNT:
        weights = parzen.kernel_weights(query_xs, xs, bandwidth)
    else:
        weights = (
            np.abs(query_xs[:, None] - xs[None, :]) <= bandwidth
        ).astype(np.float64)
    total = weights.sum(axis=1)
    class2 = weights[:, ys == 2].sum(axis=1)
    return total, class2


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
    labeled: LabeledSet,
    evaluation: np.ndarray,
    bandwidth: float,
    count_mode: str = KERNEL_COUNT,
) -> PerformanceEstimate:
    """Accuracy as an equal-prior mixture of per-instance Beta distributions.

    Each evaluation instance contributes one Beta component derived from
    its local label statistics: the nearby-label count n and the local
    class-2 fraction p_hat. The count is a soft kernel mass by default;
    ``count_mode="hard"`` switches to counting instances within one
    bandwidth. With no mass p_hat defaults to 1/2, so instances with no
    nearby labels contribute the uniform Beta(1, 1).
    """
    if len(evaluation) == 0:
        raise ValidationError("no evaluation instances")
    total, class2 = _two_class_masses(labeled, evaluation, bandwidth, count_mode)
    p_hat = np.where(total > 0.0, class2 / np.where(total > 0.0, total, 1.0), 0.5)
    alphas, betas = beta_components_from_stats(total, p_hat)
    return PerformanceEstimate.beta_mixture(alphas, betas)


# ---------------------------------------------------------------------------
# Oracle baselines
# ---------------------------------------------------------------------------


def true_baseline(
    m: ParzenModel,
    model: TaskModel,
    eval_size: int = 2000,
    rng: np.random.Generator | None = None,
) -> PerformanceEstimate:
    """Accuracy on a large fresh oracle-labeled unbiased evaluation set."""
    if eval_size < 1:
        raise ValidationError(f"eval_size must be >= 1, got {eval_size}")
    if rng is None:
        raise ValidationError("true_baseline needs an explicit random stream")
    xs, ys = synthdata.draw_oracle_arrays(model, eval_size, rng)
    return PerformanceEstimate.point(parzen.accuracy_arrays(m, xs, ys))


def subsample_baseline(
    m: ParzenModel,
    model: TaskModel,
    budget: int,
    reps: int,
    rng: np.random.Generator,
) -> PerformanceEstimate:
    """Distribution of accuracy over repeated budget-sized evaluation sets.

    The classifier stays fixed; each repetition draws a fresh unbiased
    oracle-labeled set of ``budget`` instances, so each accuracy value is
    Binomial(budget, true accuracy) / budget.
    """
    if budget < 1:
        raise ValidationError(f"budget must be >= 1, got {budget}")
    if reps < 1:
        raise ValidationError(f"reps must be >= 1, got {reps}")
    xs, ys = synthdata.draw_oracle_arrays(model, reps * budget, rng)
    correct = (parzen.predict_batch(m, xs) == ys).reshape(reps, budget)
    return PerformanceEstimate.empirical(correct.mean(axis=1))
