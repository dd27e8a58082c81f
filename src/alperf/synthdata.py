"""Synthetic one-dimensional classification tasks with known ground truth.

The data-generating distribution is a set of class priors plus per-class
Gaussian mixtures. Label acquisition is modelled by an explicit sampling
distribution q(x): either the data marginal itself (unbiased acquisition)
or a symmetric two-component Gaussian mixture placed at a distance ``d``
on both sides of the optimal decision boundary, which stands in for an
informed selection strategy. Labels come from a stochastic oracle that
draws from the true class posterior, so label noise near the boundary is
preserved.

Closed-form quantities (posterior, marginal density, Bayes accuracy) are
exposed so they can serve as reference values elsewhere. The accuracy of
any one-dimensional decision rule under a task is exact: ``decision_accuracy``
splits the line into the rule's decision regions and sums the closed-form
Gaussian mass of each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import special

from .errors import ValidationError

# Decision rules are read on this interval, widened for each task to cover
# mean +- _SUPPORT_STDS std of every component; each tail beyond the interval
# takes the class predicted at its end.
SUPPORT = (-10.0, 10.0)
_SUPPORT_STDS = 8.0

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_PROB_TOL = 1e-12
# Decision boundaries: points read per bracket and refinement round, and the
# bracket width at which a boundary is placed at its bracket's midpoint.
_SECTIONS = 32
_EDGE_TOL = 1e-9

DATA_MARGINAL = "data-marginal"
SYMMETRIC_MIXTURE = "symmetric-mixture"


@dataclass(frozen=True)
class GaussianComponent:
    """One mixture component: N(mean, std^2) with a mixture weight."""

    weight: float
    mean: float
    std: float

    def __post_init__(self):
        if not (0.0 <= self.weight <= 1.0):
            raise ValidationError(f"component weight must be in [0,1], got {self.weight}")
        if not (self.std > 0.0 and math.isfinite(self.std)):
            raise ValidationError(f"component std must be > 0, got {self.std}")
        if not math.isfinite(self.mean):
            raise ValidationError(f"component mean must be finite, got {self.mean}")


@dataclass(frozen=True)
class TaskModel:
    """Data-generating distribution: class priors plus per-class Gaussian mixtures.

    Classes are indexed 1..C. The feature space is one-dimensional.
    """

    class_priors: tuple[float, ...]
    class_components: tuple[tuple[GaussianComponent, ...], ...]

    def __post_init__(self):
        if len(self.class_priors) < 2:
            raise ValidationError("a task needs at least 2 classes")
        if len(self.class_components) != len(self.class_priors):
            raise ValidationError(
                "class_components and class_priors must have the same length"
            )
        if not all(p >= 0.0 and math.isfinite(p) for p in self.class_priors):
            raise ValidationError(
                f"class priors must be finite and nonnegative, got {self.class_priors!r}"
            )
        if abs(sum(self.class_priors) - 1.0) > _PROB_TOL:
            raise ValidationError(
                f"class priors must sum to 1 within {_PROB_TOL}, got {sum(self.class_priors)!r}"
            )
        for c, comps in enumerate(self.class_components):
            if not comps:
                raise ValidationError(f"class {c + 1} has no mixture components")
            total = sum(comp.weight for comp in comps)
            if abs(total - 1.0) > _PROB_TOL:
                raise ValidationError(
                    f"component weights of class {c + 1} must sum to 1 within {_PROB_TOL}, got {total!r}"
                )

    @property
    def class_count(self) -> int:
        return len(self.class_priors)


def default_task() -> TaskModel:
    """Two equiprobable unit-variance classes centered at -1.5 and +1.5."""
    return TaskModel(
        class_priors=(0.5, 0.5),
        class_components=(
            (GaussianComponent(1.0, -1.5, 1.0),),
            (GaussianComponent(1.0, 1.5, 1.0),),
        ),
    )


@dataclass(frozen=True)
class SamplingDistribution:
    """Acquisition distribution q(x) standing in for a selection strategy.

    ``data-marginal`` reproduces unbiased sampling from the task marginal.
    ``symmetric-mixture`` places two Gaussians at -d and +d (default width
    1/4) around the optimal decision boundary; small d concentrates labels
    in the ambiguous region, large d keeps them far from it.
    """

    kind: str
    d: float = 0.0
    component_std: float = 0.25
    component_priors: tuple[float, float] = (0.5, 0.5)

    def __post_init__(self):
        if self.kind not in (DATA_MARGINAL, SYMMETRIC_MIXTURE):
            raise ValidationError(f"unknown sampling distribution kind {self.kind!r}")
        if self.kind == SYMMETRIC_MIXTURE:
            if not (self.component_std > 0.0 and math.isfinite(self.component_std)):
                raise ValidationError(
                    f"component_std must be > 0, got {self.component_std}"
                )
            if self.d < 0.0 or not math.isfinite(self.d):
                raise ValidationError(f"d must be a finite distance >= 0, got {self.d}")
            if len(self.component_priors) != 2 or not all(
                p >= 0.0 and math.isfinite(p) for p in self.component_priors
            ):
                raise ValidationError(
                    "component_priors must be a finite nonnegative pair, "
                    f"got {self.component_priors!r}"
                )
            if abs(sum(self.component_priors) - 1.0) > _PROB_TOL:
                raise ValidationError(
                    f"component_priors must sum to 1, got {sum(self.component_priors)!r}"
                )

    def label(self) -> str:
        """Stable identifier used in run records and file outputs."""
        if self.kind == DATA_MARGINAL:
            return "unbiased"
        return f"biased-d{self.d:g}"


def unbiased_sampler() -> SamplingDistribution:
    return SamplingDistribution(kind=DATA_MARGINAL)


@dataclass(frozen=True, eq=False)
class LabeledSet:
    """Acquired labels as parallel arrays: feature values, oracle labels
    (class indices >= 1) and the acquisition density q(x) of each draw.

    The sampling density is recorded at acquisition time so estimators that
    correct for sampling bias never need the SamplingDistribution object.
    A slice (``labeled[:budget]``) is again a LabeledSet, so a budget-B
    labeled set is the length-B prefix of an acquisition sequence.
    """

    xs: np.ndarray
    ys: np.ndarray
    qs: np.ndarray

    def __post_init__(self):
        xs = np.array(self.xs, dtype=np.float64)
        ys = np.asarray(self.ys)
        qs = np.array(self.qs, dtype=np.float64)
        if xs.ndim != 1 or ys.shape != xs.shape or qs.shape != xs.shape:
            raise ValidationError(
                "x, label and density arrays must be 1-D and of equal length, got "
                f"shapes {xs.shape}, {ys.shape}, {qs.shape}"
            )
        if not np.all(np.isfinite(xs)):
            raise ValidationError("sample x must be finite")
        if xs.size and (ys.dtype.kind not in "iu" or ys.min() < 1):
            raise ValidationError("labels must be class indices >= 1")
        if not np.all((qs > 0.0) & np.isfinite(qs)):
            raise ValidationError("sampling densities must be positive and finite")
        for name, arr in (("xs", xs), ("ys", ys.astype(np.int64)), ("qs", qs)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return len(self.xs)

    def __getitem__(self, key: slice) -> LabeledSet:
        return LabeledSet(self.xs[key], self.ys[key], self.qs[key])


# ---------------------------------------------------------------------------
# Densities and Bayes quantities
# ---------------------------------------------------------------------------


def _normal_pdf(xs: np.ndarray, mean: float, std: float) -> np.ndarray:
    z = (xs - mean) / std
    return np.exp(-0.5 * z * z) / (std * _SQRT_2PI)


def class_conditional_density(model: TaskModel, xs: np.ndarray) -> np.ndarray:
    """p(x|y) for every class; returns an array of shape (len(xs), C)."""
    xs = np.asarray(xs, dtype=np.float64)
    out = np.empty((xs.shape[0], model.class_count))
    for c, comps in enumerate(model.class_components):
        acc = np.zeros_like(xs)
        for comp in comps:
            acc += comp.weight * _normal_pdf(xs, comp.mean, comp.std)
        out[:, c] = acc
    return out


def _joint_density(model: TaskModel, xs: np.ndarray) -> np.ndarray:
    """prior(y) * p(x|y), shape (len(xs), C)."""
    return class_conditional_density(model, xs) * np.asarray(model.class_priors)


def marginal_density(model: TaskModel, xs: np.ndarray) -> np.ndarray:
    """The data marginal sum_y prior(y) p(x|y)."""
    return _joint_density(model, np.asarray(xs, dtype=np.float64)).sum(axis=1)


def bayes_posterior_batch(model: TaskModel, xs: np.ndarray) -> np.ndarray:
    """True posterior p(y|x) for each query; shape (len(xs), C).

    Where every class-conditional density underflows to zero the prior
    vector is returned for that row (documented fallback).
    """
    joint = _joint_density(model, np.asarray(xs, dtype=np.float64))
    total = joint.sum(axis=1)
    ok = total > 0.0
    out = joint / np.where(ok, total, 1.0)[:, None]
    if not ok.all():
        out[~ok] = np.asarray(model.class_priors)
    return out


def sampling_density_batch(
    s: SamplingDistribution, model: TaskModel, xs: np.ndarray
) -> np.ndarray:
    xs = np.asarray(xs, dtype=np.float64)
    if s.kind == DATA_MARGINAL:
        return marginal_density(model, xs)
    w_lo, w_hi = s.component_priors
    return w_lo * _normal_pdf(xs, -s.d, s.component_std) + w_hi * _normal_pdf(
        xs, s.d, s.component_std
    )


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def _sample_gaussian_mixture(
    means: np.ndarray,
    stds: np.ndarray,
    weights: np.ndarray,
    n: int,
    rng: np.random.Generator,
) -> np.ndarray:
    idx = rng.choice(len(means), size=n, p=weights)
    out = np.empty(n, dtype=np.float64)
    for k in range(len(means)):
        sel = idx == k
        cnt = int(sel.sum())
        if cnt:
            out[sel] = rng.normal(means[k], stds[k], size=cnt)
    return out


def _marginal_mixture(model: TaskModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flatten the class mixtures into one mixture over all components."""
    means, stds, weights = [], [], []
    for prior, comps in zip(model.class_priors, model.class_components):
        for comp in comps:
            means.append(comp.mean)
            stds.append(comp.std)
            weights.append(prior * comp.weight)
    return np.array(means), np.array(stds), np.array(weights)


def draw_x(
    s: SamplingDistribution, model: TaskModel, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw n feature values from the acquisition distribution q."""
    if n < 0:
        raise ValidationError(f"sample count must be >= 0, got {n}")
    if s.kind == DATA_MARGINAL:
        means, stds, weights = _marginal_mixture(model)
    else:
        means = np.array([-s.d, s.d])
        stds = np.array([s.component_std, s.component_std])
        weights = np.asarray(s.component_priors, dtype=np.float64)
    return _sample_gaussian_mixture(means, stds, weights, n, rng)


def oracle_labels(
    model: TaskModel, xs: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Draw labels from the true posterior at each x (stochastic oracle)."""
    post = bayes_posterior_batch(model, xs)
    cum = np.cumsum(post, axis=1)
    u = rng.random(len(xs))
    idx = (u[:, None] >= cum).sum(axis=1)
    idx = np.minimum(idx, model.class_count - 1)
    return (idx + 1).astype(np.int64)


def draw_oracle_arrays(
    model: TaskModel, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Unbiased draws with oracle labels, as raw (x, y) arrays."""
    xs = draw_x(unbiased_sampler(), model, n, rng)
    ys = oracle_labels(model, xs, rng)
    return xs, ys


def draw_labeled(
    model: TaskModel, s: SamplingDistribution, n: int, rng: np.random.Generator
) -> LabeledSet:
    """Draw n labeled samples: x from q, y from the true posterior at x."""
    xs = draw_x(s, model, n, rng)
    ys = oracle_labels(model, xs, rng)
    return LabeledSet(xs, ys, sampling_density_batch(s, model, xs))


def draw_unlabeled(model: TaskModel, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n unlabeled feature values from the data marginal."""
    return draw_x(unbiased_sampler(), model, n, rng)


# ---------------------------------------------------------------------------
# Exact accuracy of a decision rule
# ---------------------------------------------------------------------------


def decision_accuracy(
    model: TaskModel, scores: Callable[[np.ndarray], np.ndarray], step: float
) -> float:
    """Exact accuracy under ``model`` of the rule that predicts the argmax of
    ``scores(xs)``, an (len(xs), C) array; ties go to the smallest class.

    The rule is read on a grid with spacing at most ``step`` over SUPPORT,
    widened to cover mean +- 8 std of every component of ``model``.
    Each class change between neighbouring grid points is then bracketed
    ever more tightly, all changes at once: every round reads the rule at
    _SECTIONS evenly spaced points inside each bracket, in one ``scores``
    call, and keeps the section where the class first changes, until every
    bracket is narrower than _EDGE_TOL. Refining the rule itself, not a
    score difference, keeps its ties exactly as argmax breaks them. The
    predicted class is then constant between boundaries, each tail taking the
    class at its grid end, and the accuracy is the sum over intervals of
    prior * weight * (Phi(b) - Phi(a)) over the predicted class's components.
    """
    comps = [comp for per_class in model.class_components for comp in per_class]
    lo = min(SUPPORT[0], *(comp.mean - _SUPPORT_STDS * comp.std for comp in comps))
    hi = max(SUPPORT[1], *(comp.mean + _SUPPORT_STDS * comp.std for comp in comps))
    grid = np.linspace(lo, hi, math.ceil((hi - lo) / step) + 1)
    labels = np.argmax(scores(grid), axis=1)
    changes = np.nonzero(np.diff(labels))[0]
    left, right, before = grid[changes], grid[changes + 1], labels[changes]
    fractions = np.arange(1, _SECTIONS + 1) / (_SECTIONS + 1)
    rows = np.arange(len(changes))
    while len(changes) and (right - left).max() > _EDGE_TOL:
        points = left[:, None] + (right - left)[:, None] * fractions
        inside = np.argmax(scores(points.ravel()), axis=1).reshape(points.shape)
        moved = inside != before[:, None]
        # points[:, j] is ends[:, j + 1]. The new bracket ends at the first
        # point whose class differs from the left end's, else at the old right end.
        first = np.where(moved.any(axis=1), moved.argmax(axis=1), _SECTIONS)
        ends = np.column_stack([left, points, right])
        left, right = ends[rows, first], ends[rows, first + 1]
    edges = np.r_[-math.inf, 0.5 * (left + right), math.inf]
    predicted = labels[np.r_[0, changes + 1]]  # the class of each interval
    total = 0.0
    for c, (prior, comps) in enumerate(zip(model.class_priors, model.class_components)):
        mine = predicted == c
        for comp in comps:
            mass = np.diff(special.ndtr((edges - comp.mean) / comp.std))
            total += prior * comp.weight * float(mass[mine].sum())
    return total


def bayes_accuracy(model: TaskModel) -> float:
    """Accuracy of the optimal decision rule, the argmax of prior(y) p(x|y),
    read on a grid of 1/20 of the narrowest component's width."""
    step = min(comp.std for comps in model.class_components for comp in comps) / 20.0
    return decision_accuracy(model, lambda xs: _joint_density(model, xs), step)
