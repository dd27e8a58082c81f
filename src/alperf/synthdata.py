"""Synthetic one-dimensional classification tasks with known ground truth.

The data-generating distribution is a set of class priors plus per-class
Gaussian mixtures. Label acquisition is modelled by an explicit sampling
distribution q(x): either the data marginal itself (unbiased acquisition)
or a symmetric two-component Gaussian mixture placed at a distance ``d``
on both sides of the optimal decision boundary, which stands in for an
informed selection strategy. Labels come from a stochastic oracle that
draws from the true class posterior, so label noise near the boundary is
preserved.

Both densities are one ``Mixture`` of Gaussians held as arrays: the task's
(``TaskModel.mixture``) and the sampler's (``SamplingDistribution.mixture``).
Closed-form quantities (posterior, densities, Bayes accuracy) are exposed
so they can serve as reference values elsewhere. The accuracy of
any one-dimensional decision rule under a task is exact: ``decision_accuracy``
splits the line into the rule's decision regions and sums the closed-form
Gaussian mass of each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, NamedTuple

import numpy as np

from .errors import ValidationError, number

# Decision rules are read on this interval, widened for each task to cover
# mean +- _SUPPORT_STDS std of every component; each tail beyond the interval
# takes the class predicted at its end.
SUPPORT = (-10.0, 10.0)
_SUPPORT_STDS = 8.0
# The most grid points a decision rule is read on: 2.5 times the 400,001 of
# the default task's true baseline at bandwidth 0.001, which for one 50-label
# model take 0.47 s and a 28 MiB allocation peak on a 2-vCPU Xeon.
MAX_GRID_POINTS = 10**6

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT1_2 = math.sqrt(0.5)
_PROB_TOL = 1e-12
# Decision boundaries: points read per bracket and refinement round, and the
# bracket width at which a boundary is placed at its bracket's midpoint.
_SECTIONS = 32
_EDGE_TOL = 1e-9
# bayes_accuracy reads the span on at most about _SPAN_POINTS points, and a
# component it reads more coarsely than std / 20 on its own grid: mean +-
# _SUPPORT_STDS std at std / 20.
_SPAN_POINTS = 100_001
_NARROW_POINTS = 2 * 20 * int(_SUPPORT_STDS) + 1

DATA_MARGINAL = "data-marginal"
SYMMETRIC_MIXTURE = "symmetric-mixture"


@dataclass(frozen=True)
class GaussianComponent:
    """One mixture component: N(mean, std^2) with a mixture weight."""

    weight: float
    mean: float
    std: float

    def __post_init__(self):
        for name in ("weight", "mean", "std"):
            object.__setattr__(self, name, number(getattr(self, name), f"component {name}"))
        if not (0.0 <= self.weight <= 1.0):
            raise ValidationError(f"component weight must be in [0,1], got {self.weight}")
        if not (self.std > 0.0 and math.isfinite(self.std)):
            raise ValidationError(f"component std must be > 0, got {self.std}")
        if not math.isfinite(self.mean):
            raise ValidationError(f"component mean must be finite, got {self.mean}")


class Mixture(NamedTuple):
    """A weighted sum of Gaussians as parallel arrays: component k is
    ``weights[k] * N(means[k], stds[k]^2)`` and belongs to the 0-based class
    ``classes[k]`` (-1 for a sampler's own components). ``TaskModel.mixture``
    and ``SamplingDistribution.mixture`` build one; every density, draw and
    exact-accuracy sum of this module reads one."""

    means: np.ndarray
    stds: np.ndarray
    weights: np.ndarray
    classes: np.ndarray

    def densities(self, xs: np.ndarray) -> np.ndarray:
        """weight * N(x; mean, std) of every component; shape (len(xs), K)."""
        z = (np.asarray(xs, dtype=np.float64)[:, None] - self.means) / self.stds
        return self.weights * (np.exp(-0.5 * z * z) / (self.stds * _SQRT_2PI))

    def density(self, xs: np.ndarray) -> np.ndarray:
        """The mixture density at each x: the row sums of ``densities``."""
        return self.densities(xs).sum(axis=1)

    def draw(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """n draws: the components first, then each component's normals, in
        component order (a component drawn 0 times consumes no draws)."""
        if n < 0:
            raise ValidationError(f"sample count must be >= 0, got {n}")
        idx = rng.choice(len(self.means), size=n, p=self.weights)
        out = np.empty(n, dtype=np.float64)
        for k in range(len(self.means)):
            sel = idx == k
            out[sel] = rng.normal(self.means[k], self.stds[k], size=int(sel.sum()))
        return out


@dataclass(frozen=True)
class TaskModel:
    """Data-generating distribution: class priors plus per-class Gaussian mixtures.

    Classes are indexed 1..C. The feature space is one-dimensional.
    """

    class_priors: tuple[float, ...]
    class_components: tuple[tuple[GaussianComponent, ...], ...]

    def __post_init__(self):
        priors, comps = self.class_priors, self.class_components
        if not isinstance(priors, (tuple, list)):
            raise ValidationError(f"class_priors must be a tuple of numbers, got {priors!r}")
        if not isinstance(comps, (tuple, list)) or not all(
            isinstance(c, (tuple, list)) and all(isinstance(g, GaussianComponent) for g in c)
            for c in comps
        ):
            raise ValidationError(
                f"class_components must be a tuple of tuples of GaussianComponent, got {comps!r}"
            )
        # Lists become tuples, so the task stays hashable.
        priors = tuple(number(p, f"class_priors[{i}]") for i, p in enumerate(priors))
        object.__setattr__(self, "class_priors", priors)
        object.__setattr__(self, "class_components", tuple(map(tuple, comps)))
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

    @cached_property
    def mixture(self) -> Mixture:
        """Every component, class by class, weighted prior * component weight:
        the data marginal p(x), and prior(y) p(x|y) summed per class."""
        rows = [
            (comp.mean, comp.std, prior * comp.weight, c)
            for c, (prior, comps) in enumerate(zip(self.class_priors, self.class_components))
            for comp in comps
        ]
        means, stds, weights, classes = map(np.array, zip(*rows))
        return Mixture(means, stds, weights, classes)


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
        for name in ("d", "component_std"):
            object.__setattr__(self, name, number(getattr(self, name), name))
        priors = self.component_priors
        if not isinstance(priors, (tuple, list)):
            raise ValidationError(f"component_priors must be a pair of numbers, got {priors!r}")
        priors = tuple(number(p, f"component_priors[{i}]") for i, p in enumerate(priors))
        object.__setattr__(self, "component_priors", priors)
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
        return "unbiased" if self.kind == DATA_MARGINAL else f"biased-d{self.d:g}"

    def mixture(self, model: TaskModel) -> Mixture:
        """q(x) as a Mixture: the task's own, or the two components at -d and +d."""
        if self.kind == DATA_MARGINAL:
            return model.mixture
        std = self.component_std
        return Mixture(
            np.array([-self.d, self.d]), np.array([std, std]),
            np.asarray(self.component_priors, dtype=np.float64), np.array([-1, -1]),
        )


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


def _normal_cdf(z: float) -> float:
    """Standard normal CDF by the split of cephes ``ndtr``: 0.5 + 0.5 erf(x)
    with x = z/sqrt(2) for |z| < 1, and 0.5 erfc(|x|) beyond (one minus
    that for positive z), so a far lower tail keeps its relative precision.
    Within 2^-52 of ``scipy.special.ndtr``."""
    x = z * _SQRT1_2
    if abs(x) < _SQRT1_2:
        return 0.5 + 0.5 * math.erf(x)
    tail = 0.5 * math.erfc(abs(x))
    return 1.0 - tail if x > 0.0 else tail


def _joint_density(model: TaskModel, xs: np.ndarray) -> np.ndarray:
    """prior(y) * p(x|y), shape (len(xs), C): the task mixture's component
    densities summed per class."""
    m = model.mixture
    starts = np.searchsorted(m.classes, np.arange(model.class_count))
    return np.add.reduceat(m.densities(xs), starts, axis=1)


def bayes_posterior_batch(model: TaskModel, xs: np.ndarray) -> np.ndarray:
    """True posterior p(y|x) for each query; shape (len(xs), C).

    Where every class-conditional density underflows to zero the prior
    vector is returned for that row (documented fallback).
    """
    joint = _joint_density(model, xs)
    total = joint.sum(axis=1)
    ok = total > 0.0
    out = joint / np.where(ok, total, 1.0)[:, None]
    if not ok.all():
        out[~ok] = np.asarray(model.class_priors)
    return out


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


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
    xs = model.mixture.draw(n, rng)
    return xs, oracle_labels(model, xs, rng)


def draw_labeled(
    model: TaskModel, s: SamplingDistribution, n: int, rng: np.random.Generator
) -> LabeledSet:
    """Draw n labeled samples: x from q, y from the true posterior at x."""
    q = s.mixture(model)
    xs = q.draw(n, rng)
    return LabeledSet(xs, oracle_labels(model, xs, rng), q.density(xs))


def draw_unlabeled(model: TaskModel, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n unlabeled feature values from the data marginal."""
    return model.mixture.draw(n, rng)


# ---------------------------------------------------------------------------
# Exact accuracy of a decision rule
# ---------------------------------------------------------------------------


def _task_span(model: TaskModel) -> tuple[float, float]:
    """SUPPORT widened to cover mean +- 8 std of every component."""
    m = model.mixture
    lo = min(SUPPORT[0], float((m.means - _SUPPORT_STDS * m.stds).min()))
    hi = max(SUPPORT[1], float((m.means + _SUPPORT_STDS * m.stds).max()))
    return lo, hi


def decision_grid_size(model: TaskModel, step: float) -> tuple[float, float, int]:
    """The interval ``decision_accuracy`` reads a rule on under ``model``,
    ``_task_span``, and the number of points with spacing at most ``step``
    on it. Raises ValidationError beyond MAX_GRID_POINTS, before anything
    is allocated."""
    lo, hi = _task_span(model)
    points = math.ceil((hi - lo) / step) + 1
    if points > MAX_GRID_POINTS:
        raise ValidationError(
            f"reading a decision rule would take {points:,} grid points "
            f"(at most {MAX_GRID_POINTS:,}): the task spans [{lo:g}, {hi:g}] "
            f"and the step is {step:g}"
        )
    return lo, hi, points


def decision_grid(model: TaskModel, step: float) -> np.ndarray:
    """The ``decision_grid_size`` points, evenly spaced."""
    return np.linspace(*decision_grid_size(model, step))


def decision_accuracy(
    model: TaskModel, scores: Callable[[np.ndarray], np.ndarray], step: float
) -> float:
    """Exact accuracy under ``model`` of the rule that predicts the argmax of
    ``scores(xs)``, an (len(xs), C) array; ties go to the smallest class.
    The rule is read on the ``decision_grid`` of ``step``, then integrated
    by ``region_accuracy``."""
    grid = decision_grid(model, step)
    return region_accuracy(model, scores, grid, np.argmax(scores(grid), axis=1))


def region_accuracy(
    model: TaskModel,
    scores: Callable[[np.ndarray], np.ndarray],
    grid: np.ndarray,
    labels: np.ndarray,
) -> float:
    """Exact accuracy under ``model`` of the argmax rule of ``scores``, given
    its class (0-based) ``labels`` at each point of the increasing ``grid``.

    Each class change between neighbouring grid points is bracketed ever
    more tightly, all changes at once: every round reads the rule at
    _SECTIONS evenly spaced points inside each bracket, in one ``scores``
    call, and keeps the section where the class first changes, until every
    bracket is narrower than _EDGE_TOL. Refining the rule itself, not a
    score difference, keeps its ties exactly as argmax breaks them. The
    predicted class is then constant between boundaries, each tail taking the
    class at its grid end, and the accuracy is the sum over intervals of
    prior * weight * (Phi(b) - Phi(a)) over the predicted class's components.
    """
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
    m = model.mixture
    z = (edges[:, None] - m.means) / m.stds
    mass = np.diff(np.reshape([_normal_cdf(v) for v in z.ravel().tolist()], z.shape), axis=0)
    total = 0.0
    for k, weight in enumerate(m.weights.tolist()):
        total += weight * float(mass[predicted == m.classes[k], k].sum())
    return total


def bayes_accuracy(model: TaskModel) -> float:
    """Accuracy of the optimal decision rule, the argmax of prior(y) p(x|y).

    The rule is read on a union of grids: the ``decision_grid`` at 1/20 of
    a scale, plus, for each component narrower than that scale, a grid of
    1/20 of its own std over its mean +- 8 std. The scale is the widest
    component's std, or more where the task's span would take over
    _SPAN_POINTS points at that step: there only the components' grids see
    their mass, and the span's grid the tails between them. Every component
    is thus read at its own resolution where it has mass, and a task whose
    components share one std within a short span is read on exactly the one
    grid of that step.
    """
    m = model.mixture
    lo, hi = _task_span(model)
    scale = max(float(m.stds.max()), 20.0 * (hi - lo) / (_SPAN_POINTS - 1))
    narrow = [
        np.linspace(mean - _SUPPORT_STDS * std, mean + _SUPPORT_STDS * std, _NARROW_POINTS)
        for mean, std in zip(m.means.tolist(), m.stds.tolist()) if std < scale
    ]
    grid = np.unique(np.concatenate([decision_grid(model, scale / 20.0), *narrow]))
    joint = partial(_joint_density, model)
    return region_accuracy(model, joint, grid, np.argmax(joint(grid), axis=1))
