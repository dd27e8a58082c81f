"""Gaussian-kernel (Parzen window) classifier with a per-class pseudo-member.

The posterior at a query point is the ratio of per-class kernel mass to
total kernel mass, with a weight ``epsilon`` added to every class as if
each class owned one global pseudo member. With no nearby evidence the
posterior therefore stays close to uniform instead of collapsing onto
whichever training point happens to be least far away.

The kernel is the unnormalized Gaussian exp(-(x - x_i)^2 / (2 sigma^2));
normalization constants cancel in the posterior ratio, which keeps the
kernel masses directly interpretable.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import ValidationError, integer, number

# Kernel exponents are clamped here before exponentiation.
_EXP_CLAMP = -700.0
# Query chunk size for batched posterior evaluation (bounds peak memory).
_CHUNK = 32768


@dataclass(frozen=True)
class ClassifierConfig:
    """Hyperparameters shared by every classifier fit in an experiment."""

    bandwidth: float = 0.2
    prior_weight: float = 0.01
    class_count: int = 2

    def __post_init__(self):
        object.__setattr__(self, "bandwidth", number(self.bandwidth, "bandwidth"))
        object.__setattr__(self, "prior_weight", number(self.prior_weight, "prior_weight"))
        object.__setattr__(self, "class_count", integer(self.class_count, "class_count"))
        if not (self.bandwidth > 0.0 and math.isfinite(self.bandwidth)):
            raise ValidationError(f"bandwidth must be > 0, got {self.bandwidth}")
        if self.prior_weight < 0.0 or not math.isfinite(self.prior_weight):
            raise ValidationError(
                f"prior_weight must be >= 0, got {self.prior_weight}"
            )
        if self.class_count < 2:
            raise ValidationError(f"class_count must be >= 2, got {self.class_count}")


@dataclass(frozen=True)
class ParzenModel:
    """Immutable classifier state: training samples plus hyperparameters."""

    train_x: np.ndarray
    train_y: np.ndarray
    config: ClassifierConfig

    def __post_init__(self):
        self.train_x.setflags(write=False)
        self.train_y.setflags(write=False)


def fit_arrays(
    xs: np.ndarray, ys: np.ndarray, config: ClassifierConfig = ClassifierConfig()
) -> ParzenModel:
    """Build a model from raw (x, label) arrays: finite 1-D features and
    integer labels 1..class_count. No iterative training."""
    class_count = config.class_count
    # Copies, so freezing the model's arrays never freezes the caller's.
    xs = np.array(xs, dtype=np.float64)
    ys = np.asarray(ys)
    if xs.ndim != 1:
        raise ValidationError(f"training features must be 1-D, got shape {xs.shape}")
    if xs.shape != ys.shape:
        raise ValidationError("training features and labels differ in length")
    # As LabeledSet: casting 1.5 or True to a class index would hide a bad label.
    if ys.size and ys.dtype.kind not in "iu":
        raise ValidationError(f"training labels must be integers, got dtype {ys.dtype}")
    ys = np.array(ys, dtype=np.int64)
    bad = np.nonzero(~np.isfinite(xs))[0]
    if bad.size:
        i = int(bad[0])
        raise ValidationError(f"training feature at index {i} is {xs[i]}, not finite")
    bad = np.nonzero((ys < 1) | (ys > class_count))[0]
    if bad.size:
        i = int(bad[0])
        raise ValidationError(
            f"training label at index {i} is {int(ys[i])}, outside 1..{class_count}"
        )
    return ParzenModel(xs, ys, config)


def kernel_weights(
    query_xs: np.ndarray, train_xs: np.ndarray, bandwidth: float
) -> np.ndarray:
    """Unnormalized Gaussian kernel matrix of shape (n_query, n_train).

    Every step after the difference works in place on one buffer, in the
    order exp(max((d * d) / -(2 h^2), clamp)); dividing by the negated
    denominator is the same sign flip as negating the quotient, bit for bit.
    """
    w = np.subtract.outer(
        np.asarray(query_xs, dtype=np.float64), np.asarray(train_xs, dtype=np.float64)
    )
    np.multiply(w, w, out=w)
    np.divide(w, -(2.0 * bandwidth * bandwidth), out=w)
    np.maximum(w, _EXP_CLAMP, out=w)
    return np.exp(w, out=w)


def _onehot(train_ys: np.ndarray, class_count: int) -> np.ndarray:
    """Labels 1..C as rows of a (len(train_ys), C) one-hot matrix."""
    onehot = np.zeros((len(train_ys), class_count))
    onehot[np.arange(len(train_ys)), np.asarray(train_ys) - 1] = 1.0
    return onehot


def class_kernel_mass(
    query_xs: np.ndarray,
    train_xs: np.ndarray,
    train_ys: np.ndarray,
    bandwidth: float,
    class_count: int,
) -> np.ndarray:
    """Per-class kernel mass at each query point, shape (n_query, C)."""
    onehot = _onehot(train_ys, class_count)
    out = np.empty((len(query_xs), class_count))
    for start in range(0, len(query_xs), _CHUNK):
        rows = slice(start, start + _CHUNK)
        out[rows] = kernel_weights(query_xs[rows], train_xs, bandwidth) @ onehot
    return out


def class_sum(a: np.ndarray) -> np.ndarray:
    """Sum over the last (class) axis, column by column, from class 0 up.

    For fewer than 8 classes this is numpy's ``a.sum(axis=-1)`` bit for bit,
    without its per-row cost. From 8 classes on numpy sums a row pairwise,
    so the two may differ in the last bit."""
    out = a[..., 0].copy()
    for j in range(1, a.shape[-1]):
        out += a[..., j]
    return out


def class_max(a: np.ndarray) -> np.ndarray:
    """Maximum over the last (class) axis, column by column: numpy's
    ``a.max(axis=-1)`` for NaN-free input."""
    out = a[..., 0]
    for j in range(1, a.shape[-1]):
        out = np.maximum(out, a[..., j])
    return out


def class_argmax(a: np.ndarray) -> np.ndarray:
    """Index of the largest entry over the last (class) axis, column by
    column; a tie goes to the smallest index. ``np.argmax(a, axis=-1)`` for
    NaN-free input."""
    best, out = a[..., 0], np.zeros(a.shape[:-1], dtype=np.intp)
    for j in range(1, a.shape[-1]):
        col = a[..., j]
        up = col > best
        out = np.where(up, j, out)
        best = np.maximum(best, col)
    return out


def posterior_from_masses(masses: np.ndarray, config: ClassifierConfig) -> np.ndarray:
    """Posterior rows from per-class kernel masses, shape (..., C): each
    class gets its mass plus ``prior_weight``, over the row total.

    With prior_weight == 0 and zero kernel mass at a query there is no
    evidence at all; a uniform vector is returned for those rows and one
    warning flags them as degenerate. It counts rows over every leading
    axis: in a (budgets, points, C) read, a point counts once for each
    budget whose model has no mass there.
    """
    eps = config.prior_weight
    total = class_sum(masses) + config.class_count * eps
    ok = total > 0.0  # every row when prior_weight > 0
    out = (masses + eps) / np.where(ok, total, 1.0)[..., None]
    if not ok.all():
        degenerate = int((~ok).sum())
        warnings.warn(
            f"degenerate posterior at {degenerate} query point(s): "
            "zero kernel mass with prior_weight=0; returning uniform",
            stacklevel=3,
        )
        out[~ok] = 1.0 / config.class_count
    return out


def posterior_batch(m: ParzenModel, xs: np.ndarray) -> np.ndarray:
    """Posterior p(y|x) for each query; shape (len(xs), C), by
    ``posterior_from_masses``."""
    xs = np.asarray(xs, dtype=np.float64)
    c = m.config
    return posterior_from_masses(
        class_kernel_mass(xs, m.train_x, m.train_y, c.bandwidth, c.class_count), c
    )


def _check_budget(budget: int, n: int) -> None:
    if not 0 <= budget <= n:
        raise ValidationError(f"prefix budget must be in 0..{n}, got {budget}")


@dataclass(frozen=True)
class KernelBlock:
    """Fixed query points with their kernel weights against the training
    samples of ``model``, and those samples' one-hot labels.

    The block of a model holds the block of every prefix model: the model
    fitted on its first B samples has class masses
    ``weights[:, :B] @ onehot[:B]``, the same product ``class_kernel_mass``
    forms for it. So ``prefix(B)`` serves every budget of an acquisition
    sequence from one kernel evaluation and one fit.
    """

    points: np.ndarray  # (n_points,)
    weights: np.ndarray  # (n_points, n)
    onehot: np.ndarray  # (n, C)
    model: ParzenModel  # fitted on n samples

    def __post_init__(self):
        n, c = len(self.model.train_x), self.model.config.class_count
        if self.weights.shape != (len(self.points), n) or self.onehot.shape != (n, c):
            raise ValidationError(
                f"kernel weights {self.weights.shape} and one-hot labels {self.onehot.shape} "
                f"do not fit {len(self.points)} points and a {n}-sample, {c}-class model"
            )

    def __len__(self) -> int:
        return len(self.points)

    def prefix(self, budget: int) -> KernelBlock:
        """The block of the model fitted on the first ``budget`` samples. Its
        model holds views of this model's arrays: nothing is refitted."""
        m = self.model
        _check_budget(budget, len(m.train_x))
        model = ParzenModel(m.train_x[:budget], m.train_y[:budget], m.config)
        return KernelBlock(self.points, self.weights[:, :budget], self.onehot[:budget], model)

    @cached_property
    def masses(self) -> np.ndarray:
        """Per-class kernel mass at each point, shape (n_points, C)."""
        return self.weights @ self.onehot

    @cached_property
    def posterior(self) -> np.ndarray:
        """The model's posterior at the points, by ``posterior_from_masses``."""
        return posterior_from_masses(self.masses, self.model.config)


def kernel_block(points: np.ndarray, model: ParzenModel) -> KernelBlock:
    """The kernel block of ``points`` under ``model``."""
    points = np.asarray(points, dtype=np.float64)
    c = model.config
    return KernelBlock(
        points,
        kernel_weights(points, model.train_x, c.bandwidth),
        _onehot(model.train_y, c.class_count),
        model,
    )


def prefix_posteriors(
    points: np.ndarray, model: ParzenModel, budgets: Sequence[int]
) -> np.ndarray:
    """Posterior of each budget's prefix model at every point, shape
    (len(budgets), len(points), C), by one ``posterior_from_masses`` call.
    The points get one ``kernel_block`` under ``model``, and budget B the
    class masses ``weights[:, :B] @ onehot[:B]`` that ``block.prefix(B)``
    forms."""
    block = kernel_block(points, model)
    masses = np.empty((len(budgets), len(block), model.config.class_count))
    for row, budget in enumerate(budgets):
        _check_budget(budget, len(model.train_x))
        masses[row] = block.weights[:, :budget] @ block.onehot[:budget]
    return posterior_from_masses(masses, model.config)


def prefix_labels(
    points: np.ndarray, model: ParzenModel, budgets: Sequence[int]
) -> np.ndarray:
    """Predicted class (0-based) of each budget's prefix model at every point,
    shape (len(budgets), len(points)). The points are read in chunks of
    _CHUNK, each through one ``prefix_posteriors`` call, so memory stays
    bounded on a long grid."""
    points = np.asarray(points, dtype=np.float64)
    out = np.empty((len(budgets), len(points)), dtype=np.int64)
    for start in range(0, len(points), _CHUNK):
        chunk = points[start : start + _CHUNK]
        out[:, start : start + _CHUNK] = class_argmax(prefix_posteriors(chunk, model, budgets))
    return out


def predict_batch(m: ParzenModel, xs: np.ndarray) -> np.ndarray:
    """Most probable class per query; ties break toward the smallest index."""
    return class_argmax(posterior_batch(m, xs)) + 1
