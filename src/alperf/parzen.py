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

import numpy as np

from .errors import ValidationError

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
    bandwidth: float
    prior_weight: float
    class_count: int

    def __post_init__(self):
        self.train_x.setflags(write=False)
        self.train_y.setflags(write=False)

    @property
    def config(self) -> ClassifierConfig:
        return ClassifierConfig(self.bandwidth, self.prior_weight, self.class_count)


def fit_arrays(
    xs: np.ndarray, ys: np.ndarray, config: ClassifierConfig = ClassifierConfig()
) -> ParzenModel:
    """Build a model from raw (x, label) arrays. No iterative training."""
    class_count = config.class_count
    # Copies, so freezing the model's arrays never freezes the caller's.
    xs = np.array(xs, dtype=np.float64)
    ys = np.array(ys, dtype=np.int64)
    if xs.shape != ys.shape:
        raise ValidationError("training features and labels differ in length")
    bad = np.nonzero((ys < 1) | (ys > class_count))[0]
    if bad.size:
        i = int(bad[0])
        raise ValidationError(
            f"training label at index {i} is {int(ys[i])}, outside 1..{class_count}"
        )
    return ParzenModel(xs, ys, config.bandwidth, config.prior_weight, class_count)


def kernel_weights(
    query_xs: np.ndarray, train_xs: np.ndarray, bandwidth: float
) -> np.ndarray:
    """Unnormalized Gaussian kernel matrix of shape (n_query, n_train).

    Every step after the difference works in place on one buffer, in the
    order exp(max(-(d * d) / (2 h^2), clamp)).
    """
    w = np.subtract.outer(
        np.asarray(query_xs, dtype=np.float64), np.asarray(train_xs, dtype=np.float64)
    )
    np.multiply(w, w, out=w)
    np.negative(w, out=w)
    np.divide(w, 2.0 * bandwidth * bandwidth, out=w)
    np.maximum(w, _EXP_CLAMP, out=w)
    return np.exp(w, out=w)


def class_kernel_mass(
    query_xs: np.ndarray,
    train_xs: np.ndarray,
    train_ys: np.ndarray,
    bandwidth: float,
    class_count: int,
) -> np.ndarray:
    """Per-class kernel mass at each query point, shape (n_query, C)."""
    nq = len(query_xs)
    if len(train_xs) == 0:
        return np.zeros((nq, class_count))
    onehot = np.zeros((len(train_xs), class_count))
    onehot[np.arange(len(train_xs)), np.asarray(train_ys) - 1] = 1.0
    out = np.empty((nq, class_count))
    for start in range(0, nq, _CHUNK):
        stop = min(start + _CHUNK, nq)
        out[start:stop] = kernel_weights(
            query_xs[start:stop], train_xs, bandwidth
        ) @ onehot
    return out


def posterior_batch(m: ParzenModel, xs: np.ndarray) -> np.ndarray:
    """Posterior p(y|x) for each query; shape (len(xs), C).

    With prior_weight == 0 and zero kernel mass at a query there is no
    evidence at all; a uniform vector is returned for those rows and a
    warning flags them as degenerate.
    """
    xs = np.asarray(xs, dtype=np.float64)
    masses = class_kernel_mass(xs, m.train_x, m.train_y, m.bandwidth, m.class_count)
    eps = m.prior_weight
    total = masses.sum(axis=1) + m.class_count * eps
    ok = total > 0.0  # every row when prior_weight > 0
    out = (masses + eps) / np.where(ok, total, 1.0)[:, None]
    if not ok.all():
        degenerate = int((~ok).sum())
        warnings.warn(
            f"degenerate posterior at {degenerate} query point(s): "
            "zero kernel mass with prior_weight=0; returning uniform",
            stacklevel=2,
        )
        out[~ok] = 1.0 / m.class_count
    return out


def predict_batch(m: ParzenModel, xs: np.ndarray) -> np.ndarray:
    """Most probable class per query; ties break toward the smallest index."""
    return np.argmax(posterior_batch(m, xs), axis=1) + 1


def accuracy_arrays(
    m: ParzenModel,
    xs: np.ndarray,
    ys: np.ndarray,
    weights: np.ndarray | None = None,
) -> float:
    """Fraction of correct predictions, optionally weighted per sample."""
    if len(xs) == 0:
        raise ValidationError("no evaluation instances")
    correct = (predict_batch(m, xs) == np.asarray(ys)).astype(np.float64)
    if weights is None:
        return float(correct.mean())
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != correct.shape:
        raise ValidationError("weights must match the evaluation set in length")
    if np.any(weights < 0.0):
        raise ValidationError("weights must be nonnegative")
    wsum = weights.sum()
    if not wsum > 0.0:
        raise ValidationError("weights must not all be zero")
    if np.ptp(weights) == 0.0:
        # Constant weights reduce to the unweighted mean; taking that path
        # keeps the identity exact instead of within float rounding.
        return float(correct.mean())
    return float((weights * correct).sum() / wsum)

