"""Runtime performance estimators and the two oracle baselines.

Five estimators work from what a deployed system actually has (the labeled
set, the classifier, and an unlabeled candidate pool): the posterior-based
generalization-error score, plain and reweighted k-fold cross-validation,
cross-validation over a self-labeled pool, and a Beta-mixture model built
from local label statistics. The two baselines (true and subsample) need
oracle access to the data-generating distribution and exist only to judge
the estimators.

Every estimator returns a PerformanceEstimate, an empirical sample (a point
value is a one-value sample) or a Beta mixture, summarized uniformly. A Beta
mixture's CDF and quantiles need log B(alpha, beta) and the regularized
incomplete Beta function; both are computed here with numpy alone
(``_beta_centre``, ``_incomplete_beta``), so alperf needs no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property, partial
from typing import NamedTuple, Sequence

import numpy as np

from . import parzen, synthdata
from .errors import ValidationError, floats
from .parzen import ClassifierConfig, KernelBlock, ParzenModel
from .synthdata import LabeledSet, TaskModel

# Beta-mixture quantiles: bracket width at which the solve stops, and the
# Halley step, relative to the local length scale min(1, 1/density,
# density/|slope|), below which the next iterate is returned.
_XTOL = 1e-12
_HALLEY_STOP = 1e-5
# A later evaluation of a solve takes F from the evaluation it steps from,
# plus a Gauss-Legendre integral of the mixture density over the hop. The
# rule has the fewest nodes whose bound the reach of the hop's farthest piece
# (see ``_cdf_from``) is within; a hop that reaches past the last bound is cut
# into pieces. At its bound, each rule's relative error on a single Beta
# density stays below 1e-17 (measured in 40-digit arithmetic over random
# densities and hops).
_QUADRATURE_NODES = ((1e-4, 2), (0.02, 4), (0.5, 8), (6.0, 12), (12.0, 16))
# The rule is used only on mixtures whose every alpha + beta is at most this:
# there the rounding of ``_betaln``, and so of each log-density, stays below
# 5e-15 (measured against 40-digit values at 1,500 random points). It grows
# with alpha + beta, to ~2e-14 at 100 and ~2e-13 at 1e3.
_QUADRATURE_SIZE = 32.0
# Stirling's remainder D(z) = log Gamma(z) - ((z - 1/2) log z - z + log(2 pi)/2)
# is, for z >= 2, p(t) / z with t = (2/z)^2 and p the polynomial whose
# coefficient of t^(4i + j) is row i, column j below: its interpolant of
# degree 15 at the Chebyshev points of [0, 1], computed in 50-digit
# arithmetic. Its error is below 1e-17 for every z >= 2.
_STIRLING = np.array([
    [0.08333333333333333, -0.0006944444444385314, 4.9603174089018035e-05,
     -9.300577220467171e-06],
    [3.2877501050566833e-06, -1.8686136718275524e-06, 1.5332757936782692e-06,
     -1.6184683856178597e-06],
    [1.9023656466589608e-06, -2.160146900493373e-06, 2.124722336769599e-06,
     -1.674001437713654e-06],
    [9.891832786063277e-07, -4.064812066587359e-07, 1.0285938691918831e-07,
     -1.2019890134559041e-08],
])
_STIRLING.setflags(write=False)
_LOG_2PI = math.log(2.0 * math.pi)
# F at the mean, where the median's solve starts, is taken from the continued
# fraction at this share of the lowest switch point (see ``_incomplete_beta``)
# plus the quadrature of the hop up to the mean: there the fraction needs
# fewer levels, and the two cost less together than the fraction at the mean.
_LOW_START = 0.75
# Two evaluations of the incomplete Beta's continued fraction, from depths a
# few levels apart, agree to this relative difference once both have converged.
# Its coefficients are computed this many pairs of levels at a time. It needs
# about 0.3 sqrt(alpha + beta) pairs at worst (270 levels at (1e5, 1e5)), so it
# takes alpha + beta up to 1e10 and gives up past 2^16 pairs.
_FRACTION_TOL = 4.0 * 2.0**-53
_FRACTION_BLOCK = 64
_FRACTION_SIZE = 1e10
_FRACTION_PAIRS = 2**16


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


@cache
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1].

    The nodes are the roots of the Legendre polynomial P_n, found by Newton's
    method from the usual cosine guesses; the weights are
    2 / ((1 - x^2) P_n'(x)^2).
    """
    x = np.cos(np.pi * (np.arange(n) + 0.75) / (n + 0.5))
    for _ in range(6):
        p0, p1 = np.ones(n), x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        slope = n * (x * p1 - p0) / (x * x - 1.0)
        x = x - p1 / slope
    weights = 2.0 / ((1.0 - x * x) * slope * slope)
    # cached, so shared by every caller
    x.setflags(write=False)
    weights.setflags(write=False)
    return x, weights


def _stirling_remainder(z: np.ndarray) -> np.ndarray:
    """D(z) = log Gamma(z) - ((z - 1/2) log z - z + log(2 pi)/2) for z > 0.

    Below 2 the Gamma recurrence, D(z) = D(z + 1) + (z + 1/2) log(1 + 1/z) - 1,
    shifts z up; from 2 on, D is the polynomial ``_STIRLING`` in (2/z)^2, over z.
    """
    shift = np.zeros_like(z)
    while (low := z < 2.0).any():
        shift += np.where(low, (z + 0.5) * np.log1p(1.0 / z) - 1.0, 0.0)
        z = np.where(low, z + 1.0, z)
    t = (2.0 / z) ** 2
    t2 = t * t
    # p = g0 + t^4 (g1 + t^4 (g2 + t^4 g3)), with gi the cubic of row i
    g = _STIRLING @ np.stack([np.ones_like(t), t, t2, t2 * t])
    t4 = t2 * t2
    return (g[0] + t4 * (g[1] + t4 * (g[2] + t4 * g[3]))) / z + shift


class _Centre(NamedTuple):
    """Per component of a Beta mixture: x0 = alpha / (alpha + beta) and
    y0 = 1 - x0, rounded so that x0 + y0 == 1 exactly, their logs, and
    log_front = log(x0^alpha y0^beta / B(alpha, beta))."""

    x0: np.ndarray
    y0: np.ndarray
    log_x0: np.ndarray
    log_y0: np.ndarray
    log_front: np.ndarray


def _beta_centre(a: np.ndarray, b: np.ndarray) -> _Centre:
    """The ``_Centre`` of Beta components (a, b), in one vectorized pass.

    With Stirling's formula for the three Gammas of B(a, b) = Gamma(a)
    Gamma(b) / Gamma(a + b), the large terms cancel exactly: log_front is
    log(a b / (2 pi (a + b))) / 2 - D(a) - D(b) + D(a + b), with D the
    remainder ``_stirling_remainder``, so it carries an absolute error of a few
    units in 1e-16 at any size of a and b. x0 and y0 are rounded together, which
    leaves log_front exact to second order in their rounding.
    """
    s = a + b
    small = np.minimum(a, b) / s
    large = 1.0 - small
    # 1 - large is exact; it is 0 only where small is below 2^-54.
    small = np.where(large < 1.0, 1.0 - large, small)
    x0, y0 = np.where(a <= b, small, large), np.where(a <= b, large, small)
    remainder = _stirling_remainder(np.concatenate([a, b, s])).reshape(3, -1)
    log_front = 0.5 * (np.log(a * (b / s)) - _LOG_2PI) - (
        remainder[0] + remainder[1] - remainder[2]
    )
    return _Centre(x0, y0, np.log(x0), np.log(y0), log_front)


def _betaln(a: np.ndarray, b: np.ndarray, centre: _Centre) -> np.ndarray:
    """log B(a, b) = a log x0 + b log y0 - log_front (see ``_Centre``). This is
    TOMS 708's form (DiDonato and Morris, ACM TOMS 18(3), 1992): with
    a <= b, a log(a / (a + b)) - b log1p(a / b) plus Stirling corrections, so it
    stays accurate where b is orders of magnitude above a."""
    return a * centre.log_x0 + b * centre.log_y0 - centre.log_front


def _beta_fraction(
    p: np.ndarray, q: np.ndarray, x: np.ndarray, x_c: np.ndarray
) -> np.ndarray:
    """The continued fraction f of I_x(p, q) = x^p (1-x)^q / (p B(p, q) f),

        f = 1 + d1 / (1 + d2 / (1 + ...)),
        d(2m+1) = -(p+m)(p+q+m) x / ((p+2m)(p+2m+1)),
        d(2m) = m(q-m) x / ((p+2m-1)(p+2m)),

    which converges fast where x <= (p+1)/(p+q+2); x_c is 1 - x. It is
    evaluated backward from a depth guessed from x(p+q), and in the same pass
    from one pair of levels (or 1/8 of the depth) below it; where the two
    differ by more than ``_FRACTION_TOL``, the depth is doubled and the
    fraction evaluated again, up to ``_FRACTION_PAIRS``. Past
    ``_FRACTION_SIZE`` a ValidationError refuses p + q.
    The last level adds d1 = -x - (q-1) x / (p+1) to f2 = 1 + (f2 - 1) as
    x_c + (f2 - 1) - (q-1) x / (p+1): where p >> q and x is near 1, f is
    near 0, and 1 + d1 / f2 would lose its digits.
    """
    s, neg_x = p + q, -x
    if s.max() > _FRACTION_SIZE:
        raise ValidationError(
            f"the incomplete Beta function takes alpha + beta up to {_FRACTION_SIZE:g}, "
            f"got {s.max():g}"
        )
    # Levels are taken in pairs (2m+1, 2m), from m = pairs down to 1. The
    # first guess grows with x(p+q) and with x against the switch point; it
    # was fitted so that every fig6 median start passes at once.
    hardness = np.sqrt(x * s) * x * (s + 2.0) / (p + 1.0)
    pairs = 5 + int(7.75 * math.log1p(hardness.max()))
    while True:
        check = max(1, pairs // 8)
        deep, shallow, work = np.ones_like(p), np.ones_like(p), np.empty_like(p)
        for first in range(0, pairs, _FRACTION_BLOCK):
            # Row i holds d(2m+1) in odd and d(2m) in even, m = pairs - first - i.
            m = np.arange(pairs - first, max(pairs - first - _FRACTION_BLOCK, 0), -1.0)[:, None]
            top = p + 2.0 * m
            square = top * top
            odd = (p + m) * (s + m) * neg_x / (square + top)
            even = (q - m) * (m * x) / (square - top)
            for i in range(len(m)):
                for f in (deep, shallow) if first + i >= check else (deep,):
                    np.divide(odd[i], f, out=work)
                    work += 1.0
                    np.divide(even[i], work, out=f)
                    # after the last pair, f holds f2 - 1
                    if first + i < pairs - 1:
                        f += 1.0
        rest = (q - 1.0) * x / (p + 1.0)
        deep, shallow = ((x_c + f - rest) / (1.0 + f) for f in (deep, shallow))
        if np.all(np.abs(deep - shallow) <= _FRACTION_TOL * deep):
            return deep
        if pairs >= _FRACTION_PAIRS:
            raise ValidationError(
                f"the incomplete Beta function did not converge in {2 * pairs + 1} levels"
            )
        pairs *= 2


class _Fraction(NamedTuple):
    """The components of a Beta mixture whose incomplete Beta function comes
    from its continued fraction (``_incomplete_beta``)."""

    a: np.ndarray
    b: np.ndarray
    # (a+1)/(a+b+2): above it, the fraction is that of I_(1-t)(b, a).
    switch: np.ndarray
    centre: _Centre


def _incomplete_beta(parts: _Fraction, t: float) -> np.ndarray:
    """The regularized incomplete Beta function I_t(a, b) of each component,
    for 0 < t < 1.

    Each is the continued fraction ``_beta_fraction`` of I_t(a, b) up to the
    component's switch point, and of I_(1-t)(b, a) = 1 - I_t(a, b) above it.
    The front factor t^a (1-t)^b / B(a, b) is taken relative to the
    component's ``_Centre``: its log is log_front + a log(t/x0) + b
    log((1-t)/y0), and each of these two logs is the ``log1p`` of the exact
    difference t - x0 over x0 (or y0) where that ratio is above -1/2, so near
    x0 no term is larger than the log it adds up to.
    """
    a, b, centre = parts.a, parts.b, parts.centre
    dt = t - centre.x0
    logs = []
    for ratio, log_t, log_0 in (
        (dt / centre.x0, math.log(t), centre.log_x0),
        (-dt / centre.y0, math.log1p(-t), centre.log_y0),
    ):
        log = log_t - log_0
        np.log1p(ratio, out=log, where=ratio > -0.5)
        logs.append(log)
    front = np.exp(centre.log_front + a * logs[0] + b * logs[1])
    flip = t > parts.switch
    if flip.any():
        p, q = np.where(flip, b, a), np.where(flip, a, b)
        x, x_c = np.where(flip, 1.0 - t, t), np.where(flip, t, 1.0 - t)
    else:  # below every switch point, as at the median's low start
        p, q, x, x_c = a, b, t, 1.0 - t
    part = front / (p * _beta_fraction(p, q, x, x_c))
    return np.where(flip, 1.0 - part, part)


class _Evaluation(NamedTuple):
    """One point of a Beta-mixture quantile solve."""

    t: float
    cdf: float
    density: float
    slope: float  # of the density


class _BetaSetup(NamedTuple):
    """What every quantile solve of one Beta mixture shares."""

    # Rows a - 1, b - 1 and log B(a, b): the log-densities at x are
    # [log x, log(1-x), -1] @ terms.
    terms: np.ndarray
    mean: float
    # The largest alpha - 1 and beta - 1 where every component has alpha,
    # beta >= 1 and alpha + beta <= _QUADRATURE_SIZE; else None.
    max_exponents: tuple[float, float] | None
    # alpha of the components with beta = 1, whose I_t is t^alpha (a
    # probabilistic estimate has one wherever the labels near a pool point
    # agree), and the other components.
    powers: np.ndarray
    fraction: _Fraction


@dataclass(frozen=True)
class PerformanceEstimate:
    """Accuracy as an empirical sample (one value for a point) or a Beta mixture."""

    samples: np.ndarray | None = None
    components: np.ndarray | None = None

    def __post_init__(self):
        if (self.samples is None) == (self.components is None):
            raise ValidationError("an estimate holds either samples or Beta components")
        for name in ("samples", "components"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, floats(value, name))
        if self.samples is not None:
            if self.samples.ndim != 1:
                shape = self.samples.shape
                raise ValidationError(f"empirical samples must be 1-D, got shape {shape}")
            if len(self.samples) == 0:
                raise ValidationError("empirical estimate needs at least one sample")
            # min and max propagate NaN, so a NaN sample fails too.
            if not (self.samples.min() >= 0.0 and self.samples.max() <= 1.0):
                raise ValidationError("empirical samples must lie in [0,1]")
            self.samples.setflags(write=False)
        else:
            if self.components.ndim != 2 or self.components.shape[1] != 2:
                raise ValidationError(
                    f"beta components must have shape (n, 2), got shape {self.components.shape}"
                )
            if len(self.components) == 0:
                raise ValidationError("beta mixture needs at least one component")
            if not np.all(np.isfinite(self.components) & (self.components > 0.0)):
                raise ValidationError("beta parameters must be finite and strictly positive")
            self.components.setflags(write=False)

    @classmethod
    def point(cls, value: float) -> PerformanceEstimate:
        return cls(samples=[value])

    @classmethod
    def empirical(cls, values: np.ndarray) -> PerformanceEstimate:
        return cls(samples=values)

    @classmethod
    def beta_mixture(cls, alphas: np.ndarray, betas: np.ndarray) -> PerformanceEstimate:
        return cls(components=np.column_stack([alphas, betas]))

    def mean(self) -> float:
        if self.samples is not None:
            return float(self.samples.mean())
        return self._beta.mean

    @cached_property
    def _beta(self) -> _BetaSetup:
        """Beta-mixture set-up, computed once per estimate."""
        a, b = np.ascontiguousarray(self.components.T)
        terms = np.stack([a - 1.0, b - 1.0, np.empty_like(a)])
        am1, bm1, _ = terms
        s = a + b
        mean = float((a / s).sum() / len(a))
        integrable = min(am1.min(), bm1.min()) >= 0.0 and s.max() <= _QUADRATURE_SIZE
        max_exponents = (float(am1.max()), float(bm1.max())) if integrable else None
        ones = b == 1.0
        rest = ~ones
        powers, a, b = a[ones], a[rest], b[rest]
        centre = _beta_centre(a, b)
        terms[2, rest] = _betaln(a, b, centre)
        terms[2, ones] = -np.log(powers)  # B(alpha, 1) = 1 / alpha
        fraction = _Fraction(a, b, (a + 1.0) / (a + b + 2.0), centre)
        return _BetaSetup(terms, mean, max_exponents, powers, fraction)

    def cdf(self, t: float) -> float:
        """Empirical or mixture CDF (a point value's is a step function). A
        mixture's is the mean of its components' I_t: t^alpha where beta = 1,
        else ``_incomplete_beta``."""
        if self.samples is not None:
            return float((self.samples <= t).mean())
        if t <= 0.0:
            return 0.0
        if t >= 1.0:
            return 1.0
        beta = self._beta
        total = np.exp(beta.powers * math.log(t)).sum()
        if len(beta.fraction.a):
            total += _incomplete_beta(beta.fraction, t).sum()
        return float(total / len(self.components))

    def quantile(self, q: float) -> float:
        """Level-q quantile.

        An empirical quantile is numpy's "linear" percentile (see
        ``percentiles``). For a Beta mixture this solves F(t) = q by a
        safeguarded Halley iteration (``_halley``); F at each evaluation
        comes from the evaluation it steps from (``_cdf_from``). The median's
        solve comes first and is kept per estimate: it starts at the mixture
        mean, the median of the normal distribution with the mixture's mean
        and variance, and takes F there from ``cdf`` at a low point plus the
        hop up to the mean (see ``_LOW_START``), or from ``cdf`` at the mean
        where the hop's quadrature does not apply. Every other level starts
        from that solve's evaluations: they bracket its root, and its first
        step is a Halley step off the evaluation nearest to q in F. So a
        quantile returns the same value whichever levels were asked for
        before it.
        """
        if not 0.0 <= q <= 1.0:
            raise ValidationError(f"quantile level must be in [0,1], got {q}")
        if self.samples is not None:
            return percentiles(self.samples, (100.0 * q,))[0]
        if q == 0.0:
            return 0.0
        if q == 1.0:
            return 1.0
        median, seen = self._median_solve
        if q == 0.5:
            return median
        lo = max((e.t for e in seen if e.cdf < q), default=0.0)
        hi = min((e.t for e in seen if e.cdf > q), default=1.0)
        nearest = min(seen, key=lambda e: abs(e.cdf - q))
        return self._halley(q, lo, hi, nearest, [])

    @cached_property
    def _median_solve(self) -> tuple[float, tuple[_Evaluation, ...]]:
        """The median of a Beta mixture, and the evaluations its solve made."""
        beta = self._beta
        t = beta.mean if 0.0 < beta.mean < 1.0 else 0.5
        low = _LOW_START * float(beta.fraction.switch.min(initial=1.0))
        if beta.max_exponents is not None and len(beta.fraction.a) and low < t:
            # a hop reads only the t and F it steps from
            start = self._evaluate(t, _Evaluation(low, self.cdf(low), 0.0, 0.0))
        else:
            start = self._evaluate(t)
        seen = [start]
        median = self._halley(0.5, 0.0, 1.0, start, seen)
        return median, tuple(seen)

    def _evaluate(self, t: float, base: _Evaluation | None = None) -> _Evaluation:
        """The mixture's F, density and density slope at t.

        The density and its slope come from the log-space Beta densities.
        F comes from ``cdf`` without a ``base``, and from ``_cdf_from`` when
        stepping from one.
        """
        terms, n = self._beta.terms, len(self.components)
        pdf = np.exp(np.array([math.log(t), math.log1p(-t), -1.0]) @ terms)
        # the slope of each density is (alpha-1)/t - (beta-1)/(1-t) times it
        up, down = terms[:2] @ pdf
        density = float(pdf.sum() / n)
        slope = float((up / t - down / (1.0 - t)) / n)
        cdf = self.cdf(t) if base is None else self._cdf_from(base, t)
        return _Evaluation(t, cdf, density, slope)

    def _cdf_from(self, base: _Evaluation, t: float) -> float:
        """F(t) as F(base.t) plus the integral of the mixture density over
        the hop from base.t to t, by Gauss-Legendre rules on pieces of it.

        A component's log-density (alpha-1) log x + (beta-1) log(1-x) changes
        over a piece [u, v] by at most (alpha-1) log(v/u) + (beta-1)
        log((1-u)/(1-v)), as each term is monotone in x. The piece's reach is
        the largest such change over the components, with every alpha and
        beta one larger, so that a piece long against its distance from 0 or
        1 also reaches far. Where every component density is bounded (alpha,
        beta >= 1), the hop is cut into the fewest pieces, evenly spaced in
        log(x/(1-x)), of which each is no longer than the distance of either
        of its ends from 0 and from 1 and reaches no further than the last
        bound of ``_QUADRATURE_NODES``; all pieces take the rule whose bound
        the farthest-reaching one is within. Elsewhere F(t) comes from
        ``cdf``.
        """
        beta = self._beta
        if beta.max_exponents is None:
            return self.cdf(t)
        lo, hi = min(base.t, t), max(base.t, t)
        ends, reach = [lo, hi], self._reach(lo, hi)
        if reach > _QUADRATURE_NODES[-1][0] or hi - lo > min(lo, 1.0 - hi):
            ends, reach = self._pieces(lo, hi, reach)
        n = next(n for bound, n in _QUADRATURE_NODES if reach <= bound)
        nodes, weights = _gauss_legendre(n)
        count = len(ends) - 1
        logs, halves = np.empty((count * n, 3)), np.empty(count)
        logs[:, 2] = -1.0
        for i in range(count):
            u, v = ends[i], ends[i + 1]
            mid, halves[i] = 0.5 * (u + v), 0.5 * (v - u)
            # log x and log(1-x) at the nodes x = mid + half * node, each as
            # its value at mid plus a log1p, so that no node is rounded to a float
            rows = logs[i * n : (i + 1) * n]
            np.log1p(halves[i] / mid * nodes, out=rows[:, 0])
            rows[:, 0] += math.log(mid)
            np.log1p(-halves[i] / (1.0 - mid) * nodes, out=rows[:, 1])
            rows[:, 1] += math.log1p(-mid)
        pdf = np.exp(logs @ beta.terms).sum(axis=1).reshape(count, n)
        integral = float(halves @ (pdf @ weights)) / len(self.components)
        return base.cdf + (integral if t > base.t else -integral)

    def _reach(self, u: float, v: float) -> float:
        """The reach of the piece [u, v] (see ``_cdf_from``)."""
        a_max, b_max = self._beta.max_exponents
        return (1.0 + a_max) * math.log1p((v - u) / u) + (1.0 + b_max) * math.log1p(
            (v - u) / (1.0 - v)
        )

    def _pieces(self, lo: float, hi: float, reach: float) -> tuple[list[float], float]:
        """The ends of the fewest pieces of [lo, hi], evenly spaced in
        log(x/(1-x)), that ``_cdf_from`` integrates, and their farthest reach.
        Reach adds up over pieces, so there are at least reach / (the last
        bound of ``_QUADRATURE_NODES``) of them."""
        odds = math.log(lo) - math.log1p(-lo)
        span = math.log(hi) - math.log1p(-hi) - odds
        count = max(2, math.ceil(reach / _QUADRATURE_NODES[-1][0]))
        while True:
            cuts = (1.0 / (1.0 + math.exp(-odds - span * i / count)) for i in range(1, count))
            ends = [lo, *cuts, hi]
            pieces = list(zip(ends, ends[1:]))
            reach = max(self._reach(u, v) for u, v in pieces)
            if reach <= _QUADRATURE_NODES[-1][0] and all(
                v - u <= min(u, 1.0 - v) for u, v in pieces
            ):
                return ends, reach
            count += 1

    def _halley(
        self, q: float, lo: float, hi: float, e: _Evaluation, seen: list[_Evaluation]
    ) -> float:
        """Solve F(t) = q from evaluation ``e`` inside the bracket [lo, hi].

        Every evaluation, appended to ``seen``, shrinks the bracket. A step
        that would leave the bracket, or is longer than half the move made
        two evaluations back, is replaced by bisection: so a solve that
        creeps over a plateau of near-zero density halves its bracket
        instead. The solve stops when the bracket is narrower than 1e-12, or
        after an accepted Halley step shorter than 1e-5 of the local length
        scale (at most 1): convergence is cubic, so the error left after
        such a step is far below 1e-12. A step below the float resolution at
        t, which would land on t itself, stops the solve at t.
        """
        before = last = math.inf  # the lengths of the last two moves
        while True:
            excess = e.cdf - q
            if excess == 0.0:
                return e.t
            if excess < 0.0:
                lo = max(lo, e.t)
            else:
                hi = min(hi, e.t)
            if hi - lo < _XTOL:
                return 0.5 * (lo + hi)
            density, slope = e.density, e.slope
            try:
                newton = excess / density
                step = -newton / (1.0 - 0.5 * newton * slope / density)
            except ZeroDivisionError:
                step = math.nan
            if e.t + step == e.t:
                return e.t
            if lo < e.t + step < hi and abs(step) <= 0.5 * before:
                t = e.t + step
                # The step is measured against the local length scale, the
                # smaller of 1, 1/density and density/|slope|, so a sharply
                # peaked mixture is solved as finely as a flat one.
                if abs(step) * max(1.0, density, abs(slope / density)) < _HALLEY_STOP:
                    return t
            else:
                t = 0.5 * (lo + hi)
            before, last = last, abs(t - e.t)
            e = self._evaluate(t, e)
            seen.append(e)

    def median(self) -> float:
        return self.quantile(0.5)

    def summary(self) -> dict[str, float]:
        """Boxplot-style summary: mean, median and quartiles.

        An empirical estimate sorts its samples once and reads all three
        quartiles from that sort (``percentiles``, equal to
        ``numpy.percentile`` bit for bit). For a Beta mixture each quartile
        is a ``quantile`` call; the set-up those solves share and the
        median's solve are computed once per estimate. A one-value sample's
        is ``point_summary``.
        """
        if self.samples is not None:
            if len(self.samples) == 1:
                return point_summary(float(self.samples[0]))
            q25, median, q75 = percentiles(self.samples, (25.0, 50.0, 75.0))
        else:
            median, q25, q75 = self.median(), self.quantile(0.25), self.quantile(0.75)
        return {"mean": self.mean(), "median": median, "q25": q25, "q75": q75}


def point_summary(value: float) -> dict[str, float]:
    """``PerformanceEstimate.summary`` of the one-value sample ``value``: the
    value is its own quartiles, and its mean is the value plus 0.0, as
    ``ndarray.mean`` sums from 0.0 (a -0.0 sample has mean 0.0)."""
    return {"mean": value + 0.0, "median": value, "q25": value, "q75": value}


# ---------------------------------------------------------------------------
# Generalization error
# ---------------------------------------------------------------------------


def _accuracy_from_posteriors(post: np.ndarray) -> float:
    """1 - mean(1 - max posterior). Contributions are summed in sorted
    order so the result is exactly invariant under permutation of the
    evaluation set."""
    contrib = 1.0 - parzen.class_max(post)
    err = float(np.sort(contrib).sum())
    return 1.0 - err / post.shape[0]


def generalization_error_estimate(pool: KernelBlock) -> PerformanceEstimate:
    """Self-assessed accuracy from the classifier's own confidence.

    Sums one minus the maximal posterior of ``pool.model`` over the pool's
    points and reports accuracy = 1 - error / |pool|.
    """
    if len(pool) == 0:
        raise ValidationError("no evaluation instances")
    return PerformanceEstimate.point(_accuracy_from_posteriors(pool.posterior))


# ---------------------------------------------------------------------------
# Cross-validation family
# ---------------------------------------------------------------------------


def random_folds(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """Each instance's fold (0..k-1) under unstratified random folds, as an
    int64 array: fold sizes are within 1 of n/k, the larger folds first.

    k == n is leave-one-out; its assignment is forced, so it is built
    deterministically without consuming randomness.
    """
    if k < 2:
        raise ValidationError(f"fold count must be >= 2, got {k}")
    if k > n:
        raise ValidationError(f"cannot split {n} instances into {k} folds")
    if k == n:
        return np.arange(n)
    perm = rng.permutation(n)
    base, extra = divmod(n, k)
    fold_of = np.empty(n, dtype=np.int64)
    fold_of[perm] = np.repeat(np.arange(k), base + (np.arange(k) < extra))
    return fold_of


def _fold_predictions(
    xs: np.ndarray,
    ys: np.ndarray,
    k: int,
    config: ClassifierConfig,
    rng: np.random.Generator,
    train_size: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Held-out correctness (1.0 or 0.0) of each instance under k-fold CV
    over (xs, ys), and each instance's fold. A fold trains on the instances
    outside it or, with ``train_size``, on a fresh uniform subset of at most
    that many of them; no fold model is fitted."""
    fold_of = random_folds(len(xs), k, rng)
    whole = parzen.fit_arrays(xs, ys, config)  # the one label check
    xs, ys, h, c = whole.train_x, whole.train_y, config.bandwidth, config.class_count
    if train_size is None:
        block = parzen.kernel_block(xs, whole)
        masses = np.where(fold_of[:, None] == fold_of, 0.0, block.weights) @ block.onehot
    else:
        masses = np.empty((len(xs), c))
        for i in range(k):
            fold = fold_of == i
            outside = np.flatnonzero(~fold)
            train = rng.choice(outside, size=min(train_size, len(outside)), replace=False)
            masses[fold] = parzen.class_kernel_mass(xs[fold], xs[train], ys[train], h, c)
    predicted = parzen.class_argmax(parzen.posterior_from_masses(masses, config)) + 1
    return (predicted == ys).astype(np.float64), fold_of


def kfold_cv_detail(
    labeled: LabeledSet,
    k: int,
    config: ClassifierConfig,
    rng: np.random.Generator,
    reweighted: bool = False,
) -> tuple[PerformanceEstimate, np.ndarray]:
    """``kfold_cv``'s estimate and each instance's fold (``random_folds``):
    fold i's model is that of the instances where the fold array is not i."""
    if len(labeled) == 0:
        raise ValidationError("no labeled instances")
    correct, fold_of = _fold_predictions(labeled.xs, labeled.ys, k, config, rng)
    acc = float(correct.mean())
    if reweighted:
        w = 1.0 / labeled.qs
        # Constant weights give the unweighted mean by identity; keeping that
        # value, not the weighted sum, makes the equality exact.
        if np.ptp(w) != 0.0:
            acc = float((w * correct).sum() / w.sum())
    return PerformanceEstimate.point(acc), fold_of


def kfold_cv(
    labeled: LabeledSet,
    k: int,
    config: ClassifierConfig,
    rng: np.random.Generator,
    reweighted: bool = False,
) -> PerformanceEstimate:
    """k-fold cross-validation accuracy over the labeled set.

    Fold assignment is randomized per call; predictions are pooled over all
    held-out instances. With ``reweighted`` each prediction is weighted by
    1/q(x), its recorded sampling density inverted. A correction toward the
    data-generating density p needs p(x)/q(x) (ROADMAP item 1).
    """
    # Tracing wraps kfold_cv_detail and names its span by reweighted, read at
    # position 4 or by keyword.
    return kfold_cv_detail(labeled, k, config, rng, reweighted)[0]


def self_label_cv(pool: KernelBlock, k: int, rng: np.random.Generator) -> PerformanceEstimate:
    """Cross-validation over the labeled set plus a self-labeled pool.

    The classifier ``m = pool.model`` labels the pool's points; those
    predictions are then treated as ground truth. To keep the training sets
    comparable to the labeled set ``m`` was fitted on, each fold's classifier
    (``m.config``) trains on a uniform random subset of size min(|labeled|,
    instances outside the fold).
    """
    if len(pool) == 0:
        raise ValidationError("no evaluation instances")
    m = pool.model
    n = len(m.train_x)
    if n == 0:
        raise ValidationError("no labeled instances")
    union_xs = np.concatenate([m.train_x, pool.points])
    union_ys = np.concatenate([m.train_y, parzen.class_argmax(pool.posterior) + 1])
    correct = _fold_predictions(union_xs, union_ys, k, m.config, rng, train_size=n)[0]
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


def probabilistic_performance(pool: KernelBlock) -> PerformanceEstimate:
    """Accuracy as an equal-prior mixture of per-instance Beta distributions.

    Each pool point contributes one Beta component derived from the local
    statistics of the two-class labels ``pool.model`` was fitted on: the
    nearby-label count n, a soft kernel mass (the block's weights), and the
    local class-2 fraction p_hat. With no mass p_hat defaults to 1/2, so
    instances with no nearby labels contribute the uniform Beta(1, 1).

    So each component's mean alpha / (alpha + beta) is
    (1 + n max(p_hat, 1 - p_hat)) / (2 + n): the kernel's max-posterior
    (without the prior weight), shrunk toward 1/2 with weight 2 / (n + 2).
    n is an unnormalised soft count, so scaling the kernel moves the estimate.
    """
    if len(pool) == 0:
        raise ValidationError("no evaluation instances")
    ys = pool.model.train_y
    if np.any((ys < 1) | (ys > 2)):
        raise ValidationError("local label statistics are defined for 2 classes only")
    # Masses are >= 0, so class2 <= total after rounding too, and every beta >= 1.
    total, class2 = parzen.class_sum(pool.masses), pool.masses[:, 1]
    p_hat = np.where(total > 0.0, class2 / np.where(total > 0.0, total, 1.0), 0.5)
    alphas, betas = beta_components_from_stats(total, p_hat)
    return PerformanceEstimate.beta_mixture(alphas, betas)


# ---------------------------------------------------------------------------
# Oracle baselines
# ---------------------------------------------------------------------------


def truth_step(config: ClassifierConfig) -> float:
    """The grid step the true baseline reads a classifier's rule on."""
    return config.bandwidth / 20.0


def truth_grid(model: TaskModel, config: ClassifierConfig) -> np.ndarray:
    """The grid the true baseline reads a classifier's rule on."""
    return synthdata.decision_grid(model, truth_step(config))


def true_baseline(m: ParzenModel, model: TaskModel) -> float:
    """Exact accuracy of the classifier under the data-generating
    distribution: ``synthdata.decision_accuracy`` of ``parzen.posterior_batch``
    under ``m``, read on ``truth_grid`` (the decision grid of ``truth_step``).
    ``prefix_truths`` gives it for every budget of an acquisition sequence
    at once."""
    scores = partial(parzen.posterior_batch, m)
    return synthdata.decision_accuracy(model, scores, truth_step(m.config))


def prefix_truths(
    m: ParzenModel, model: TaskModel, budgets: Sequence[int], grid: np.ndarray
) -> np.ndarray:
    """``true_baseline`` of the prefix model of each budget of ``m``, bit for
    bit, from one read of the ``truth_grid`` ``grid``: every budget's rule is
    read on it by ``parzen.prefix_labels`` and refined by one
    ``synthdata.region_accuracy`` call, whose every round is one
    ``parzen.prefix_posteriors`` kernel block for all budgets' brackets."""
    scores = partial(parzen.prefix_posteriors, model=m, budgets=budgets)
    return synthdata.region_accuracy(model, scores, grid, parzen.prefix_labels(grid, m, budgets))


def subsample_accuracy(
    accuracy: float, budget: int, rng: np.random.Generator, reps: int | None = None
) -> float | np.ndarray:
    """Accuracy on a fresh unbiased oracle-labeled set of ``budget``
    instances, for a classifier of true ``accuracy``: one
    Binomial(budget, accuracy) / budget draw from ``rng``, a float; with
    ``reps``, an array of ``reps`` such draws, whose first value is the
    float a scalar draw from the same stream gives.
    """
    if budget < 1:
        raise ValidationError(f"budget must be >= 1, got {budget}")
    if reps is not None and reps < 1:
        raise ValidationError(f"reps must be >= 1, got {reps}")
    if not 0.0 <= accuracy <= 1.0:
        raise ValidationError(f"accuracy must be in [0,1], got {accuracy}")
    return rng.binomial(budget, accuracy, reps) / budget


def subsample_baseline(
    accuracy: float, budget: int, reps: int, rng: np.random.Generator
) -> PerformanceEstimate:
    """Distribution of accuracy over repeated budget-sized evaluation sets.

    The classifier stays fixed and each repetition is a fresh unbiased
    oracle-labeled set of ``budget`` instances, so each accuracy value is
    Binomial(budget, accuracy) / budget, drawn directly from the classifier's
    true ``accuracy`` (``subsample_accuracy``).
    """
    return PerformanceEstimate.empirical(subsample_accuracy(accuracy, budget, rng, reps))
