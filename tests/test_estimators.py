import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import optimize, stats

from alperf import estimators, parzen, synthdata
from alperf.errors import ValidationError
from alperf.estimators import (
    _QUADRATURE_NODES,
    PerformanceEstimate,
    _beta_centre,
    _betaln,
    _accuracy_from_posteriors,
    _gauss_legendre,
    beta_components_from_stats,
    generalization_error_estimate,
    kfold_cv,
    kfold_cv_detail,
    percentiles,
    point_summary,
    probabilistic_performance,
    random_folds,
    self_label_cv,
    subsample_accuracy,
    subsample_baseline,
    prefix_truths,
    true_baseline,
    truth_grid,
)
from alperf.config import BUILTIN_SCENARIOS, resolve_config
from alperf.harness import acquisition_sequence, derive_substream
from alperf.parzen import (
    ClassifierConfig, fit_arrays, kernel_block, predict_batch,
)
from alperf.synthdata import (
    GaussianComponent,
    LabeledSet,
    TaskModel,
    draw_labeled,
    draw_oracle_arrays,
    draw_unlabeled,
    unbiased_sampler,
)

CFG = ClassifierConfig()
NO_LABELS = LabeledSet([], [], [])


def _labeled(pairs, density=1.0):
    return LabeledSet(
        [x for x, _ in pairs], [y for _, y in pairs], [density] * len(pairs)
    )


def _fit(labeled, **config):
    return fit_arrays(labeled.xs, labeled.ys, ClassifierConfig(**config))


def _local_stats(labeled, x, bandwidth, class_count=2):
    """Label mass n at x with the Beta component (alpha, beta) that the
    probabilistic estimator builds from it for a single evaluation point;
    n = alpha + beta - 2."""
    m = _fit(labeled, bandwidth=bandwidth, class_count=class_count)
    est = probabilistic_performance(kernel_block(np.array([x]), m))
    alpha, beta = est.components[0]
    n = alpha + beta - 2.0
    return n, alpha, beta


def _count_mixture(block):
    """The Beta mixture of integer label counts: at each of the block's
    points, the labels within one bandwidth of it and the class-2 fraction
    among them (1/2 where there are none)."""
    m = block.model
    near = np.abs(block.points[:, None] - m.train_x[None, :]) <= m.config.bandwidth
    total = near.sum(axis=1)
    p_hat = np.where(total > 0, near[:, m.train_y == 2].sum(axis=1) / np.maximum(total, 1), 0.5)
    return PerformanceEstimate.beta_mixture(*beta_components_from_stats(total, p_hat))


class TestPercentiles:
    def test_bit_identical_to_numpy(self):
        rng = np.random.default_rng(2024)
        sizes = [*range(1, 41), 99, 100, 101, 1000]
        fixed = [0.0, 25.0, 50.0, 75.0, 100.0]
        for n in sizes:
            for decimals in (1, 2, 15):  # coarse rounding makes ties
                values = np.round(rng.random(n), decimals)
                levels = fixed + list(rng.uniform(0.0, 100.0, 20))
                got = np.array(percentiles(values, levels))
                expected = np.percentile(values, levels)
                np.testing.assert_array_equal(got.view(np.int64), expected.view(np.int64))

    def test_leaves_input_unsorted(self):
        values = np.array([0.9, 0.1, 0.5])
        assert percentiles(values, (50.0,)) == [0.5]
        np.testing.assert_array_equal(values, [0.9, 0.1, 0.5])


class TestPerformanceEstimate:
    def test_point_summary(self):
        e = PerformanceEstimate.point(0.7)
        assert e.mean() == e.median() == e.quantile(0.25) == 0.7

    def test_point_range_validated(self):
        with pytest.raises(ValidationError):
            PerformanceEstimate.point(1.2)
        with pytest.raises(ValidationError, match=r"lie in \[0,1\]"):
            PerformanceEstimate.point(float("nan"))

    def test_point_is_a_one_value_sample(self):
        for v in (0.0, 0.3, 1.0 / 3.0, 0.7, 1.0):
            point, sample = PerformanceEstimate.point(v), PerformanceEstimate.empirical([v])
            assert point.summary() == sample.summary()
            assert point.summary() == {"mean": v, "median": v, "q25": v, "q75": v}
            for q in (0.0, 0.25, 0.5, 0.75, 1.0):
                assert point.quantile(q) == sample.quantile(q) == v
            for t in (v - 1e-12, v, v + 1e-12):
                assert point.cdf(t) == sample.cdf(t) == (1.0 if t >= v else 0.0)

    def test_cdf_refuses_nan_and_takes_infinities(self):
        point = PerformanceEstimate.point(0.7)
        mixture = PerformanceEstimate.beta_mixture(np.array([2.0, 3.5]), np.array([1.0, 4.0]))
        for e in (point, mixture):
            with pytest.raises(ValidationError, match="^cdf point must not be NaN, got nan$"):
                e.cdf(float("nan"))
            assert e.cdf(-math.inf) == 0.0 and e.cdf(math.inf) == 1.0

    @pytest.mark.parametrize("v", [-0.0, 0.0, 5e-324, 0.1, 1.0 / 3.0, 0.7, 1.0 - 2.0**-53, 1.0])
    def test_one_value_summary_is_numpy_bit_for_bit(self, v):
        samples = np.array([v])
        expected = {"mean": float(samples.mean())}
        for key, p in (("median", 50.0), ("q25", 25.0), ("q75", 75.0)):
            expected[key] = float(np.percentile(samples, p))
        summary = PerformanceEstimate.empirical(samples).summary()
        assert {k: x.hex() for k, x in summary.items()} == {
            k: x.hex() for k, x in expected.items()
        }
        assert {k: x.hex() for k, x in point_summary(v).items()} == {
            k: x.hex() for k, x in expected.items()
        }

    def test_exactly_one_shape(self):
        with pytest.raises(ValidationError, match="either samples or Beta components"):
            PerformanceEstimate()
        with pytest.raises(ValidationError, match="either samples or Beta components"):
            PerformanceEstimate(samples=np.array([0.5]), components=np.array([[1.0, 1.0]]))

    @pytest.mark.parametrize("kwargs, message", [
        ({"samples": np.full((1, 1), 0.5)}, r"samples must be 1-D, got shape \(1, 1\)"),
        ({"samples": np.float64(0.5)}, r"samples must be 1-D, got shape \(\)"),
        ({"components": np.ones(2)}, r"shape \(n, 2\), got shape \(2,\)"),
        ({"components": np.ones((1, 3))}, r"shape \(n, 2\), got shape \(1, 3\)"),
        ({"components": np.ones((1, 1, 2))}, r"shape \(n, 2\), got shape \(1, 1, 2\)"),
    ], ids=["samples-2d", "samples-0d", "components-1d", "components-3-wide", "components-3d"])
    def test_array_shapes_validated(self, kwargs, message):
        with pytest.raises(ValidationError, match=message):
            PerformanceEstimate(**kwargs)

    @pytest.mark.parametrize("kwargs, field", [
        ({"samples": ["a"]}, "samples"),
        ({"samples": [[0.5], [0.5, 0.2]]}, "samples"),
        ({"components": [["x", 1.0]]}, "components"),
    ], ids=["samples-string", "samples-ragged", "components-string"])
    def test_fields_that_are_not_numbers_refused(self, kwargs, field):
        with pytest.raises(ValidationError, match=f"^{field} must be an array of numbers"):
            PerformanceEstimate(**kwargs)

    def test_empirical_quantiles_match_numpy(self):
        rng = np.random.default_rng(0)
        vals = rng.random(101)
        e = PerformanceEstimate.empirical(vals)
        assert e.mean() == pytest.approx(vals.mean(), abs=1e-15)
        for q in (0.25, 0.5, 0.75):
            assert e.quantile(q) == float(np.percentile(vals, 100 * q))
        for vals in (vals, np.array([0.3]), np.array([0.9, 0.2])):
            summary = PerformanceEstimate.empirical(vals).summary()
            q25, median, q75 = np.percentile(vals, [25.0, 50.0, 75.0])
            assert summary == {
                "mean": float(vals.mean()), "median": float(median),
                "q25": float(q25), "q75": float(q75),
            }

    def test_beta_summary_equals_fresh_quantiles(self):
        # The set-up shared by one estimate's solves must not change them.
        rng = np.random.default_rng(9)
        a, b = rng.uniform(0.5, 30.0, 200), rng.uniform(0.5, 30.0, 200)
        summary = PerformanceEstimate.beta_mixture(a, b).summary()
        fresh = [
            PerformanceEstimate.beta_mixture(a, b).quantile(q)
            for q in (0.5, 0.25, 0.75)
        ]
        assert [summary["median"], summary["q25"], summary["q75"]] == fresh
        assert summary["mean"] == PerformanceEstimate.beta_mixture(a, b).mean()

    def test_empirical_range_validated(self):
        for samples in ([0.5, 1.5], [float("nan"), 0.5]):
            with pytest.raises(ValidationError, match=r"lie in \[0,1\]"):
                PerformanceEstimate.empirical(np.array(samples))

    def test_caller_arrays_stay_writeable(self):
        values, alphas, betas = np.array([0.2, 0.4]), np.array([2.0]), np.array([1.0])
        PerformanceEstimate.empirical(values)
        PerformanceEstimate.beta_mixture(alphas, betas)
        values[0], alphas[0], betas[0] = 0.1, 3.0, 2.0

    def test_fields_take_lists_and_integer_arrays(self):
        samples, components = np.array([0, 1]), np.array([[2, 1], [1, 1]])
        for e in (
            PerformanceEstimate(samples=[0.5]),
            PerformanceEstimate(components=[[2.0, 1.0], [1.0, 1.0]]),
            PerformanceEstimate(samples=samples),
            PerformanceEstimate(components=components),
        ):
            field = e.samples if e.samples is not None else e.components
            assert field.dtype == np.float64 and not field.flags.writeable
        assert PerformanceEstimate(samples=[0.5]).summary() == point_summary(0.5)
        mixture = PerformanceEstimate.beta_mixture(np.array([2.0, 1.0]), np.array([1.0, 1.0]))
        assert PerformanceEstimate(components=components).summary() == mixture.summary()
        assert samples.flags.writeable and components.flags.writeable

    def test_beta_single_component(self):
        e = PerformanceEstimate.beta_mixture(np.array([10.0]), np.array([2.0]))
        assert e.mean() == pytest.approx(10.0 / 12.0, abs=1e-15)

    def test_beta_mixture_mean_is_component_average(self):
        e = PerformanceEstimate.beta_mixture(
            np.array([10.0, 1.0]), np.array([2.0, 1.0])
        )
        assert e.mean() == pytest.approx((10.0 / 12.0 + 0.5) / 2.0, abs=1e-12)
        rng = np.random.default_rng(5)
        a = rng.uniform(0.5, 20, 50)
        b = rng.uniform(0.5, 20, 50)
        e2 = PerformanceEstimate.beta_mixture(a, b)
        assert e2.mean() == pytest.approx(float((a / (a + b)).mean()), abs=1e-12)

    def test_beta_parameters_positive(self):
        for alpha, beta in ((0.0, 1.0), (float("nan"), 1.0), (1.0, float("inf"))):
            with pytest.raises(ValidationError, match="beta parameters"):
                PerformanceEstimate.beta_mixture(np.array([alpha]), np.array([beta]))

    def test_beta_cdf_monotone_with_unit_range(self):
        e = PerformanceEstimate.beta_mixture(
            np.array([3.0, 1.0, 8.0]), np.array([1.5, 1.0, 2.0])
        )
        ts = np.linspace(0.0, 1.0, 101)
        cdf = np.array([e.cdf(t) for t in ts])
        assert cdf[0] == 0.0 and cdf[-1] == 1.0
        assert np.all(np.diff(cdf) >= 0.0)

    def test_beta_quantile_inverts_cdf(self):
        e = PerformanceEstimate.beta_mixture(np.array([5.0, 2.0]), np.array([2.0, 2.0]))
        for q in (0.1, 0.25, 0.5, 0.75, 0.9):
            assert e.cdf(e.quantile(q)) == pytest.approx(q, abs=1e-9)
        assert e.quantile(0.25) <= e.median() <= e.quantile(0.75)


# (alphas, betas) of Beta mixtures whose quantiles are checked against a
# brentq solve of the same CDF.
_BETA_BATTERY = {
    "single": ([10.0], [2.0]),
    "uniform": ([1.0], [1.0]),
    "hard-counts": ([1.0, 2.0, 4.0, 7.0, 3.0, 1.0, 12.0], [1.0, 1.0, 2.0, 1.0, 3.0, 1.0, 1.0]),
    "alpha-1e3": ([1e3, 1.5e3], [2.0, 1.0]),
    "beta-1e3": ([1.0, 3.0], [1e3, 5e3]),
    "alpha-1e5": ([1e5, 1e5], [3.0, 1.0]),
    "beta-1e6": ([2.0], [1e6]),
    "bimodal": ([40.0] * 5 + [2.0] * 5, [2.0] * 5 + [40.0] * 5),
    "bimodal-peaked": ([1e3, 1e3, 1.0, 1.0], [1.0, 1.0, 1e3, 1e3]),
}


def _fig6_blocks():
    """The pool blocks of shipped fig6's first units: 3 samplers x 2
    repetitions x budgets 10/30/50."""
    spec = resolve_config(json.dumps(BUILTIN_SCENARIOS["fig6"].config)).spec
    for s_idx in range(3):
        for rep in range(2):
            sequence = acquisition_sequence(spec, s_idx, rep)
            pool = draw_unlabeled(
                spec.task, spec.pool_size,
                derive_substream(spec.master_seed, (1, s_idx, rep)),
            )
            block = kernel_block(pool, fit_arrays(sequence.xs, sequence.ys, spec.classifier))
            for budget in spec.budgets:
                yield block.prefix(budget)


def _fig6_mixtures():
    """The Beta mixtures of ``_fig6_blocks``."""
    return (probabilistic_performance(block) for block in _fig6_blocks())


def _count_calls(monkeypatch, name):
    """Wrap ``PerformanceEstimate.<name>``; returns the list its calls'
    first arguments are appended to."""
    calls = []
    method = getattr(PerformanceEstimate, name)

    def counting(self, t, *args):
        calls.append(t)
        return method(self, t, *args)

    monkeypatch.setattr(PerformanceEstimate, name, counting)
    return calls


class TestBetaQuantile:
    @staticmethod
    def _brentq(e, q):
        return optimize.brentq(lambda t: e.cdf(t) - q, 0.0, 1.0, xtol=1e-12)

    @pytest.mark.parametrize("name", sorted(_BETA_BATTERY))
    def test_matches_brentq(self, name):
        alphas, betas = _BETA_BATTERY[name]
        e = PerformanceEstimate.beta_mixture(np.array(alphas), np.array(betas))
        for q in (0.01, 0.25, 0.5, 0.75, 0.99):
            assert abs(e.quantile(q) - self._brentq(e, q)) <= 2e-12, q
        assert e.quantile(0.25) <= e.median() <= e.quantile(0.75)

    def test_matches_brentq_on_estimator_mixtures(self):
        rng = np.random.default_rng(11)
        for budget in (10, 50):
            xs = rng.normal(0.0, 1.5, budget)
            labeled = _labeled([(x, 1 + int(x > 0)) for x in xs])
            pool = rng.normal(0.0, 2.0, 1000)
            block = kernel_block(pool, _fit(labeled))
            for e in (probabilistic_performance(block), _count_mixture(block)):
                for q in (0.25, 0.5, 0.75):
                    assert abs(e.quantile(q) - self._brentq(e, q)) <= 2e-12

    def test_quantile_is_the_same_whichever_levels_came_first(self):
        rng = np.random.default_rng(12)
        a, b = rng.uniform(0.5, 30.0, 300), rng.uniform(0.5, 30.0, 300)
        summary = PerformanceEstimate.beta_mixture(a, b).summary()
        for q, key in ((0.75, "q75"), (0.25, "q25")):
            # a bare quantile on a fresh estimate, before any median
            assert PerformanceEstimate.beta_mixture(a, b).quantile(q) == summary[key]

    def test_fig6_summaries_average_few_cdf_calls(self, monkeypatch):
        # The quartile solves start inside the median solve's brackets, and
        # only a solve's first evaluation must call cdf.
        calls = _count_calls(monkeypatch, "cdf")
        summaries = 0
        for e in _fig6_mixtures():
            e.summary()
            summaries += 1
        assert summaries == 18
        assert len(calls) / summaries <= 2.0

    def test_solves_through_cdf_in_few_evaluations(self, monkeypatch):
        # After the median, a solve on a mixture of bounded densities takes
        # F by quadrature alone; one with an unbounded density (alpha < 1)
        # still solves through cdf. Both equal the bare quantile.
        for alphas, min_calls, max_calls in (([5.0, 2.0], 0, 0), ([0.5, 2.0], 1, 4)):
            a, b = np.array(alphas), np.array([2.0, 2.0])
            expected = PerformanceEstimate.beta_mixture(a, b).quantile(0.3)
            e = PerformanceEstimate.beta_mixture(a, b)
            e.median()
            calls = _count_calls(monkeypatch, "cdf")
            assert e.quantile(0.3) == expected
            assert min_calls <= len(calls) <= max_calls
            assert all(0.0 < t < 1.0 for t in calls)
            monkeypatch.undo()

    def test_plateau_of_near_zero_density_is_bisected(self, monkeypatch):
        # bimodal-peaked's q25 solve starts on the F = 0.5 plateau, where
        # the density is about 1e-120 and each Halley step moves ~0.0015.
        alphas, betas = _BETA_BATTERY["bimodal-peaked"]
        e = PerformanceEstimate.beta_mixture(np.array(alphas), np.array(betas))
        evaluations = _count_calls(monkeypatch, "_evaluate")
        for q in (0.5, 0.01, 0.25, 0.75, 0.99):
            evaluations.clear()
            e.quantile(q)
            assert len(evaluations) <= 20, q

    @pytest.mark.parametrize("n", [n for _, n in _QUADRATURE_NODES])
    def test_gauss_legendre_rule_is_exact_to_degree_2n_minus_1(self, n):
        nodes, weights = _gauss_legendre(n)
        for k in range(2 * n):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert abs(weights @ nodes**k - exact) <= 2e-15, k

    def test_quadrature_at_each_reach_bound(self, monkeypatch):
        # A hop whose reach sits at a node count's bound, on single
        # components, upward from several points: the rule is used and is
        # within 1e-14 of cdf.
        for (alpha, beta), t0 in itertools.product(
            [(1.0, 1.0), (2.0, 30.0), (31.0, 1.0), (16.0, 16.0), (1.5, 1.0)],
            [0.02, 0.3, 0.5, 0.7, 0.95],
        ):
            e = PerformanceEstimate.beta_mixture(np.array([alpha]), np.array([beta]))
            base = e._evaluate(t0)

            def reach(hop):
                return alpha * math.log1p(hop / t0) + beta * math.log1p(hop / (1.0 - t0 - hop))

            for bound, _ in _QUADRATURE_NODES:
                lo, hi = 0.0, min(t0, (1.0 - t0) / 2.0)
                if reach(hi) <= bound:
                    continue
                for _ in range(60):
                    mid = 0.5 * (lo + hi)
                    lo, hi = (mid, hi) if reach(mid) <= bound else (lo, mid)
                t = t0 + lo * (1.0 - 1e-9)  # inside the bound despite rounding
                calls = _count_calls(monkeypatch, "cdf")
                value = e._cdf_from(base, t)
                monkeypatch.undo()
                assert not calls
                assert abs(value - e.cdf(t)) <= 1e-14, (alpha, beta, t0, bound)

    def test_quadrature_cdf_matches_betainc(self, monkeypatch):
        # Every F a solve takes from the evaluation before it, by quadrature
        # or through cdf, is within 1e-14 of cdf at the same point.
        cdf, cdf_from = PerformanceEstimate.cdf, PerformanceEstimate._cdf_from
        hops, errors = [], []

        def checked(self, base, t):
            value = cdf_from(self, base, t)
            hops.append(t)
            errors.append(abs(value - cdf(self, t)))
            return value

        rng = np.random.default_rng(18)
        mixtures = [(np.array(a), np.array(b)) for a, b in _BETA_BATTERY.values()]
        for _ in range(200):
            k = int(rng.integers(1, 300))
            scale_a, scale_b = rng.choice([0.3, 1.0, 3.0, 10.0], 2)
            a = 1.0 + rng.exponential(scale_a, k) * (rng.random(k) < 0.8)
            b = 1.0 + rng.exponential(scale_b, k) * (rng.random(k) < 0.8)
            mixtures.append((a, b))
        estimates = [PerformanceEstimate.beta_mixture(a, b) for a, b in mixtures]
        estimates += list(_fig6_mixtures())
        monkeypatch.setattr(PerformanceEstimate, "_cdf_from", checked)
        cdf_calls = _count_calls(monkeypatch, "cdf")
        for e in estimates:
            e.summary()
            e.quantile(0.01), e.quantile(0.99)
        assert max(errors) <= 1e-14
        # cdf was called for each median solve's first evaluation and for
        # each hop the rule left to it; the rest were integrated.
        quadrature_hops = len(hops) + len(estimates) - len(cdf_calls)
        assert quadrature_hops >= len(hops) / 3

    def test_step_below_float_resolution_ends_the_solve(self, monkeypatch):
        # alpha-1e5's q75 solve reaches a Halley step that rounds away at t;
        # it stops there instead of bisecting its bracket down to 1e-12.
        alphas, betas = _BETA_BATTERY["alpha-1e5"]
        e = PerformanceEstimate.beta_mixture(np.array(alphas), np.array(betas))
        e.median()
        calls = []
        cdf = PerformanceEstimate.cdf

        def counting(self, t):
            calls.append(t)
            return cdf(self, t)

        monkeypatch.setattr(PerformanceEstimate, "cdf", counting)
        q75 = e.quantile(0.75)
        assert len(calls) <= 4
        monkeypatch.undo()
        assert abs(q75 - self._brentq(e, 0.75)) <= 5e-13


# Reference values for log B and the regularized incomplete Beta function,
# computed once in 50-digit arithmetic with mpmath: log B as
# log(beta(alpha, beta)); I_t(p, q) as x^p (1-x)^q / (p B(p, q)) times
# 2F1(p+q, 1; p+1; x), of I_t(alpha, beta) below the switch point and of
# 1 - I_(1-t)(beta, alpha) above it. The grid is alpha, beta in
# {1, 1.5, 2.7, 8, 16, 31}; the rest are alpha or beta below 1 and three
# far-apart pairs.
# log B(alpha, beta) to 40 significant digits.
_BETALN = {
    (1.0, 1.0): "0.0",
    (1.0, 1.5): "-0.405465108108164381978013115464349136572",
    (1.0, 2.7): "-0.9932517730102834559587383079443390635143",
    (1.0, 8.0): "-2.079441541679835928251696364374529704227",
    (1.0, 16.0): "-2.772588722239781237668928485832706272302",
    (1.0, 31.0): "-3.43398720448514624592916432454235721045",
    (1.5, 1.0): "-0.405465108108164381978013115464349136572",
    (1.5, 1.5): "-0.9347116558304357541082690130214709925792",
    (1.5, 2.7): "-1.734517320940730591065707815224773685666",
    (1.5, 8.0): "-3.28495429736709940474942998697669467213",
    (1.5, 16.0): "-4.302625749741703142760922581063571722464",
    (1.5, 31.0): "-5.283731302419442478509195833245058708834",
    (2.7, 1.0): "-0.9932517730102834559587383079443390635143",
    (2.7, 1.5): "-1.734517320940730591065707815224773685666",
    (2.7, 2.7): "-2.928066925038863970760323624050066095609",
    (2.7, 8.0): "-5.443228681577999205075028866305851372741",
    (2.7, 16.0): "-7.188430633514163658628028493182830336755",
    (2.7, 31.0): "-8.909282557663980212818124168209788371232",
    (8.0, 1.0): "-2.079441541679835928251696364374529704227",
    (8.0, 1.5): "-3.28495429736709940474942998697669467213",
    (8.0, 2.7): "-5.443228681577999205075028866305851372741",
    (8.0, 8.0): "-10.84894866171006296575837719097621665767",
    (8.0, 16.0): "-15.18224282285806770419143218229153746804",
    (8.0, 31.0): "-19.78480090461823401309917146751332229202",
    (16.0, 1.0): "-2.772588722239781237668928485832706272302",
    (16.0, 1.5): "-4.302625749741703142760922581063571722464",
    (16.0, 2.7): "-7.188430633514163658628028493182830336755",
    (16.0, 8.0): "-15.18224282285806770419143218229153746804",
    (16.0, 16.0): "-22.29368078563352749923792953137939032833",
    (16.0, 31.0): "-30.3950673029452539312455301857067730344",
    (31.0, 1.0): "-3.43398720448514624592916432454235721045",
    (31.0, 1.5): "-5.283731302419442478509195833245058708834",
    (31.0, 2.7): "-8.909282557663980212818124168209788371232",
    (31.0, 8.0): "-19.78480090461823401309917146751332229202",
    (31.0, 16.0): "-30.3950673029452539312455301857067730344",
    (31.0, 31.0): "-43.42257459018457366506451202490559822251",
    (0.5, 0.5): "1.144729885849400174143427351353058711647",
    (0.5, 3.0): "0.06453852113757117167292391568399292812891",
    (3.0, 0.5): "0.06453852113757117167292391568399292812891",
    (1000.0, 2.0): "-13.81651005829735763727475812702672025707",
    (2.0, 1000000.0): "-27.63102211592804820854923053954590382438",
    (100000.0, 3.0): "-33.84565921410074295081014035879645339689",
}
# I_t(alpha, beta) to 40 significant digits, at the five t of _BETAINC_T:
# None is the switch point (alpha + 1) / (alpha + beta + 2) in double precision.
_BETAINC = {
    (1.0, 1.0): (
        "0.001000000000000000020816681711721685132943",
        "0.2999999999999999888977697537484345957637",
        "0.5",
        "0.9000000000000000222044604925031308084726",
        "0.9989999999999999991118215802998747676611",
    ),
    (1.0, 1.5): (
        "0.00149962493747655080561907109654425201358",
        "0.4143379814261471024820912033259924778852",
        "0.5859133375000389175256994697096930159673",
        "0.9683772233983162172125114702857752691137",
        "0.9999683772233983161645500094416352513034",
    ),
    (1.0, 2.7): (
        "0.00269770553554017317960938858280028037199",
        "0.6182626027914799517828903542410363762103",
        "0.6886258574054058091439492585536953469058",
        "0.9980047376850311224109528138785939083932",
        "0.9999999920567176527571756776150060360715",
    ),
    (1.0, 8.0): (
        "0.007972055930055972173370210897598931487392",
        "0.9423519899999999926854687970489972518012",
        "0.7991838695967068522067202055759196435802",
        "0.9999999900000000000000177635683940024908",
        "0.9999999999999999999999989999999999999929",
    ),
    (1.0, 16.0): (
        "0.01588055818436000375524715670657056282079",
        "0.9966767069430398991566636641339370746212",
        "0.8312960983175222210538259032047030411108",
        "0.9999999999999999000000000000003552713679",
        "1.0",
    ),
    (1.0, 31.0): (
        "0.03053946370417734133262653699653019602653",
        "0.999984222461796515411581150415017713868",
        "0.8473127055699599565030598252250061461283",
        "0.9999999999999999999999999999999",
        "1.0",
    ),
    (1.5, 1.0): (
        "3.162277660168379430741084848152435039361e-5",
        "0.1643167672515498249156780181080643655793",
        "0.4140866624999610824743005302903069840327",
        "0.8538149682454624512372024741871433163611",
        "0.9985003750625234478939890059360336234747",
    ),
    (1.5, 1.5): (
        "5.366838468650542659947169124079904064034e-5",
        "0.2523157877343454600493678666360177950034",
        "0.5",
        "0.9479559806690860876518888664258495080615",
        "0.9999463316153134945035896473381040879067",
    ),
    (1.5, 2.7): (
        "0.0001193320074658883417354239997866864321136",
        "0.4453735753089567397720325862300283316377",
        "0.6109284702271053794730422481893171138889",
        "0.995968678398470633384312796087098228124",
        "0.9999999833363928598703342699911532838027",
    ),
    (1.5, 8.0): (
        "0.0005606893507589563868922502740044450971304",
        "0.882165526384837923581528873041252879311",
        "0.7427091025370335225057536018375153713379",
        "0.9999999681340552289980921090487689854486",
        "0.9999999999999999999999966630136396629203",
    ),
    (1.5, 16.0): (
        "0.001543862684093932425962774717322333654743",
        "0.9910485448499287363387377734082637501226",
        "0.78387585169258359974004789116475244611",
        "0.9999999999999995604376227788997137592246",
        "1.0",
    ),
    (1.5, 31.0): (
        "0.00408128970105990576843570777822930116144",
        "0.9999431156252412722044877634308151614485",
        "0.8049510290574732193781784503510921572567",
        "0.9999999999999999999999999999993957634693",
        "1.0",
    ),
    (2.7, 1.0): (
        "7.9432823472428057201972024636748702203e-9",
        "0.03874604582249406800966030828336488572892",
        "0.3113741425945941908560507414463046530942",
        "0.7524103751251505715168583149930728618771",
        "0.997302294464459824482493715669857714403",
    ),
    (2.7, 1.5): (
        "1.666360714012962671117320293326616150314e-8",
        "0.07180844017726427833970924249114194748193",
        "0.3890715297728946205269577518106828861111",
        "0.8924234277484220219912225579363348312403",
        "0.9998806679925341115031141789295198547717",
    ),
    (2.7, 2.7): (
        "5.492127341386981301272637268979655861692e-8",
        "0.176879706691791351891310244745649588897",
        "0.5",
        "0.9878531809518875790678304567358459189022",
        "0.9999999450787265861300584275594115967529",
    ),
    (2.7, 8.0): (
        "6.766772355040195008407939846900065353629e-7",
        "0.6753236509536595374276007840020778352148",
        "0.6536297152976922426613762301379319042234",
        "0.999999753296010732414073190470152326236",
        "0.9999999999999999999999711452286891695007",
    ),
    (2.7, 16.0): (
        "3.852817269969347548348376859916821392379e-6",
        "0.9554665517849675825686306956344710362143",
        "0.7083570889446657370136543953687772976301",
        "0.9999999999999930046812356314159185432071",
        "1.0",
    ),
    (2.7, 31.0): (
        "2.130028629929566782613934924549244679949e-5",
        "0.9994503256094444966143272152219620409282",
        "0.737947357177278514859727116486708282546",
        "0.9999999999999999999999999999799245710849",
        "1.0",
    ),
    (8.0, 1.0): (
        "1.000000000000000166533453693773493196903e-24",
        "6.560999999999998057553796115826368472139e-5",
        "0.2008161304032932567913957316909393520073",
        "0.4304672100000000849625969578937729844736",
        "0.9920279440699440209361626683691122779793",
    ),
    (8.0, 1.5): (
        "3.336986360337056504474693645645520363014e-24",
        "0.000187534390017259113877171181451489475378",
        "0.2572908974629665396414412918700118724081",
        "0.6288150636820804874453634125342766356935",
        "0.9994393106492410428856693839897509753246",
    ),
    (8.0, 2.7): (
        "2.885477131083029915260256876833393075559e-23",
        "0.001120162958469602433684142861253904518416",
        "0.3463702847023080404273241418675512381359",
        "0.898418133690673625914809058293977413619",
        "0.9999993233227644959789174637830305775703",
    ),
    (8.0, 8.0): (
        "6.395067944350067929900310126049201654619e-21",
        "0.05001254005377598970600788676055335620478",
        "0.5",
        "0.9999663751120320000546734311424046004257",
        "0.9999999999999999999936049320556498877299",
    ),
    (8.0, 16.0): (
        "4.838175045719211207822739358950256421748e-19",
        "0.3818716495096942232609374076978916704909",
        "0.571182072140635245313622067599201719095",
        "0.9999999999877172794502400416583507648127",
        "1.0",
    ),
    (8.0, 31.0): (
        "4.761627378573614610898898143762380526556e-17",
        "0.9205078169920736108795401371965807695344",
        "0.6161522843064885396725748168063467146674",
        "0.9999999999999999999999993814043802811242",
        "1.0",
    ),
    (16.0, 1.0): (
        "1.000000000000000333066907387547014127198e-48",
        "4.304672099999997451122091263187738018866e-9",
        "0.1687039016824777789461740967952969588892",
        "0.1853020188851841731472241336380470846424",
        "0.9841194418156399825736809803682469341336",
    ),
    (16.0, 1.5): (
        "4.616173971470905140881521862861614928223e-48",
        "1.684044348712290098051062996789901259873e-8",
        "0.21612414830741640025995210883524755389",
        "0.3308763707753692171801025347355497970695",
        "0.9984561373159060655774457874382406735347",
    ),
    (16.0, 2.7): (
        "8.261912239232690960165005058413168565336e-47",
        "2.027228675965186518945029585671330669568e-7",
        "0.2916429110553342629863456046312227023699",
        "0.6683718301429057917743736624324092141703",
        "0.999996147182730030643465404838392136339",
    ),
    (16.0, 8.0): (
        "2.435464170451805558197213560453351525296e-43",
        "0.0001047079201355756384588352541407639198311",
        "0.428817927859364754686377932400798280905",
        "0.9987701732271566771346954026930288772736",
        "0.9999999999999999995161824954280755276588",
    ),
    (16.0, 16.0): (
        "2.963252101913550482050219239225115607407e-40",
        "0.009540435911883398162868434178319283692057",
        "0.5",
        "0.9999999931487969260212273478730048322481",
        "0.9999999999999999999999999999999999999997",
    ),
    (16.0, 31.0): (
        "9.638787375106823435020093937834870024743e-37",
        "0.2872453115894150213846011005416770704252",
        "0.550245340710928333084173644001297615309",
        "0.9999999999999999999888879799554255860049",
        "1.0",
    ),
    (31.0, 1.0): (
        "1.000000000000000645317133063372440621656e-93",
        "6.176733962839462913862662053819433470491e-17",
        "0.1526872944300399737036334812108603291569",
        "0.03815204244769461234232176363895669278923",
        "0.9694605362958226325742180617480646172096",
    ),
    (31.0, 1.5): (
        "6.355111743535247963837334848257315548977e-93",
        "3.307666264182962021103723783233630659163e-16",
        "0.1950489709425268577126203044729693243989",
        "0.08639964916355274753997045106186604597291",
        "0.9959187102989400889851781106507569194114",
    ),
    (31.0, 2.7): (
        "2.383279533715973103916110133396690835799e-91",
        "8.225849270376848753298671896295310103338e-15",
        "0.2620526428227209947028795860184772747105",
        "0.2841712840147388375081974768766581593097",
        "0.9999786997137007042826952883685896030043",
    ),
    (31.0, 8.0): (
        "1.253492344988836788093948968904469044151e-86",
        "7.071527124900344426223435207961198892831e-11",
        "0.3838477156935116177164026923854427054828",
        "0.9681942702045479161852021053890235628852",
        "0.99999999999999995238372621426352458871",
    ),
    (31.0, 16.0): (
        "5.043528210513582305730765661171373087175e-82",
        "1.867422454187665499618688961022908014209e-7",
        "0.4497546592890713527204354362516759011024",
        "0.9999947969346836385477057406072710324261",
        "0.9999999999999999999999999999999999990361",
    ),
    (31.0, 31.0): (
        "2.260451605113977488809620792930558146048e-76",
        "0.0005286730018134202449635543901459814365238",
        "0.5",
        "0.9999999999999988996994661317141604090261",
        "1.0",
    ),
    (0.5, 0.5): (
        "0.02013504163337749118198667960203337489",
        "0.369010119565545375043720199121209918751",
        "0.5",
        "0.7951672353008665719104664595866426388759",
        "0.9798649583666225000829181038495330220628",
    ),
    (0.5, 3.0): (
        "0.05925318951594623398065679818030622867705",
        "0.840069472573548517203185051873300005977",
        "0.8157192638585179498127593547263708344443",
        "0.9996750253207289165475773135198369097111",
        "0.9999999996873827421386343919597058681411",
    ),
    (3.0, 0.5): (
        "3.126172578613647944817837668543526679984e-10",
        "0.009603693590288068961207655480182694424631",
        "0.1842807361414820501872406452736291655557",
        "0.4454155553479705279714773486537628981131",
        "0.9407468104840537403566333936677255953725",
    ),
    (1000.0, 2.0): (
        "0.0004748837215172368838937417227560036388617",
        "0.03992381147299182060201945952357648026188",
        "0.2000437680211244471001792529766518144601",
        "0.7353908495419277620206588796970106887798",
        "0.9096822342601090692087425685519269740461",
    ),
    (2.0, 1000000.0): (
        "0.004678845137050587639875915512873082132198",
        "0.2642414855367097947811394451415188508632",
        "0.8008508303619857359991797778108078441803",
        "0.9595728233500382151244878454928954867462",
        "0.9995006257421162570753686210130206967142",
    ),
    (100000.0, 3.0): (
        "0.1246372805732550253267880939298675001493",
        "0.4231732779386333316851856558451819739557",
        "0.2381150274058233635071534419449340891059",
        "0.676665589260617070137155587647254776007",
        "0.9196958438052766542487318019202016481284",
    ),
}
_BETAINC_T = {
    (1000.0, 2.0): (0.99, 0.995, None, 0.999, 0.9995),
    (2.0, 1e6): (1e-7, 1e-6, None, 5e-6, 1e-5),
    (1e5, 3.0): (0.99995, 0.99997, None, 0.99998, 0.99999),
}
_BETAINC_T_GRID = (1e-3, 0.3, None, 0.9, 0.999)


def _betaln_error(alpha, beta):
    a, b = np.array([alpha]), np.array([beta])
    value = float(_betaln(a, b, _beta_centre(a, b))[0])
    return float(abs(Fraction(value) - Fraction(_BETALN[alpha, beta])))


def _betainc_errors(alpha, beta):
    e = PerformanceEstimate.beta_mixture(np.array([alpha]), np.array([beta]))
    ts = _BETAINC_T.get((alpha, beta), _BETAINC_T_GRID)
    ts = [(alpha + 1.0) / (alpha + beta + 2.0) if t is None else t for t in ts]
    return [
        float(abs(Fraction(e.cdf(t)) - Fraction(ref)))
        for t, ref in zip(ts, _BETAINC[alpha, beta])
    ]


def _in_quadrature_domain(alpha, beta):
    return min(alpha, beta) >= 1.0 and alpha + beta <= 32.0


class TestBetaFunctions:
    """log B and I_t against the 40-digit values above. Each tolerance is
    several times the largest error measured on its points."""

    def test_betaln_where_the_quadrature_applies(self):
        # alpha, beta >= 1 and alpha + beta <= 32: the log-densities the
        # quadrature rule reads are this accurate.
        errors = {k: _betaln_error(*k) for k in _BETALN if _in_quadrature_domain(*k)}
        assert len(errors) == 27
        assert max(errors.values()) <= 1e-14, errors

    @pytest.mark.parametrize("alpha, beta, tolerance", [
        (0.5, 0.5, 1e-15), (0.5, 3.0, 1e-15), (3.0, 0.5, 1e-15),
        # scipy.special.betaln is off by 9e-13, 2.4e-10 and 2.9e-11 here
        (1000.0, 2.0, 1e-14), (2.0, 1e6, 1e-14), (1e5, 3.0, 1e-14),
    ])
    def test_betaln_off_the_grid(self, alpha, beta, tolerance):
        assert _betaln_error(alpha, beta) <= tolerance

    def test_betaln_on_the_rest_of_the_grid(self):
        grid = (1.0, 1.5, 2.7, 8.0, 16.0, 31.0)
        rest = [(a, b) for a in grid for b in grid if not _in_quadrature_domain(a, b)]
        assert len(rest) == 9
        assert max(_betaln_error(*k) for k in rest) <= 1e-14

    def test_incomplete_beta_of_one_component(self):
        # A single-component mixture's CDF is I_t itself, taken as t^alpha
        # where beta = 1 and from the continued fraction elsewhere.
        for key in _BETAINC:
            tolerance = {(2.0, 1e6): 2e-14, (1e5, 3.0): 1e-13}.get(key, 1e-15)
            errors = _betainc_errors(*key)
            assert max(errors) <= tolerance, (key, errors)

    def test_incomplete_beta_refuses_what_its_fraction_cannot_reach(self):
        # ~0.3 sqrt(alpha + beta) pairs of levels are needed: past 1e10 the
        # mixture CDF is refused, not left to hang or overflow.
        for alpha, beta in ((1e11, 2.0), (1e200, 1e200)):
            e = PerformanceEstimate.beta_mixture(np.array([alpha]), np.array([beta]))
            with pytest.raises(ValidationError, match="takes alpha \\+ beta up to 1e\\+10"):
                e.cdf(0.5)
        e = PerformanceEstimate.beta_mixture(np.array([1e9, 3.0]), np.array([1e9, 2.5]))
        assert 0.0 < e.cdf(0.5) < 1.0

    def test_incomplete_beta_of_a_mixture_is_the_mean(self):
        keys = [k for k in _BETAINC if _in_quadrature_domain(*k)]
        alphas, betas = np.array(keys).T
        e = PerformanceEstimate.beta_mixture(alphas, betas)
        for t in (1e-3, 0.3, 0.6, 0.999):
            singles = [PerformanceEstimate.beta_mixture(np.array([a]), np.array([b])).cdf(t)
                       for a, b in keys]
            assert abs(e.cdf(t) - math.fsum(singles) / len(keys)) <= 1e-15


class TestGeneralizationError:
    def test_error_arithmetic(self):
        post = np.array([[0.9, 0.1], [0.6, 0.4], [1.0, 0.0]])
        assert _accuracy_from_posteriors(post) == pytest.approx(
            1.0 - 0.5 / 3.0, abs=1e-15
        )

    def test_uniform_posteriors_give_half(self):
        m = _fit(NO_LABELS, prior_weight=0.01, class_count=2)
        evaluation = np.array([-2.0, -1.0, 1.0, 2.0])
        assert generalization_error_estimate(kernel_block(evaluation, m)).mean() == 0.5

    def test_uniform_posteriors_c_classes(self):
        for c in (2, 3, 5):
            m = _fit(NO_LABELS, prior_weight=0.01, class_count=c)
            evaluation = np.arange(4, dtype=np.float64)
            est = generalization_error_estimate(kernel_block(evaluation, m))
            assert est.mean() == pytest.approx(1.0 / c, abs=1e-15)

    def test_fully_confident_model(self):
        m = _fit(_labeled([(0.0, 1)]), prior_weight=0.0)
        evaluation = np.array([-1.0, 0.0, 2.0])
        assert generalization_error_estimate(kernel_block(evaluation, m)).mean() == 1.0

    def test_permutation_invariance_is_exact(self, two_point_model):
        rng = np.random.default_rng(8)
        evaluation = rng.normal(0, 2, 500)
        shuffled = evaluation.copy()
        rng.shuffle(shuffled)
        a = generalization_error_estimate(kernel_block(evaluation, two_point_model)).mean()
        b = generalization_error_estimate(kernel_block(shuffled, two_point_model)).mean()
        assert a == b

    def test_empty_evaluation_rejected(self, two_point_model):
        with pytest.raises(ValidationError, match="no evaluation"):
            generalization_error_estimate(kernel_block(np.array([]), two_point_model))


class TestRandomFolds:
    def test_partition_with_balanced_sizes(self):
        fold_of = random_folds(23, 5, derive_substream(0, (0,)))
        # one fold per instance
        assert fold_of.dtype == np.int64 and fold_of.shape == (23,)
        assert fold_of.min() == 0 and fold_of.max() == 4
        sizes = np.bincount(fold_of).tolist()
        assert max(sizes) - min(sizes) <= 1
        assert sizes == sorted(sizes, reverse=True)  # the larger folds first

    def test_leave_one_out_is_deterministic(self):
        a = random_folds(6, 6, derive_substream(0, (0,)))
        b = random_folds(6, 6, derive_substream(99, (5,)))
        assert [f.tolist() for f in a] == [f.tolist() for f in b]

    def test_bounds(self):
        with pytest.raises(ValidationError, match="folds"):
            random_folds(3, 4, derive_substream(0, (0,)))
        with pytest.raises(ValidationError, match=">= 2"):
            random_folds(3, 1, derive_substream(0, (0,)))

    def test_counts_must_be_integers(self):
        rng = derive_substream(0, (0,))
        with pytest.raises(ValidationError, match="^fold count must be an integer, got 2.5$"):
            random_folds(10, 2.5, rng)
        with pytest.raises(ValidationError, match="^instance count must be an integer, got 10.0$"):
            random_folds(10.0, 2, rng)
        expected = random_folds(10, 2, derive_substream(0, (0,)))
        assert np.array_equal(random_folds(np.int64(10), np.int32(2), rng), expected)

    def test_cv_estimators_refuse_a_non_integer_fold_count(self):
        labeled = _labeled([(float(x), 1 + int(x > 0)) for x in np.linspace(-2, 2, 10)])
        with pytest.raises(ValidationError, match="^fold count must be an integer, got 2.5$"):
            kfold_cv(labeled, 2.5, CFG, derive_substream(0, (0,)))
        block = kernel_block(np.linspace(-3.0, 3.0, 7), _fit(labeled))
        with pytest.raises(ValidationError, match="^fold count must be an integer, got 2.5$"):
            self_label_cv(block, 2.5, derive_substream(0, (0,)))


class TestKFoldCV:
    def test_single_class_is_perfect(self):
        labeled = _labeled([(x, 1) for x in np.linspace(-1, 1, 8)])
        for k in (2, 4, 8):
            est = kfold_cv(labeled, k, CFG, derive_substream(1, (k,)))
            assert est.mean() == 1.0

    def test_reweighting_identity_constant_density(self, task):
        labeled = _labeled(
            [(float(x), 1 + int(x > 0)) for x in np.linspace(-2, 2, 12)], density=0.37
        )
        plain = kfold_cv(labeled, 3, CFG, derive_substream(3, (0,)))
        rew = kfold_cv(labeled, 3, CFG, derive_substream(3, (0,)), reweighted=True)
        assert rew.mean() == plain.mean()

    def test_reweighting_changes_result_with_skewed_densities(self, task):
        rng = derive_substream(4, (0,))
        labeled = draw_labeled(task, unbiased_sampler(), 30, rng)
        plain = kfold_cv(labeled, 3, CFG, derive_substream(4, (1,)))
        rew = kfold_cv(labeled, 3, CFG, derive_substream(4, (1,)), reweighted=True)
        # same folds, different weighting; equality would be a near-miracle
        assert rew.mean() != plain.mean()

    def test_too_many_folds_rejected(self):
        labeled = _labeled([(0.0, 1), (1.0, 2)])
        with pytest.raises(ValidationError, match="folds"):
            kfold_cv(labeled, 3, CFG, derive_substream(0, (0,)))

    def test_leave_one_out_ignores_rng(self):
        labeled = _labeled([(float(x), 1 + int(x > 0)) for x in np.linspace(-2, 2, 10)])
        a = kfold_cv(labeled, 10, CFG, derive_substream(0, (0,)))
        b = kfold_cv(labeled, 10, CFG, derive_substream(123, (9,)))
        assert a.mean() == b.mean()

    def test_two_instances_two_folds_runs(self):
        # boundary size: each training fold has exactly one instance
        labeled = _labeled([(-1.5, 1), (1.5, 2)])
        est = kfold_cv(labeled, 2, CFG, derive_substream(0, (0,)))
        assert 0.0 <= est.mean() <= 1.0

    def test_detail_exposes_fold_models(self):
        # fold i's model is that of the instances outside fold i
        labeled = _labeled([(float(x), 1 + int(x > 0)) for x in np.linspace(-2, 2, 9)])
        estimate, fold_of = kfold_cv_detail(labeled, 3, CFG, derive_substream(2, (0,)))
        assert estimate.mean() == kfold_cv(labeled, 3, CFG, derive_substream(2, (0,))).mean()
        assert np.array_equal(fold_of, random_folds(9, 3, derive_substream(2, (0,))))
        assert sorted(np.bincount(fold_of)) == [3, 3, 3]

    def test_corner_of_the_sequence_block_equals_a_fresh_call(self, task, monkeypatch):
        # The B x B corner of one kernel block of a 40-label sequence serves
        # every budget's plain and reweighted CV, bit for bit, with no fit and
        # no kernel block of the call's own.
        sequence = draw_labeled(task, unbiased_sampler(), 40, derive_substream(5, (0,)))
        whole = kernel_block(sequence.xs, fit_arrays(sequence.xs, sequence.ys, CFG))
        corners = {}
        for budget in (6, 17, 40):
            prefix = whole.prefix(budget)
            corners[budget] = parzen.KernelBlock(
                prefix.points[:budget], prefix.weights[:budget], prefix.onehot, prefix.model
            )
        expected = {
            (budget, rew): kfold_cv(sequence[:budget], 3, CFG, derive_substream(5, (1,)), rew)
            for budget in corners for rew in (False, True)
        }
        calls = []
        for name in ("fit_arrays", "kernel_block"):
            monkeypatch.setattr(parzen, name, lambda *a, **kw: calls.append(a))
        for (budget, rew), estimate in expected.items():
            got = kfold_cv(
                sequence[:budget], 3, CFG, derive_substream(5, (1,)), rew, block=corners[budget]
            )
            assert got.mean() == estimate.mean(), (budget, rew)
        assert calls == []
        # A block of other points, labels or settings is refused.
        for labeled, config in ((sequence[1:18], CFG), (sequence[:17], ClassifierConfig(0.3))):
            with pytest.raises(ValidationError, match="^block is not the kernel block"):
                kfold_cv(labeled, 3, config, derive_substream(5, (1,)), block=corners[17])
        relabeled = LabeledSet(sequence.xs[:17], 3 - sequence.ys[:17], sequence.qs[:17])
        with pytest.raises(ValidationError, match="^block is not the kernel block"):
            kfold_cv(relabeled, 3, CFG, derive_substream(5, (1,)), block=corners[17])


def _refit_fold_predictions(xs, ys, k, config, rng, train_size=None):
    """The per-fold reference for ``kfold_cv_detail`` and, with
    ``train_size``, for ``self_label_cv`` over the union (xs, ys): each fold's
    model is fitted by ``fit_arrays`` and read by ``predict_batch``. Returns the
    held-out correctness, each instance's held-out class masses and the fold
    models."""
    n = len(xs)
    correct = np.empty(n)
    masses = np.empty((n, config.class_count))
    models = []
    fold_of = random_folds(n, k, rng)
    for i in range(k):
        fold = fold_of == i
        train = ~fold
        if train_size is not None:
            outside = np.flatnonzero(train)
            train = rng.choice(outside, size=min(train_size, len(outside)), replace=False)
        model = fit_arrays(xs[train], ys[train], config)
        models.append(model)
        correct[fold] = predict_batch(model, xs[fold]) == ys[fold]
        masses[fold] = parzen.class_kernel_mass(
            xs[fold], model.train_x, model.train_y, config.bandwidth, config.class_count
        )
    return correct, masses, models


def _three_class_set(n=45):
    """Three classes in bands along x, a fifth of the labels redrawn."""
    rng = derive_substream(12, (0,))
    xs = rng.uniform(-3.0, 3.0, n)
    ys = np.digitize(xs, [-1.0, 1.0]) + 1
    noisy = rng.random(n) < 0.2
    ys[noisy] = rng.integers(1, 4, int(noisy.sum()))
    return xs, ys


def _recording(monkeypatch, module, name):
    """Replace ``module.<name>`` by a wrapper that appends each result to the
    returned list."""
    results, original = [], getattr(module, name)

    def recording(*args):
        results.append(original(*args))
        return results[-1]

    monkeypatch.setattr(module, name, recording)
    return results


class TestFoldPredictions:
    """One kernel evaluation per CV estimate gives what per-fold refits give:
    the same held-out 0/1 vector and fold models, and class masses within
    n * 2**-52 relative (the masked product sums in another order). Plain CV
    (``kfold_cv_detail``) reads one masked block; self-label CV, with
    ``train_size`` labels and the rest of the points as its pool, one kernel
    per fold against the fold's random subset."""

    @pytest.mark.parametrize("k, train_size, classes", [
        (2, None, 2), (3, None, 2), (5, None, 2), ("n", None, 2),
        (3, 12, 2), (3, None, 3), (4, 12, 3),
    ], ids=["k2", "k3", "k5", "loo", "train-size", "3-class", "3-class-train-size"])
    def test_matches_per_fold_refits(self, task, monkeypatch, k, train_size, classes):
        if classes == 2:
            labeled = draw_labeled(task, unbiased_sampler(), 40, derive_substream(6, (0,)))
            xs, ys = labeled.xs, labeled.ys
        else:
            xs, ys = _three_class_set()
        n, config = len(xs), ClassifierConfig(class_count=classes)
        k = n if k == "n" else k
        if train_size is not None:
            # the union's labels: the model's own, then its predictions on the pool
            model = fit_arrays(xs[:train_size], ys[:train_size], config)
            pool = kernel_block(xs[train_size:], model)
            ys = np.concatenate([ys[:train_size], predict_batch(model, pool.points)])
            # the block's posterior, read (and cached) here, predicts the same
            assert np.array_equal(ys[train_size:], parzen.class_argmax(pool.posterior) + 1)
        ref_rng = derive_substream(9, (k,))
        ref_correct, ref_masses, ref_models = _refit_fold_predictions(
            xs, ys, k, config, ref_rng, train_size
        )
        if train_size is None:
            labeled = LabeledSet(xs, ys, np.ones(n))
            _, fold_of = kfold_cv_detail(labeled, k, config, derive_substream(9, (k,)))
            assert fold_of.max() + 1 == len(ref_models) == k
            for i, ref in enumerate(ref_models):
                assert np.array_equal(xs[fold_of != i], ref.train_x)
                assert np.array_equal(ys[fold_of != i], ref.train_y)
        seen = []
        posterior = parzen.posterior_from_masses
        monkeypatch.setattr(
            parzen, "posterior_from_masses",
            lambda masses, c: seen.append(masses) or posterior(masses, c),
        )
        folds = _recording(monkeypatch, estimators, "random_folds")
        held_out = _recording(monkeypatch, estimators, "_held_out_correct")
        rng = derive_substream(9, (k,))
        if train_size is None:
            estimate, fold_of = kfold_cv_detail(labeled, k, config, rng)
            assert np.array_equal(fold_of, folds[0])
        else:
            estimate = self_label_cv(pool, k, rng)
        (correct,), (fold_of,) = held_out, folds
        assert estimate.mean() == float(correct.mean())
        assert correct.dtype == np.float64 and np.array_equal(correct, ref_correct)
        assert 0.0 < correct.mean() < 1.0
        (masses,) = seen
        assert np.all(np.abs(masses - ref_masses) <= n * 2.0**-52 * ref_masses)
        assert np.array_equal(fold_of, random_folds(n, k, derive_substream(9, (k,))))
        # the same draws, in the same order, as the reference
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_labels_are_checked_once_and_no_fold_is_fitted(self, monkeypatch):
        xs, ys = _three_class_set()
        config = ClassifierConfig(class_count=3)
        pool = kernel_block(xs[12:], fit_arrays(xs[:12], ys[:12], config))
        labeled = LabeledSet(xs, ys, np.ones(len(xs)))
        fits = []
        fit = parzen.fit_arrays
        monkeypatch.setattr(parzen, "fit_arrays", lambda *a: fits.append(a) or fit(*a))
        kfold_cv_detail(labeled, 5, config, derive_substream(1, (0,)))
        self_label_cv(pool, 5, derive_substream(1, (0,)))
        # one check each, of the labeled set and of the self-labeled union
        assert [len(a[0]) for a in fits] == [len(xs), len(xs)]
        with pytest.raises(ValidationError, match="outside 1..2"):
            kfold_cv_detail(labeled, 5, CFG, derive_substream(1, (0,)))


class TestSelfLabelCV:
    def test_far_pool_gets_tie_break_labels(self, task):
        labeled = _labeled([(-1.0, 1), (1.0, 2)])
        pool = np.linspace(60.0, 70.0, 30)
        base = fit_arrays(labeled.xs, labeled.ys, CFG)
        assert np.all(predict_batch(base, pool) == 1)
        est = self_label_cv(kernel_block(pool, base), 3, derive_substream(0, (0,)))
        assert 0.0 <= est.mean() <= 1.0

    def test_agreeing_self_labels_match_union_cv(self, task):
        # pool at the labeled x values, self-labels agree with the truth,
        # so the estimate equals the subset-restricted CV over the union
        labeled = _labeled([(-2.0, 1), (-1.0, 1), (1.0, 2), (2.0, 2)])
        pool = labeled.xs
        est = self_label_cv(kernel_block(pool, _fit(labeled)), 3, derive_substream(2, (0,)))
        union_x = np.tile(labeled.xs, 2)
        union_y = np.tile(labeled.ys, 2)
        correct = _refit_fold_predictions(
            union_x, union_y, 3, CFG, derive_substream(2, (0,)), train_size=len(labeled)
        )[0]
        assert est.mean() == float(correct.mean())

    def test_overestimates_sparse_labeled_sets(self, task):
        # two labels only: plain CV (2 folds is all that fits) scores 0,
        # self-labeling inflates the estimate in every seed
        labeled = _labeled([(-1.5, 1), (1.5, 2)], density=0.2)
        m = _fit(labeled)
        wins = 0
        for seed in range(50):
            pool = draw_unlabeled(task, 100, derive_substream(seed, (0,)))
            sl = self_label_cv(kernel_block(pool, m), 3, derive_substream(seed, (1,)))
            cv = kfold_cv(labeled, 2, CFG, derive_substream(seed, (2,)))
            wins += sl.mean() >= cv.mean()
        assert wins >= 45

    def test_single_fold_rejected_before_any_draw(self):
        labeled = _labeled([(-2.0, 1), (-1.0, 1), (1.0, 2), (2.0, 2)])
        block = kernel_block(np.linspace(-3.0, 3.0, 7), _fit(labeled))
        rng = derive_substream(5, (0,))
        state = rng.bit_generator.state
        with pytest.raises(ValidationError, match=r"fold count must be >= 2, got 1$"):
            self_label_cv(block, 1, rng)
        assert rng.bit_generator.state == state


class TestLocalLabelStatistics:
    # Local statistics (n, p_hat) enter the estimate as the Beta component
    # alpha = 1 + max(n p, n (1-p)), beta = 1 + min(n p, n (1-p)).

    def test_empty_labeled_set_convention(self):
        n, alpha, beta = _local_stats(NO_LABELS, 0.0, 0.2)
        assert n == 0.0 and alpha == beta == 1.0  # p_hat = 1/2

    def test_single_point_at_query(self):
        n, alpha, beta = _local_stats(_labeled([(0.3, 2)]), 0.3, 0.2)
        assert n == 1.0 and (alpha, beta) == (2.0, 1.0)  # p_hat = 1
        n1, alpha1, beta1 = _local_stats(_labeled([(0.3, 1)]), 0.3, 0.2)
        assert n1 == 1.0 and (alpha1, beta1) == (2.0, 1.0)  # p_hat = 0

    def test_symmetric_pair(self):
        n, alpha, beta = _local_stats(_labeled([(-0.2, 1), (0.2, 2)]), 0.0, 0.2)
        assert n == pytest.approx(2.0 * math.exp(-0.5), abs=1e-12)
        assert alpha == pytest.approx(beta, abs=1e-12)  # p_hat = 1/2

    def test_rejects_more_than_two_classes(self):
        with pytest.raises(ValidationError, match="2 classes"):
            _local_stats(_labeled([(0.0, 3)]), 0.0, 0.2, class_count=3)


class TestProbabilisticPerformance:
    def test_beta_parameter_formula(self):
        a, b = beta_components_from_stats(np.array([10.0]), np.array([0.9]))
        assert a[0] == pytest.approx(10.0, abs=1e-12)
        assert b[0] == pytest.approx(2.0, abs=1e-12)

    def test_no_evidence_gives_uniform_mixture(self):
        evaluation = np.arange(5, dtype=np.float64)
        est = probabilistic_performance(kernel_block(evaluation, _fit(NO_LABELS)))
        np.testing.assert_allclose(est.components, 1.0)
        assert est.mean() == 0.5

    def test_component_matches_local_statistics(self):
        labeled = _labeled([(-0.2, 1), (0.1, 2), (0.15, 2)])
        x = 0.05
        est = probabilistic_performance(kernel_block(np.array([x]), _fit(labeled)))
        # local statistics computed directly from the kernel definition
        w = np.exp(-((x - labeled.xs) ** 2) / (2 * 0.2**2))
        n = w.sum()
        p_hat = w[labeled.ys == 2].sum() / n
        a, b = beta_components_from_stats(np.array([n]), np.array([p_hat]))
        np.testing.assert_allclose(est.components[0], [a[0], b[0]], atol=1e-12)

    def test_empty_evaluation_rejected(self):
        with pytest.raises(ValidationError, match="no evaluation"):
            probabilistic_performance(kernel_block(np.array([]), _fit(NO_LABELS)))

    def test_components_from_cached_masses_match_the_weight_sums(self):
        # The definition: n is the row sum of the block's weights, p_hat the
        # class-2 columns' sum over it (1/2 with no mass, at most 1).
        for block in _fig6_blocks():
            ys, weights = block.model.train_y, block.weights
            total = weights.sum(axis=1)
            class2 = weights[:, ys == 2].sum(axis=1)
            p_hat = np.where(total > 0.0, class2 / np.where(total > 0.0, total, 1.0), 0.5)
            expected = np.column_stack(beta_components_from_stats(total, np.minimum(p_hat, 1.0)))
            got = probabilistic_performance(block).components
            assert np.all(np.abs(got - expected) <= len(ys) * 2.0**-52 * expected)

    def test_component_mean_is_the_shrunk_max_posterior(self):
        # alpha / (alpha + beta) = (1 + n max(p, 1 - p)) / (2 + n): the kernel
        # max-posterior shrunk toward 1/2 with weight 2 / (n + 2), n the
        # point's kernel mass (an unnormalised soft count).
        for block in _fig6_blocks():
            alphas, betas = probabilistic_performance(block).components.T
            n = block.masses.sum(axis=1)
            p = np.where(n > 0.0, block.masses[:, 1] / np.where(n > 0.0, n, 1.0), 0.5)
            shrunk = (1.0 + n * np.maximum(p, 1.0 - p)) / (2.0 + n)
            assert np.all(np.abs(alphas / (alphas + betas) - shrunk) <= 1e-15 * shrunk)

    def test_every_beta_at_least_one(self):
        # Class masses are nonnegative, so class 2's never exceeds their
        # sum after rounding either, and no beta falls below 1.
        for e in _fig6_mixtures():
            assert e.components.min() >= 1.0


def _monte_carlo(m, task, seed, n=200_000):
    """Accuracy on n fresh oracle draws: an oracle independent of the exact
    integrator, with its own standard error."""
    xs, ys = draw_oracle_arrays(task, n, derive_substream(seed, (77,)))
    a = float((predict_batch(m, xs) == ys).mean())
    return a, math.sqrt(a * (1.0 - a) / n)


def _fig6_models():
    """Models fitted on fig6 budget prefixes: 3 samplers x 4 repetitions x
    budgets 10/30/50."""
    spec = resolve_config(json.dumps(BUILTIN_SCENARIOS["fig6"].config)).spec
    for s_idx in range(3):
        for rep in range(4):
            sequence = acquisition_sequence(spec, s_idx, rep)
            for budget in spec.budgets:
                labeled = sequence[:budget]
                yield fit_arrays(labeled.xs, labeled.ys, spec.classifier)


class TestPoolKernelBlock:
    """The harness passes each budget's prefix of one pool kernel block; the
    pool estimators must give what they give for the refit model's block."""

    def test_estimators_on_a_prefix_block_match_the_points(self, task):
        labeled = draw_labeled(task, unbiased_sampler(), 40, derive_substream(8, (0,)))
        pool = draw_unlabeled(task, 200, derive_substream(8, (1,)))
        block = kernel_block(pool, _fit(labeled))
        for budget in (5, 23, 40):
            prefix, refit = block.prefix(budget), kernel_block(pool, _fit(labeled[:budget]))
            assert (
                generalization_error_estimate(prefix).mean()
                == generalization_error_estimate(refit).mean()
            )
            for mixture in (probabilistic_performance, _count_mixture):
                assert np.array_equal(
                    mixture(prefix).components, mixture(refit).components
                )
            assert (
                self_label_cv(prefix, 3, derive_substream(8, (2,))).mean()
                == self_label_cv(refit, 3, derive_substream(8, (2,))).mean()
            )

    @pytest.mark.parametrize("estimate", [
        generalization_error_estimate,
        lambda pool: self_label_cv(pool, 3, derive_substream(1, (1,))),
        probabilistic_performance,
    ], ids=["generalization-error", "self-label-cv", "probabilistic"])
    def test_empty_block_rejected(self, estimate):
        model = _fit(_labeled([(-1.0, 1), (0.0, 1), (1.0, 2)]))
        with pytest.raises(ValidationError, match="no evaluation instances"):
            estimate(kernel_block(np.array([]), model))


class TestTrueBaseline:
    def test_sign_rule_hits_bayes_accuracy(self, task, sign_rule_model):
        tb = true_baseline(sign_rule_model, task)
        phi15 = 0.5 * (1 + math.erf(1.5 / math.sqrt(2)))
        assert tb == pytest.approx(phi15, abs=1e-9)

    def test_prefix_truth_equals_the_refit_model_at_every_budget(self, task):
        spec = resolve_config(json.dumps(BUILTIN_SCENARIOS["fig6"].config)).spec
        grid = truth_grid(spec.task, spec.classifier)
        budgets = tuple(range(1, 51))
        for s_idx in range(3):
            sequence = acquisition_sequence(spec, s_idx, 0)
            whole = fit_arrays(sequence.xs, sequence.ys, spec.classifier)
            truths = prefix_truths(whole, task, budgets, grid)
            assert truths.shape == (len(budgets),)
            for budget, truth in zip(budgets, truths.tolist()):
                m = fit_arrays(sequence.xs[:budget], sequence.ys[:budget], spec.classifier)
                # The refit model's rule read on the grid through posterior_batch.
                refit = synthdata.decision_accuracy(
                    task, lambda xs: parzen.posterior_batch(m, xs), spec.classifier.bandwidth / 20
                )
                assert truth == true_baseline(m, task) == refit, (s_idx, budget)

    def test_constant_classifier_is_a_coin_flip(self, task):
        m = _fit(_labeled([(0.0, 1)]), prior_weight=0.0)
        assert true_baseline(m, task) == 0.5

    def test_matches_monte_carlo_on_fig6_models(self, task):
        models = list(_fig6_models())
        assert len(models) >= 30
        for i, m in enumerate(models):
            exact = true_baseline(m, task)
            mc, se = _monte_carlo(m, task, i)
            assert abs(exact - mc) < 4.0 * se, (i, exact, mc)

    def test_no_labels_scores_exactly_the_first_prior(self):
        skewed = TaskModel(
            class_priors=(0.3, 0.7),
            class_components=(
                (GaussianComponent(1.0, -1.5, 1.0),),
                (GaussianComponent(1.0, 1.5, 1.0),),
            ),
        )
        # every posterior is uniform, so argmax ties everywhere go to class 1
        assert true_baseline(_fit(NO_LABELS), skewed) == 0.3

    @pytest.mark.parametrize(
        "pairs, prior_weight, far_x, far_class",
        [
            # All labels right of 8 with a class-2 majority: left of about
            # 0.5 every kernel is clamped to the same exp(-700), so the
            # label counts decide and class 2 is predicted there.
            ([(8.0, 1), (8.2, 2), (8.4, 2)], 0.0, -2.0, 2),
            # One class-2 label with epsilon 0.01: more than about 1.8 from
            # it the kernel mass vanishes next to epsilon, the posterior ties
            # exactly and class 1 is predicted.
            ([(1.5, 2)], 0.01, -3.0, 1),
        ],
        ids=["clamped-majority", "epsilon-tie"],
    )
    def test_far_field_rule_matches_monte_carlo(
        self, task, pairs, prior_weight, far_x, far_class
    ):
        m = _fit(_labeled(pairs), prior_weight=prior_weight)
        assert predict_batch(m, np.array([far_x]))[0] == far_class
        exact = true_baseline(m, task)
        mc, se = _monte_carlo(m, task, 5)
        assert abs(exact - mc) < 4.0 * se, (exact, mc)

    def test_task_past_support_matches_monte_carlo(self):
        # Class means 8 and 14: the decision boundary near 11 lies right of
        # SUPPORT = [-10, 10], so the rule is read on the widened interval.
        shifted = TaskModel(
            class_priors=(0.5, 0.5),
            class_components=(
                (GaussianComponent(1.0, 8.0, 1.0),),
                (GaussianComponent(1.0, 14.0, 1.0),),
            ),
        )
        labeled = draw_labeled(shifted, unbiased_sampler(), 50, derive_substream(3, (0,)))
        m = fit_arrays(labeled.xs, labeled.ys, CFG)
        exact = true_baseline(m, shifted)
        mc, se = _monte_carlo(m, shifted, 3)
        assert abs(exact - mc) < 4.0 * se, (exact, mc)


class TestSubsampleBaseline:
    def test_perfect_classifier_scores_one_everywhere(self):
        far_task = TaskModel(
            class_priors=(0.5, 0.5),
            class_components=(
                (GaussianComponent(1.0, -100.0, 1.0),),
                (GaussianComponent(1.0, 100.0, 1.0),),
            ),
        )
        m = _fit(_labeled([(-100.0, 1), (100.0, 2)]), bandwidth=5.0, prior_weight=0.0)
        # the class mass lies beyond SUPPORT, on the grid widened to cover it
        accuracy = true_baseline(m, far_task)
        assert accuracy == 1.0
        est = subsample_baseline(accuracy, 10, 200, derive_substream(0, (0,)))
        assert np.all(np.asarray(est.samples) == 1.0)

    def test_mean_matches_true_accuracy(self, task, sign_rule_model):
        a_true, _ = _monte_carlo(sign_rule_model, task, 1)
        est = subsample_baseline(
            true_baseline(sign_rule_model, task), 10, 10_000,
            derive_substream(1, (1,)),
        )
        assert abs(est.mean() - a_true) < 0.01

    def test_binomial_distribution_oracle(self, task, sign_rule_model):
        a_true, _ = _monte_carlo(sign_rule_model, task, 2)
        B = 10
        est = subsample_baseline(
            true_baseline(sign_rule_model, task), B, 10_000,
            derive_substream(2, (1,)),
        )
        counts = np.round(np.asarray(est.samples) * B).astype(int)
        emp = np.bincount(counts, minlength=B + 1) / len(counts)
        pmf = stats.binom.pmf(np.arange(B + 1), B, a_true)
        assert 0.5 * np.abs(emp - pmf).sum() < 0.03

    def test_values_are_multiples_of_one_over_budget(self):
        for budget in (1, 5, 7, 50):
            est = subsample_baseline(0.83, budget, 500, derive_substream(4, (budget,)))
            counts = np.asarray(est.samples) * budget
            np.testing.assert_array_equal(counts, np.round(counts))
            np.testing.assert_array_equal(est.samples, np.round(counts) / budget)

    def test_determinism(self):
        a = subsample_baseline(0.9, 5, 100, derive_substream(7, (0,)))
        b = subsample_baseline(0.9, 5, 100, derive_substream(7, (0,)))
        np.testing.assert_array_equal(a.samples, b.samples)
        assert a.samples.tobytes() == b.samples.tobytes()

    def test_parameter_validation(self):
        rng = derive_substream(0, (0,))
        with pytest.raises(ValidationError, match="budget"):
            subsample_baseline(0.9, 0, 10, rng)
        with pytest.raises(ValidationError, match="reps"):
            subsample_baseline(0.9, 10, 0, rng)
        for bad in (-0.1, 1.5, float("nan")):
            with pytest.raises(ValidationError, match="accuracy"):
                subsample_baseline(bad, 10, 10, rng)
        # the scalar draw refuses what the baseline refuses, with its messages
        with pytest.raises(ValidationError, match="budget must be >= 1, got 0"):
            subsample_accuracy(0.9, 0, rng)
        with pytest.raises(ValidationError, match=r"accuracy must be in \[0,1\], got nan"):
            subsample_accuracy(float("nan"), 10, rng)

    def test_sizes_must_be_integers(self):
        # numpy would truncate 10.5 to 10 but divide by 10.5, take True as 1
        # and raise its own TypeError on 2.5 draws
        rng = derive_substream(0, (0,))
        state = rng.bit_generator.state
        with pytest.raises(ValidationError, match="^budget must be an integer, got 10.5$"):
            subsample_accuracy(0.9, 10.5, rng)
        with pytest.raises(ValidationError, match="^budget must be an integer, got True$"):
            subsample_accuracy(0.9, True, rng)
        with pytest.raises(ValidationError, match="^reps must be an integer, got 2.5$"):
            subsample_baseline(0.9, 10, 2.5, rng)
        assert rng.bit_generator.state == state
        value = subsample_accuracy(0.9, np.int64(10), rng)
        assert value == subsample_accuracy(0.9, 10, derive_substream(0, (0,)))

    # numpy draws a Binomial by inversion where n * min(p, 1-p) is at most 30
    # and by BTPE elsewhere: (10, 0.93) and (7, 0.2) take the first, (100, 0.5)
    # and (1000, 0.9) the second.
    @pytest.mark.parametrize("budget, accuracy", [(10, 0.93), (7, 0.2), (100, 0.5), (1000, 0.9)])
    def test_scalar_draw_is_the_one_value_sample(self, budget, accuracy):
        for seed in range(50):
            value = subsample_accuracy(accuracy, budget, derive_substream(seed, (1, 2)))
            rng = derive_substream(seed, (1, 2))
            assert value == rng.binomial(budget, accuracy) / budget
            assert type(value) is float
            est = subsample_baseline(accuracy, budget, 1, derive_substream(seed, (1, 2)))
            assert est.samples.tolist() == [value]
            assert point_summary(value) == est.summary()
            # the first of several draws is the scalar draw too
            many = subsample_accuracy(accuracy, budget, derive_substream(seed, (1, 2)), 5)
            assert many[0] == value


class TestDeterminism:
    def test_every_estimator_reproduces_bit_exact(self, task):
        labeled = draw_labeled(task, unbiased_sampler(), 20, derive_substream(5, (0,)))
        pool = draw_unlabeled(task, 60, derive_substream(5, (1,)))
        m = fit_arrays(labeled.xs, labeled.ys, CFG)
        block = kernel_block(pool, m)
        runs = {
            "generalization-error": lambda r: generalization_error_estimate(block),
            "kfold": lambda r: kfold_cv(labeled, 3, CFG, r),
            "reweighted": lambda r: kfold_cv(labeled, 3, CFG, r, reweighted=True),
            "self-label": lambda r: self_label_cv(block, 3, r),
            "probabilistic": lambda r: probabilistic_performance(block),
            "subsample": lambda r: subsample_baseline(true_baseline(m, task), 10, 50, r),
        }
        for name, run in runs.items():
            a = run(derive_substream(9, (2,)))
            b = run(derive_substream(9, (2,)))
            assert a.summary() == b.summary(), name
        assert true_baseline(m, task) == true_baseline(m, task)
