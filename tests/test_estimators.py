import json
import math

import numpy as np
import pytest
from scipy import optimize, stats

from alperf import parzen
from alperf.errors import ValidationError
from alperf.estimators import (
    PerformanceEstimate,
    _accuracy_from_posteriors,
    _fold_predictions,
    beta_components_from_stats,
    generalization_error_estimate,
    kfold_cv,
    kfold_cv_detail,
    percentiles,
    probabilistic_performance,
    random_folds,
    self_label_cv,
    subsample_baseline,
    true_baseline,
)
from alperf.config import BUILTIN_SCENARIOS, resolve_config
from alperf.harness import acquisition_sequence, derive_substream
from alperf.parzen import ClassifierConfig, accuracy_arrays, fit_arrays, predict_batch
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


def _local_stats(labeled, x, bandwidth, count_mode="kernel", class_count=2):
    """Label mass n at x with the Beta component (alpha, beta) that the
    probabilistic estimator builds from it for a single evaluation point;
    n = alpha + beta - 2."""
    m = _fit(labeled, bandwidth=bandwidth, class_count=class_count)
    est = probabilistic_performance(m, np.array([x]), count_mode)
    alpha, beta = est.components[0]
    n = alpha + beta - 2.0
    return n, alpha, beta


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

    def test_exactly_one_shape(self):
        with pytest.raises(ValidationError, match="either samples or Beta components"):
            PerformanceEstimate()
        with pytest.raises(ValidationError, match="either samples or Beta components"):
            PerformanceEstimate(samples=np.array([0.5]), components=np.array([[1.0, 1.0]]))

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
            for mode in ("kernel", "hard"):
                e = probabilistic_performance(_fit(labeled), pool, mode)
                for q in (0.25, 0.5, 0.75):
                    assert abs(e.quantile(q) - self._brentq(e, q)) <= 2e-12

    def test_solves_through_cdf_in_few_evaluations(self, monkeypatch):
        e = PerformanceEstimate.beta_mixture(np.array([5.0, 2.0]), np.array([2.0, 2.0]))
        expected = e.quantile(0.3)
        calls = []
        cdf = PerformanceEstimate.cdf

        def counting(self, t):
            calls.append(t)
            return cdf(self, t)

        monkeypatch.setattr(PerformanceEstimate, "cdf", counting)
        assert e.quantile(0.3) == expected
        assert 1 <= len(calls) <= 4
        assert all(0.0 < t < 1.0 for t in calls)


class TestGeneralizationError:
    def test_error_arithmetic(self):
        post = np.array([[0.9, 0.1], [0.6, 0.4], [1.0, 0.0]])
        assert _accuracy_from_posteriors(post) == pytest.approx(
            1.0 - 0.5 / 3.0, abs=1e-15
        )

    def test_uniform_posteriors_give_half(self):
        m = _fit(NO_LABELS, prior_weight=0.01, class_count=2)
        evaluation = np.array([-2.0, -1.0, 1.0, 2.0])
        assert generalization_error_estimate(m, evaluation).mean() == 0.5

    def test_uniform_posteriors_c_classes(self):
        for c in (2, 3, 5):
            m = _fit(NO_LABELS, prior_weight=0.01, class_count=c)
            evaluation = np.arange(4, dtype=np.float64)
            est = generalization_error_estimate(m, evaluation)
            assert est.mean() == pytest.approx(1.0 / c, abs=1e-15)

    def test_fully_confident_model(self):
        m = _fit(_labeled([(0.0, 1)]), prior_weight=0.0)
        evaluation = np.array([-1.0, 0.0, 2.0])
        assert generalization_error_estimate(m, evaluation).mean() == 1.0

    def test_permutation_invariance_is_exact(self, two_point_model):
        rng = np.random.default_rng(8)
        evaluation = rng.normal(0, 2, 500)
        shuffled = evaluation.copy()
        rng.shuffle(shuffled)
        a = generalization_error_estimate(two_point_model, evaluation).mean()
        b = generalization_error_estimate(two_point_model, shuffled).mean()
        assert a == b

    def test_empty_evaluation_rejected(self, two_point_model):
        with pytest.raises(ValidationError, match="no evaluation"):
            generalization_error_estimate(two_point_model, np.array([]))


class TestRandomFolds:
    def test_partition_with_balanced_sizes(self):
        folds = random_folds(23, 5, derive_substream(0, (0,)))
        sizes = [len(f) for f in folds]
        assert sum(sizes) == 23
        assert max(sizes) - min(sizes) <= 1
        assert sorted(np.concatenate(folds)) == list(range(23))

    def test_leave_one_out_is_deterministic(self):
        a = random_folds(6, 6, derive_substream(0, (0,)))
        b = random_folds(6, 6, derive_substream(99, (5,)))
        assert [f.tolist() for f in a] == [f.tolist() for f in b]

    def test_bounds(self):
        with pytest.raises(ValidationError, match="folds"):
            random_folds(3, 4, derive_substream(0, (0,)))
        with pytest.raises(ValidationError, match=">= 2"):
            random_folds(3, 1, derive_substream(0, (0,)))


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

    def test_weight_cap(self, task):
        labeled = draw_labeled(
            task, unbiased_sampler(), 30, derive_substream(6, (0,))
        )
        uncapped = kfold_cv(
            labeled, 3, CFG, derive_substream(6, (1,)), reweighted=True
        )
        capped = kfold_cv(
            labeled, 3, CFG, derive_substream(6, (1,)), reweighted=True, weight_cap=1.0
        )
        assert capped.mean() != uncapped.mean()
        with pytest.raises(ValidationError, match="weight_cap"):
            kfold_cv(
                labeled, 3, CFG, derive_substream(6, (2,)),
                reweighted=True, weight_cap=0.0,
            )

    def test_nan_weight_cap_rejected_before_any_fit(self, task, monkeypatch):
        labeled = draw_labeled(
            task, unbiased_sampler(), 30, derive_substream(6, (0,))
        )

        def no_fit(*args, **kwargs):
            raise AssertionError("a fold model was fitted")

        monkeypatch.setattr(parzen, "fit_arrays", no_fit)
        with pytest.raises(ValidationError, match="weight_cap must be > 0"):
            kfold_cv(
                labeled, 3, CFG, derive_substream(6, (2,)),
                reweighted=True, weight_cap=float("nan"),
            )

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
        labeled = _labeled([(float(x), 1 + int(x > 0)) for x in np.linspace(-2, 2, 9)])
        detail = kfold_cv_detail(labeled, 3, CFG, derive_substream(2, (0,)))
        assert len(detail.fold_models) == 3


class TestSelfLabelCV:
    def test_far_pool_gets_tie_break_labels(self, task):
        labeled = _labeled([(-1.0, 1), (1.0, 2)])
        pool = np.linspace(60.0, 70.0, 30)
        base = fit_arrays(labeled.xs, labeled.ys, CFG)
        assert np.all(predict_batch(base, pool) == 1)
        est = self_label_cv(base, pool, 3, derive_substream(0, (0,)))
        assert 0.0 <= est.mean() <= 1.0

    def test_empty_pool_falls_back_to_plain_cv(self, task):
        labeled = draw_labeled(task, unbiased_sampler(), 9, derive_substream(1, (0,)))
        with pytest.warns(UserWarning, match="empty candidate pool"):
            fallback = self_label_cv(
                _fit(labeled), np.array([]), 3, derive_substream(1, (1,))
            )
        plain = kfold_cv(labeled, 3, CFG, derive_substream(1, (1,)))
        assert fallback.mean() == plain.mean()

    def test_agreeing_self_labels_match_union_cv(self, task):
        # pool at the labeled x values, self-labels agree with the truth,
        # so the estimate equals the subset-restricted CV over the union
        labeled = _labeled([(-2.0, 1), (-1.0, 1), (1.0, 2), (2.0, 2)])
        pool = labeled.xs
        est = self_label_cv(_fit(labeled), pool, 3, derive_substream(2, (0,)))
        union_x = np.tile(labeled.xs, 2)
        union_y = np.tile(labeled.ys, 2)
        correct, _ = _fold_predictions(
            union_x, union_y, 3, CFG, derive_substream(2, (0,)), train_size=len(labeled)
        )
        assert est.mean() == float(correct.mean())

    def test_overestimates_sparse_labeled_sets(self, task):
        # two labels only: plain CV (2 folds is all that fits) scores 0,
        # self-labeling inflates the estimate in every seed
        labeled = _labeled([(-1.5, 1), (1.5, 2)], density=0.2)
        m = _fit(labeled)
        wins = 0
        for seed in range(50):
            pool = draw_unlabeled(task, 100, derive_substream(seed, (0,)))
            sl = self_label_cv(m, pool, 3, derive_substream(seed, (1,)))
            cv = kfold_cv(labeled, 2, CFG, derive_substream(seed, (2,)))
            wins += sl.mean() >= cv.mean()
        assert wins >= 45


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

    def test_hard_count_mode(self):
        labeled = _labeled([(-0.1, 1), (0.1, 2), (0.5, 2)])
        n, alpha, beta = _local_stats(labeled, 0.0, 0.2, count_mode="hard")
        assert n == 2.0 and alpha == beta == 2.0  # p_hat = 1/2

    def test_rejects_more_than_two_classes(self):
        with pytest.raises(ValidationError, match="2 classes"):
            _local_stats(_labeled([(0.0, 3)]), 0.0, 0.2, class_count=3)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValidationError, match="count mode"):
            _local_stats(NO_LABELS, 0.0, 0.2, count_mode="soft")


class TestProbabilisticPerformance:
    def test_beta_parameter_formula(self):
        a, b = beta_components_from_stats(np.array([10.0]), np.array([0.9]))
        assert a[0] == pytest.approx(10.0, abs=1e-12)
        assert b[0] == pytest.approx(2.0, abs=1e-12)

    def test_no_evidence_gives_uniform_mixture(self):
        evaluation = np.arange(5, dtype=np.float64)
        est = probabilistic_performance(_fit(NO_LABELS), evaluation)
        np.testing.assert_allclose(est.components, 1.0)
        assert est.mean() == 0.5

    def test_component_matches_local_statistics(self):
        labeled = _labeled([(-0.2, 1), (0.1, 2), (0.15, 2)])
        x = 0.05
        est = probabilistic_performance(_fit(labeled), np.array([x]))
        # local statistics computed directly from the kernel definition
        w = np.exp(-((x - labeled.xs) ** 2) / (2 * 0.2**2))
        n = w.sum()
        p_hat = w[labeled.ys == 2].sum() / n
        a, b = beta_components_from_stats(np.array([n]), np.array([p_hat]))
        np.testing.assert_allclose(est.components[0], [a[0], b[0]], atol=1e-12)

    def test_empty_evaluation_rejected(self):
        with pytest.raises(ValidationError, match="no evaluation"):
            probabilistic_performance(_fit(NO_LABELS), np.array([]))


def _monte_carlo(m, task, seed, n=200_000):
    """Accuracy on n fresh oracle draws: an oracle independent of the exact
    integrator, with its own standard error."""
    xs, ys = draw_oracle_arrays(task, n, derive_substream(seed, (77,)))
    a = accuracy_arrays(m, xs, ys)
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


class TestTrueBaseline:
    def test_sign_rule_hits_bayes_accuracy(self, task, sign_rule_model):
        tb = true_baseline(sign_rule_model, task)
        phi15 = 0.5 * (1 + math.erf(1.5 / math.sqrt(2)))
        assert tb == pytest.approx(phi15, abs=1e-9)

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


class TestDeterminism:
    def test_every_estimator_reproduces_bit_exact(self, task):
        labeled = draw_labeled(task, unbiased_sampler(), 20, derive_substream(5, (0,)))
        pool = draw_unlabeled(task, 60, derive_substream(5, (1,)))
        m = fit_arrays(labeled.xs, labeled.ys, CFG)
        runs = {
            "generalization-error": lambda r: generalization_error_estimate(m, pool),
            "kfold": lambda r: kfold_cv(labeled, 3, CFG, r),
            "reweighted": lambda r: kfold_cv(labeled, 3, CFG, r, reweighted=True),
            "self-label": lambda r: self_label_cv(m, pool, 3, r),
            "probabilistic": lambda r: probabilistic_performance(m, pool),
            "subsample": lambda r: subsample_baseline(true_baseline(m, task), 10, 50, r),
        }
        for name, run in runs.items():
            a = run(derive_substream(9, (2,)))
            b = run(derive_substream(9, (2,)))
            assert a.summary() == b.summary(), name
        assert true_baseline(m, task) == true_baseline(m, task)
