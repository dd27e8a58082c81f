import math

import numpy as np
import pytest
from scipy import optimize, stats

from alperf.errors import ValidationError
from alperf.estimators import (
    PerformanceEstimate,
    _accuracy_from_posteriors,
    _subset_restricted_cv,
    beta_components_from_stats,
    generalization_error_estimate,
    kfold_cv,
    kfold_cv_detail,
    probabilistic_performance,
    random_folds,
    self_label_cv,
    subsample_baseline,
    true_baseline,
)
from alperf.harness import derive_substream
from alperf.parzen import ClassifierConfig, fit_arrays, predict_batch
from alperf.synthdata import (
    GaussianComponent,
    LabeledSet,
    TaskModel,
    draw_labeled,
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


def _local_stats(labeled, x, bandwidth, count_mode="kernel"):
    """Label mass n at x with the Beta component (alpha, beta) that the
    probabilistic estimator builds from it for a single evaluation point;
    n = alpha + beta - 2."""
    est = probabilistic_performance(labeled, np.array([x]), bandwidth, count_mode)
    alpha, beta = est.components[0]
    n = alpha + beta - 2.0
    return n, alpha, beta


class TestPerformanceEstimate:
    def test_point_summary(self):
        e = PerformanceEstimate.point(0.7)
        assert e.mean() == e.median() == e.quantile(0.25) == 0.7

    def test_point_range_validated(self):
        with pytest.raises(ValidationError):
            PerformanceEstimate.point(1.2)

    def test_empirical_quantiles_match_numpy(self):
        rng = np.random.default_rng(0)
        vals = rng.random(101)
        e = PerformanceEstimate.empirical(vals)
        assert e.mean() == pytest.approx(vals.mean(), abs=1e-15)
        for q in (0.25, 0.5, 0.75):
            assert e.quantile(q) == float(np.percentile(vals, 100 * q))

    def test_empirical_range_validated(self):
        with pytest.raises(ValidationError):
            PerformanceEstimate.empirical(np.array([0.5, 1.5]))

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
        with pytest.raises(ValidationError):
            PerformanceEstimate.beta_mixture(np.array([0.0]), np.array([1.0]))

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
                e = probabilistic_performance(labeled, pool, 0.2, mode)
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
        assert sum(len(f) for f in detail.fold_indices) == 9


class TestSelfLabelCV:
    def test_far_pool_gets_tie_break_labels(self, task):
        labeled = _labeled([(-1.0, 1), (1.0, 2)])
        pool = np.linspace(60.0, 70.0, 30)
        base = fit_arrays(labeled.xs, labeled.ys, CFG)
        assert np.all(predict_batch(base, pool) == 1)
        est = self_label_cv(labeled, pool, 3, CFG, derive_substream(0, (0,)))
        assert 0.0 <= est.mean() <= 1.0

    def test_empty_pool_falls_back_to_plain_cv(self, task):
        labeled = draw_labeled(task, unbiased_sampler(), 9, derive_substream(1, (0,)))
        with pytest.warns(UserWarning, match="empty candidate pool"):
            fallback = self_label_cv(
                labeled, np.array([]), 3, CFG, derive_substream(1, (1,))
            )
        plain = kfold_cv(labeled, 3, CFG, derive_substream(1, (1,)))
        assert fallback.mean() == plain.mean()

    def test_agreeing_self_labels_match_union_cv(self, task):
        # pool at the labeled x values, self-labels agree with the truth,
        # so the estimate equals the subset-restricted CV over the union
        labeled = _labeled([(-2.0, 1), (-1.0, 1), (1.0, 2), (2.0, 2)])
        pool = labeled.xs
        est = self_label_cv(labeled, pool, 3, CFG, derive_substream(2, (0,)))
        union_x = np.tile(labeled.xs, 2)
        union_y = np.tile(labeled.ys, 2)
        ref = _subset_restricted_cv(
            union_x, union_y, len(labeled), 3, CFG, derive_substream(2, (0,))
        )
        assert est.mean() == ref.mean()

    def test_overestimates_sparse_labeled_sets(self, task):
        # two labels only: plain CV (2 folds is all that fits) scores 0,
        # self-labeling inflates the estimate in every seed
        labeled = _labeled([(-1.5, 1), (1.5, 2)], density=0.2)
        wins = 0
        for seed in range(50):
            pool = draw_unlabeled(task, 100, derive_substream(seed, (0,)))
            sl = self_label_cv(labeled, pool, 3, CFG, derive_substream(seed, (1,)))
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
            _local_stats(_labeled([(0.0, 3)]), 0.0, 0.2)

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
        est = probabilistic_performance(NO_LABELS, evaluation, 0.2)
        np.testing.assert_allclose(est.components, 1.0)
        assert est.mean() == 0.5

    def test_component_matches_local_statistics(self):
        labeled = _labeled([(-0.2, 1), (0.1, 2), (0.15, 2)])
        x = 0.05
        est = probabilistic_performance(labeled, np.array([x]), 0.2)
        # local statistics computed directly from the kernel definition
        w = np.exp(-((x - labeled.xs) ** 2) / (2 * 0.2**2))
        n = w.sum()
        p_hat = w[labeled.ys == 2].sum() / n
        a, b = beta_components_from_stats(np.array([n]), np.array([p_hat]))
        np.testing.assert_allclose(est.components[0], [a[0], b[0]], atol=1e-12)

    def test_empty_evaluation_rejected(self):
        with pytest.raises(ValidationError, match="no evaluation"):
            probabilistic_performance(NO_LABELS, np.array([]), 0.2)


class TestTrueBaseline:
    def test_sign_rule_hits_bayes_accuracy(self, task, sign_rule_model):
        tb = true_baseline(
            sign_rule_model, task, 200_000, derive_substream(42, (0,))
        ).mean()
        phi15 = 0.5 * (1 + math.erf(1.5 / math.sqrt(2)))
        assert tb == pytest.approx(phi15, abs=0.002)

    def test_constant_classifier_is_a_coin_flip(self, task):
        m = _fit(_labeled([(0.0, 1)]), prior_weight=0.0)
        n = 50_000
        tb = true_baseline(m, task, n, derive_substream(3, (0,))).mean()
        assert abs(tb - 0.5) < 3.0 * math.sqrt(0.25 / n)

    def test_requires_rng_and_size(self, task, sign_rule_model):
        with pytest.raises(ValidationError, match="random stream"):
            true_baseline(sign_rule_model, task)
        with pytest.raises(ValidationError, match="eval_size"):
            true_baseline(sign_rule_model, task, 0, derive_substream(0, (0,)))


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
        est = subsample_baseline(m, far_task, 10, 200, derive_substream(0, (0,)))
        assert np.all(np.asarray(est.samples) == 1.0)

    def test_mean_matches_true_accuracy(self, task, sign_rule_model):
        a_true = true_baseline(
            sign_rule_model, task, 200_000, derive_substream(1, (0,))
        ).mean()
        est = subsample_baseline(
            sign_rule_model, task, 10, 10_000, derive_substream(1, (1,))
        )
        assert abs(est.mean() - a_true) < 0.01

    def test_binomial_distribution_oracle(self, task, sign_rule_model):
        a_true = true_baseline(
            sign_rule_model, task, 200_000, derive_substream(2, (0,))
        ).mean()
        B = 10
        est = subsample_baseline(
            sign_rule_model, task, B, 10_000, derive_substream(2, (1,))
        )
        counts = np.round(np.asarray(est.samples) * B).astype(int)
        emp = np.bincount(counts, minlength=B + 1) / len(counts)
        pmf = stats.binom.pmf(np.arange(B + 1), B, a_true)
        assert 0.5 * np.abs(emp - pmf).sum() < 0.03

    def test_determinism(self, task, sign_rule_model):
        a = subsample_baseline(sign_rule_model, task, 5, 100, derive_substream(7, (0,)))
        b = subsample_baseline(sign_rule_model, task, 5, 100, derive_substream(7, (0,)))
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_parameter_validation(self, task, sign_rule_model):
        rng = derive_substream(0, (0,))
        with pytest.raises(ValidationError, match="budget"):
            subsample_baseline(sign_rule_model, task, 0, 10, rng)
        with pytest.raises(ValidationError, match="reps"):
            subsample_baseline(sign_rule_model, task, 10, 0, rng)


class TestDeterminism:
    def test_every_estimator_reproduces_bit_exact(self, task):
        labeled = draw_labeled(task, unbiased_sampler(), 20, derive_substream(5, (0,)))
        pool = draw_unlabeled(task, 60, derive_substream(5, (1,)))
        m = fit_arrays(labeled.xs, labeled.ys, CFG)
        runs = {
            "generalization-error": lambda r: generalization_error_estimate(m, pool),
            "kfold": lambda r: kfold_cv(labeled, 3, CFG, r),
            "reweighted": lambda r: kfold_cv(labeled, 3, CFG, r, reweighted=True),
            "self-label": lambda r: self_label_cv(labeled, pool, 3, CFG, r),
            "probabilistic": lambda r: probabilistic_performance(labeled, pool, 0.2),
            "true-baseline": lambda r: true_baseline(m, task, 500, r),
            "subsample": lambda r: subsample_baseline(m, task, 10, 50, r),
        }
        for name, run in runs.items():
            a = run(derive_substream(9, (2,)))
            b = run(derive_substream(9, (2,)))
            assert a.summary() == b.summary(), name
