import math

import numpy as np
import pytest

from alperf.errors import ValidationError
from alperf.harness import derive_substream
from alperf.parzen import (
    ClassifierConfig,
    accuracy_arrays,
    class_kernel_mass,
    fit_arrays,
    kernel_weights,
    posterior_batch,
    predict_batch,
)
from alperf.estimators import true_baseline
from alperf.synthdata import draw_labeled, unbiased_sampler


def _arrays(pairs):
    """(x, label) pairs as the feature and label arrays of an evaluation set."""
    xs = np.array([x for x, _ in pairs], dtype=np.float64)
    ys = np.array([y for _, y in pairs], dtype=np.int64)
    return xs, ys


def _post(m, x):
    return posterior_batch(m, np.array([x]))[0]


def _pred(m, x):
    return int(predict_batch(m, np.array([x]))[0])


_EMPTY = (np.array([]), np.array([], dtype=np.int64))


def _masses(m, xs):
    return class_kernel_mass(
        xs, m.train_x, m.train_y, m.config.bandwidth, m.config.class_count
    )


class TestKernelWeights:
    def test_matches_direct_formula_bitwise(self):
        rng = np.random.default_rng(2)
        for nq, nt in ((1000, 50), (7, 1), (0, 3), (4, 0)):
            query, train = rng.normal(0, 3, nq), rng.normal(0, 3, nt)
            query_copy, train_copy = query.copy(), train.copy()
            for h in (0.2, 0.01):
                d = query[:, None] - train[None, :]
                expected = np.exp(np.maximum(-(d * d) / (2 * h * h), -700.0))
                got = kernel_weights(query, train, h)
                assert got.shape == (nq, nt)
                assert np.array_equal(got, expected)
            np.testing.assert_array_equal(query, query_copy)
            np.testing.assert_array_equal(train, train_copy)


class TestFit:
    def test_caller_arrays_stay_writeable(self):
        xs, ys = _arrays([(-1.0, 1), (1.0, 2)])
        m = fit_arrays(xs, ys)
        before = posterior_batch(m, np.array([-0.5, 0.5]))
        assert xs.flags.writeable and ys.flags.writeable
        xs[0] = 5.0
        ys[1] = 1
        np.testing.assert_array_equal(posterior_batch(m, np.array([-0.5, 0.5])), before)
        assert not m.train_x.flags.writeable and not m.train_y.flags.writeable

    def test_empty_training_uniform_posterior(self):
        m = fit_arrays(*_EMPTY, ClassifierConfig(bandwidth=0.2, prior_weight=0.01, class_count=2))
        for x in (-3.0, 0.0, 5.0):
            np.testing.assert_array_equal(_post(m, x), [0.5, 0.5])

    def test_label_out_of_range_names_index(self):
        with pytest.raises(ValidationError, match="index 1 is 3"):
            fit_arrays(*_arrays([(-1.0, 1), (0.0, 3)]), ClassifierConfig(class_count=2))

    def test_bandwidth_positive(self):
        with pytest.raises(ValidationError, match="bandwidth"):
            fit_arrays(*_arrays([(-1.0, 1)]), ClassifierConfig(bandwidth=0.0))

    def test_length_mismatch(self):
        with pytest.raises(ValidationError, match="length"):
            fit_arrays(np.array([0.0, 1.0]), np.array([1]))

    def test_config_validation(self):
        with pytest.raises(ValidationError, match="class_count"):
            ClassifierConfig(class_count=1)
        with pytest.raises(ValidationError, match="prior_weight"):
            ClassifierConfig(prior_weight=-0.1)


class TestPosterior:
    def test_symmetric_evidence(self, two_point_model):
        p = _post(two_point_model, 0.0)
        assert p[0] == p[1] == 0.5

    def test_on_training_point(self, two_point_model):
        # kernel mass 1 at the point itself, e^{-50} from the far point
        p = _post(two_point_model, 1.0)
        expected = (1.0 + 0.01) / (1.0 + math.exp(-50.0) + 0.02)
        assert p[1] == pytest.approx(expected, abs=1e-12)
        assert p[1] == pytest.approx(0.9902, abs=1e-4)

    def test_unlabeled_region_is_uniform(self, two_point_model):
        np.testing.assert_allclose(_post(two_point_model, 100.0), 0.5, atol=1e-9)

    def test_normalization_on_random_queries(self):
        rng = np.random.default_rng(0)
        training = _arrays(
            [(float(x), int(y)) for x, y in zip(rng.normal(0, 2, 40), rng.integers(1, 4, 40))]
        )
        m = fit_arrays(*training, ClassifierConfig(bandwidth=0.3, prior_weight=0.01, class_count=3))
        xs = np.concatenate([rng.uniform(-30, 30, 10_000), [1e6, -1e6]])
        post = posterior_batch(m, xs)
        assert np.all(post >= 0.0)
        np.testing.assert_allclose(post.sum(axis=1), 1.0, atol=1e-12)

    def test_translation_consistency(self):
        rng = np.random.default_rng(1)
        xs = rng.normal(0, 1, 25)
        ys = rng.integers(1, 3, 25)
        queries = rng.uniform(-4, 4, 100)
        for shift in (0.37, -12.5, 1e3):
            m0 = fit_arrays(xs, ys)
            m1 = fit_arrays(xs + shift, ys)
            np.testing.assert_allclose(
                posterior_batch(m0, queries),
                posterior_batch(m1, queries + shift),
                atol=1e-12,
            )

    def test_ratio_form_scale_invariance(self, two_point_model):
        # scaling every kernel mass and epsilon jointly keeps the ratio
        xs = np.array([-0.7, 0.2, 3.0])
        masses = _masses(two_point_model, xs)
        post = posterior_batch(two_point_model, xs)
        for p, per_class in zip(post, masses):
            for lam in (0.5, 3.0, 100.0):
                scaled = (lam * per_class + lam * 0.01) / (
                    lam * per_class.sum() + 2 * lam * 0.01
                )
                np.testing.assert_allclose(p, scaled, atol=1e-12)

    def test_tail_convergence_to_uniform(self, two_point_model):
        gaps = [abs(_post(two_point_model, x)[1] - 0.5) for x in (5.0, 10.0, 20.0)]
        assert gaps[0] >= gaps[1] >= gaps[2]
        assert gaps[2] < 1e-9

    def test_zero_mass_without_prior_is_degenerate(self):
        # exponent clamping keeps kernel mass positive for any finite
        # distance, so zero total mass means an empty training set
        m = fit_arrays(*_EMPTY, ClassifierConfig(bandwidth=0.05, prior_weight=0.0))
        with pytest.warns(UserWarning, match="degenerate"):
            p = _post(m, 50.0)
        np.testing.assert_array_equal(p, [0.5, 0.5])

    def test_positive_mass_path_matches_masked_path(self):
        rng = np.random.default_rng(4)
        for prior_weight in (0.01, 0.0):
            m = fit_arrays(
                rng.normal(0, 1, 30), rng.integers(1, 4, 30),
                ClassifierConfig(bandwidth=0.3, prior_weight=prior_weight, class_count=3),
            )
            xs = rng.uniform(-5, 5, 2000)
            masses = _masses(m, xs)
            total = masses.sum(axis=1) + 3 * prior_weight
            ok = total > 0.0
            assert ok.all()
            masked = np.empty_like(masses)
            masked[ok] = (masses[ok] + prior_weight) / total[ok, None]
            np.testing.assert_array_equal(posterior_batch(m, xs), masked)

    def test_kernel_stats_consistency(self, two_point_model):
        # per-class masses are nonnegative and add up to the direct kernel sum
        (per_class,) = _masses(two_point_model, np.array([0.3]))
        assert np.all(per_class >= 0.0)
        total = sum(math.exp(-((0.3 - x) ** 2) / (2 * 0.2**2)) for x in (-1.0, 1.0))
        assert total == pytest.approx(per_class.sum(), abs=1e-12)


class TestPredict:
    def test_nearest_evidence_wins(self, two_point_model):
        assert _pred(two_point_model, 0.5) == 2
        assert _pred(two_point_model, -0.5) == 1

    def test_tie_breaks_to_smallest_class(self, two_point_model):
        assert _pred(two_point_model, 0.0) == 1

    def test_empty_training_predicts_class_one(self):
        m = fit_arrays(*_EMPTY, ClassifierConfig(prior_weight=0.01))
        assert _pred(m, -7.0) == _pred(m, 7.0) == 1

    def test_argmax_invariant_under_monotone_transforms(self, two_point_model):
        xs = np.linspace(-3, 3, 41)
        post = posterior_batch(two_point_model, xs)
        base = np.argmax(post, axis=1)
        for transform in (np.exp, lambda p: 2.0 * p + 1.0, lambda p: p**3):
            np.testing.assert_array_equal(np.argmax(transform(post), axis=1), base)


class TestAccuracy:
    def test_always_right(self, two_point_model):
        evaluation = _arrays([(-1.2, 1), (-0.3, 1), (0.4, 2), (2.0, 2)])
        assert accuracy_arrays(two_point_model, *evaluation) == 1.0

    def test_empty_evaluation_rejected(self, two_point_model):
        with pytest.raises(ValidationError, match="no evaluation instances"):
            accuracy_arrays(two_point_model, *_EMPTY)


class TestTrainedModelQuality:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_hundred_label_model_accuracy_interval(self, task, seed):
        # interval calibrated with a 50-seed reference run against
        # 200k-sample oracle baselines: observed range [0.899, 0.934]
        training = draw_labeled(
            task, unbiased_sampler(), 100, derive_substream(seed, (0,))
        )
        m = fit_arrays(
            training.xs, training.ys,
            ClassifierConfig(bandwidth=0.2, prior_weight=0.01, class_count=2),
        )
        tb = true_baseline(m, task)
        assert 0.88 <= tb <= 0.945
