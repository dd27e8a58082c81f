import json
import math
import warnings

import numpy as np
import pytest

from alperf import parzen
from alperf.config import BUILTIN_SCENARIOS, resolve_config
from alperf.errors import ValidationError
from alperf.harness import acquisition_sequence, derive_substream
from alperf.parzen import (
    ClassifierConfig,
    KernelBlock,
    class_kernel_mass,
    fit_arrays,
    kernel_block,
    kernel_weights,
    class_argmax,
    class_max,
    class_sum,
    posterior_batch,
    predict_batch,
    prefix_labels,
    prefix_posteriors,
)
from alperf.estimators import true_baseline
from alperf.synthdata import draw_labeled, draw_unlabeled, unbiased_sampler


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

    def test_signed_zero_and_clamp_bit_for_bit(self):
        # Queries at +-0.0 and on the training points (a zero distance), and
        # distances far enough to reach the clamp.
        rng = np.random.default_rng(3)
        train = np.concatenate([[0.0, -0.0, 1.5], rng.normal(0, 3, 47)])
        query = np.concatenate([[0.0, -0.0], train, rng.normal(0, 30, 5000)])
        for h in (1e-3, 0.05, 0.2, 3.0):
            d = query[:, None] - train[None, :]
            expected = np.exp(np.maximum(-(d * d) / (2 * h * h), -700.0))
            got = kernel_weights(query, train, h)
            assert got.tobytes() == expected.tobytes()
            assert got.min() == np.exp(-700.0)


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

    @pytest.mark.parametrize("xs, ys, message", [
        ([math.nan, 1.0], [1, 2], "index 0 is nan, not finite"),
        ([0.0, -math.inf], [1, 2], "index 1 is -inf, not finite"),
        ([[0.0], [1.0]], [1, 2], r"1-D, got shape \(2, 1\)"),
        ([[0.0, 1.0]], [[1, 2]], r"1-D, got shape \(1, 2\)"),
        (0.5, 1, r"1-D, got shape \(\)"),
    ], ids=["nan", "inf", "column", "row", "scalar"])
    def test_non_finite_or_not_1d_features_rejected(self, xs, ys, message):
        with pytest.raises(ValidationError, match=message):
            fit_arrays(np.array(xs), np.array(ys))

    @pytest.mark.parametrize("ys, dtype", [
        ([1.5, 2.9], "float64"), ([1.0, 2.0], "float64"), ([True, False], "bool"),
    ], ids=["fractional", "integral-float", "bool"])
    def test_non_integer_labels_rejected(self, ys, dtype):
        with pytest.raises(ValidationError, match=f"labels must be integers, got dtype {dtype}"):
            fit_arrays(np.array([0.0, 1.0]), np.array(ys))

    def test_empty_float_labels_fit(self):
        m = fit_arrays([], [])
        assert m.train_y.dtype == np.int64 and len(m.train_y) == 0

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

    def test_no_training_samples_give_exact_zero_masses(self):
        # an (n, 0) kernel matrix times a (0, C) one-hot matrix, chunk by chunk
        m = fit_arrays(*_EMPTY, ClassifierConfig(class_count=3))
        for n in (0, 5, parzen._CHUNK + 3):
            xs = np.linspace(-4.0, 4.0, n)
            assert np.array_equal(_masses(m, xs), np.zeros((n, 3)))


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
        xs, ys = evaluation
        assert (predict_batch(two_point_model, xs) == ys).mean() == 1.0


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


def _fig6_sequences():
    """(xs, ys, pool, config) of fig6 units: 3 samplers x repetitions 0-2,
    each with its own pool draw."""
    spec = resolve_config(json.dumps(BUILTIN_SCENARIOS["fig6"].config)).spec
    for s_idx in range(3):
        for rep in range(3):
            sequence = acquisition_sequence(spec, s_idx, rep)
            pool = draw_unlabeled(
                spec.task, spec.pool_size, derive_substream(spec.master_seed, (1, s_idx, rep))
            )
            yield sequence.xs, sequence.ys, pool, spec.classifier


def _random_sequences():
    """Random sequences over 3 classes, with prior_weight 0.01 and 0."""
    rng = np.random.default_rng(31)
    for prior_weight in (0.01, 0.0):
        config = ClassifierConfig(bandwidth=0.3, prior_weight=prior_weight, class_count=3)
        yield rng.normal(0, 2, 40), rng.integers(1, 4, 40), rng.uniform(-9, 9, 300), config


def _with_warnings(fn):
    """fn() and the messages of the warnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn()
    return out, [str(w.message) for w in caught]


class TestKernelBlock:
    @pytest.mark.parametrize("source", [_fig6_sequences, _random_sequences])
    def test_every_prefix_equals_the_refit_model_bit_for_bit(self, source):
        for xs, ys, pool, config in source():
            block = kernel_block(pool, fit_arrays(xs, ys, config))
            # Budget 0 has no kernel mass at all: with prior_weight 0 every
            # row is degenerate, and both paths must warn and go uniform.
            for budget in range(len(xs) + 1):
                refit = fit_arrays(xs[:budget], ys[:budget], config)
                prefix = block.prefix(budget)
                # The prefix model is the refit, read from views of the block's.
                assert np.array_equal(prefix.model.train_x, refit.train_x)
                assert np.array_equal(prefix.model.train_y, refit.train_y)
                assert prefix.model.config == refit.config
                expected, warned = _with_warnings(lambda: posterior_batch(refit, pool))
                for read in (lambda: posterior_batch(prefix.model, pool), lambda: prefix.posterior):
                    got, warned_prefix = _with_warnings(read)
                    assert np.array_equal(got, expected)
                    assert warned_prefix == warned
                labels, _ = _with_warnings(lambda: predict_batch(refit, pool))
                assert np.array_equal(np.argmax(prefix.posterior, axis=1) + 1, labels)
                assert np.array_equal(
                    prefix.weights, kernel_weights(pool, xs[:budget], config.bandwidth)
                )
                assert len(prefix) == len(pool)

    def test_degenerate_rows_are_uniform_and_flagged(self):
        config = ClassifierConfig(bandwidth=0.2, prior_weight=0.0)
        model = fit_arrays(np.array([0.0]), np.array([2]), config)
        block = kernel_block(np.array([-1.0, 3.0]), model)
        with pytest.warns(UserWarning, match="degenerate posterior at 2 query"):
            post = block.prefix(0).posterior
        np.testing.assert_array_equal(post, 0.5)

    def test_prefix_labels_read_in_chunks_match_posterior_batch(self, monkeypatch):
        monkeypatch.setattr(parzen, "_CHUNK", 7)
        rng = np.random.default_rng(8)
        config = ClassifierConfig(bandwidth=0.25, prior_weight=0.01, class_count=3)
        xs, ys, points = rng.normal(0, 2, 30), rng.integers(1, 4, 30), np.linspace(-6, 6, 101)
        budgets = (1, 5, 17, 30)
        labels = prefix_labels(points, fit_arrays(xs, ys, config), budgets)
        assert labels.shape == (len(budgets), len(points))
        for row, budget in zip(labels, budgets):
            refit = fit_arrays(xs[:budget], ys[:budget], config)
            assert np.array_equal(row, np.argmax(posterior_batch(refit, points), axis=1))

    def test_prefix_budget_outside_0_to_n_rejected(self):
        model = fit_arrays(np.array([-1.0, 0.5, 2.0]), np.array([1, 2, 2]))
        block = kernel_block(np.array([0.0, 1.0]), model)
        for budget in (-1, 4):
            with pytest.raises(ValidationError, match=r"prefix budget must be in 0\.\.3, got "):
                block.prefix(budget)
        assert block.prefix(0).weights.shape == (2, 0) and len(block.prefix(0).model.train_x) == 0
        assert np.array_equal(block.prefix(3).weights, block.weights)

    def test_block_that_disagrees_with_its_model_rejected(self):
        points = np.array([0.0, 1.0])
        block = kernel_block(points, fit_arrays(np.array([-1.0, 0.5, 2.0]), np.array([1, 2, 2])))
        two = block.prefix(2)
        for weights, onehot, model in (
            (block.weights, two.onehot, two.model),  # weights of 3 samples
            (two.weights, block.onehot, two.model),  # one-hot rows of 3 samples
            (two.weights, two.onehot, block.model),  # a model of 3 samples
            (two.weights[:1], two.onehot, two.model),  # weights of 1 point
            (two.weights, two.onehot[:, :1], two.model),  # one-hot of 1 class
        ):
            with pytest.raises(ValidationError, match="do not fit 2 points and a"):
                KernelBlock(points, weights, onehot, model)


def _bits(a):
    return a.dtype, a.shape, a.tobytes()


class TestClassAxis:
    @staticmethod
    def _arrays(classes):
        """2-D and 3-D arrays over ``classes`` columns: magnitudes over six
        decades, and small integers, whose rows hold many ties."""
        rng = np.random.default_rng(classes)
        for shape in ((1050, classes), (3, 41, classes)):
            yield rng.random(shape) * 10.0 ** rng.uniform(-3, 3, shape)
            yield rng.integers(0, 3, shape).astype(np.float64)

    @pytest.mark.parametrize("classes", range(2, 8))
    def test_equal_numpy_bit_for_bit_below_8_classes(self, classes):
        for a in self._arrays(classes):
            assert _bits(class_argmax(a)) == _bits(np.argmax(a, axis=-1))
            assert _bits(class_max(a)) == _bits(a.max(axis=-1))
            assert _bits(class_sum(a)) == _bits(a.sum(axis=-1))

    def test_ties_go_to_the_first_class(self):
        a = np.array([[1.0, 1.0, 0.0], [0.0, 2.0, 2.0], [3.0, 3.0, 3.0], [0.0, 1.0, 1.0]])
        assert class_argmax(a).tolist() == [0, 1, 0, 1]

    @pytest.mark.parametrize("classes", range(8, 11))
    def test_from_8_classes_only_the_sum_may_differ_from_numpy(self, classes):
        # numpy sums a row of 8 or more pairwise; the column sum goes from
        # class 0 up, so the two may differ in the last bit.
        for a in self._arrays(classes):
            assert _bits(class_argmax(a)) == _bits(np.argmax(a, axis=-1))
            assert _bits(class_max(a)) == _bits(a.max(axis=-1))
            reference = a.sum(axis=-1)
            assert np.all(np.abs(class_sum(a) - reference) <= classes * 2.0**-52 * reference)


class TestPrefixPosteriors:
    @pytest.mark.parametrize("source", [_fig6_sequences, _random_sequences])
    def test_every_budget_equals_its_prefix_block_bit_for_bit(self, source):
        for xs, ys, pool, config in source():
            model = fit_arrays(xs, ys, config)
            budgets = (1, 7, len(xs) // 2, len(xs))
            post = prefix_posteriors(pool, model, budgets)
            assert post.shape == (len(budgets), len(pool), config.class_count)
            block = kernel_block(pool, model)
            for row, budget in zip(post, budgets):
                assert _bits(row) == _bits(block.prefix(budget).posterior)

    def test_degenerate_rows_are_counted_once_per_budget(self):
        # With prior_weight 0 a budget-0 model has no kernel mass anywhere:
        # one warning counts every (budget, point) row of the read.
        config = ClassifierConfig(bandwidth=0.2, prior_weight=0.0)
        model = fit_arrays(np.array([0.0, 1.0]), np.array([1, 2]), config)
        points = np.array([-50.0, 0.2, 3.0])
        post, warned = _with_warnings(lambda: prefix_posteriors(points, model, (0, 2, 0)))
        assert warned == [
            "degenerate posterior at 6 query point(s): zero kernel mass with "
            "prior_weight=0; returning uniform"
        ]
        assert np.all(post[[0, 2]] == 0.5)
        assert np.array_equal(post[1], posterior_batch(model, points))
        labels, warned = _with_warnings(lambda: prefix_labels(points, model, (2, 0)))
        assert warned == [warned[0]] and "at 3 query point(s)" in warned[0]
        assert labels[1].tolist() == [0, 0, 0]

    def test_budget_outside_0_to_n_rejected(self):
        model = fit_arrays(np.array([-1.0, 0.5, 2.0]), np.array([1, 2, 2]))
        for budget in (-1, 4):
            with pytest.raises(ValidationError, match=r"prefix budget must be in 0\.\.3, got "):
                prefix_posteriors(np.array([0.0]), model, (1, budget))
