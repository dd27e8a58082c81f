import math

import numpy as np
import pytest
from scipy import integrate, stats

from alperf import synthdata
from alperf.errors import ValidationError
from alperf.harness import derive_substream
from alperf.synthdata import (
    DATA_MARGINAL,
    SYMMETRIC_MIXTURE,
    GaussianComponent,
    LabeledSet,
    SamplingDistribution,
    TaskModel,
    bayes_accuracy,
    bayes_posterior_batch,
    default_task,
    draw_labeled,
    draw_unlabeled,
    marginal_density,
    sampling_density_batch,
    unbiased_sampler,
)


def _phi(x):
    """Standard normal CDF via erf (independent closed form)."""
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def _post(task, x):
    return bayes_posterior_batch(task, np.array([x]))[0]


def _q(s, task, x):
    return sampling_density_batch(s, task, np.array([x]))[0]


def _npdf(x, mean, std):
    return math.exp(-0.5 * ((x - mean) / std) ** 2) / (std * math.sqrt(2 * math.pi))


class TestTaskModelValidation:
    def test_priors_must_sum_to_one(self):
        with pytest.raises(ValidationError, match="sum to 1"):
            TaskModel(
                class_priors=(0.6, 0.6),
                class_components=(
                    (GaussianComponent(1.0, 0.0, 1.0),),
                    (GaussianComponent(1.0, 1.0, 1.0),),
                ),
            )

    def test_priors_must_be_finite(self):
        for priors in ((math.nan, math.nan), (math.nan, 1.0), (math.inf, 0.0)):
            with pytest.raises(ValidationError, match="finite and nonnegative"):
                TaskModel(
                    class_priors=priors,
                    class_components=(
                        (GaussianComponent(1.0, 0.0, 1.0),),
                        (GaussianComponent(1.0, 1.0, 1.0),),
                    ),
                )
        with pytest.raises(ValidationError, match="component weight"):
            GaussianComponent(math.nan, 0.0, 1.0)

    def test_sampler_component_priors_must_be_finite(self):
        for priors in ((math.nan, math.nan), (math.nan, 1.0), (-0.5, 1.5)):
            with pytest.raises(ValidationError, match="finite nonnegative pair"):
                SamplingDistribution(
                    kind=SYMMETRIC_MIXTURE, d=1.0, component_priors=priors
                )

    def test_needs_two_classes(self):
        with pytest.raises(ValidationError, match="2 classes"):
            TaskModel(
                class_priors=(1.0,),
                class_components=((GaussianComponent(1.0, 0.0, 1.0),),),
            )

    def test_component_std_positive(self):
        with pytest.raises(ValidationError, match="std"):
            GaussianComponent(1.0, 0.0, 0.0)

    def test_component_weights_sum(self):
        with pytest.raises(ValidationError, match="weights of class 1"):
            TaskModel(
                class_priors=(0.5, 0.5),
                class_components=(
                    (GaussianComponent(0.5, 0.0, 1.0), GaussianComponent(0.4, 1.0, 1.0)),
                    (GaussianComponent(1.0, 1.0, 1.0),),
                ),
            )


class TestSampleValidation:
    def test_labeled_x_finite(self):
        with pytest.raises(ValidationError):
            LabeledSet([float("nan")], [1], [0.1])

    def test_labeled_class_index(self):
        with pytest.raises(ValidationError):
            LabeledSet([0.0], [0], [0.1])
        with pytest.raises(ValidationError):
            LabeledSet([0.0], [1.0], [0.1])

    def test_labeled_density_positive(self):
        with pytest.raises(ValidationError):
            LabeledSet([0.0], [1], [0.0])
        with pytest.raises(ValidationError):
            LabeledSet([0.0], [1], [float("inf")])

    def test_lengths_must_match(self):
        with pytest.raises(ValidationError, match="equal length"):
            LabeledSet([0.0, 1.0], [1], [0.1, 0.1])
        with pytest.raises(ValidationError, match="equal length"):
            LabeledSet([0.0], [1], [0.1, 0.1])

    def test_prefix_slice_is_a_labeled_set(self):
        labeled = LabeledSet([0.5, -1.0, 2.0], [2, 1, 2], [0.1, 0.2, 0.3])
        assert len(labeled) == 3
        prefix = labeled[:2]
        assert isinstance(prefix, LabeledSet) and len(prefix) == 2
        np.testing.assert_array_equal(prefix.xs, [0.5, -1.0])
        np.testing.assert_array_equal(prefix.ys, [2, 1])
        np.testing.assert_array_equal(prefix.qs, [0.1, 0.2])
        assert len(labeled[:0]) == 0
        with pytest.raises(ValueError, match="read-only"):
            labeled.xs[0] = 1.0


class TestBayesPosterior:
    def test_symmetry_at_zero(self, task):
        post = _post(task, 0.0)
        assert post[0] == 0.5 and post[1] == 0.5

    def test_closed_form_log_odds(self, task):
        # For unit-variance classes at -1.5/+1.5 the log odds are 3x.
        post = _post(task, 1.0)
        assert post[1] == pytest.approx(1.0 / (1.0 + math.exp(-3.0)), abs=1e-12)
        # independent oracle: direct density ratio
        ratio = _npdf(1.0, 1.5, 1.0) / (_npdf(1.0, 1.5, 1.0) + _npdf(1.0, -1.5, 1.0))
        assert post[1] == pytest.approx(ratio, abs=1e-12)

    def test_mirror_symmetry(self, task):
        assert _post(task, -1.0)[0] == pytest.approx(_post(task, 1.0)[1], abs=1e-15)

    def test_valid_distribution_everywhere(self, task):
        rng = np.random.default_rng(7)
        xs = np.concatenate([rng.uniform(-8, 8, 2000), [-50.0, 50.0, 200.0]])
        post = bayes_posterior_batch(task, xs)
        assert np.all(post >= 0.0)
        np.testing.assert_allclose(post.sum(axis=1), 1.0, atol=1e-12)

    def test_underflow_falls_back_to_priors(self, task):
        # all class-conditional densities are numerically zero out there
        np.testing.assert_array_equal(_post(task, 500.0), [0.5, 0.5])

    def test_equals_masked_computation(self):
        # The single-path division must equal dividing only the rows with
        # positive mass and writing the priors into the others, bit for bit.
        task = TaskModel(
            class_priors=(0.3, 0.7),
            class_components=(
                (GaussianComponent(1.0, -1.0, 0.5),),
                (GaussianComponent(0.6, 1.0, 0.8), GaussianComponent(0.4, 2.5, 0.3)),
            ),
        )
        rng = np.random.default_rng(3)
        for xs in (
            rng.uniform(-5.0, 5.0, 500),
            np.concatenate([rng.uniform(-5.0, 5.0, 200), [-500.0, 300.0, 1e4]]),
        ):
            joint = synthdata._joint_density(task, xs)
            total = joint.sum(axis=1)
            ok = total > 0.0
            expected = np.empty_like(joint)
            expected[ok] = joint[ok] / total[ok, None]
            expected[~ok] = task.class_priors
            np.testing.assert_array_equal(bayes_posterior_batch(task, xs), expected)

    def test_monotone_in_x(self, task):
        xs = np.linspace(-6.0, 6.0, 1001)
        p2 = bayes_posterior_batch(task, xs)[:, 1]
        assert np.all(np.diff(p2) > 0)
        assert _post(task, 0.0)[1] == 0.5


class TestSamplingDensity:
    def test_marginal_at_zero(self, task):
        expected = 0.5 * _npdf(0.0, -1.5, 1.0) + 0.5 * _npdf(0.0, 1.5, 1.0)
        assert _q(unbiased_sampler(), task, 0.0) == pytest.approx(
            expected, abs=1e-15
        )
        assert expected == pytest.approx(0.1295, abs=5e-5)

    def test_mixture_value(self, task):
        s = SamplingDistribution(kind=SYMMETRIC_MIXTURE, d=0.9, component_std=0.25)
        expected = 0.5 * stats.norm.pdf(0.9, 0.9, 0.25) + 0.5 * stats.norm.pdf(
            0.9, -0.9, 0.25
        )
        assert _q(s, task, 0.9) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.798, abs=1e-3)

    def test_mixture_symmetry(self, task):
        rng = np.random.default_rng(3)
        for d in (0.0, 0.3, 1.7, 2.5):
            s = SamplingDistribution(kind=SYMMETRIC_MIXTURE, d=d)
            xs = rng.uniform(-6, 6, 200)
            np.testing.assert_allclose(
                sampling_density_batch(s, task, xs),
                sampling_density_batch(s, task, -xs),
                rtol=1e-12,
            )

    @pytest.mark.parametrize(
        "s",
        [
            SamplingDistribution(kind=DATA_MARGINAL),
            SamplingDistribution(kind=SYMMETRIC_MIXTURE, d=0.9),
            SamplingDistribution(kind=SYMMETRIC_MIXTURE, d=2.5, component_std=0.25),
        ],
    )
    def test_density_integrates_to_one(self, task, s):
        total, _ = integrate.quad(
            lambda x: _q(s, task, x), -10.0, 10.0, limit=200
        )
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError, match="kind"):
            SamplingDistribution(kind="adaptive")

    def test_labels(self):
        assert unbiased_sampler().label() == "unbiased"
        assert SamplingDistribution(kind=SYMMETRIC_MIXTURE, d=0.3).label() == "biased-d0.3"


class TestDraws:
    def test_empty_draws(self, task):
        rng = derive_substream(0, (0,))
        assert len(draw_labeled(task, unbiased_sampler(), 0, rng)) == 0
        assert draw_unlabeled(task, 0, rng).shape == (0,)

    def test_reproducible_bit_exact(self, task):
        s = SamplingDistribution(kind=SYMMETRIC_MIXTURE, d=0.9)
        a = draw_labeled(task, s, 500, derive_substream(11, (1, 2)))
        b = draw_labeled(task, s, 500, derive_substream(11, (1, 2)))
        for field in ("xs", "ys", "qs"):
            np.testing.assert_array_equal(getattr(a, field), getattr(b, field))
        ua = draw_unlabeled(task, 500, derive_substream(11, (3,)))
        ub = draw_unlabeled(task, 500, derive_substream(11, (3,)))
        np.testing.assert_array_equal(ua, ub)

    def test_class_balance_unbiased(self, task):
        samples = draw_labeled(
            task, unbiased_sampler(), 100_000, derive_substream(5, (0,))
        )
        frac1 = np.mean(samples.ys == 1)
        assert abs(frac1 - 0.5) < 0.005

    def test_far_sampler_label_noise_negligible(self, task):
        # oracle disagreement probability pinned by quadrature
        s = SamplingDistribution(kind=SYMMETRIC_MIXTURE, d=2.5, component_std=0.25)
        p_exact, _ = integrate.quad(
            lambda x: _q(s, task, x) * float(_post(task, x).min()),
            -10.0,
            10.0,
            limit=200,
        )
        assert p_exact < 1e-3
        n = 10_000
        samples = draw_labeled(task, s, n, derive_substream(9, (0,)))
        frac = np.mean(samples.ys != np.where(samples.xs > 0, 2, 1))
        assert frac < 1e-3
        assert abs(frac - p_exact) < 4.0 * math.sqrt(p_exact / n)

    def test_densities_recorded(self, task):
        s = SamplingDistribution(kind=SYMMETRIC_MIXTURE, d=0.5)
        samples = draw_labeled(task, s, 50, derive_substream(2, (0,)))
        np.testing.assert_allclose(
            samples.qs, sampling_density_batch(s, task, samples.xs), rtol=1e-12, atol=0
        )

    def test_marginal_moments(self, task):
        xs = draw_unlabeled(task, 100_000, derive_substream(13, (0,)))
        assert abs(xs.mean()) < 0.02
        frac_mid = np.mean(np.abs(xs) < 0.5)
        expected = _phi(2.0) - _phi(1.0)  # marginal mass on (-0.5, 0.5)
        assert abs(frac_mid - expected) < 0.005

    def test_histogram_matches_analytic_pdf(self, task):
        xs = draw_unlabeled(task, 100_000, derive_substream(21, (0,)))
        edges = np.linspace(-6.0, 6.0, 101)
        emp, _ = np.histogram(xs, bins=edges)
        emp = emp / len(xs)
        # analytic bin masses via normal CDF differences
        mass = 0.5 * (
            np.diff([_phi(e + 1.5) for e in edges])
            + np.diff([_phi(e - 1.5) for e in edges])
        )
        tv = 0.5 * np.abs(emp - mass).sum() + 0.5 * (1.0 - mass.sum())
        assert tv < 0.02

    def test_oracle_labels_follow_posterior(self, task):
        # near the boundary labels must be noisy at the posterior rate
        s = SamplingDistribution(kind=SYMMETRIC_MIXTURE, d=0.25, component_std=0.01)
        samples = draw_labeled(task, s, 20_000, derive_substream(17, (0,)))
        frac2 = np.mean(samples.ys[samples.xs > 0] == 2)
        expected = _post(task, 0.25)[1]
        assert abs(frac2 - expected) < 0.02


class TestBayesAccuracy:
    def test_default_task_closed_form(self, task):
        assert bayes_accuracy(task) == pytest.approx(_phi(1.5), abs=1e-9)

    def test_indistinguishable_classes(self):
        model = TaskModel(
            class_priors=(0.5, 0.5),
            class_components=(
                (GaussianComponent(1.0, 0.0, 1.0),),
                (GaussianComponent(1.0, 0.0, 1.0),),
            ),
        )
        assert bayes_accuracy(model) == pytest.approx(0.5, abs=1e-9)

    def test_wider_separation(self):
        model = TaskModel(
            class_priors=(0.5, 0.5),
            class_components=(
                (GaussianComponent(1.0, -3.0, 1.0),),
                (GaussianComponent(1.0, 3.0, 1.0),),
            ),
        )
        assert bayes_accuracy(model) == pytest.approx(_phi(3.0), abs=1e-9)

    @pytest.mark.parametrize(
        "means, expected",
        [
            # Every joint density underflows on [-10, 10]; the rule is read
            # near the class means instead.
            ((-100.0, 100.0), 1.0),
            # The Bayes boundary at 11 lies right of [-10, 10].
            ((8.0, 14.0), _phi(3.0)),
        ],
        ids=["means-100", "means-8-14"],
    )
    def test_task_reaching_past_support(self, means, expected):
        model = TaskModel(
            class_priors=(0.5, 0.5),
            class_components=tuple((GaussianComponent(1.0, m, 1.0),) for m in means),
        )
        assert bayes_accuracy(model) == pytest.approx(expected, abs=1e-9)

    def test_marginal_density_consistency(self, task):
        xs = np.linspace(-4, 4, 9)
        direct = sampling_density_batch(unbiased_sampler(), task, xs)
        np.testing.assert_allclose(direct, marginal_density(task, xs), rtol=1e-14)
