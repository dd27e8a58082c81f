import json
import math
from functools import partial

import numpy as np
import pytest
from scipy import integrate, special, stats

from alperf import synthdata
from alperf.config import BUILTIN_SCENARIOS, resolve_config
from alperf.errors import ValidationError
from alperf.harness import derive_substream
from alperf.parzen import ClassifierConfig, fit_arrays, prefix_labels, prefix_posteriors
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
    unbiased_sampler,
)


def _phi(x):
    """Standard normal CDF via erf (independent closed form)."""
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def _post(task, x):
    return bayes_posterior_batch(task, np.array([x]))[0]


def _q(s, task, x):
    return s.mixture(task).density(np.array([x]))[0]


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

    @pytest.mark.parametrize("xs, qs, field", [
        (["a"], [1.0], "xs"),
        ([0.0], ["q"], "qs"),
    ], ids=["xs-string", "qs-string"])
    def test_fields_that_are_not_numbers_refused(self, xs, qs, field):
        with pytest.raises(ValidationError, match=f"^{field} must be an array of numbers"):
            LabeledSet(xs, [1], qs)

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
        s = SamplingDistribution(kind=SYMMETRIC_MIXTURE, d=0.9)
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
                s.mixture(task).density(xs),
                s.mixture(task).density(-xs),
                rtol=1e-12,
            )

    @pytest.mark.parametrize(
        "s",
        [
            SamplingDistribution(kind=DATA_MARGINAL),
            SamplingDistribution(kind=SYMMETRIC_MIXTURE, d=0.9),
            SamplingDistribution(kind=SYMMETRIC_MIXTURE, d=2.5),
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
        assert SamplingDistribution(kind=SYMMETRIC_MIXTURE, d=3).label() == "biased-d3"

    def test_distinct_samplers_never_share_a_label(self):
        # %g keeps 6 significant digits; a d it would round is written in full.
        ds = [0.0, 0.25, 0.3, 0.3 + 1e-7, 0.30000000000000004, 1.0, 1.0000001, 3.0,
              1e-7, 1.23456789e-7, 123456.7, 1234567.0, 1e300]
        samplers = [unbiased_sampler()] + [
            SamplingDistribution(kind=SYMMETRIC_MIXTURE, d=d) for d in ds
        ]
        assert len(set(samplers)) == len(samplers)
        assert len({s.label() for s in samplers}) == len(samplers)
        assert samplers[4].label() == f"biased-d{0.3 + 1e-7!r}"
        assert SamplingDistribution(kind=SYMMETRIC_MIXTURE, d=-0.0).label() == "biased-d0"


# Each pinned q: a sampler, or a hand-built mixture with unequal weights; and
# its (mean, std, weight) components on the default task, written out.
_PINNED = {
    "unbiased": (unbiased_sampler(), [(-1.5, 1.0, 0.5 * 1.0), (1.5, 1.0, 0.5 * 1.0)]),
    "biased-d0.3": (SamplingDistribution(kind=SYMMETRIC_MIXTURE, d=0.3),
                    [(-0.3, 0.25, 0.5), (0.3, 0.25, 0.5)]),
    "asymmetric": (None, [(-0.3, 0.25, 0.25), (0.3, 0.25, 0.75)]),
}


def _hand_built(components):
    means, stds, weights = map(np.array, zip(*components))
    return synthdata.Mixture(means, stds, weights, np.full(len(means), -1))


def _pinned_q(task, name):
    s, components = _PINNED[name]
    return _hand_built(components) if s is None else s.mixture(task)


def _explicit_q(name, xs):
    """q(x) as the left-to-right sum of weight * N(x; mean, std)."""
    total = np.zeros_like(xs)
    for mean, std, weight in _PINNED[name][1]:
        z = (xs - mean) / std
        total = total + weight * (np.exp(-0.5 * z * z) / (std * math.sqrt(2.0 * math.pi)))
    return total


class TestMixture:
    def test_task_mixture_lists_components_class_by_class(self):
        task = TaskModel(
            class_priors=(0.3, 0.7),
            class_components=(
                (GaussianComponent(1.0, -1.0, 0.5),),
                (GaussianComponent(0.6, 1.0, 0.8), GaussianComponent(0.4, 2.5, 0.3)),
            ),
        )
        m = task.mixture
        assert m.means.tolist() == [-1.0, 1.0, 2.5]
        assert m.stds.tolist() == [0.5, 0.8, 0.3]
        assert m.weights.tolist() == [0.3 * 1.0, 0.7 * 0.6, 0.7 * 0.4]
        assert m.classes.tolist() == [0, 1, 1]
        assert task.mixture is m
        # Summed per class it is prior(y) p(x|y).
        xs = np.linspace(-3.0, 4.0, 15)
        joint = synthdata._joint_density(task, xs)
        np.testing.assert_allclose(
            joint[:, 1],
            [0.7 * (0.6 * _npdf(x, 1.0, 0.8) + 0.4 * _npdf(x, 2.5, 0.3)) for x in xs],
            rtol=1e-14,
        )

    def test_symmetric_sampler_mixture(self, task):
        s = SamplingDistribution(kind=SYMMETRIC_MIXTURE, d=0.7)
        m = s.mixture(task)
        assert (m.means.tolist(), m.stds.tolist(), m.weights.tolist()) == (
            [-0.7, 0.7], [0.25, 0.25], [0.5, 0.5]
        )
        assert unbiased_sampler().mixture(task) is task.mixture

    def test_component_drawn_zero_times_consumes_no_draws(self):
        m = _hand_built([(-0.5, 0.25, 0.0), (0.5, 0.25, 1.0)])
        rng = derive_substream(6, (2,))
        rng.choice(2, size=40, p=[0.0, 1.0])
        expected = rng.normal(0.5, 0.25, size=40)
        assert np.array_equal(m.draw(40, derive_substream(6, (2,))), expected)

    def test_negative_count_rejected(self, task):
        with pytest.raises(ValidationError, match="sample count must be >= 0"):
            task.mixture.draw(-1, np.random.default_rng(0))

    @pytest.mark.parametrize("name", _PINNED)
    def test_density_equals_explicit_formula(self, task, name):
        xs = np.linspace(-6.0, 6.0, 241)
        assert np.array_equal(_pinned_q(task, name).density(xs), _explicit_q(name, xs))

    @pytest.mark.parametrize("name", _PINNED)
    def test_draws_equal_explicit_formula(self, task, name):
        # Components are drawn first, then each component's normals in order.
        n, (s, comps) = 300, _PINNED[name]
        rng = derive_substream(4, (0, 1))
        idx = rng.choice(len(comps), size=n, p=[w for _, _, w in comps])
        xs = np.empty(n)
        for k, (mean, std, _) in enumerate(comps):
            xs[idx == k] = rng.normal(mean, std, size=int((idx == k).sum()))
        q = _pinned_q(task, name)
        assert np.array_equal(q.draw(n, derive_substream(4, (0, 1))), xs)
        if s is not None:
            labeled = draw_labeled(task, s, n, derive_substream(4, (0, 1)))
            assert np.array_equal(labeled.xs, xs)
            assert np.array_equal(labeled.qs, _explicit_q(name, xs))


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
        s = SamplingDistribution(kind=SYMMETRIC_MIXTURE, d=2.5)
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
            samples.qs, s.mixture(task).density(samples.xs), rtol=1e-12, atol=0
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
        ys = synthdata.oracle_labels(task, np.full(10_000, 0.25), derive_substream(17, (0,)))
        frac2 = np.mean(ys == 2)
        expected = _post(task, 0.25)[1]
        assert abs(frac2 - expected) < 0.02


class TestNormalCdf:
    def test_matches_scipy_ndtr(self):
        edge = [math.inf, -math.inf, 0.0, -0.0, 1e-300, -1e-300, 1.0, -1.0]
        edge += [math.nextafter(s, 0.0) for s in (1.0, -1.0)]
        edge += [math.nextafter(s, 2.0 * s) for s in (1.0, -1.0)]
        zs = np.concatenate(
            [
                edge,
                np.linspace(-40.0, 40.0, 80_001),
                np.random.default_rng(20).normal(0.0, 10.0, 10**5),
            ]
        )
        ours, ndtr = np.array([synthdata._normal_cdf(z) for z in zs.tolist()]), special.ndtr(zs)
        assert np.abs(ours - ndtr).max() <= 2.0**-52
        # The lower tail comes from erfc, so it keeps its relative precision
        # down to the smallest normal float (Phi(-37.5) ~ 4.6e-308).
        tail = (zs > -37.5) & (zs < -1.0)
        assert np.abs(ours[tail] / ndtr[tail] - 1.0).max() <= 1e-13
        assert ours[:6].tolist() == [1.0, 0.0, 0.5, 0.5, 0.5, 0.5]


def _threshold_rules(thresholds):
    """Two-class scores of R rules: rule r predicts class 0 (ties included)
    below thresholds[r] and class 1 above it; a None threshold predicts class
    0 everywhere. Shape (R, len(xs), 2)."""
    def scores(xs):
        rows = []
        for t in thresholds:
            if t is None:
                rows.append(np.column_stack([np.ones_like(xs), np.zeros_like(xs)]))
            else:
                rows.append(np.column_stack([t - xs, xs - t]))
        return np.stack(rows)

    return scores


class TestRegionAccuracy:
    # Spacing 1 up to 0, 1e-3 on (0, 1], 1 beyond: a bracket on the coarse
    # part takes 6 rounds of 32 sections to fall below 1e-9, one on the fine
    # part 4.
    GRID = np.concatenate([np.linspace(-10.0, 0.0, 11), np.linspace(0.001, 1.0, 1000),
                           np.linspace(2.0, 10.0, 9)])

    def _accuracy(self, task, thresholds):
        """region_accuracy of the threshold rules, and the number of points
        of each scores call it made."""
        calls = []
        rules = _threshold_rules(thresholds)

        def scores(xs):
            calls.append(len(xs))
            return rules(xs)

        labels = np.argmax(rules(self.GRID), axis=-1)
        return synthdata.region_accuracy(task, scores, self.GRID, labels), calls

    def test_rules_refined_together_equal_one_rule_calls(self, task):
        thresholds = (-2.5, 0.3004, None, 0.3004, -7.25)
        together, calls = self._accuracy(task, thresholds)
        # Every round reads every rule still refining, in one call.
        assert calls == [4 * 32] * 4 + [2 * 32] * 2
        for t, accuracy in zip(thresholds, together.tolist()):
            alone, alone_calls = self._accuracy(task, (t,))
            assert accuracy == alone[0], t
            # Each rule keeps its own number of rounds: a bracket starting 1
            # wide takes 6, one starting 1e-3 wide 4, a rule with no class
            # change none.
            assert alone_calls == [32] * {-2.5: 6, 0.3004: 4, None: 0, -7.25: 6}[t]
            expected = 0.5 if t is None else 0.5 * _phi(t + 1.5) + 0.5 * (1.0 - _phi(t - 1.5))
            assert accuracy == pytest.approx(expected, abs=1e-9)

    def test_prefix_model_rules_equal_one_rule_calls(self):
        # Three classes, where every budget's rule changes class several times.
        task = TaskModel(
            class_priors=(0.3, 0.3, 0.4),
            class_components=tuple(
                (GaussianComponent(1.0, mean, 1.0),) for mean in (-2.0, 0.0, 2.0)
            ),
        )
        config = ClassifierConfig(bandwidth=0.3, prior_weight=0.01, class_count=3)
        rng = np.random.default_rng(4)
        model = fit_arrays(rng.normal(0, 2, 40), rng.integers(1, 4, 40), config)
        grid = synthdata.decision_grid(task, 0.015)
        budgets = (3, 12, 25, 40)

        def accuracy(bs):
            scores = partial(prefix_posteriors, model=model, budgets=bs)
            return synthdata.region_accuracy(task, scores, grid, prefix_labels(grid, model, bs))

        together = accuracy(budgets)
        for budget, value in zip(budgets, together.tolist()):
            assert value == accuracy((budget,))[0], budget


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

    # At -1.512 no point of the span's grid (step 0.05) falls inside the
    # narrow class-1 region, so only the narrow component's own grid finds it.
    @pytest.mark.parametrize("m1", [-1.5, -1.512])
    def test_narrow_component_matches_closed_form(self, m1):
        # N(m1, 1e-4) against N(1.5, 1) at equal priors: one grid step of
        # the narrow std over [-10, 10] would take 4,000,001 points. Class 1
        # wins where the log-density difference, a quadratic a x^2 + b x + c
        # that opens downward, is positive: between its two roots.
        (s1, m2, s2) = (1e-4, 1.5, 1.0)
        model = TaskModel(
            class_priors=(0.5, 0.5),
            class_components=(
                (GaussianComponent(1.0, m1, s1),), (GaussianComponent(1.0, m2, s2),),
            ),
        )
        a = 0.5 / s2**2 - 0.5 / s1**2
        b = m1 / s1**2 - m2 / s2**2
        c = 0.5 * m2**2 / s2**2 - 0.5 * m1**2 / s1**2 + math.log(s2 / s1)
        # The stable pair of quadratic roots.
        q = -0.5 * (b + math.copysign(math.sqrt(b * b - 4.0 * a * c), b))
        r1, r2 = sorted((q / a, c / q))
        assert r1 < m1 < r2 < m1 + 8 * s1
        expected = 0.5 * (_phi((r2 - m1) / s1) - _phi((r1 - m1) / s1)) + 0.5 * (
            1.0 - _phi((r2 - m2) / s2) + _phi((r1 - m2) / s2)
        )
        assert bayes_accuracy(model) == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("means", [(-1.5, 1.5), (0.0, 3e-4)], ids=["apart", "overlapping"])
    def test_all_narrow_components_match_closed_form(self, means):
        # Both classes N(m, 1e-4): at the widest std / 20 the span [-10, 10]
        # would take 4,000,001 points. It is read at a coarser step, and
        # each component on its own grid. At equal priors and equal stds
        # the boundary is the midpoint, and the accuracy Phi(gap / 2 std).
        std = 1e-4
        model = TaskModel(
            class_priors=(0.5, 0.5),
            class_components=tuple((GaussianComponent(1.0, m, std),) for m in means),
        )
        expected = _phi((means[1] - means[0]) / (2.0 * std))
        assert bayes_accuracy(model) == pytest.approx(expected, abs=1e-12)

    def test_builtin_tasks_unchanged_bit_for_bit(self):
        # Every built-in task's components share one std, so the union grid
        # is the one grid the rule was read on at the narrowest std / 20.
        tasks = {
            name: resolve_config(json.dumps(builtin.config)).spec.task
            for name, builtin in BUILTIN_SCENARIOS.items()
        }
        assert set(tasks) == {"fig2", "fig3", "fig5", "fig6"}
        for name, model in tasks.items():
            narrowest = min(c.std for comps in model.class_components for c in comps)
            on_one_grid = synthdata.decision_accuracy(
                model, lambda xs: synthdata._joint_density(model, xs), narrowest / 20.0
            )
            assert bayes_accuracy(model) == on_one_grid, name

    def test_decision_grid_size(self, task):
        assert synthdata.decision_grid_size(task, 0.01) == (-10.0, 10.0, 2001)
        assert synthdata.decision_grid_size(task, 2.5e-5) == (-10.0, 10.0, 800_001)

    def test_oversized_grid_raises_before_reading_the_rule(self, task):
        def scores(xs):
            raise AssertionError("the rule was read")

        with pytest.raises(ValidationError, match="1,000,001 grid points"):
            synthdata.decision_accuracy(task, scores, 2e-5)

    def test_marginal_density_consistency(self, task):
        # The unbiased sampler's q is the data marginal, sum_y prior(y) p(x|y).
        xs = np.linspace(-4, 4, 9)
        direct = unbiased_sampler().mixture(task).density(xs)
        explicit = [
            sum(
                prior * comp.weight * _npdf(x, comp.mean, comp.std)
                for prior, comps in zip(task.class_priors, task.class_components)
                for comp in comps
            )
            for x in xs
        ]
        np.testing.assert_allclose(direct, explicit, rtol=1e-14)
