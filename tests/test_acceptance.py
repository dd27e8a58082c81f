"""Acceptance suite: one test per exit criterion, at its stated tolerance.

Each test prints a `[acceptance] criterion N (<name>): PASS/FAIL` line
(run pytest with -s to see them while passing). Heavy scenario runs are
shared through session fixtures; stated runtime limits are asserted.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy import stats

from alperf.cli import cli_main
from alperf.config import BUILTIN_SCENARIOS, resolve_config
from alperf.estimators import (
    PerformanceEstimate,
    generalization_error_estimate,
    kfold_cv,
    subsample_baseline,
    true_baseline,
)
from alperf.harness import derive_substream, run_experiment, summarize
from alperf.parzen import (
    ClassifierConfig,
    accuracy_arrays,
    fit_arrays,
    posterior_batch,
    predict_batch,
)
from alperf.synthdata import (
    LabeledSet,
    bayes_accuracy,
    default_task,
    draw_labeled,
    draw_oracle_arrays,
    unbiased_sampler,
)


def _phi(x):
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {num} ({name}): FAIL")
        raise
    print(f"[acceptance] criterion {num} ({name}): PASS")


def _builtin_spec(name):
    return resolve_config(json.dumps(BUILTIN_SCENARIOS[name].config)).spec


@pytest.fixture(scope="module")
def fig2_model_and_a_true(task):
    """The fig2 scenario's fixed classifier (same substream path the runner
    uses) plus its accuracy measured on a 200k-sample oracle set: a Monte
    Carlo independent of the exact integrator behind ``true_baseline``."""
    training = draw_labeled(task, unbiased_sampler(), 100, derive_substream(42, (0, 0)))
    model = fit_arrays(
        training.xs, training.ys,
        ClassifierConfig(bandwidth=0.2, prior_weight=0.01, class_count=2),
    )
    xs, ys = draw_oracle_arrays(task, 200_000, derive_substream(42, (900,)))
    return model, accuracy_arrays(model, xs, ys)


@pytest.fixture(scope="module")
def fig6_run(task):
    spec = _builtin_spec("fig6")
    t0 = time.perf_counter()
    records = run_experiment(spec, workers=1)
    return records, time.perf_counter() - t0


def test_criterion_1_binomial_oracle(task, fig2_model_and_a_true):
    with criterion(1, "binomial oracle"):
        model, a_true = fig2_model_and_a_true
        t0 = time.perf_counter()
        exact = true_baseline(model, task)
        for B in (5, 10, 20, 100):
            est = subsample_baseline(exact, B, 10_000, derive_substream(42, (901, B)))
            counts = np.round(np.asarray(est.samples) * B).astype(int)
            emp = np.bincount(counts, minlength=B + 1) / len(counts)
            pmf = stats.binom.pmf(np.arange(B + 1), B, a_true)
            tv = 0.5 * np.abs(emp - pmf).sum()
            assert tv < 0.03, f"B={B}: TV {tv:.4f} >= 0.03"
        assert time.perf_counter() - t0 < 60.0


def test_criterion_2_eval_size_distribution(task, fig2_model_and_a_true):
    with criterion(2, "evaluation-size study"):
        _, a_true = fig2_model_and_a_true
        t0 = time.perf_counter()
        records = run_experiment(_builtin_spec("fig2"), workers=1)
        iqrs = []
        for size in (5, 10, 20, 100):
            s = summarize([r.estimate_mean for r in records if r.budget == size])
            iqrs.append(s.q75 - s.q25)
        assert all(a > b for a, b in zip(iqrs, iqrs[1:])), f"IQRs not decreasing: {iqrs}"
        vals = np.array([r.estimate_mean for r in records if r.budget == 5])
        observed = np.mean((vals == 1.0) | (vals < 0.8))
        predicted = 1.0 - 5.0 * a_true**4 * (1.0 - a_true)
        assert abs(observed - predicted) <= 0.03, (
            f"P(1.0 or <0.8) {observed:.4f} vs binomial {predicted:.4f}"
        )
        assert time.perf_counter() - t0 < 30.0


def test_criterion_3_closed_form_accuracy(task, sign_rule_model):
    with criterion(3, "closed-form accuracy"):
        assert bayes_accuracy(task) == pytest.approx(_phi(1.5), abs=1e-6)
        assert _phi(1.5) == pytest.approx(0.93319, abs=5e-6)
        tb = true_baseline(sign_rule_model, task)
        assert abs(tb - _phi(1.5)) < 0.005


def test_criterion_4_cv_folds(task):
    with criterion(4, "fold-count study"):
        t0 = time.perf_counter()
        spec = resolve_config(json.dumps({"scenario": "cv-folds", "master_seed": 0})).spec
        records = run_experiment(spec, workers=1)
        tb = records[0].true_baseline
        errs = []
        for k in (2, 5, 10, 20):
            vals = [r.estimate_mean for r in records if r.estimator == f"cv-{k}fold"]
            errs.append(abs(float(np.mean(vals)) - tb))
            if k == 20:
                # only one way to split n instances into n folds
                assert len(set(vals)) == 1, "leave-one-out must have zero variance"
        # noise margin 0.01 calibrated with 500-repetition reference runs
        # (the 50-rep split noise is well below it at this seed)
        for a, b in zip(errs, errs[1:]):
            assert b <= a + 0.01, f"|mean CV - truth| not non-increasing: {errs}"
        assert errs[0] > errs[-1]
        assert time.perf_counter() - t0 < 60.0


def test_criterion_5_bias_sweep(task):
    with criterion(5, "sampling-bias sweep"):
        t0 = time.perf_counter()
        records = run_experiment(_builtin_spec("fig5"), workers=1)
        diffs = {}
        for d in (0.25, 2.5):
            sub = [r for r in records if r.sampler == f"biased-d{d:g}"]
            assert len(sub) == 50
            diffs[d] = float(
                np.mean([r.estimate_mean for r in sub])
                - np.mean([r.true_baseline for r in sub])
            )
        assert diffs[0.25] <= -0.05, f"near-boundary bias {diffs[0.25]:+.4f}"
        assert diffs[2.5] >= +0.02, f"far-from-boundary bias {diffs[2.5]:+.4f}"
        assert time.perf_counter() - t0 < 120.0


def test_criterion_6_directional_suite(fig6_run):
    with criterion(6, "estimator directional suite"):
        records, elapsed = fig6_run

        def at_b50(sampler, estimator):
            return [
                r for r in records
                if r.sampler == sampler and r.estimator == estimator and r.budget == 50
            ]

        sub = at_b50("unbiased", "subsample-baseline")
        assert len(sub) == 200
        gap = abs(
            float(np.mean([r.estimate_mean for r in sub]))
            - float(np.mean([r.true_baseline for r in sub]))
        )
        assert gap < 0.02, f"(a) subsample vs truth gap {gap:.4f}"

        slcv = at_b50("unbiased", "self-label-cv-3fold")
        frac_over = float(np.mean([r.estimate_mean > r.true_baseline for r in slcv]))
        assert frac_over >= 0.90, f"(b) self-labeling overestimates in {frac_over:.2%}"

        prob = at_b50("unbiased", "probabilistic")
        frac_under = float(np.mean([r.estimate_mean < r.true_baseline for r in prob]))
        assert frac_under >= 0.90, f"(c) probabilistic underestimates in {frac_under:.2%}"

        cv_unbiased = float(np.mean([r.estimate_mean for r in at_b50("unbiased", "cv-3fold")]))
        cv_boundary = float(np.mean([r.estimate_mean for r in at_b50("biased-d0.3", "cv-3fold")]))
        assert cv_unbiased - cv_boundary >= 0.05, (
            f"(d) boundary-biased CV {cv_boundary:.4f} vs unbiased {cv_unbiased:.4f}"
        )
        assert elapsed < 300.0


def test_criterion_7_property_suite(task, two_point_model):
    with criterion(7, "property suite"):
        budget = 5.0

        t0 = time.perf_counter()
        xs = np.linspace(-2, 2, 12)
        labeled = LabeledSet(xs, 1 + (xs > 0).astype(int), np.full(12, 0.37))
        cfg = ClassifierConfig()
        plain = kfold_cv(labeled, 3, cfg, derive_substream(3, (0,)))
        rew = kfold_cv(labeled, 3, cfg, derive_substream(3, (0,)), reweighted=True)
        assert rew.mean() == plain.mean()
        assert time.perf_counter() - t0 < budget

        t0 = time.perf_counter()
        rng = np.random.default_rng(5)
        a = rng.uniform(0.5, 30, 200)
        b = rng.uniform(0.5, 30, 200)
        mix = PerformanceEstimate.beta_mixture(a, b)
        assert abs(mix.mean() - float((a / (a + b)).mean())) < 1e-12
        assert time.perf_counter() - t0 < budget

        t0 = time.perf_counter()
        queries = rng.uniform(-25, 25, 10_000)
        post = posterior_batch(two_point_model, queries)
        assert np.all(post >= 0.0)
        assert np.max(np.abs(post.sum(axis=1) - 1.0)) < 1e-12
        assert time.perf_counter() - t0 < budget

        t0 = time.perf_counter()
        for c in (2, 3, 5):
            m = fit_arrays(
                np.array([]), np.array([], dtype=int),
                ClassifierConfig(prior_weight=0.01, class_count=c),
            )
            evaluation = np.arange(6, dtype=np.float64)
            est = generalization_error_estimate(m, evaluation)
            # error per instance is 1 - 1/C, so accuracy is 1/C
            assert est.mean() == pytest.approx(1.0 / c, abs=1e-15)
        assert time.perf_counter() - t0 < budget

        t0 = time.perf_counter()
        assert predict_batch(two_point_model, np.array([0.0]))[0] == 1
        empty = fit_arrays(
            np.array([]), np.array([], dtype=int),
            ClassifierConfig(prior_weight=0.01, class_count=2),
        )
        assert predict_batch(empty, np.array([3.0]))[0] == 1
        np.testing.assert_array_equal(posterior_batch(empty, np.array([-4.0, 0.0, 4.0])), 0.5)
        assert time.perf_counter() - t0 < budget


def test_criterion_8_reproducibility(tmp_path):
    with criterion(8, "byte-level reproducibility"):
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {
                    "scenario": "estimator-comparison",
                    "master_seed": 3,
                    "repetitions": 4,
                    "budgets": [10, 30],
                    "pool_size": 200,
                    "subsample_reps": 20,
                }
            )
        )

        def run(out, workers):
            rc = cli_main(
                ["run", "--config", str(config), "--out", str(tmp_path / out),
                 "--seed", "17", "--workers", str(workers)]
            )
            assert rc == 0
            lines = (tmp_path / out / "raw.csv").read_text().splitlines()
            return [line.rsplit(",", 1)[0] for line in lines]  # drop wall_ms

        first = run("w1", 1)
        assert run("w8", 8) == first
        assert run("again", 1) == first
