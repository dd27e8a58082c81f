import dataclasses
import json
import math
import time

import numpy as np
import pytest
from scipy import stats

from alperf import estimators, harness, parzen, synthdata
from alperf.config import BUILTIN_SCENARIOS, resolve_config
from alperf.errors import ValidationError
from alperf.estimators import kfold_cv, kfold_cv_detail
from alperf.harness import (
    BoxplotStats,
    EstimatorSpec,
    ExperimentSpec,
    acquisition_sequence,
    derive_substream,
    run_experiment,
    summarize,
)


def _strip_wall(records):
    return [
        (
            r.scenario, r.repetition, r.sampler, r.budget, r.estimator,
            r.estimate_mean, r.estimate_median, r.estimate_q25, r.estimate_q75,
            r.true_baseline,
        )
        for r in records
    ]


def _spec(overrides=None):
    cfg = {"scenario": "estimator-comparison", "master_seed": 7, "repetitions": 3}
    cfg.update(overrides or {})
    if cfg["scenario"] == "estimator-comparison":
        cfg.setdefault("budgets", [10, 30])
        cfg.setdefault("pool_size", 150)
        cfg.setdefault("subsample_reps", 20)
    return resolve_config(json.dumps(cfg)).spec


class TestDeriveSubstream:
    def test_same_path_identical(self):
        a = derive_substream(42, (3, 7)).random(100)
        b = derive_substream(42, (3, 7)).random(100)
        np.testing.assert_array_equal(a, b)

    def test_seed_sensitivity(self):
        a = derive_substream(42, (3, 7)).random(10)
        b = derive_substream(43, (3, 7)).random(10)
        assert not np.array_equal(a, b)

    def test_path_sensitivity(self):
        a = derive_substream(42, (0,)).random(10)
        b = derive_substream(42, (1,)).random(10)
        c = derive_substream(42, (0, 0)).random(10)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_uniformity_and_independence(self):
        u0 = derive_substream(42, (0,)).random(10_000)
        u1 = derive_substream(42, (1,)).random(10_000)
        for u in (u0, u1):
            counts, _ = np.histogram(u, bins=20, range=(0.0, 1.0))
            assert stats.chisquare(counts).pvalue > 0.001
        joint, _, _ = np.histogram2d(u0, u1, bins=10, range=[[0, 1], [0, 1]])
        assert stats.chisquare(joint.ravel()).pvalue > 0.001

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValidationError):
            derive_substream(-1, (0,))
        with pytest.raises(ValidationError):
            derive_substream(1, (-2,))


class TestSummarize:
    def test_singleton(self):
        s = summarize([0.5])
        assert s == BoxplotStats(0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 1)

    def test_interpolated_quartiles(self):
        s = summarize([0.0, 0.0, 1.0, 1.0])
        assert (s.mean, s.median, s.q25, s.q75) == (0.5, 0.5, 0.0, 1.0)

    def test_order_invariance(self):
        vals = [0.1, 0.9, 0.4, 0.4, 0.7, 0.2]
        assert summarize(vals) == summarize(sorted(vals, reverse=True))

    def test_whiskers_clip_outliers_to_data(self):
        s = summarize([0.0, 0.5, 0.5, 0.52, 0.55, 1.0])
        iqr = s.q75 - s.q25
        assert s.whisker_low >= s.q25 - 1.5 * iqr
        assert s.whisker_high <= s.q75 + 1.5 * iqr
        assert s.whisker_low == 0.5 and s.whisker_high == 0.55

    def test_invariants_on_random_data(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            vals = rng.random(rng.integers(1, 40))
            s = summarize(vals)
            assert s.q25 <= s.median <= s.q75
            assert vals.min() <= s.whisker_low <= s.whisker_high <= vals.max()

    def test_empty_rejected(self):
        with pytest.raises(ValidationError, match="empty"):
            summarize([])
        with pytest.raises(ValidationError, match="non-finite"):
            summarize([0.5, float("nan")])


class TestSpecs:
    def test_estimator_ids(self):
        assert EstimatorSpec("kfold-cv", k=5).estimator_id() == "cv-5fold"
        assert EstimatorSpec("reweighted-cv", k=3).estimator_id() == "reweighted-cv-3fold"
        assert EstimatorSpec("self-label-cv", k=2).estimator_id() == "self-label-cv-2fold"
        assert EstimatorSpec("probabilistic").estimator_id() == "probabilistic"
        assert (
            EstimatorSpec("probabilistic", count_mode="hard").estimator_id()
            == "probabilistic-hard"
        )
        capped = EstimatorSpec("reweighted-cv", k=3, weight_cap=5.0)
        assert capped.estimator_id() == "reweighted-cv-3fold-cap5"
        assert EstimatorSpec("reweighted-cv", weight_cap=2.5).estimator_id() == (
            "reweighted-cv-3fold-cap2.5"
        )

    def test_capped_and_uncapped_reweighted_cv_run_together(self):
        spec = _spec({
            "repetitions": 1,
            "estimators": [
                {"name": "reweighted-cv", "params": {"k": 3}},
                {"name": "reweighted-cv", "params": {"k": 3, "weight_cap": 5.0}},
            ],
        })
        records = run_experiment(spec, workers=1)
        assert {r.estimator for r in records} == {
            "reweighted-cv-3fold", "reweighted-cv-3fold-cap5",
        }

    def test_estimator_validation(self):
        with pytest.raises(ValidationError, match="unknown estimator"):
            EstimatorSpec("bootstrap")
        with pytest.raises(ValidationError, match="k must be >= 2"):
            EstimatorSpec("kfold-cv", k=1)
        with pytest.raises(ValidationError, match="weight_cap"):
            EstimatorSpec("kfold-cv", weight_cap=2.0)
        with pytest.raises(ValidationError, match="weight_cap must be > 0"):
            EstimatorSpec("reweighted-cv", weight_cap=float("nan"))
        with pytest.raises(ValidationError, match="generalization-error does not take k"):
            EstimatorSpec("generalization-error", k=5)
        with pytest.raises(ValidationError, match="kfold-cv does not take count_mode"):
            EstimatorSpec("kfold-cv", count_mode="hard")

    def test_experiment_spec_validation(self):
        spec = _spec()
        with pytest.raises(ValidationError, match="strictly increasing"):
            dataclasses.replace(spec, budgets=(30, 10))
        with pytest.raises(ValidationError, match="repetitions"):
            dataclasses.replace(spec, repetitions=0)
        with pytest.raises(ValidationError, match="unknown scenario"):
            dataclasses.replace(spec, scenario="grid-search")
        with pytest.raises(ValidationError, match="d_grid"):
            _spec({"scenario": "bias-sweep", "d_grid": [float("nan")]})

    def test_probabilistic_needs_two_classes(self):
        # the default comparison estimators include the probabilistic one,
        # which is defined for 2 classes only: rejected before any work
        three_classes = {
            "priors": [0.4, 0.3, 0.3],
            "components": [[{"weight": 1.0, "mean": m, "std": 1.0}] for m in (-2, 0, 2)],
        }
        with pytest.raises(ValidationError, match="2-class task"):
            _spec({"task": three_classes})

    def test_replace_rejects_duplicate_estimator_ids(self):
        spec = _spec()
        with pytest.raises(ValidationError, match="duplicate"):
            dataclasses.replace(
                spec, estimators=(EstimatorSpec("kfold-cv"), EstimatorSpec("kfold-cv"))
            )

    @pytest.mark.parametrize(
        "field", ["repetitions", "train_size", "pool_size", "subsample_reps"]
    )
    def test_counts_must_be_positive(self, field):
        with pytest.raises(ValidationError, match=f"^{field} must be >= 1, got 0$"):
            dataclasses.replace(_spec(), **{field: 0})

    def test_eval_size_rejects_kfold_estimator(self):
        spec = _spec({"scenario": "eval-size-distribution", "budgets": [5, 10]})
        with pytest.raises(ValidationError, match="only the subsample-baseline"):
            dataclasses.replace(spec, estimators=(EstimatorSpec("kfold-cv", k=2),))


class TestEvalSizeDistribution:
    def test_structure_and_determinism(self):
        spec = _spec({"scenario": "eval-size-distribution", "budgets": [5, 10],
                      "repetitions": 6, "train_size": 30})
        r1 = run_experiment(spec, workers=1)
        assert len(r1) == 12
        assert {r.estimator for r in r1} == {"subsample-baseline"}
        assert {r.sampler for r in r1} == {"unbiased"}
        r2 = run_experiment(spec, workers=3)
        assert _strip_wall(r1) == _strip_wall(r2)

    def test_repetition_isolation(self):
        spec = _spec({"scenario": "eval-size-distribution", "budgets": [5, 10],
                      "repetitions": 5, "train_size": 30})
        full = run_experiment(spec, workers=1)
        fewer = run_experiment(
            dataclasses.replace(spec, repetitions=3), workers=1
        )
        assert _strip_wall([r for r in full if r.repetition < 3]) == _strip_wall(fewer)

    def test_huge_evaluation_set_converges_to_truth(self):
        spec = _spec({"scenario": "eval-size-distribution", "budgets": [200_000],
                      "repetitions": 1})
        (record,) = run_experiment(spec, workers=1)
        assert abs(record.estimate_mean - record.true_baseline) < 0.005

    def test_spread_shrinks_with_size(self):
        spec = _spec({"scenario": "eval-size-distribution", "budgets": [5, 100],
                      "repetitions": 200})
        records = run_experiment(spec, workers=1)
        iqr = {}
        for size in (5, 100):
            s = summarize([r.estimate_mean for r in records if r.budget == size])
            iqr[size] = s.q75 - s.q25
        assert iqr[100] < iqr[5]


class TestCvFolds:
    def test_leave_one_out_has_no_split_variance(self):
        spec = _spec({"scenario": "cv-folds", "budgets": [12], "repetitions": 8,
                      "estimators": [{"name": "kfold-cv", "params": {"k": 12}},
                                     {"name": "kfold-cv", "params": {"k": 2}}]})
        records = run_experiment(spec, workers=1)
        loo = {r.estimate_mean for r in records if r.estimator == "cv-12fold"}
        assert len(loo) == 1
        assert len({r.estimate_mean for r in records if r.estimator == "cv-2fold"}) > 1

    def test_folds_override(self):
        spec = _spec({"scenario": "cv-folds", "budgets": [10], "repetitions": 2,
                      "estimators": [{"name": "kfold-cv", "params": {"k": 2}}]})
        folds = tuple(EstimatorSpec("kfold-cv", k=k) for k in (2, 5))
        records = run_experiment(dataclasses.replace(spec, estimators=folds), workers=1)
        assert {r.estimator for r in records} == {"cv-2fold", "cv-5fold"}

    def test_rejects_non_cv_estimators(self):
        spec = _spec({"scenario": "cv-folds", "budgets": [10], "repetitions": 2,
                      "estimators": [{"name": "kfold-cv", "params": {"k": 2}}]})
        with pytest.raises(ValidationError, match="CV estimators"):
            dataclasses.replace(spec, estimators=(EstimatorSpec("probabilistic"),))

    def test_rejects_k_above_label_count(self):
        spec = _spec({"scenario": "cv-folds", "budgets": [10], "repetitions": 2,
                      "estimators": [{"name": "kfold-cv", "params": {"k": 2}}]})
        with pytest.raises(ValidationError, match="exceeds"):
            dataclasses.replace(spec, estimators=(EstimatorSpec("kfold-cv", k=11),))


class TestBiasSweep:
    def test_structure(self):
        spec = _spec({"scenario": "bias-sweep", "repetitions": 3,
                      "d_grid": [0.25, 2.5], "labeled_size": 12})
        records = run_experiment(spec, workers=1)
        assert len(records) == 6
        assert {r.sampler for r in records} == {"biased-d0.25", "biased-d2.5"}
        assert {r.budget for r in records} == {12}
        for r in records:
            assert 0.0 <= r.estimate_mean <= 1.0
            assert 0.0 <= r.true_baseline <= 1.0

    def test_worker_invariance(self):
        spec = _spec({"scenario": "bias-sweep", "repetitions": 4,
                      "d_grid": [0.5, 1.5], "labeled_size": 9})
        r1 = run_experiment(spec, workers=1)
        r2 = run_experiment(spec, workers=4)
        assert _strip_wall(r1) == _strip_wall(r2)

    def test_uses_the_spec_samplers(self):
        spec = _spec({"scenario": "bias-sweep", "repetitions": 2,
                      "d_grid": [0.5, 1.5], "labeled_size": 9})
        wide = tuple(dataclasses.replace(s, component_std=1.0) for s in spec.samplers)
        # the labeled-set size is the spec's single budget
        wide_spec = dataclasses.replace(spec, samplers=wide, budgets=(12,))
        records = run_experiment(wide_spec, workers=1)
        default_means = [r.estimate_mean for r in run_experiment(spec, workers=1)]
        assert [r.estimate_mean for r in records] != default_means
        for r in records:
            assert r.budget == 12
            d_idx = [s.label() for s in wide].index(r.sampler)
            labeled = synthdata.draw_labeled(
                spec.task, wide[d_idx], 12,
                derive_substream(spec.master_seed, (0, d_idx, r.repetition)),
            )
            expected = kfold_cv_detail(
                labeled, 3, spec.classifier,
                derive_substream(spec.master_seed, (1, d_idx, r.repetition)),
            ).estimate.mean()
            assert r.estimate_mean == expected

    def test_samplers_must_form_a_d_grid(self):
        spec = _spec({"scenario": "bias-sweep", "repetitions": 2,
                      "d_grid": [0.5, 1.5], "labeled_size": 9})
        with pytest.raises(ValidationError, match="strictly increasing"):
            dataclasses.replace(spec, samplers=spec.samplers[::-1])
        with pytest.raises(ValidationError, match="symmetric-mixture"):
            dataclasses.replace(
                spec, samplers=(synthdata.unbiased_sampler(), spec.samplers[1])
            )
        zero = dataclasses.replace(spec.samplers[0], d=0.0)
        with pytest.raises(ValidationError, match="positive"):
            dataclasses.replace(spec, samplers=(zero, spec.samplers[1]))


class TestEstimatorComparison:
    def test_budget_prefixes_are_nested_and_reproducible(self):
        spec = _spec()
        records = run_experiment(spec, workers=1)
        seq = acquisition_sequence(spec, sampler_index=0, rep=1)
        assert len(seq) == max(spec.budgets)
        # the recorded CV estimate must equal a recomputation from the
        # prefix with the same substream path (sampler 0, rep 1, B=10)
        e_idx = [e.name for e in spec.estimators].index("kfold-cv")
        rng = derive_substream(spec.master_seed, (3, 0, 1, 0, e_idx))
        expected = kfold_cv(seq[:10], 3, spec.classifier, rng).mean()
        sampler_id = spec.samplers[0].label()
        (rec,) = [
            r for r in records
            if r.repetition == 1 and r.sampler == sampler_id and r.budget == 10
            and r.estimator == "cv-3fold"
        ]
        assert rec.estimate_mean == expected

    def test_all_estimators_present(self):
        spec = _spec()
        records = run_experiment(spec, workers=1)
        assert {r.estimator for r in records} == {
            "generalization-error", "cv-3fold", "self-label-cv-3fold",
            "reweighted-cv-3fold", "probabilistic", "subsample-baseline",
        }
        assert len(records) == 3 * 3 * 2 * 6  # samplers * reps * budgets * estimators
        for r in records:
            assert 0.0 <= r.estimate_mean <= 1.0
            assert 0.0 <= r.true_baseline <= 1.0

    def test_worker_invariance(self):
        spec = _spec({"repetitions": 4})
        r1 = run_experiment(spec, workers=1)
        r2 = run_experiment(spec, workers=4)
        assert _strip_wall(r1) == _strip_wall(r2)

    def test_canonical_ordering(self):
        spec = _spec()
        records = run_experiment(spec, workers=1)
        keys = [r.sort_key() for r in records]
        assert keys == sorted(keys)

    def test_one_unit_fits_each_model_once(self, monkeypatch):
        # Per budget: the unit's model, plus k fold models per CV estimator.
        # Self-label CV labels the pool with the unit's model, so it adds no
        # refit of its own.
        spec = resolve_config(json.dumps(BUILTIN_SCENARIOS["fig6"].config)).spec
        cv_folds = [
            e.k for e in spec.estimators if "k" in harness.ESTIMATOR_TABLE[e.name].reads
        ]
        assert cv_folds == [3, 3, 3]
        fits = []
        fit = parzen.fit_arrays

        def counting(*args, **kwargs):
            fits.append(args)
            return fit(*args, **kwargs)

        monkeypatch.setattr(parzen, "fit_arrays", counting)
        harness._comparison_unit(spec, (0, 0))
        assert len(fits) == len(spec.budgets) * (1 + sum(cv_folds))

    def test_rejects_k_above_smallest_budget(self):
        spec = _spec()
        with pytest.raises(ValidationError, match="smallest budget"):
            dataclasses.replace(spec, estimators=(EstimatorSpec("kfold-cv", k=11),))


class _InlinePool:
    """Stands in for ProcessPoolExecutor: records the worker count asked for
    and maps in this process, so no process is started."""

    asked: list = []

    def __init__(self, max_workers):
        self.asked.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable, chunksize=1):
        return map(fn, iterable)


class TestRunExperiment:
    @pytest.mark.parametrize(
        "repetitions, workers, pool_workers",
        [(3, 64, [3]), (3, 2, [2]), (1, 64, []), (3, 1, [])],
    )
    def test_no_more_workers_than_units(
        self, monkeypatch, repetitions, workers, pool_workers
    ):
        # cv-folds has one unit per repetition.
        spec = _spec({"scenario": "cv-folds", "repetitions": repetitions})
        serial = run_experiment(spec, workers=1)
        monkeypatch.setattr(harness, "ProcessPoolExecutor", _InlinePool)
        monkeypatch.setattr(_InlinePool, "asked", [])
        records = run_experiment(spec, workers=workers)
        assert _InlinePool.asked == pool_workers
        assert _strip_wall(records) == _strip_wall(serial)

    def test_bias_sweep_wall_ms_stops_before_holdout(self, monkeypatch):
        # The fold models' exact truth comes after the estimate's summary:
        # slowing it down must not reach wall_ms, and the truth must still
        # be filled in.
        exact = estimators.true_baseline
        calls = []

        def slow_truth(*args):
            calls.append(args)
            time.sleep(0.2)
            return exact(*args)

        monkeypatch.setattr(estimators, "true_baseline", slow_truth)
        spec = _spec({"scenario": "bias-sweep", "d_grid": [0.5, 2.0], "repetitions": 1})
        for r in run_experiment(spec, workers=1):
            assert math.isfinite(r.true_baseline) and 0.0 <= r.true_baseline <= 1.0
            assert 0.0 <= r.wall_ms < 200.0
        assert len(calls) == 2 * 3  # one per fold model of each record
