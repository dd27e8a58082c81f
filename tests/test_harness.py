import concurrent.futures
import dataclasses
import json
import math
import pickle
import time

import numpy as np
import pytest
from scipy import stats

from alperf import estimators, harness, parzen, synthdata
from alperf.config import BUILTIN_SCENARIOS, resolve_config
from alperf.errors import ValidationError
from alperf.estimators import kfold_cv, kfold_cv_detail
from alperf.harness import (
    EstimatorSpec,
    ExperimentSpec,
    RunRecord,
    acquisition_sequence,
    derive_substream,
    run_experiment,
)
from alperf.reporting import summarize


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


def _mixtures(*ds):
    """JSON samplers: one symmetric mixture at each distance d."""
    return [{"kind": "symmetric-mixture", "d": d} for d in ds]


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

    def test_path_entries_must_be_integers(self):
        # A fractional entry is refused, not truncated onto another path's stream.
        with pytest.raises(TypeError):
            derive_substream(0, (1.5, 2))
        want = derive_substream(0, (1, 2)).bit_generator.state
        assert derive_substream(0, (np.int64(1), np.uint32(2))).bit_generator.state == want

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**130])
    @pytest.mark.parametrize(
        "path",
        [(), (0,), (1, 7, 3), (3, 2, 9, 1, 4), (2**32,), (1, 2**40 + 3, 0, 2**70)],
    )
    def test_same_stream_as_numpy_spawn_key(self, seed, path):
        # The entropy words are the ones numpy assembles for this pair, so
        # the pool, the state and every draw are numpy's own.
        got = derive_substream(seed, path)
        want = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=path))
        assert got.bit_generator.state == want.bit_generator.state
        np.testing.assert_array_equal(got.random(8), want.random(8))
        np.testing.assert_array_equal(got.integers(0, 2**62, 8), want.integers(0, 2**62, 8))

    def test_spawn_is_numpys(self):
        # The stream is numpy's own, so its children are SeedSequence's.
        children = derive_substream(3, (1, 2)).spawn(2)
        want = np.random.SeedSequence(3, spawn_key=(1, 2)).spawn(2)
        assert len(children) == len(want) == 2
        for got, seq in zip(children, want):
            np.testing.assert_array_equal(got.random(8), np.random.default_rng(seq).random(8))

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**130])
    def test_one_shuffled_batch_is_numpy_and_the_single_path(self, seed):
        # Paths of several lengths, each entry one word, in one batch: each
        # length is one block.
        paths = [
            (0,), (5,), (2**32 - 1,), (1, 7, 3), (0, 0, 0), (2**32 - 1, 0, 9),
            (3, 2, 9, 1, 4), (7, 0, 1, 2, 3), (4, 4, 4, 4, 4), (0, 0), (1, 2**32 - 1),
        ]
        order = np.random.default_rng(seed % 97).permutation(len(paths))
        batch = [paths[i] for i in order]
        states = harness.derive_states(seed, batch)
        assert states.shape == (len(batch), 4) and states.dtype == np.uint64
        for path, state in zip(batch, states):
            got = harness._generator(state)
            want = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=path))
            single = derive_substream(seed, path)
            assert got.bit_generator.state == want.bit_generator.state
            assert single.bit_generator.state == want.bit_generator.state
            np.testing.assert_array_equal(got.random(8), want.random(8))
            np.testing.assert_array_equal(got.integers(0, 2**62, 8), want.integers(0, 2**62, 8))

    def test_empty_batch(self):
        assert harness.derive_states(3, []).shape == (0, 4)

    def test_batch_refuses_what_a_single_path_refuses(self):
        with pytest.raises(ValidationError):
            harness.derive_states(-1, [(0,)])
        with pytest.raises(ValidationError):
            harness.derive_states(1, [(0,), (-2,)])
        with pytest.raises(TypeError):
            harness.derive_states(1, [(1, 2), (1.5, 2)])
        # A row declares only non-empty paths of one-word entries; numpy's
        # stream for any other path is derive_substream's.
        for path in [(), (2**32,), (1, 2**70)]:
            with pytest.raises(ValidationError):
                harness.derive_states(1, [(0,), path])

    def test_stream_pickles(self):
        rng = derive_substream(5, (1, 2))
        rng.random(3)
        copy = pickle.loads(pickle.dumps(rng))
        np.testing.assert_array_equal(copy.random(5), rng.random(5))


class TestDeclaredPaths:
    @pytest.mark.parametrize("name", ["fig2", "fig3", "fig5", "fig6"])
    def test_unit_paths_are_distinct_and_never_the_shared_path(self, name):
        # Distinct seed states, not only distinct tuples, and each numpy's.
        spec = resolve_config(json.dumps(BUILTIN_SCENARIOS[name].config)).spec
        row = harness.SCENARIO_TABLE[spec.scenario]
        paths = [
            path for s in range(len(spec.samplers)) for rep in range(spec.repetitions)
            for path in row.paths(spec, (s, rep))
        ] + [harness.SHARED_PATH]
        states = harness.derive_states(spec.master_seed, paths)
        assert len(np.unique(states, axis=0)) == len(paths)
        for path, state in zip(paths, states):
            seq = np.random.SeedSequence(spec.master_seed, spawn_key=path)
            np.testing.assert_array_equal(state, seq.generate_state(4, np.uint64))

    @pytest.mark.parametrize(
        "overrides, shared",
        [
            ({"scenario": "eval-size-distribution", "budgets": [5, 20]}, [harness.SHARED_PATH]),
            ({"scenario": "cv-folds"}, [harness.SHARED_PATH]),
            ({"scenario": "bias-sweep", "samplers": _mixtures(0.5, 2.0), "repetitions": 2}, []),
            ({}, []),
        ],
        ids=["eval-size", "cv-folds", "bias-sweep", "comparison"],
    )
    def test_no_unit_calls_the_single_path_derivation(self, monkeypatch, overrides, shared):
        # Only the shared labeled set is derived on its own; every unit's
        # streams come from the run's one batch.
        spec = _spec(overrides)
        calls = []
        derive = harness.derive_substream

        def counting(seed, path):
            calls.append(tuple(path))
            return derive(seed, path)

        monkeypatch.setattr(harness, "derive_substream", counting)
        run_experiment(spec, workers=1)
        assert calls == shared


class TestRunRecord:
    def _record(self):
        return RunRecord(
            "eval-size-distribution", 3, "unbiased", 20, "subsample-baseline",
            0.85, 0.85, 0.85, 0.85, 0.8625, 0.125,
        )

    def test_fields_are_the_csv_header(self):
        assert ",".join(RunRecord._fields) == (
            "scenario,repetition,sampler,budget,estimator,estimate_mean,"
            "estimate_median,estimate_q25,estimate_q75,true_baseline,wall_ms"
        )

    def test_refuses_assignment(self):
        record = self._record()
        with pytest.raises(AttributeError):
            record.true_baseline = 0.5

    def test_pickle_and_replace_round_trip(self):
        record = self._record()
        again = pickle.loads(pickle.dumps(record))
        assert again == record and type(again) is RunRecord
        changed = record._replace(true_baseline=0.5)
        assert changed.true_baseline == 0.5 and record.true_baseline == 0.8625
        assert changed._replace(true_baseline=0.8625) == record
        assert record.sort_key() == (3, "unbiased", 20, "subsample-baseline")


class TestSummarize:
    def test_singleton(self):
        s = summarize([0.5])
        assert s == {"n": 1, "mean": 0.5, "median": 0.5, "q25": 0.5, "q75": 0.5,
                     "whisker_low": 0.5, "whisker_high": 0.5}

    def test_interpolated_quartiles(self):
        s = summarize([0.0, 0.0, 1.0, 1.0])
        assert (s["mean"], s["median"], s["q25"], s["q75"]) == (0.5, 0.5, 0.0, 1.0)

    def test_order_invariance(self):
        vals = [0.1, 0.9, 0.4, 0.4, 0.7, 0.2]
        assert summarize(vals) == summarize(sorted(vals, reverse=True))

    def test_whiskers_clip_outliers_to_data(self):
        s = summarize([0.0, 0.5, 0.5, 0.52, 0.55, 1.0])
        iqr = s["q75"] - s["q25"]
        assert s["whisker_low"] >= s["q25"] - 1.5 * iqr
        assert s["whisker_high"] <= s["q75"] + 1.5 * iqr
        assert s["whisker_low"] == 0.5 and s["whisker_high"] == 0.55

    def test_invariants_on_random_data(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            vals = rng.random(rng.integers(1, 40))
            s = summarize(vals)
            assert s["q25"] <= s["median"] <= s["q75"]
            assert vals.min() <= s["whisker_low"] <= s["whisker_high"] <= vals.max()

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

    def test_estimator_spec_is_a_name_and_a_fold_count(self):
        assert [f.name for f in dataclasses.fields(EstimatorSpec)] == ["name", "k"]

    def test_estimator_validation(self):
        with pytest.raises(ValidationError, match="unknown estimator"):
            EstimatorSpec("bootstrap")
        with pytest.raises(ValidationError, match="k must be >= 2"):
            EstimatorSpec("kfold-cv", k=1)
        with pytest.raises(ValidationError, match="generalization-error does not take k"):
            EstimatorSpec("generalization-error", k=5)

    def test_experiment_spec_validation(self):
        spec = _spec()
        with pytest.raises(ValidationError, match="strictly increasing"):
            dataclasses.replace(spec, budgets=(30, 10))
        with pytest.raises(ValidationError, match="repetitions"):
            dataclasses.replace(spec, repetitions=0)
        with pytest.raises(ValidationError, match="unknown scenario"):
            dataclasses.replace(spec, scenario="grid-search")
        with pytest.raises(ValidationError, match=r"^samplers\[0\]: d must be a finite distance"):
            _spec({"scenario": "bias-sweep", "samplers": _mixtures(float("nan"))})

    def test_probabilistic_needs_two_classes(self):
        # the default comparison estimators include the probabilistic one,
        # which is defined for 2 classes only: rejected before any work
        three_classes = {
            "priors": [0.4, 0.3, 0.3],
            "components": [[{"weight": 1.0, "mean": m, "std": 1.0}] for m in (-2, 0, 2)],
        }
        with pytest.raises(ValidationError, match="2-class task"):
            _spec({"task": three_classes})

    def test_symmetric_sampler_needs_a_boundary_at_zero(self):
        # The default task's Bayes boundary is x = 0: its samplers are accepted.
        spec = _spec()
        assert synthdata.SYMMETRIC_MIXTURE in {s.kind for s in spec.samplers}
        shifted = {
            "priors": [0.5, 0.5],
            "components": [[{"weight": 1.0, "mean": m, "std": 1.0}] for m in (-0.5, 2.5)],
        }
        with pytest.raises(ValidationError, match="predicts class 1 on both sides"):
            _spec({"task": shifted})
        # The data marginal is placed nowhere, so it needs no boundary.
        unbiased = _spec({"task": shifted, "samplers": [{"kind": "data-marginal"}]})
        assert [s.label() for s in unbiased.samplers] == ["unbiased"]

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

    @pytest.mark.parametrize(
        "replace, message",
        [
            ({"repetitions": 2.5}, "repetitions must be an integer, got 2.5"),
            ({"repetitions": True}, "repetitions must be an integer, got True"),
            ({"train_size": 100.0}, "train_size must be an integer, got 100.0"),
            ({"pool_size": "150"}, "pool_size must be an integer, got '150'"),
            ({"subsample_reps": np.float64(20)}, "subsample_reps must be an integer"),
            ({"master_seed": 1.5}, "master_seed must be an integer, got 1.5"),
            ({"budgets": (10, 20.5)}, r"budgets\[1\] must be an integer, got 20.5"),
            ({"budgets": (True, 30)}, r"budgets\[0\] must be an integer, got True"),
        ],
        ids=[
            "repetitions-float", "repetitions-bool", "train_size-float", "pool_size-str",
            "subsample_reps-numpy-float", "master_seed-float", "budget-float", "budget-bool",
        ],
    )
    def test_integer_fields_reject_other_types(self, replace, message):
        # A spec built in Python is checked like one parsed from JSON: the
        # wrong type is a ValidationError naming the field, before any work.
        with pytest.raises(ValidationError, match=f"^{message}"):
            dataclasses.replace(_spec(), **replace)

    @pytest.mark.parametrize(
        "replace, message",
        [
            ({"budgets": 20}, "budgets must be a tuple of integers, got 20"),
            (
                {"estimators": ("kfold-cv",)},
                r"estimators must be a tuple of EstimatorSpec, got \('kfold-cv',\)",
            ),
            (
                {"samplers": ("unbiased",)},
                r"samplers must be a tuple of SamplingDistribution, got \('unbiased',\)",
            ),
        ],
        ids=["budgets-int", "estimators-names", "samplers-labels"],
    )
    def test_collection_fields_reject_other_types(self, replace, message):
        # As in JSON, where these are arrays of integers and of objects.
        with pytest.raises(ValidationError, match=f"^{message}$"):
            dataclasses.replace(_spec(), **replace)

    def test_lists_become_tuples(self):
        spec = _spec()
        listed = dataclasses.replace(
            spec, samplers=list(spec.samplers), estimators=list(spec.estimators),
            budgets=list(spec.budgets),
        )
        assert listed == spec and hash(listed) == hash(spec)
        assert all(type(getattr(listed, f)) is tuple for f in ("samplers", "estimators", "budgets"))

    @pytest.mark.parametrize(
        "k", [2.5, 3.0, True, "3"], ids=["float", "whole-float", "bool", "str"]
    )
    def test_fold_count_must_be_an_integer(self, k):
        with pytest.raises(ValidationError, match="^estimator kfold-cv: k must be an integer"):
            EstimatorSpec("kfold-cv", k=k)

    def test_numpy_integers_are_accepted_as_ints(self):
        spec = dataclasses.replace(
            _spec({"repetitions": 1}),
            repetitions=np.int64(1), budgets=(np.int32(10), np.uint16(30)),
            master_seed=np.uint64(7), pool_size=np.int64(150),
            estimators=(EstimatorSpec("kfold-cv", k=np.int8(3)),),
        )
        assert spec == dataclasses.replace(
            _spec({"repetitions": 1}), estimators=(EstimatorSpec("kfold-cv", k=3),)
        )
        values = [spec.repetitions, *spec.budgets, spec.master_seed, spec.estimators[0].k]
        assert all(type(v) is int for v in values)

    def test_eval_size_rejects_kfold_estimator(self):
        spec = _spec({"scenario": "eval-size-distribution", "budgets": [5, 10]})
        with pytest.raises(
            ValidationError, match="supports only the estimators subsample-baseline"
        ):
            dataclasses.replace(spec, estimators=(EstimatorSpec("kfold-cv", k=2),))


class TestEvalSizeDistribution:
    @pytest.mark.parametrize("truth", [None, 0.0, 1.0])
    def test_records_are_one_value_subsample_baselines(self, truth):
        # Each record, in every field but wall_ms, is the one the estimate
        # subsample_baseline(truth, size, 1, rng) gives on the record's own
        # stream, bit for bit: a zero mean is +0.0 on both sides.
        spec = _spec({"scenario": "eval-size-distribution", "repetitions": 20})
        row = harness.SCENARIO_TABLE[spec.scenario]
        labeled, exact = row.shared(spec)
        accuracy = exact if truth is None else truth
        seed = spec.master_seed

        def bits(record):
            return tuple(v.hex() if isinstance(v, float) else v for v in record[:-1])

        for rep in range(spec.repetitions):
            paths = row.paths(spec, (0, rep))
            got = harness._eval_size_unit(
                spec, (labeled, accuracy), (0, rep), (derive_substream(seed, p) for p in paths)
            )
            expected = [
                harness._record(
                    spec.scenario, rep, "unbiased", size, "subsample-baseline",
                    estimators.subsample_baseline(
                        accuracy, size, 1, derive_substream(seed, path)
                    ).summary(),
                    accuracy, 0.0,
                )
                for size, path in zip(spec.budgets, paths)
            ]
            assert list(map(bits, got)) == list(map(bits, expected))
            assert all(math.copysign(1.0, r.estimate_mean) == 1.0 for r in got)
            if truth == 0.0:
                assert {r.estimate_mean for r in got} == {0.0}

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
            iqr[size] = s["q75"] - s["q25"]
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
        with pytest.raises(
            ValidationError, match="supports only the estimators kfold-cv, reweighted-cv"
        ):
            dataclasses.replace(spec, estimators=(EstimatorSpec("probabilistic"),))

    def test_one_own_kernel_block_per_run_and_no_estimate_fits(self, monkeypatch):
        # The fixed set is fitted and kernelled once, when the run starts;
        # every CV estimate of every repetition reads that one block.
        spec = _spec({"scenario": "cv-folds", "budgets": [12], "repetitions": 3,
                      "estimators": [{"name": "kfold-cv", "params": {"k": k}} for k in (2, 4)]
                      + [{"name": "reweighted-cv", "params": {"k": 3}}]})
        labeled = harness.SCENARIO_TABLE[spec.scenario].shared(spec)[0]
        calls = {"fit_arrays": [], "kernel_block": []}
        for name, log in calls.items():
            original = getattr(parzen, name)
            monkeypatch.setattr(
                parzen, name, lambda *a, _f=original, _log=log: _log.append(a) or _f(*a)
            )
        assert len(run_experiment(spec, workers=1)) == 3 * 3
        (fit,), (block,) = calls["fit_arrays"], calls["kernel_block"]
        assert np.array_equal(fit[0], labeled.xs) and np.array_equal(block[0], labeled.xs)

    def test_rejects_k_above_label_count(self):
        spec = _spec({"scenario": "cv-folds", "budgets": [10], "repetitions": 2,
                      "estimators": [{"name": "kfold-cv", "params": {"k": 2}}]})
        with pytest.raises(ValidationError, match="exceeds"):
            dataclasses.replace(spec, estimators=(EstimatorSpec("kfold-cv", k=11),))


class TestBiasSweep:
    def test_structure(self):
        spec = _spec({"scenario": "bias-sweep", "repetitions": 3,
                      "samplers": _mixtures(0.25, 2.5), "budgets": [12]})
        records = run_experiment(spec, workers=1)
        assert len(records) == 6
        assert {r.sampler for r in records} == {"biased-d0.25", "biased-d2.5"}
        assert {r.budget for r in records} == {12}
        for r in records:
            assert 0.0 <= r.estimate_mean <= 1.0
            assert 0.0 <= r.true_baseline <= 1.0

    def test_worker_invariance(self):
        spec = _spec({"scenario": "bias-sweep", "repetitions": 4,
                      "samplers": _mixtures(0.5, 1.5), "budgets": [9]})
        r1 = run_experiment(spec, workers=1)
        r2 = run_experiment(spec, workers=4)
        assert _strip_wall(r1) == _strip_wall(r2)

    def test_uses_the_spec_samplers(self):
        spec = _spec({"scenario": "bias-sweep", "repetitions": 2,
                      "samplers": _mixtures(0.5, 1.5), "budgets": [9]})
        other = tuple(dataclasses.replace(s, d=s.d + 0.25) for s in spec.samplers)
        # the labeled-set size is the spec's single budget
        other_spec = dataclasses.replace(spec, samplers=other, budgets=(12,))
        records = run_experiment(other_spec, workers=1)
        default_means = [r.estimate_mean for r in run_experiment(spec, workers=1)]
        assert [r.estimate_mean for r in records] != default_means
        assert {r.sampler for r in records} == {"biased-d0.75", "biased-d1.75"}
        for r in records:
            assert r.budget == 12
            d_idx = [s.label() for s in other].index(r.sampler)
            labeled = synthdata.draw_labeled(
                spec.task, other[d_idx], 12,
                derive_substream(spec.master_seed, (0, d_idx, r.repetition)),
            )
            expected = kfold_cv_detail(
                labeled, 3, spec.classifier,
                derive_substream(spec.master_seed, (1, d_idx, r.repetition)),
            )[0].mean()
            assert r.estimate_mean == expected

    def test_truth_is_the_mean_of_the_fold_refits(self):
        spec = _spec({"scenario": "bias-sweep", "repetitions": 2,
                      "samplers": _mixtures(0.5, 1.5), "budgets": [9]})
        records = run_experiment(spec, workers=1)
        assert len(records) == 4
        labels = [s.label() for s in spec.samplers]
        for r in records:
            d_idx = labels.index(r.sampler)
            labeled = acquisition_sequence(spec, d_idx, r.repetition)
            fold_of = estimators.random_folds(
                len(labeled), 3, derive_substream(spec.master_seed, (1, d_idx, r.repetition))
            )
            refits = [
                parzen.fit_arrays(labeled.xs[fold_of != i], labeled.ys[fold_of != i], spec.classifier)
                for i in range(3)
            ]
            expected = np.mean([estimators.true_baseline(m, spec.task) for m in refits])
            assert r.true_baseline == float(expected)

    def test_samplers_must_form_a_d_grid(self):
        spec = _spec({"scenario": "bias-sweep", "repetitions": 2,
                      "samplers": _mixtures(0.5, 1.5), "budgets": [9]})
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

    def _fig6_unit(self, monkeypatch, name):
        """The fig6 spec, the first unit's acquisition sequence, and the
        positional arguments of every ``parzen.<name>`` call that unit made."""
        spec = resolve_config(json.dumps(BUILTIN_SCENARIOS["fig6"].config)).spec
        calls = []
        original = getattr(parzen, name)

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(parzen, name, counting)
        paths = harness._comparison_paths(spec, (0, 0))
        rngs = (derive_substream(spec.master_seed, p) for p in paths)
        shared = harness.SCENARIO_TABLE[spec.scenario].shared(spec)
        harness._comparison_unit(spec, shared, (0, 0), rngs)
        return spec, acquisition_sequence(spec, 0, 0), calls

    def test_one_unit_fits_each_model_once(self, monkeypatch):
        # The acquisition sequence once, whose blocks' prefixes hold every
        # budget's model, then per budget one label check for self-label CV
        # only: it cross-validates the labels with the self-labeled pool. Plain
        # and reweighted CV read the sequence's own block, whose labels the
        # sequence's fit checked.
        spec, _, fits = self._fig6_unit(monkeypatch, "fit_arrays")
        cv_names = [e.name for e in spec.estimators if "k" in harness.ESTIMATOR_TABLE[e.name].reads]
        assert sorted(cv_names) == ["kfold-cv", "reweighted-cv", "self-label-cv"]
        assert len(fits) == 1 + len(spec.budgets) * cv_names.count("self-label-cv") == 4

    def test_one_sequence_kernel_block_serves_every_cv_estimate(self, monkeypatch):
        # Plain and reweighted CV at all three budgets, six estimates, read
        # the corners of one kernel block of the sequence under its model.
        spec, sequence, blocks = self._fig6_unit(monkeypatch, "kernel_block")
        own = [
            points for points, _ in blocks
            if len(points) <= len(sequence)
            and np.array_equal(points, sequence.xs[: len(points)])
        ]
        assert len(own) == 1 and len(own[0]) == max(spec.budgets)

    def test_truth_grid_is_built_once_per_run(self, monkeypatch):
        grids = []
        decision_grid = synthdata.decision_grid

        def counting(*args):
            grids.append(args)
            return decision_grid(*args)

        monkeypatch.setattr(synthdata, "decision_grid", counting)
        records = run_experiment(_spec(), workers=1)
        assert len({(r.sampler, r.repetition) for r in records}) == 9
        assert len(grids) == 1

    def test_one_unit_derives_streams_only_for_drawing_estimators(self):
        # The acquisition sequence and the pool, then one stream per budget
        # for each estimator that draws: the three CV estimators and the
        # subsample baseline, not generalization error or probabilistic.
        spec = resolve_config(json.dumps(BUILTIN_SCENARIOS["fig6"].config)).spec
        paths = harness.SCENARIO_TABLE[spec.scenario].paths(spec, (1, 4))
        drawing = [
            e_idx for e_idx, e in enumerate(spec.estimators)
            if harness.ESTIMATOR_TABLE[e.name].draws
        ]
        assert len(paths) == 2 + len(spec.budgets) * 4 == 2 + len(spec.budgets) * len(drawing)
        assert paths == [(0, 1, 4), (1, 1, 4)] + [
            (3, 1, 4, b_idx, e_idx)
            for b_idx in range(len(spec.budgets)) for e_idx in drawing
        ]

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
        "overrides",
        [
            {"scenario": "eval-size-distribution", "budgets": [5, 20]},
            {"scenario": "cv-folds"},
            {"scenario": "bias-sweep", "samplers": _mixtures(0.5, 1.0, 2.0), "repetitions": 2},
            {},
        ],
        ids=["eval-size", "cv-folds", "bias-sweep", "comparison"],
    )
    def test_unit_records_are_its_rows(self, overrides):
        # Every scenario's units are the (sampler_index, repetition) pairs, and
        # one unit run alone, on streams derived path by path, writes exactly
        # the rows with its sampler and repetition and reads every stream it
        # declares.
        spec = _spec(overrides)
        labels = [s.label() for s in spec.samplers]
        groups = {}
        for r in run_experiment(spec, workers=1):
            groups.setdefault((labels.index(r.sampler), r.repetition), []).append(r)
        assert sorted(groups) == [
            (s, rep) for s in range(len(spec.samplers)) for rep in range(spec.repetitions)
        ]
        row = harness.SCENARIO_TABLE[spec.scenario]
        for unit, rows in groups.items():
            rngs = iter([derive_substream(spec.master_seed, p) for p in row.paths(spec, unit)])
            alone = sorted(
                row.run_unit(spec, row.shared(spec), unit, rngs), key=harness.RunRecord.sort_key
            )
            assert _strip_wall(alone) == _strip_wall(rows)
            assert next(rngs, None) is None

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
        # run_experiment imports the pool class from concurrent.futures when
        # it needs one, so the stand-in is installed there.
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
        monkeypatch.setattr(_InlinePool, "asked", [])
        records = run_experiment(spec, workers=workers)
        assert _InlinePool.asked == pool_workers
        assert _strip_wall(records) == _strip_wall(serial)

    @pytest.mark.parametrize("workers, message", [
        (0, "workers must be >= 1, got 0"),
        (-3, "workers must be >= 1, got -3"),
        (True, "workers must be an integer, got True"),
        (2.5, "workers must be an integer, got 2.5"),
    ])
    def test_worker_count_checked_before_any_unit(self, monkeypatch, workers, message):
        spec = _spec({"scenario": "eval-size-distribution", "budgets": [5], "repetitions": 5})
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
        monkeypatch.setattr(_InlinePool, "asked", [])
        monkeypatch.setattr(harness, "_run_unit", lambda *a: pytest.fail("a unit ran"))
        with pytest.raises(ValidationError, match=f"^{message}$"):
            run_experiment(spec, workers=workers)
        assert _InlinePool.asked == []

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
        spec = _spec({"scenario": "bias-sweep", "samplers": _mixtures(0.5, 2.0),
                      "repetitions": 1})
        for r in run_experiment(spec, workers=1):
            assert math.isfinite(r.true_baseline) and 0.0 <= r.true_baseline <= 1.0
            assert 0.0 <= r.wall_ms < 200.0
        assert len(calls) == 2 * 3  # one per fold model of each record
