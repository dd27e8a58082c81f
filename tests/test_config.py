import dataclasses
import json

import pytest

from alperf import parzen
from alperf.config import BUILTIN_SCENARIOS, resolve_config
from alperf.errors import ValidationError
from alperf.harness import SCENARIOS, EstimatorSpec, ExperimentSpec
from alperf.parzen import ClassifierConfig
from alperf.synthdata import SamplingDistribution, default_task, unbiased_sampler


def _resolve(cfg):
    return resolve_config(json.dumps(cfg))


class TestDefaults:
    def test_minimal_comparison_config(self):
        r = _resolve({"scenario": "estimator-comparison", "master_seed": 42})
        spec = r.spec
        assert spec.budgets == (10, 30, 50)
        assert spec.pool_size == 1000
        assert spec.repetitions == 200
        assert spec.classifier.bandwidth == 0.2
        assert spec.classifier.prior_weight == 0.01
        assert len(spec.samplers) == 3
        assert [s.label() for s in spec.samplers] == [
            "unbiased", "biased-d0.3", "biased-d2",
        ]
        assert [e.estimator_id() for e in spec.estimators] == [
            "generalization-error", "cv-3fold", "self-label-cv-3fold",
            "reweighted-cv-3fold", "probabilistic", "subsample-baseline",
        ]
        for key in ("budgets", "pool_size", "classifier.bandwidth",
                    "classifier.epsilon", "task", "samplers", "estimators",
                    "repetitions", "subsample_reps"):
            assert key in r.defaults_applied
        assert "master_seed" not in r.defaults_applied

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_json_defaults_are_the_dataclass_defaults(self, scenario):
        r = _resolve({"scenario": scenario})
        spec_defaults = {
            f.name: f.default
            for f in dataclasses.fields(ExperimentSpec)
            if f.default is not dataclasses.MISSING
        }
        assert set(spec_defaults) == {"pool_size", "subsample_reps", "master_seed", "train_size"}
        for key, default in spec_defaults.items():
            if key in r.document:
                assert key in r.defaults_applied
                assert r.document[key] == default == getattr(r.spec, key)
        assert r.document["classifier"] == {
            "bandwidth": ClassifierConfig().bandwidth,
            "epsilon": ClassifierConfig().prior_weight,
        }

    def test_spec_without_budgets_fails_on_construction(self):
        # budgets and repetitions differ by scenario: the spec has no default
        with pytest.raises(TypeError, match="budgets"):
            ExperimentSpec(
                scenario="cv-folds", task=default_task(), samplers=(unbiased_sampler(),),
                classifier=ClassifierConfig(), estimators=(EstimatorSpec("kfold-cv"),),
                repetitions=5,
            )

    def test_default_task_shape(self):
        spec = resolve_config('{"scenario": "estimator-comparison"}').spec
        assert spec.task.class_priors == (0.5, 0.5)
        means = [c[0].mean for c in spec.task.class_components]
        assert means == [-1.5, 1.5]

    def test_scenario_specific_defaults(self):
        assert _resolve({"scenario": "eval-size-distribution"}).spec.budgets == (
            5, 10, 20, 100,
        )
        assert _resolve({"scenario": "eval-size-distribution"}).spec.repetitions == 1000
        fig3 = _resolve({"scenario": "cv-folds"}).spec
        assert fig3.budgets == (20,)
        assert [e.k for e in fig3.estimators] == [2, 5, 10, 20]
        fig5 = _resolve({"scenario": "bias-sweep"}).spec
        assert fig5.budgets == (30,)
        d_grid = [s.d for s in fig5.samplers]
        assert d_grid[0] == 0.25 and d_grid[-1] == 3.0
        assert len(d_grid) == 12

    @pytest.mark.parametrize(
        "cfg",
        [
            {"scenario": "eval-size-distribution", "master_seed": 3, "train_size": 40,
             "budgets": [5, 50]},
            {"scenario": "cv-folds", "master_seed": 4, "budgets": [24],
             "samplers": [{"kind": "symmetric-mixture", "d": 0.7}]},
            {"scenario": "bias-sweep", "master_seed": 5, "labeled_size": 24,
             "d_grid": [0.4, 1.6]},
            {"scenario": "estimator-comparison", "master_seed": 9, "pool_size": 300,
             "subsample_reps": 30,
             "estimators": [
                 {"name": "reweighted-cv", "params": {"k": 5}},
                 {"name": "probabilistic", "params": {}},
             ]},
        ],
        ids=lambda cfg: cfg["scenario"],
    )
    def test_document_echo_roundtrips(self, cfg):
        # Every scenario, with its own keys set away from their defaults:
        # the echo resolves back to the same spec and document, and applies
        # no default of its own.
        for given in ({"scenario": cfg["scenario"], "master_seed": 9}, cfg):
            r = _resolve(given)
            r2 = _resolve(r.document)
            assert r2.spec == r.spec
            assert r2.document == r.document
            assert r2.defaults_applied == ()
        for key, value in cfg.items():
            if key not in ("samplers", "estimators"):
                assert r2.document[key] == value
        if "estimators" in cfg:
            assert r2.document["estimators"] == cfg["estimators"]
        if "samplers" in cfg:
            assert [s["d"] for s in r2.document["samplers"]] == [0.7]
        assert r2.spec.master_seed == cfg["master_seed"]


class TestValidation:
    def test_malformed_json_reports_position(self):
        with pytest.raises(ValidationError, match=r"line 1, column"):
            resolve_config("{nope}")

    def test_scenario_required(self):
        with pytest.raises(ValidationError, match="scenario"):
            resolve_config("{}")

    def test_unknown_scenario(self):
        with pytest.raises(ValidationError, match="scenario must be one of"):
            resolve_config('{"scenario": "grid-search"}')

    def test_unknown_key_rejected(self):
        with pytest.raises(ValidationError, match="unknown configuration key"):
            _resolve({"scenario": "estimator-comparison", "workers": 4})
        # the true baseline is exact: it has no evaluation-set size
        with pytest.raises(ValidationError, match="unknown configuration key.*true_eval_size"):
            _resolve({"scenario": "estimator-comparison", "true_eval_size": 2000})

    def test_negative_bandwidth_named(self):
        with pytest.raises(ValidationError, match="classifier: bandwidth must be > 0"):
            _resolve({"scenario": "estimator-comparison",
                      "classifier": {"bandwidth": -1}})

    def test_budgets_must_increase(self):
        with pytest.raises(ValidationError, match="strictly increasing"):
            _resolve({"scenario": "estimator-comparison", "budgets": [30, 10]})

    def test_budget_type_checked(self):
        with pytest.raises(ValidationError, match="budgets"):
            _resolve({"scenario": "estimator-comparison", "budgets": [10.5, 30]})

    def test_estimator_params_checked(self):
        with pytest.raises(ValidationError, match="params"):
            _resolve({"scenario": "estimator-comparison",
                      "estimators": [{"name": "kfold-cv", "params": {"folds": 3}}]})
        with pytest.raises(ValidationError, match="name must be one of"):
            _resolve({"scenario": "estimator-comparison",
                      "estimators": [{"name": "bootstrap"}]})
        with pytest.raises(ValidationError, match=r"estimators\[1\]: .*k must be >= 2"):
            _resolve({"scenario": "estimator-comparison",
                      "estimators": [{"name": "probabilistic"},
                                     {"name": "kfold-cv", "params": {"k": 1}}]})

    def test_duplicate_estimators_rejected(self):
        with pytest.raises(ValidationError, match="duplicate"):
            _resolve({"scenario": "estimator-comparison",
                      "estimators": [{"name": "probabilistic"},
                                     {"name": "probabilistic"}]})

    def test_bias_sweep_rejects_samplers_and_budgets(self):
        with pytest.raises(ValidationError, match="unknown configuration key"):
            _resolve({"scenario": "bias-sweep",
                      "samplers": [{"kind": "data-marginal"}]})
        with pytest.raises(ValidationError, match="unknown configuration key"):
            _resolve({"scenario": "bias-sweep", "budgets": [30]})

    def test_bias_sweep_grid_must_increase(self):
        with pytest.raises(ValidationError, match="d_grid"):
            _resolve({"scenario": "bias-sweep", "d_grid": [1.0, 0.5]})

    def test_cv_folds_k_within_budget(self):
        with pytest.raises(ValidationError, match="k=20 exceeds the smallest budget"):
            _resolve({"scenario": "cv-folds", "budgets": [10]})
        # bias-sweep's single budget is its labeled_size
        with pytest.raises(ValidationError, match=r"k=5 exceeds the smallest budget \(4\)"):
            _resolve({"scenario": "bias-sweep", "labeled_size": 4,
                      "estimators": [{"name": "kfold-cv", "params": {"k": 5}}]})

    def test_sampler_validation(self):
        with pytest.raises(ValidationError, match="needs d"):
            _resolve({"scenario": "estimator-comparison",
                      "samplers": [{"kind": "symmetric-mixture"}]})
        with pytest.raises(ValidationError, match="no further parameters"):
            _resolve({"scenario": "estimator-comparison",
                      "samplers": [{"kind": "data-marginal", "d": 1.0}]})
        with pytest.raises(ValidationError, match=r"samplers\[0\]: d must be"):
            _resolve({"scenario": "estimator-comparison",
                      "samplers": [{"kind": "symmetric-mixture", "d": -1.0}]})

    def test_nan_priors_rejected_with_field_path(self):
        components = [[{"weight": 1.0, "mean": 0.0, "std": 1.0}],
                      [{"weight": 1.0, "mean": 1.0, "std": 1.0}]]
        nan = float("nan")  # json.dumps writes it as the NaN literal
        with pytest.raises(ValidationError, match="^task: class priors must be finite"):
            _resolve({"scenario": "estimator-comparison",
                      "task": {"priors": [nan, nan], "components": components}})
        with pytest.raises(ValidationError, match=r"^samplers\[1\]: component_priors"):
            _resolve({"scenario": "estimator-comparison",
                      "samplers": [{"kind": "data-marginal"},
                                   {"kind": "symmetric-mixture", "d": 0.5,
                                    "priors": [nan, nan]}]})

    def test_sampler_defaults_are_the_dataclass_defaults(self):
        r = _resolve({"scenario": "estimator-comparison",
                      "samplers": [{"kind": "symmetric-mixture", "d": 1.0}]})
        (sampler,) = r.spec.samplers
        assert sampler == SamplingDistribution(kind="symmetric-mixture", d=1.0)
        assert r.document["samplers"] == [
            {"kind": "symmetric-mixture", "d": 1.0,
             "std": SamplingDistribution.component_std,
             "priors": list(SamplingDistribution.component_priors)},
        ]

    @pytest.mark.parametrize(
        "overrides, points",
        [
            ({"task": {"priors": [0.5, 0.5],
                       "components": [[{"weight": 1.0, "mean": -1.5, "std": 1e4}],
                                      [{"weight": 1.0, "mean": 1.5, "std": 1e4}]]}},
             "16,000,301"),
            ({"classifier": {"bandwidth": 1e-5}}, "40,000,001"),
        ],
        ids=["std-1e4", "bandwidth-1e-5"],
    )
    def test_oversized_truth_grid_rejected(self, monkeypatch, overrides, points):
        # Rejected from the task span and the step alone: no rule is read.
        def no_posterior(*args):
            raise AssertionError("a posterior was computed")

        monkeypatch.setattr(parzen, "posterior_batch", no_posterior)
        with pytest.raises(ValidationError, match=f"take {points} grid points "
                           r"\(at most 1,000,000\): the task spans \[.*\] and the step is"):
            _resolve({"scenario": "cv-folds", **overrides})

    def test_wide_task_within_grid_bound_resolves(self):
        # std 100 at the default bandwidth: 160,301 grid points.
        components = [[{"weight": 1.0, "mean": -1.5, "std": 100.0}],
                      [{"weight": 1.0, "mean": 1.5, "std": 100.0}]]
        r = _resolve({"scenario": "cv-folds",
                      "task": {"priors": [0.5, 0.5], "components": components}})
        assert r.spec.task.class_components[0][0].std == 100.0

    def test_task_validation_propagates(self):
        with pytest.raises(ValidationError, match="sum to 1"):
            _resolve({"scenario": "estimator-comparison",
                      "task": {"priors": [0.7, 0.7],
                               "components": [
                                   [{"weight": 1.0, "mean": 0.0, "std": 1.0}],
                                   [{"weight": 1.0, "mean": 1.0, "std": 1.0}]]}})


class TestBuiltins:
    def test_exactly_four(self):
        assert sorted(BUILTIN_SCENARIOS) == ["fig2", "fig3", "fig5", "fig6"]

    @pytest.mark.parametrize("name", ["fig2", "fig3", "fig5", "fig6"])
    def test_each_builtin_resolves(self, name):
        r = _resolve(BUILTIN_SCENARIOS[name].config)
        assert r.spec.master_seed == 42

    def test_builtin_scenario_kinds(self):
        kinds = {n: BUILTIN_SCENARIOS[n].config["scenario"] for n in BUILTIN_SCENARIOS}
        assert kinds == {
            "fig2": "eval-size-distribution",
            "fig3": "cv-folds",
            "fig5": "bias-sweep",
            "fig6": "estimator-comparison",
        }
