import json

import pytest

from alperf.config import BUILTIN_SCENARIOS, parse_config, resolve_config
from alperf.errors import ValidationError


def _resolve(cfg):
    return resolve_config(json.dumps(cfg))


class TestDefaults:
    def test_minimal_comparison_config(self):
        r = _resolve({"scenario": "estimator-comparison", "master_seed": 42})
        spec = r.spec
        assert spec.budgets == (10, 30, 50)
        assert spec.pool_size == 1000
        assert spec.true_eval_size == 2000
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
                    "repetitions", "true_eval_size", "subsample_reps"):
            assert key in r.defaults_applied
        assert "master_seed" not in r.defaults_applied

    def test_default_task_shape(self):
        spec = parse_config('{"scenario": "estimator-comparison"}')
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
                 {"name": "reweighted-cv", "params": {"k": 3, "weight_cap": 5.0}},
                 {"name": "probabilistic", "params": {"count_mode": "hard"}},
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
            parse_config("{nope}")

    def test_scenario_required(self):
        with pytest.raises(ValidationError, match="scenario"):
            parse_config("{}")

    def test_unknown_scenario(self):
        with pytest.raises(ValidationError, match="scenario must be one of"):
            parse_config('{"scenario": "grid-search"}')

    def test_unknown_key_rejected(self):
        with pytest.raises(ValidationError, match="unknown configuration key"):
            _resolve({"scenario": "estimator-comparison", "workers": 4})

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
