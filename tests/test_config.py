import dataclasses
import json
import re

import numpy as np
import pytest

from alperf import parzen
from alperf.config import BUILTIN_SCENARIOS, resolve_config
from alperf.errors import ValidationError
from alperf.harness import SCENARIO_TABLE, EstimatorSpec, ExperimentSpec
from alperf.parzen import ClassifierConfig
from alperf.synthdata import (
    GaussianComponent,
    SamplingDistribution,
    TaskModel,
    default_task,
    unbiased_sampler,
)


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

    @pytest.mark.parametrize("scenario", SCENARIO_TABLE)
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
        distances = [s.d for s in fig5.samplers]
        assert distances[0] == 0.25 and distances[-1] == 3.0
        assert len(distances) == 12

    @pytest.mark.parametrize(
        "cfg",
        [
            {"scenario": "eval-size-distribution", "master_seed": 3, "train_size": 40,
             "budgets": [5, 50]},
            {"scenario": "cv-folds", "master_seed": 4, "budgets": [24],
             "samplers": [{"kind": "symmetric-mixture", "d": 0.7}]},
            {"scenario": "bias-sweep", "master_seed": 5, "budgets": [24],
             "samplers": [{"kind": "symmetric-mixture", "d": 0.4},
                          {"kind": "symmetric-mixture", "d": 1.6}]},
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
            assert [s["d"] for s in r2.document["samplers"]] == [s["d"] for s in cfg["samplers"]]
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

    def test_bias_sweep_takes_samplers_and_budgets(self):
        # bias-sweep takes the keys every scenario takes, and no dialect of
        # its own: d_grid and labeled_size are unknown keys.
        spec = _resolve({"scenario": "bias-sweep", "budgets": [24],
                         "samplers": [{"kind": "symmetric-mixture", "d": 0.5}]}).spec
        assert spec.budgets == (24,) and [s.label() for s in spec.samplers] == ["biased-d0.5"]
        for key, value in (("d_grid", [0.5, 1.0]), ("labeled_size", 24)):
            with pytest.raises(ValidationError, match=f"^unknown configuration key.*: {key}$"):
                _resolve({"scenario": "bias-sweep", key: value})

    def test_bias_sweep_budget_message_names_budgets(self):
        with pytest.raises(ValidationError, match=r"^budgets\[0\] must be an integer, got 2.5$"):
            _resolve({"scenario": "bias-sweep", "budgets": [2.5]})

    def test_bias_sweep_grid_must_increase(self):
        with pytest.raises(ValidationError, match="distances d are positive and strictly incr"):
            _resolve({"scenario": "bias-sweep",
                      "samplers": [{"kind": "symmetric-mixture", "d": 1.0},
                                   {"kind": "symmetric-mixture", "d": 0.5}]})

    def test_cv_folds_k_within_budget(self):
        with pytest.raises(ValidationError, match="k=20 exceeds the smallest budget"):
            _resolve({"scenario": "cv-folds", "budgets": [10]})
        with pytest.raises(ValidationError, match=r"k=5 exceeds the smallest budget \(4\)"):
            _resolve({"scenario": "bias-sweep", "budgets": [4],
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

    @pytest.mark.parametrize("key, value", [("std", 0.5), ("priors", [0.25, 0.75])])
    def test_sampler_takes_only_kind_and_d(self, key, value):
        # A sampler's width and weights are fixed; setting either is an unknown key.
        for kind in ("data-marginal", "symmetric-mixture"):
            with pytest.raises(ValidationError, match=rf"^samplers\[1\] has unknown key\(s\): {key}$"):
                _resolve({"scenario": "estimator-comparison",
                          "samplers": [{"kind": "data-marginal"},
                                       {"kind": kind, "d": 0.0, key: value}]})

    def test_sampler_defaults_are_the_dataclass_defaults(self):
        r = _resolve({"scenario": "estimator-comparison",
                      "samplers": [{"kind": "symmetric-mixture", "d": 1.0}]})
        (sampler,) = r.spec.samplers
        assert sampler == SamplingDistribution(kind="symmetric-mixture", d=1.0)
        assert r.document["samplers"] == [{"kind": "symmetric-mixture", "d": 1.0}]

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


_UNIT = GaussianComponent(1.0, 0.0, 1.0)
_SYMMETRIC = "symmetric-mixture"

# Every number field of a spec dataclass: a build with the field set to v (0.5
# is valid for each), a read of the held value, and the field the message names.
_NUMBER_FIELDS = {
    "component-weight": (lambda v: GaussianComponent(v, 0.0, 1.0), lambda o: o.weight,
                         "component weight"),
    "component-mean": (lambda v: GaussianComponent(1.0, v, 1.0), lambda o: o.mean,
                       "component mean"),
    "component-std": (lambda v: GaussianComponent(1.0, 0.0, v), lambda o: o.std,
                      "component std"),
    "class-prior": (lambda v: TaskModel((0.5, v), ((_UNIT,), (_UNIT,))),
                    lambda o: o.class_priors[1], r"class_priors\[1\]"),
    "sampler-d": (lambda v: SamplingDistribution(_SYMMETRIC, d=v), lambda o: o.d, "d"),
    "bandwidth": (lambda v: ClassifierConfig(bandwidth=v), lambda o: o.bandwidth, "bandwidth"),
    "prior_weight": (lambda v: ClassifierConfig(prior_weight=v), lambda o: o.prior_weight,
                     "prior_weight"),
}


def _cv_folds_spec():
    return _resolve({"scenario": "cv-folds"}).spec


class TestValueTypes:
    """Each spec dataclass checks the types of its own fields, so a spec built
    in Python is checked exactly like one parsed from JSON."""

    @pytest.mark.parametrize("value", [True, "0.5", None], ids=["bool", "str", "none"])
    @pytest.mark.parametrize("field", _NUMBER_FIELDS)
    def test_number_fields_reject_other_types(self, field, value):
        build, _, name = _NUMBER_FIELDS[field]
        message = f"^{name} must be a number, got {re.escape(repr(value))}$"
        with pytest.raises(ValidationError, match=message):
            build(value)

    @pytest.mark.parametrize("value", [np.float32(0.5), np.float64(0.5)],
                             ids=["numpy-float32", "numpy-float64"])
    @pytest.mark.parametrize("field", _NUMBER_FIELDS)
    def test_number_fields_hold_floats(self, field, value):
        build, read, _ = _NUMBER_FIELDS[field]
        held = read(build(value))
        assert type(held) is float and held == 0.5
        assert build(value) == build(0.5)

    @pytest.mark.parametrize("value", [2.5, True, "2", None], ids=["float", "bool", "str", "none"])
    def test_class_count_must_be_an_integer(self, value):
        message = f"^class_count must be an integer, got {re.escape(repr(value))}$"
        with pytest.raises(ValidationError, match=message):
            ClassifierConfig(class_count=value)

    def test_numpy_class_count_is_held_as_int(self):
        assert type(ClassifierConfig(class_count=np.int64(3)).class_count) is int

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: dataclasses.replace(_cv_folds_spec(), task="x"),
             "task must be a TaskModel, got 'x'"),
            (lambda: dataclasses.replace(_cv_folds_spec(), classifier="x"),
             "classifier must be a ClassifierConfig, got 'x'"),
            (lambda: TaskModel((0.5, 0.5), (((1.0, 0.0, 1.0),), ((1.0, 0.0, 1.0),))),
             "class_components must be a tuple of tuples of GaussianComponent, got"),
            (lambda: TaskModel((0.5, 0.5), 0.5),
             "class_components must be a tuple of tuples of GaussianComponent, got 0.5"),
            (lambda: TaskModel(0.5, ((_UNIT,), (_UNIT,))),
             "class_priors must be a tuple of numbers, got 0.5"),
            (lambda: EstimatorSpec(["kfold-cv"]), r"unknown estimator \['kfold-cv'\]"),
            (lambda: dataclasses.replace(_cv_folds_spec(), pool_size=5),
             "cv-folds does not take pool_size"),
            (lambda: dataclasses.replace(_cv_folds_spec(), subsample_reps=5),
             "cv-folds does not take subsample_reps"),
            (lambda: dataclasses.replace(_cv_folds_spec(), train_size=5),
             "cv-folds does not take train_size"),
        ],
        ids=[
            "spec-task-str", "spec-classifier-str", "components-plain-tuples",
            "components-float", "priors-float", "estimator-name-list",
            "cv-folds-pool_size", "cv-folds-subsample_reps", "cv-folds-train_size",
        ],
    )
    def test_wrong_values_name_their_field(self, build, message):
        # A wrong number is covered above, for every number field.
        with pytest.raises(ValidationError, match=f"^{message}"):
            build()

    def test_each_scenario_takes_the_sizes_it_reads(self):
        # A size at its default is no setting, so every scenario accepts it.
        spec = _cv_folds_spec()
        assert dataclasses.replace(spec, pool_size=ExperimentSpec.pool_size) == spec
        eval_size = _resolve({"scenario": "eval-size-distribution", "train_size": 40}).spec
        assert eval_size.train_size == 40
        with pytest.raises(ValidationError, match="^eval-size-distribution does not take pool"):
            dataclasses.replace(eval_size, pool_size=5)
        comparison = _resolve({"scenario": "estimator-comparison"}).spec
        with pytest.raises(ValidationError, match="^estimator-comparison does not take train"):
            dataclasses.replace(comparison, train_size=5)

    def test_task_lists_become_tuples(self):
        listed = TaskModel([0.5, 0.5], [[_UNIT], [_UNIT]])
        held = TaskModel((0.5, 0.5), ((_UNIT,), (_UNIT,)))
        assert listed == held and hash(listed) == hash(held)
        assert type(listed.class_priors) is tuple
        assert all(type(comps) is tuple for comps in listed.class_components)

    @pytest.mark.parametrize(
        "overrides, build, path",
        [
            ({"classifier": {"bandwidth": "0.2"}}, lambda: ClassifierConfig(bandwidth="0.2"),
             "classifier: "),
            ({"samplers": [{"kind": _SYMMETRIC, "d": "0.3"}]},
             lambda: SamplingDistribution(_SYMMETRIC, d="0.3"), "samplers[0]: "),
            ({"budgets": [20.5]}, lambda: dataclasses.replace(_cv_folds_spec(), budgets=(20.5,)),
             ""),
        ],
        ids=["bandwidth-str", "sampler-d-str", "budget-float"],
    )
    def test_json_and_python_give_one_message(self, overrides, build, path):
        # The JSON message is the dataclass's own, after the field's path.
        with pytest.raises(ValidationError) as from_python:
            build()
        with pytest.raises(ValidationError) as from_json:
            _resolve({"scenario": "cv-folds", **overrides})
        assert str(from_json.value) == f"{path}{from_python.value}"


_MARGINAL = {"kind": "data-marginal"}
_MIXTURE = {"kind": _SYMMETRIC, "d": 0.5}
_BOTH = (unbiased_sampler(), SamplingDistribution(_SYMMETRIC, d=0.5))

# Each rule a scenario's row sets: the JSON setting that breaks it, the same
# setting as spec values, and the message.
_ROW_RULES = {
    "eval-size-two-samplers": (
        "eval-size-distribution", {"samplers": [_MARGINAL, _MIXTURE]}, {"samplers": _BOTH},
        "eval-size-distribution uses exactly one sampler, got 2"),
    "eval-size-kfold-cv": (
        "eval-size-distribution", {"estimators": [{"name": "kfold-cv"}]},
        {"estimators": (EstimatorSpec("kfold-cv"),)},
        r"eval-size-distribution supports only the estimators subsample-baseline, "
        r"got \['kfold-cv'\]"),
    "cv-folds-two-samplers": (
        "cv-folds", {"samplers": [_MARGINAL, _MIXTURE]}, {"samplers": _BOTH},
        "cv-folds uses exactly one sampler, got 2"),
    "cv-folds-two-budgets": (
        "cv-folds", {"budgets": [20, 30]}, {"budgets": (20, 30)},
        "cv-folds uses exactly one budget, got 2"),
    "cv-folds-probabilistic": (
        "cv-folds", {"estimators": [{"name": "probabilistic"}]},
        {"estimators": (EstimatorSpec("probabilistic"),)},
        r"cv-folds supports only the estimators kfold-cv, reweighted-cv, "
        r"got \['probabilistic'\]"),
    "bias-sweep-two-budgets": (
        "bias-sweep", {"budgets": [20, 30]}, {"budgets": (20, 30)},
        "bias-sweep uses exactly one budget, got 2"),
    "bias-sweep-two-kfold-cv": (
        "bias-sweep",
        {"estimators": [{"name": "kfold-cv", "params": {"k": 3}},
                        {"name": "kfold-cv", "params": {"k": 5}}]},
        {"estimators": (EstimatorSpec("kfold-cv", k=3), EstimatorSpec("kfold-cv", k=5))},
        "bias-sweep uses exactly one estimator, got 2"),
    "bias-sweep-probabilistic": (
        "bias-sweep", {"estimators": [{"name": "probabilistic"}]},
        {"estimators": (EstimatorSpec("probabilistic"),)},
        r"bias-sweep supports only the estimators kfold-cv, got \['probabilistic'\]"),
    "bias-sweep-reweighted-cv": (
        "bias-sweep", {"estimators": [{"name": "reweighted-cv", "params": {"k": 3}}]},
        {"estimators": (EstimatorSpec("reweighted-cv"),)},
        r"bias-sweep supports only the estimators kfold-cv, got \['reweighted-cv'\]"),
}


class TestScenarioRows:
    """What a scenario is lives in its ``harness.SCENARIO_TABLE`` row: the
    defaults a JSON config applies, and the rules a spec checks."""

    @pytest.mark.parametrize("scenario", SCENARIO_TABLE)
    def test_json_defaults_are_the_row_defaults(self, scenario):
        row = SCENARIO_TABLE[scenario]
        spec = _resolve({"scenario": scenario}).spec
        assert spec.estimators == row.estimators
        assert spec.samplers == row.samplers
        assert spec.budgets == row.budgets
        assert spec.repetitions == row.repetitions
        assert spec.task == default_task()

    @pytest.mark.parametrize("rule", _ROW_RULES)
    def test_row_rules_hold_from_json_and_python(self, rule):
        scenario, overrides, values, message = _ROW_RULES[rule]
        with pytest.raises(ValidationError, match=f"^{message}$") as from_json:
            _resolve({"scenario": scenario, **overrides})
        spec = _resolve({"scenario": scenario}).spec
        with pytest.raises(ValidationError) as from_python:
            dataclasses.replace(spec, **values)
        assert str(from_python.value) == str(from_json.value)

    @pytest.mark.parametrize("settings", [{"d": 5.0}], ids=["d"])
    def test_data_marginal_refuses_settings(self, settings):
        with pytest.raises(ValidationError, match="^data-marginal takes no further parameters"):
            SamplingDistribution("data-marginal", **settings)

    def test_data_marginal_accepts_its_defaults(self):
        assert SamplingDistribution("data-marginal", d=0) == unbiased_sampler()
        r = _resolve({"scenario": "estimator-comparison",
                      "samplers": [{"kind": "data-marginal", "d": 0.0}]})
        assert r.spec.samplers == (unbiased_sampler(),)

    def test_data_marginal_message_from_json(self):
        with pytest.raises(ValidationError) as from_python:
            SamplingDistribution("data-marginal", d=1.0)
        with pytest.raises(ValidationError) as from_json:
            _resolve({"scenario": "estimator-comparison",
                      "samplers": [{"kind": "data-marginal", "d": 1.0}]})
        assert str(from_json.value) == f"samplers[0]: {from_python.value}"


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
