"""JSON experiment configuration: schema, validation, defaults, builtins.

The configuration document mirrors ExperimentSpec. This module checks the
JSON itself: types and unknown keys. Every range and cross-field rule lives
in the dataclass that owns the field (TaskModel, SamplingDistribution,
ClassifierConfig, EstimatorSpec, ExperimentSpec), so it is checked before
any computation starts and names the offending field's path. Every default
that gets applied is reported back so a run can echo its fully resolved
configuration.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass

from . import harness, synthdata
from .errors import ValidationError
from .harness import EstimatorSpec, ExperimentSpec
from .parzen import ClassifierConfig
from .synthdata import GaussianComponent, SamplingDistribution, TaskModel

_BASE_KEYS = {
    "scenario",
    "master_seed",
    "task",
    "classifier",
    "estimators",
    "repetitions",
    "true_eval_size",
}
_SCENARIO_KEYS = {
    harness.EVAL_SIZE_DISTRIBUTION: {"samplers", "budgets", "train_size"},
    harness.CV_FOLDS: {"samplers", "budgets"},
    harness.BIAS_SWEEP: {"labeled_size", "d_grid"},
    harness.ESTIMATOR_COMPARISON: {
        "samplers",
        "budgets",
        "pool_size",
        "subsample_reps",
    },
}

_DEFAULT_REPETITIONS = {
    harness.EVAL_SIZE_DISTRIBUTION: 1000,
    harness.CV_FOLDS: 50,
    harness.BIAS_SWEEP: 50,
    harness.ESTIMATOR_COMPARISON: 200,
}
_DEFAULT_D_GRID = [0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0, 2.25, 2.5, 2.75, 3.0]
_DEFAULT_BUDGETS = {
    harness.EVAL_SIZE_DISTRIBUTION: [5, 10, 20, 100],
    harness.CV_FOLDS: [20],
    harness.ESTIMATOR_COMPARISON: [10, 30, 50],
}
_DEFAULT_ESTIMATORS = {
    harness.EVAL_SIZE_DISTRIBUTION: [{"name": harness.SUBSAMPLE_BASELINE, "params": {}}],
    harness.CV_FOLDS: [
        {"name": harness.KFOLD_CV, "params": {"k": k}} for k in (2, 5, 10, 20)
    ],
    harness.BIAS_SWEEP: [{"name": harness.KFOLD_CV, "params": {"k": 3}}],
    harness.ESTIMATOR_COMPARISON: [
        {"name": harness.GENERALIZATION_ERROR, "params": {}},
        {"name": harness.KFOLD_CV, "params": {"k": 3}},
        {"name": harness.SELF_LABEL_CV, "params": {"k": 3}},
        {"name": harness.REWEIGHTED_CV, "params": {"k": 3}},
        {"name": harness.PROBABILISTIC, "params": {}},
        {"name": harness.SUBSAMPLE_BASELINE, "params": {}},
    ],
}
# The three acquisition regimes of the comparison scenario: unbiased,
# boundary-focused, and boundary-avoiding.
_DEFAULT_COMPARISON_SAMPLERS = [
    {"kind": synthdata.DATA_MARGINAL},
    {"kind": synthdata.SYMMETRIC_MIXTURE, "d": 0.3, "std": 0.25, "priors": [0.5, 0.5]},
    {"kind": synthdata.SYMMETRIC_MIXTURE, "d": 2.0, "std": 0.25, "priors": [0.5, 0.5]},
]
_DEFAULT_TASK = {
    "priors": [0.5, 0.5],
    "components": [
        [{"weight": 1.0, "mean": -1.5, "std": 1.0}],
        [{"weight": 1.0, "mean": 1.5, "std": 1.0}],
    ],
}


@dataclass(frozen=True)
class ResolvedConfig:
    """A validated spec plus its fully resolved document and the list of
    keys that were filled in from defaults."""

    spec: ExperimentSpec
    document: dict
    defaults_applied: tuple[str, ...]


@dataclass(frozen=True)
class BuiltinScenario:
    name: str
    description: str
    config: dict


BUILTIN_SCENARIOS: dict[str, BuiltinScenario] = {
    "fig2": BuiltinScenario(
        "fig2",
        "performance-distribution study: one fixed classifier evaluated on "
        "fresh unbiased sets of size 5/10/20/100, 1000 repetitions",
        {"scenario": harness.EVAL_SIZE_DISTRIBUTION, "master_seed": 42},
    ),
    "fig3": BuiltinScenario(
        "fig3",
        "fold-count study: 20 unbiased labels cross-validated with "
        "k=2/5/10/20 against the all-label true baseline, 50 repetitions",
        {"scenario": harness.CV_FOLDS, "master_seed": 42},
    ),
    "fig5": BuiltinScenario(
        "fig5",
        "sampling-bias sweep: 30 biased labels, 3-fold CV versus hold-out "
        "truth across boundary distances 0.25..3.0, 50 repetitions",
        {"scenario": harness.BIAS_SWEEP, "master_seed": 42},
    ),
    "fig6": BuiltinScenario(
        "fig6",
        "estimator comparison: every estimator at budgets 10/30/50 under "
        "unbiased, boundary-focused and boundary-avoiding acquisition, "
        "200 repetitions",
        {"scenario": harness.ESTIMATOR_COMPARISON, "master_seed": 42},
    ),
}


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise ValidationError(message)


@contextmanager
def _at(field: str):
    """Prefix a validation error raised while building ``field``."""
    try:
        yield
    except ValidationError as exc:
        raise ValidationError(f"{field}: {exc}") from None


def _as_int(value, field: str) -> int:
    _expect(
        isinstance(value, int) and not isinstance(value, bool),
        f"{field} must be an integer",
    )
    return value


def _as_number(value, field: str) -> float:
    _expect(
        isinstance(value, (int, float)) and not isinstance(value, bool),
        f"{field} must be a number",
    )
    return float(value)


def _as_list(value, field: str):
    _expect(isinstance(value, list), f"{field} must be a list")
    return value


def _as_object(value, field: str, allowed: set[str]) -> dict:
    _expect(isinstance(value, dict), f"{field} must be an object")
    unknown = sorted(set(value) - allowed)
    _expect(not unknown, f"{field} has unknown key(s): {', '.join(unknown)}")
    return value


def _build_task(obj) -> TaskModel:
    obj = _as_object(obj, "task", {"priors", "components"})
    _expect("priors" in obj and "components" in obj, "task needs priors and components")
    priors = [_as_number(p, "task.priors[]") for p in _as_list(obj["priors"], "task.priors")]
    comps_raw = _as_list(obj["components"], "task.components")
    components = []
    for c, comp_list in enumerate(comps_raw):
        comp_list = _as_list(comp_list, f"task.components[{c}]")
        built = []
        for j, comp in enumerate(comp_list):
            comp = _as_object(
                comp, f"task.components[{c}][{j}]", {"weight", "mean", "std"}
            )
            _expect(
                {"weight", "mean", "std"} <= set(comp),
                f"task.components[{c}][{j}] needs weight, mean and std",
            )
            with _at(f"task.components[{c}][{j}]"):
                built.append(
                    GaussianComponent(
                        _as_number(comp["weight"], "weight"),
                        _as_number(comp["mean"], "mean"),
                        _as_number(comp["std"], "std"),
                    )
                )
        components.append(tuple(built))
    with _at("task"):
        return TaskModel(class_priors=tuple(priors), class_components=tuple(components))


def _build_sampler(obj, field: str) -> SamplingDistribution:
    obj = _as_object(obj, field, {"kind", "d", "std", "priors"})
    _expect("kind" in obj, f"{field} needs a kind")
    kind = obj["kind"]
    if kind == synthdata.DATA_MARGINAL:
        _expect(
            set(obj) == {"kind"},
            f"{field}: data-marginal takes no further parameters",
        )
        return SamplingDistribution(kind=kind)
    _expect(
        kind == synthdata.SYMMETRIC_MIXTURE,
        f"{field}.kind must be one of {synthdata.DATA_MARGINAL!r}, "
        f"{synthdata.SYMMETRIC_MIXTURE!r}",
    )
    _expect("d" in obj, f"{field}: symmetric-mixture needs d")
    d = _as_number(obj["d"], f"{field}.d")
    std = _as_number(obj.get("std", 0.25), f"{field}.std")
    priors = obj.get("priors", [0.5, 0.5])
    priors = tuple(_as_number(p, f"{field}.priors[]") for p in _as_list(priors, f"{field}.priors"))
    with _at(field):
        return SamplingDistribution(
            kind=kind, d=d, component_std=std, component_priors=priors
        )


def _sampler_document(s: SamplingDistribution) -> dict:
    if s.kind == synthdata.DATA_MARGINAL:
        return {"kind": s.kind}
    return {
        "kind": s.kind,
        "d": s.d,
        "std": s.component_std,
        "priors": list(s.component_priors),
    }


def _build_estimator(obj, field: str) -> EstimatorSpec:
    obj = _as_object(obj, field, {"name", "params"})
    _expect("name" in obj, f"{field} needs a name")
    name = obj["name"]
    _expect(
        name in harness.ESTIMATOR_NAMES,
        f"{field}.name must be one of {', '.join(harness.ESTIMATOR_NAMES)}",
    )
    reads = set(harness.ESTIMATOR_TABLE[name].reads)
    params = _as_object(obj.get("params", {}), f"{field}.params", reads)
    kwargs = {}
    if "k" in params:
        kwargs["k"] = _as_int(params["k"], f"{field}.params.k")
    if "weight_cap" in params and params["weight_cap"] is not None:
        kwargs["weight_cap"] = _as_number(
            params["weight_cap"], f"{field}.params.weight_cap"
        )
    if "count_mode" in params:
        kwargs["count_mode"] = params["count_mode"]
    with _at(field):
        return EstimatorSpec(name=name, **kwargs)


def _estimator_document(e: EstimatorSpec) -> dict:
    values = {f: getattr(e, f) for f in harness.ESTIMATOR_TABLE[e.name].reads}
    return {"name": e.name, "params": {f: v for f, v in values.items() if v is not None}}


def resolve_config(text: str) -> ResolvedConfig:
    """Parse, validate and default-fill a JSON configuration document."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"config is not valid JSON (line {exc.lineno}, column {exc.colno}): {exc.msg}"
        ) from exc
    _expect(isinstance(raw, dict), "config must be a JSON object")
    _expect("scenario" in raw, "config needs a scenario")
    scenario = raw["scenario"]
    _expect(
        scenario in harness.SCENARIOS,
        f"scenario must be one of {', '.join(harness.SCENARIOS)}, got {scenario!r}",
    )
    allowed = _BASE_KEYS | _SCENARIO_KEYS[scenario]
    unknown = sorted(set(raw) - allowed)
    _expect(
        not unknown,
        f"unknown configuration key(s) for scenario {scenario}: {', '.join(unknown)}",
    )

    applied: list[str] = []

    def take(key: str, default):
        if key in raw:
            return raw[key]
        applied.append(key)
        return default

    master_seed = _as_int(take("master_seed", 0), "master_seed")
    task = _build_task(take("task", _DEFAULT_TASK))

    classifier_raw = _as_object(
        raw.get("classifier", {}), "classifier", {"bandwidth", "epsilon"}
    )
    if "bandwidth" in classifier_raw:
        bandwidth = _as_number(classifier_raw["bandwidth"], "classifier.bandwidth")
    else:
        bandwidth = 0.2
        applied.append("classifier.bandwidth")
    if "epsilon" in classifier_raw:
        epsilon = _as_number(classifier_raw["epsilon"], "classifier.epsilon")
    else:
        epsilon = 0.01
        applied.append("classifier.epsilon")
    with _at("classifier"):
        classifier = ClassifierConfig(
            bandwidth=bandwidth, prior_weight=epsilon, class_count=task.class_count
        )

    estimators_raw = _as_list(
        take("estimators", _DEFAULT_ESTIMATORS[scenario]), "estimators"
    )
    estimator_specs = tuple(
        _build_estimator(e, f"estimators[{i}]") for i, e in enumerate(estimators_raw)
    )
    repetitions = _as_int(
        take("repetitions", _DEFAULT_REPETITIONS[scenario]), "repetitions"
    )
    true_eval_size = _as_int(take("true_eval_size", 2000), "true_eval_size")

    kwargs: dict = {}
    document: dict = {"scenario": scenario, "master_seed": master_seed}

    if scenario == harness.BIAS_SWEEP:
        d_grid_raw = _as_list(take("d_grid", _DEFAULT_D_GRID), "d_grid")
        d_grid = tuple(_as_number(d, "d_grid[]") for d in d_grid_raw)
        # labeled_size is bias-sweep's single budget.
        budgets = (_as_int(take("labeled_size", 30), "labeled_size"),)
        with _at("d_grid"):
            samplers = tuple(
                SamplingDistribution(kind=synthdata.SYMMETRIC_MIXTURE, d=d) for d in d_grid
            )
    else:
        default_samplers = (
            _DEFAULT_COMPARISON_SAMPLERS
            if scenario == harness.ESTIMATOR_COMPARISON
            else [{"kind": synthdata.DATA_MARGINAL}]
        )
        samplers_raw = _as_list(take("samplers", default_samplers), "samplers")
        samplers = tuple(
            _build_sampler(s, f"samplers[{i}]") for i, s in enumerate(samplers_raw)
        )
        budgets_raw = _as_list(take("budgets", _DEFAULT_BUDGETS[scenario]), "budgets")
        budgets = tuple(_as_int(b, "budgets[]") for b in budgets_raw)

    if scenario == harness.EVAL_SIZE_DISTRIBUTION:
        kwargs["train_size"] = _as_int(take("train_size", 100), "train_size")
    if scenario == harness.ESTIMATOR_COMPARISON:
        kwargs["pool_size"] = _as_int(take("pool_size", 1000), "pool_size")
        kwargs["subsample_reps"] = _as_int(take("subsample_reps", 100), "subsample_reps")

    spec = ExperimentSpec(
        scenario=scenario,
        task=task,
        samplers=samplers,
        classifier=classifier,
        estimators=estimator_specs,
        budgets=budgets,
        repetitions=repetitions,
        true_eval_size=true_eval_size,
        master_seed=master_seed,
        **kwargs,
    )

    document["task"] = {
        "priors": list(task.class_priors),
        "components": [
            [{"weight": c.weight, "mean": c.mean, "std": c.std} for c in comps]
            for comps in task.class_components
        ],
    }
    if scenario != harness.BIAS_SWEEP:
        document["samplers"] = [_sampler_document(s) for s in samplers]
        document["budgets"] = list(budgets)
    document["classifier"] = {"bandwidth": bandwidth, "epsilon": epsilon}
    document["estimators"] = [_estimator_document(e) for e in estimator_specs]
    document["repetitions"] = repetitions
    document["true_eval_size"] = true_eval_size
    if scenario == harness.EVAL_SIZE_DISTRIBUTION:
        document["train_size"] = spec.train_size
    if scenario == harness.BIAS_SWEEP:
        document["labeled_size"] = spec.budgets[0]
        document["d_grid"] = [s.d for s in spec.samplers]
    if scenario == harness.ESTIMATOR_COMPARISON:
        document["pool_size"] = spec.pool_size
        document["subsample_reps"] = spec.subsample_reps

    return ResolvedConfig(
        spec=spec, document=document, defaults_applied=tuple(applied)
    )


def parse_config(text: str) -> ExperimentSpec:
    """Parse and validate a JSON configuration into an ExperimentSpec."""
    return resolve_config(text).spec
