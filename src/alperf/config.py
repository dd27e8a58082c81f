"""JSON experiment configuration: schema, defaults, builtins.

The configuration document mirrors ExperimentSpec. This module checks only
the JSON's shape: objects, the arrays it walks, unknown keys and missing
keys, and the scenario and estimator names that decide which keys are
allowed. It passes every value on as given, and the dataclass that owns the
field (GaussianComponent, TaskModel, SamplingDistribution, ClassifierConfig,
EstimatorSpec, ExperimentSpec) checks its type, its range and every
cross-field rule, as it does for a spec built in Python, before any
computation starts; the message names the offending field's path. The
resolved document is read back from the built spec, and every default that
gets applied is reported, so a run can echo its fully resolved configuration.

What differs between scenarios lives in one table, ``_SCENARIO_DEFAULTS``:
each scenario's default repetitions and estimators, and its own JSON keys
for the labels with their defaults; the ExperimentSpec sizes it takes are
``harness.SCENARIO_SIZES``. Only bias-sweep maps its keys onto the spec
(``labeled_size`` is its single budget, ``d_grid`` its samplers). A default
that is the same for every scenario is read from its dataclass field, not
repeated here.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass
from typing import NamedTuple

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
}


class _ScenarioDefaults(NamedTuple):
    """What one scenario defaults to beyond the keys every scenario takes."""

    repetitions: int
    estimators: list  # estimator documents
    keys: dict  # the scenario's own JSON keys with their defaults, in parse order


_UNBIASED = [{"kind": synthdata.DATA_MARGINAL}]
_SCENARIO_DEFAULTS = {
    harness.EVAL_SIZE_DISTRIBUTION: _ScenarioDefaults(
        1000,
        [{"name": harness.SUBSAMPLE_BASELINE, "params": {}}],
        {"samplers": _UNBIASED, "budgets": [5, 10, 20, 100]},
    ),
    harness.CV_FOLDS: _ScenarioDefaults(
        50,
        [{"name": harness.KFOLD_CV, "params": {"k": k}} for k in (2, 5, 10, 20)],
        {"samplers": _UNBIASED, "budgets": [20]},
    ),
    harness.BIAS_SWEEP: _ScenarioDefaults(
        50,
        [{"name": harness.KFOLD_CV, "params": {"k": 3}}],
        {
            "d_grid": [0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0, 2.25, 2.5, 2.75, 3.0],
            "labeled_size": 30,
        },
    ),
    harness.ESTIMATOR_COMPARISON: _ScenarioDefaults(
        200,
        [
            {"name": harness.GENERALIZATION_ERROR, "params": {}},
            {"name": harness.KFOLD_CV, "params": {"k": 3}},
            {"name": harness.SELF_LABEL_CV, "params": {"k": 3}},
            {"name": harness.REWEIGHTED_CV, "params": {"k": 3}},
            {"name": harness.PROBABILISTIC, "params": {}},
            {"name": harness.SUBSAMPLE_BASELINE, "params": {}},
        ],
        {
            # The three acquisition regimes of the comparison scenario:
            # unbiased, boundary-focused, and boundary-avoiding.
            "samplers": [
                *_UNBIASED,
                {"kind": synthdata.SYMMETRIC_MIXTURE, "d": 0.3},
                {"kind": synthdata.SYMMETRIC_MIXTURE, "d": 2.0},
            ],
            "budgets": [10, 30, 50],
        },
    ),
}
# The JSON keys of a classifier and of a sampler, each with the field it sets.
_CLASSIFIER_FIELDS = {"bandwidth": "bandwidth", "epsilon": "prior_weight"}
_SAMPLER_FIELDS = {"kind": "kind", "d": "d", "std": "component_std", "priors": "component_priors"}


@dataclass(frozen=True)
class ResolvedConfig:
    """A validated spec plus its fully resolved document and the list of
    keys that were filled in from defaults."""

    spec: ExperimentSpec
    document: dict
    defaults_applied: tuple[str, ...]


@dataclass(frozen=True)
class BuiltinScenario:
    description: str
    config: dict


BUILTIN_SCENARIOS: dict[str, BuiltinScenario] = {
    "fig2": BuiltinScenario(
        "performance-distribution study: one fixed classifier evaluated on "
        "fresh unbiased sets of size 5/10/20/100, 1000 repetitions",
        {"scenario": harness.EVAL_SIZE_DISTRIBUTION, "master_seed": 42},
    ),
    "fig3": BuiltinScenario(
        "fold-count study: 20 unbiased labels cross-validated with "
        "k=2/5/10/20 against the all-label true baseline, 50 repetitions",
        {"scenario": harness.CV_FOLDS, "master_seed": 42},
    ),
    "fig5": BuiltinScenario(
        "sampling-bias sweep: 30 biased labels, 3-fold CV versus hold-out "
        "truth across boundary distances 0.25..3.0, 50 repetitions",
        {"scenario": harness.BIAS_SWEEP, "master_seed": 42},
    ),
    "fig6": BuiltinScenario(
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
    components = []
    for c, comps in enumerate(_as_list(obj["components"], "task.components")):
        components.append([])
        for j, comp in enumerate(_as_list(comps, f"task.components[{c}]")):
            field = f"task.components[{c}][{j}]"
            comp = _as_object(comp, field, {"weight", "mean", "std"})
            _expect(len(comp) == 3, f"{field} needs weight, mean and std")
            with _at(field):
                components[-1].append(GaussianComponent(**comp))
    with _at("task"):
        return TaskModel(class_priors=obj["priors"], class_components=components)


def _task_document(task: TaskModel) -> dict:
    return {
        "priors": list(task.class_priors),
        "components": [
            [{"weight": c.weight, "mean": c.mean, "std": c.std} for c in comps]
            for comps in task.class_components
        ],
    }


def _build_sampler(obj, field: str) -> SamplingDistribution:
    obj = _as_object(obj, field, set(_SAMPLER_FIELDS))
    _expect("kind" in obj, f"{field} needs a kind")
    if obj["kind"] == synthdata.DATA_MARGINAL:
        _expect(len(obj) == 1, f"{field}: data-marginal takes no further parameters")
    elif obj["kind"] == synthdata.SYMMETRIC_MIXTURE:
        _expect("d" in obj, f"{field}: symmetric-mixture needs d")
    with _at(field):
        return SamplingDistribution(**{_SAMPLER_FIELDS[k]: v for k, v in obj.items()})


def _sampler_document(s: SamplingDistribution) -> dict:
    if s.kind == synthdata.DATA_MARGINAL:
        return {"kind": s.kind}
    document = {key: getattr(s, field) for key, field in _SAMPLER_FIELDS.items()}
    return dict(document, priors=list(s.component_priors))


def _build_estimator(obj, field: str) -> EstimatorSpec:
    obj = _as_object(obj, field, {"name", "params"})
    _expect("name" in obj, f"{field} needs a name")
    name = obj["name"]
    _expect(
        isinstance(name, str) and name in harness.ESTIMATOR_TABLE,
        f"{field}.name must be one of {', '.join(harness.ESTIMATOR_TABLE)}",
    )
    reads = set(harness.ESTIMATOR_TABLE[name].reads)
    params = _as_object(obj.get("params", {}), f"{field}.params", reads)
    with _at(field):
        return EstimatorSpec(name=name, **params)


def _estimator_document(e: EstimatorSpec) -> dict:
    params = {f: getattr(e, f) for f in harness.ESTIMATOR_TABLE[e.name].reads}
    return {"name": e.name, "params": params}


def resolve_config(text: str) -> ResolvedConfig:
    """Parse, validate and default-fill a JSON configuration document."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"config is not valid JSON (line {exc.lineno}, column {exc.colno}): {exc.msg}"
        ) from exc
    except RecursionError:
        raise ValidationError("config nests too deeply to parse") from None
    _expect(isinstance(raw, dict), "config must be a JSON object")
    _expect("scenario" in raw, "config needs a scenario")
    scenario = raw["scenario"]
    _expect(
        scenario in harness.SCENARIOS,
        f"scenario must be one of {', '.join(harness.SCENARIOS)}, got {scenario!r}",
    )
    defaults, sizes = _SCENARIO_DEFAULTS[scenario], harness.SCENARIO_SIZES[scenario]
    unknown = sorted(set(raw) - _BASE_KEYS - set(defaults.keys) - set(sizes))
    _expect(
        not unknown,
        f"unknown configuration key(s) for scenario {scenario}: {', '.join(unknown)}",
    )

    applied: list[str] = []

    def take(key: str, default, obj=raw, path=""):
        if key in obj:
            return obj[key]
        applied.append(path + key)
        return default

    master_seed = take("master_seed", ExperimentSpec.master_seed)
    task = _build_task(take("task", _task_document(synthdata.default_task())))
    classifier_raw = _as_object(raw.get("classifier", {}), "classifier", set(_CLASSIFIER_FIELDS))
    with _at("classifier"):
        classifier = ClassifierConfig(
            class_count=task.class_count,
            **{
                field: take(key, getattr(ClassifierConfig, field), classifier_raw, "classifier.")
                for key, field in _CLASSIFIER_FIELDS.items()
            },
        )
    estimators_raw = _as_list(take("estimators", defaults.estimators), "estimators")
    estimator_specs = tuple(
        _build_estimator(e, f"estimators[{i}]") for i, e in enumerate(estimators_raw)
    )
    repetitions = take("repetitions", defaults.repetitions)

    # The scenario's own keys: how labels are drawn, then ExperimentSpec sizes.
    own = defaults.keys
    if scenario == harness.BIAS_SWEEP:
        d_grid = _as_list(take("d_grid", own["d_grid"]), "d_grid")
        # labeled_size is bias-sweep's single budget.
        budgets = (take("labeled_size", own["labeled_size"]),)
        samplers = tuple(
            _build_sampler({"kind": synthdata.SYMMETRIC_MIXTURE, "d": d}, f"d_grid[{i}]")
            for i, d in enumerate(d_grid)
        )
    else:
        samplers_raw = _as_list(take("samplers", own["samplers"]), "samplers")
        samplers = tuple(
            _build_sampler(s, f"samplers[{i}]") for i, s in enumerate(samplers_raw)
        )
        budgets = take("budgets", own["budgets"])
    spec = ExperimentSpec(
        scenario=scenario,
        task=task,
        samplers=samplers,
        classifier=classifier,
        estimators=estimator_specs,
        budgets=budgets,
        repetitions=repetitions,
        master_seed=master_seed,
        **{key: take(key, getattr(ExperimentSpec, key)) for key in sizes},
    )

    # The resolved document is read back from the spec. The labels' keys are
    # echoed before the classifier, or last for bias-sweep.
    if scenario == harness.BIAS_SWEEP:
        first, last = {}, {"labeled_size": spec.budgets[0], "d_grid": [s.d for s in samplers]}
    else:
        samplers_doc = [_sampler_document(s) for s in samplers]
        first, last = {"samplers": samplers_doc, "budgets": list(spec.budgets)}, {}
    document = {
        "scenario": scenario,
        "master_seed": spec.master_seed,
        "task": _task_document(task),
        **first,
        "classifier": {k: getattr(classifier, f) for k, f in _CLASSIFIER_FIELDS.items()},
        "estimators": [_estimator_document(e) for e in estimator_specs],
        "repetitions": spec.repetitions,
        **{key: getattr(spec, key) for key in sizes},
        **last,
    }
    return ResolvedConfig(
        spec=spec, document=document, defaults_applied=tuple(applied)
    )
