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

Every scenario takes the same keys, plus the ExperimentSpec sizes its
``harness.SCENARIO_TABLE`` row reads. A key that is not given takes the
row's default (repetitions, estimators, samplers, budgets) or the default of
the dataclass field it sets, as a spec value: no default is rebuilt from a
JSON document. A sampler object takes the keys ``kind`` and ``d``, the two
fields of SamplingDistribution, and passes them on as they are; any other
key is unknown.
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

# The keys every scenario takes; its row's sizes are the others.
_BASE_KEYS = {
    "scenario", "master_seed", "task", "classifier", "estimators", "repetitions",
    "samplers", "budgets",
}
# The JSON keys of a classifier, each with the field it sets.
_CLASSIFIER_FIELDS = {"bandwidth": "bandwidth", "epsilon": "prior_weight"}


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
    obj = _as_object(obj, field, {"kind", "d"})
    _expect("kind" in obj, f"{field} needs a kind")
    _expect(
        obj["kind"] != synthdata.SYMMETRIC_MIXTURE or "d" in obj,
        f"{field}: symmetric-mixture needs d",
    )
    with _at(field):
        return SamplingDistribution(**obj)


def _sampler_document(s: SamplingDistribution) -> dict:
    if s.kind == synthdata.DATA_MARGINAL:
        return {"kind": s.kind}
    return {"kind": s.kind, "d": s.d}


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


def _build_each(build, field: str):
    """A builder of the JSON list ``field``, each entry built by ``build(entry, path)``."""
    return lambda value: tuple(
        build(v, f"{field}[{i}]") for i, v in enumerate(_as_list(value, field))
    )


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
        isinstance(scenario, str) and scenario in harness.SCENARIO_TABLE,
        f"scenario must be one of {', '.join(harness.SCENARIO_TABLE)}, got {scenario!r}",
    )
    row = harness.SCENARIO_TABLE[scenario]
    unknown = sorted(set(raw) - _BASE_KEYS - set(row.sizes))
    _expect(
        not unknown,
        f"unknown configuration key(s) for scenario {scenario}: {', '.join(unknown)}",
    )

    applied: list[str] = []

    def take(key: str, default, build=lambda value: value, obj=raw, path=""):
        """The value built from ``obj[key]`` if it is given, else ``default``."""
        if key in obj:
            return build(obj[key])
        applied.append(path + key)
        return default

    master_seed = take("master_seed", ExperimentSpec.master_seed)
    task = take("task", synthdata.default_task(), _build_task)
    classifier_raw = _as_object(raw.get("classifier", {}), "classifier", set(_CLASSIFIER_FIELDS))
    with _at("classifier"):
        classifier = ClassifierConfig(
            class_count=task.class_count,
            **{
                field: take(key, getattr(ClassifierConfig, field), obj=classifier_raw,
                            path="classifier.")
                for key, field in _CLASSIFIER_FIELDS.items()
            },
        )
    spec = ExperimentSpec(
        scenario=scenario,
        task=task,
        classifier=classifier,
        estimators=take("estimators", row.estimators, _build_each(_build_estimator, "estimators")),
        repetitions=take("repetitions", row.repetitions),
        samplers=take("samplers", row.samplers, _build_each(_build_sampler, "samplers")),
        budgets=take("budgets", row.budgets),
        master_seed=master_seed,
        **{key: take(key, getattr(ExperimentSpec, key)) for key in row.sizes},
    )

    # The resolved document is read back from the spec.
    document = {
        "scenario": scenario,
        "master_seed": spec.master_seed,
        "task": _task_document(task),
        "samplers": [_sampler_document(s) for s in spec.samplers],
        "budgets": list(spec.budgets),
        "classifier": {k: getattr(classifier, f) for k, f in _CLASSIFIER_FIELDS.items()},
        "estimators": [_estimator_document(e) for e in spec.estimators],
        "repetitions": spec.repetitions,
        **{key: getattr(spec, key) for key in row.sizes},
    }
    return ResolvedConfig(
        spec=spec, document=document, defaults_applied=tuple(applied)
    )
