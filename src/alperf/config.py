"""JSON experiment configuration: schema, validation, defaults, builtins.

The configuration document mirrors ExperimentSpec. This module checks the
JSON itself: types and unknown keys. Every range and cross-field rule lives
in the dataclass that owns the field (TaskModel, SamplingDistribution,
ClassifierConfig, EstimatorSpec, ExperimentSpec), so it is checked before
any computation starts and names the offending field's path. Every default
that gets applied is reported back so a run can echo its fully resolved
configuration.

What differs between scenarios lives in one table, ``_SCENARIO_DEFAULTS``:
each scenario's default repetitions and estimators, and its own JSON keys
with their defaults. Only bias-sweep maps its keys onto the spec
(``labeled_size`` is its single budget, ``d_grid`` its samplers). A default
that is the same for every scenario is read from its dataclass field
(ExperimentSpec, ClassifierConfig), not repeated here.
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
        {
            "samplers": _UNBIASED,
            "budgets": [5, 10, 20, 100],
            "train_size": ExperimentSpec.train_size,
        },
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
            "pool_size": ExperimentSpec.pool_size,
            "subsample_reps": ExperimentSpec.subsample_reps,
        },
    ),
}
_CLASSIFIER_DEFAULTS = {
    "bandwidth": ClassifierConfig.bandwidth, "epsilon": ClassifierConfig.prior_weight,
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


def _task_document(task: TaskModel) -> dict:
    return {
        "priors": list(task.class_priors),
        "components": [
            [{"weight": c.weight, "mean": c.mean, "std": c.std} for c in comps]
            for comps in task.class_components
        ],
    }


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
    std = _as_number(obj.get("std", SamplingDistribution.component_std), f"{field}.std")
    priors = obj.get("priors", list(SamplingDistribution.component_priors))
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
        isinstance(name, str) and name in harness.ESTIMATOR_TABLE,
        f"{field}.name must be one of {', '.join(harness.ESTIMATOR_TABLE)}",
    )
    reads = set(harness.ESTIMATOR_TABLE[name].reads)
    params = _as_object(obj.get("params", {}), f"{field}.params", reads)
    kwargs = {}
    if "k" in params:
        kwargs["k"] = _as_int(params["k"], f"{field}.params.k")
    with _at(field):
        return EstimatorSpec(name=name, **kwargs)


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
    defaults = _SCENARIO_DEFAULTS[scenario]
    allowed = _BASE_KEYS | set(defaults.keys)
    unknown = sorted(set(raw) - allowed)
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

    master_seed = _as_int(take("master_seed", ExperimentSpec.master_seed), "master_seed")
    task = _build_task(take("task", _task_document(synthdata.default_task())))

    classifier_raw = _as_object(
        raw.get("classifier", {}), "classifier", set(_CLASSIFIER_DEFAULTS)
    )
    classifier_doc = {
        key: _as_number(take(key, default, classifier_raw, "classifier."), f"classifier.{key}")
        for key, default in _CLASSIFIER_DEFAULTS.items()
    }
    with _at("classifier"):
        classifier = ClassifierConfig(
            bandwidth=classifier_doc["bandwidth"],
            prior_weight=classifier_doc["epsilon"],
            class_count=task.class_count,
        )

    estimators_raw = _as_list(take("estimators", defaults.estimators), "estimators")
    estimator_specs = tuple(
        _build_estimator(e, f"estimators[{i}]") for i, e in enumerate(estimators_raw)
    )
    repetitions = _as_int(take("repetitions", defaults.repetitions), "repetitions")

    # The scenario's own keys: how labels are drawn (echoed before the
    # classifier, or last for bias-sweep), then ExperimentSpec sizes.
    own = dict(defaults.keys)
    if scenario == harness.BIAS_SWEEP:
        d_grid_raw = _as_list(take("d_grid", own.pop("d_grid")), "d_grid")
        d_grid = tuple(_as_number(d, "d_grid[]") for d in d_grid_raw)
        # labeled_size is bias-sweep's single budget.
        budgets = (_as_int(take("labeled_size", own.pop("labeled_size")), "labeled_size"),)
        with _at("d_grid"):
            samplers = tuple(
                SamplingDistribution(kind=synthdata.SYMMETRIC_MIXTURE, d=d) for d in d_grid
            )
        echo_first, echo_last = {}, {"labeled_size": budgets[0], "d_grid": list(d_grid)}
    else:
        samplers_raw = _as_list(take("samplers", own.pop("samplers")), "samplers")
        samplers = tuple(
            _build_sampler(s, f"samplers[{i}]") for i, s in enumerate(samplers_raw)
        )
        budgets_raw = _as_list(take("budgets", own.pop("budgets")), "budgets")
        budgets = tuple(_as_int(b, "budgets[]") for b in budgets_raw)
        echo_first = {
            "samplers": [_sampler_document(s) for s in samplers],
            "budgets": list(budgets),
        }
        echo_last = {}
    sizes = {key: _as_int(take(key, default), key) for key, default in own.items()}

    spec = ExperimentSpec(
        scenario=scenario,
        task=task,
        samplers=samplers,
        classifier=classifier,
        estimators=estimator_specs,
        budgets=budgets,
        repetitions=repetitions,
        master_seed=master_seed,
        **sizes,
    )

    document = {
        "scenario": scenario,
        "master_seed": master_seed,
        "task": _task_document(task),
        **echo_first,
        "classifier": classifier_doc,
        "estimators": [_estimator_document(e) for e in estimator_specs],
        "repetitions": repetitions,
        **sizes,
        **echo_last,
    }
    return ResolvedConfig(
        spec=spec, document=document, defaults_applied=tuple(applied)
    )
