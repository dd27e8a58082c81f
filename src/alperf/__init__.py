"""Simulation engine for runtime performance estimation of actively
trained classifiers on synthetic tasks with known ground truth."""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .errors import ValidationError
from .synthdata import (
    GaussianComponent,
    LabeledSet,
    SamplingDistribution,
    TaskModel,
    bayes_accuracy,
    bayes_posterior_batch,
    default_task,
    draw_labeled,
    draw_unlabeled,
    unbiased_sampler,
)
from .parzen import (
    ClassifierConfig,
    ParzenModel,
    fit_arrays,
    kernel_block,
    posterior_batch,
    predict_batch,
)
from .estimators import (
    PerformanceEstimate,
    generalization_error_estimate,
    kfold_cv,
    probabilistic_performance,
    self_label_cv,
    subsample_baseline,
    true_baseline,
)
from .harness import (
    EstimatorSpec,
    ExperimentSpec,
    RunRecord,
    derive_substream,
    run_experiment,
)
from .reporting import summarize
from .config import resolve_config

# The public API is every name imported above.
__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
