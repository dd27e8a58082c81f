import numpy as np
import pytest

from alperf.synthdata import default_task
from alperf.parzen import ClassifierConfig, fit_arrays


@pytest.fixture(scope="session")
def task():
    return default_task()


@pytest.fixture(scope="session")
def two_point_model():
    """Symmetric two-point classifier with the default kernel width."""
    return fit_arrays(
        np.array([-1.0, 1.0]), np.array([1, 2]),
        ClassifierConfig(bandwidth=0.2, prior_weight=0.01, class_count=2),
    )


@pytest.fixture(scope="session")
def sign_rule_model():
    """A threshold-0 classifier: wide-bandwidth symmetric two-point model.

    With bandwidth 5 the kernel masses never underflow on the task support,
    so the decision boundary is exactly x = 0 (sign rule).
    """
    return fit_arrays(
        np.array([-1.5, 1.5]), np.array([1, 2]),
        ClassifierConfig(bandwidth=5.0, prior_weight=0.0, class_count=2),
    )
