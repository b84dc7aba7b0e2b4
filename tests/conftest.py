import numpy as np
import pytest

from misspec.model import ModelInstance

try:
    from hypothesis import settings
except ImportError:  # property tests skip themselves without hypothesis
    pass
else:
    # Reproducible property tests, with no per-example time limit.
    settings.register_profile("misspec", derandomize=True, deadline=None)
    settings.load_profile("misspec")

_acceptance_lines = []


@pytest.fixture
def acceptance_report():
    """Collector for per-criterion pass/fail lines shown in the summary."""
    return _acceptance_lines.append


def pytest_terminal_summary(terminalreporter):
    if _acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in _acceptance_lines:
            terminalreporter.write_line(line)


@pytest.fixture
def canon_model():
    """k=2, p=1 workhorse: theta_w = 1, J = 2, hessian = 2."""
    return ModelInstance(Y=[0.0, 2.0], X=[[1.0], [1.0]], W=np.eye(2))


@pytest.fixture
def mean3_model():
    """k=3 sample-mean design: theta_w = 2, J = 6."""
    return ModelInstance(Y=[1.0, 1.0, 4.0], X=[[1.0], [1.0], [1.0]], W=np.eye(3))


@pytest.fixture
def exactfit_model():
    """Y in span(X): J = 0."""
    return ModelInstance(Y=[3.0, 3.0], X=[[1.0], [1.0]], W=np.eye(2))
