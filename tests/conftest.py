import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "ci", deadline=None, derandomize=True, max_examples=30,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture(scope="session")
def fam():
    from azarin.measures import MetricFamily
    return MetricFamily()


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


def _counted(monkeypatch, name):
    """A list that gains one entry per call of ``RadonMeasure.<name>``."""
    from azarin.measures import RadonMeasure
    calls = []
    inner = getattr(RadonMeasure, name)

    def counted(self, *args, **kw):
        calls.append(args)
        return inner(self, *args, **kw)

    monkeypatch.setattr(RadonMeasure, name, counted)
    return calls


@pytest.fixture
def dilation_calls(monkeypatch):
    """A list that gains one entry per ``RadonMeasure.dilation_integrals`` call."""
    return _counted(monkeypatch, "dilation_integrals")


@pytest.fixture
def scaled_calls(monkeypatch):
    """A list that gains one entry per ``RadonMeasure.scaled`` call."""
    return _counted(monkeypatch, "scaled")
