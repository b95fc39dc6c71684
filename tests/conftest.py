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


def _counted(monkeypatch, owner, name, record=lambda *args: args, calls=None):
    """A list (``calls`` or a new one) that gains one entry ``record(*args)``
    per call of ``owner.<name>``."""
    calls = [] if calls is None else calls
    inner = getattr(owner, name)

    def counted(*args, **kw):
        calls.append(record(*args))
        return inner(*args, **kw)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.fixture
def dilation_calls(monkeypatch):
    """A list that gains one entry per ``RadonMeasure.dilation_integrals`` call."""
    from azarin.measures import RadonMeasure
    return _counted(monkeypatch, RadonMeasure, "dilation_integrals")


@pytest.fixture
def moments_calls(monkeypatch):
    """A list that gains one entry per ``TabulatedPiece.linear_integrals`` call."""
    from azarin.measures import TabulatedPiece
    return _counted(monkeypatch, TabulatedPiece, "linear_integrals")


@pytest.fixture
def scaled_calls(monkeypatch):
    """A list that gains one entry per ``RadonMeasure.scaled`` call."""
    from azarin.measures import RadonMeasure
    return _counted(monkeypatch, RadonMeasure, "scaled")


@pytest.fixture
def quad_calls(monkeypatch):
    """A list that gains one entry per ``numerics.adaptive_quad`` call."""
    from azarin import numerics
    return _counted(monkeypatch, numerics, "adaptive_quad")


@pytest.fixture
def potter_calls(monkeypatch):
    """A list that gains one entry ``tau`` per ``log_potter_factor`` call
    that ``transforms`` makes."""
    from azarin import transforms
    return _counted(monkeypatch, transforms, "log_potter_factor",
                    lambda order, tau: tau)


@pytest.fixture
def gk_batches(monkeypatch):
    """A list that gains one entry ``(f, lo, hi)`` per ``numerics._gk_eval``
    call: one GK batch of ``len(lo)`` segments."""
    from azarin import numerics
    return _counted(monkeypatch, numerics, "_gk_eval")


@pytest.fixture
def gk_batches_everywhere(monkeypatch):
    """A list that gains one entry ``len(lo)`` per GK batch at either binding
    of ``_gk_eval``: ``numerics``' (the adaptive quadrature) and
    ``measures``' (the union pass of ``MetricFamily.flow_pairings``)."""
    from azarin import measures, numerics
    batches = []
    for owner in (numerics, measures):
        _counted(monkeypatch, owner, "_gk_eval", lambda f, lo, hi: np.size(lo), batches)
    return batches


@pytest.fixture
def gk_segments(monkeypatch):
    """A list that gains one entry ``(lo, hi)`` per ``numerics._gk_eval``
    call: the lists of the low and high ends of its segments, in order."""
    from azarin import numerics
    return _counted(monkeypatch, numerics, "_gk_eval",
                    lambda f, lo, hi: (lo.tolist(), hi.tolist()))


@pytest.fixture
def gk_cells(monkeypatch):
    """A list that gains one entry per ``numerics._gk_eval`` call: its
    node-columns, ``15 * I15.size`` (the nodes times the values at each)."""
    from azarin import numerics
    cells = []
    inner = numerics._gk_eval

    def counted(f, lo, hi):
        i15, err = inner(f, lo, hi)
        cells.append(15 * i15.size)
        return i15, err

    monkeypatch.setattr(numerics, "_gk_eval", counted)
    return cells
