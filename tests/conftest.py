"""Shared pytest configuration: the Hypothesis profile and the solve counters.

The profile is derandomized (the same examples on every run) and bounded,
so that the whole suite stays near a minute.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "default", max_examples=40, derandomize=True, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("default")


@pytest.fixture
def solves(monkeypatch):
    """List of (name, shape) for each ``np.linalg.eigh`` and ``eigvalsh`` call, in order."""
    calls = []
    for name in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, name)

        def counted(a, *args, _name=name, _original=original, **kwargs):
            calls.append((_name, np.shape(a)))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


@pytest.fixture
def nnls_calls(monkeypatch):
    """List of the matrix shape of each ``scipy.optimize.nnls`` call, in order."""
    import scipy.optimize

    calls = []
    original = scipy.optimize.nnls

    def counted(A, *args, **kwargs):
        calls.append(np.shape(A))
        return original(A, *args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "nnls", counted)
    return calls
