"""Shared pytest configuration: the Hypothesis profile and the solve and step counters.

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
def added_rows(monkeypatch):
    """List of the active-set size before each row the projection adds, in order."""
    from qsts import estimators

    calls = []
    original = estimators._add_row

    def counted(v, N, *args):
        calls.append(len(N))
        return original(v, N, *args)

    monkeypatch.setattr(estimators, "_add_row", counted)
    return calls
