"""Shared pytest configuration: the Hypothesis profile.

The profile is derandomized (the same examples on every run) and bounded,
so that the whole suite stays near a minute.
"""

from hypothesis import HealthCheck, settings

settings.register_profile(
    "default", max_examples=40, derandomize=True, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("default")
