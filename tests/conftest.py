"""Shared test configuration.

Property tests run under one hypothesis profile: no deadline, since timings
on a shared machine vary, and derandomized, so every run draws the same
examples and gives the same result.  The battery's report at seed 1 is
computed once per session, for the acceptance criteria and the schema tests.
"""

import pytest
from hypothesis import settings

from bogolib import suites

settings.register_profile("bogolib", deadline=None, derandomize=True)
settings.load_profile("bogolib")


@pytest.fixture(scope="session")
def battery():
    """``run_suite("all", 1)``, the report of ``bogolib --suite all --seed 1``."""
    return suites.run_suite("all", 1)
