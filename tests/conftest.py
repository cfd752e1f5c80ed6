"""Shared test configuration.

Property tests run under one hypothesis profile: no deadline, since timings
on a shared machine vary, and derandomized, so every run draws the same
examples and gives the same result.
"""

from hypothesis import settings

settings.register_profile("bogolib", deadline=None, derandomize=True)
settings.load_profile("bogolib")
