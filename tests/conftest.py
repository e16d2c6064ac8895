"""Shared test settings: one Hypothesis profile for every property test."""
from hypothesis import settings

settings.register_profile("steinmpc", max_examples=60, deadline=None)
settings.load_profile("steinmpc")
