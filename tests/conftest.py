"""Shared test settings: one Hypothesis profile for every property test.

``steinmpc`` (60 examples) is the default; ``pytest --hypothesis-profile=thorough``
runs every property test with 2000 examples.
"""
from hypothesis import settings

settings.register_profile("steinmpc", max_examples=60, deadline=None)
settings.register_profile("thorough", max_examples=2000, deadline=None)
settings.load_profile("steinmpc")
