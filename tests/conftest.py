"""Hypothesis draws the same examples on every run and stores none between
runs, so two runs of the suite test the same inputs."""
from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
