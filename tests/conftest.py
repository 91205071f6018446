"""Test-suite settings shared by every test module."""
from hypothesis import settings

# Derandomized, so a run of the suite draws the same examples every time and
# a failure reproduces; per-test @settings keep their own max_examples.
settings.register_profile("laxlab", derandomize=True, deadline=None)
settings.load_profile("laxlab")
