"""Hypothesis runs a fixed, bounded set of examples with no deadline, so the
property tests give the same result on every run and on a loaded host."""

from hypothesis import settings

settings.register_profile("irsdm", deadline=None, derandomize=True, database=None, max_examples=200)
settings.load_profile("irsdm")
