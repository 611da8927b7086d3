"""Shared test configuration.

Hypothesis runs derandomized with a bounded example count and no per-example
deadline, so the suite is deterministic and its run time predictable.
"""

from hypothesis import settings

settings.register_profile("genrabi", derandomize=True, deadline=None,
                          max_examples=100)
settings.load_profile("genrabi")
