"""Hypothesis profiles for the suite: fixed draws unless asked otherwise.

The default profile, ``fixed``, derandomizes every draw (each test draws
from a seed of its own source) and drops the deadline and the example
database, so every run tests the same inputs and prints the same warnings.
``HYPOTHESIS_PROFILE=explore`` selects random search with the example
database, for a run outside tier-1 that looks for new failures.
"""

import os

from hypothesis import settings

settings.register_profile("fixed", derandomize=True, deadline=None, database=None)
settings.register_profile("explore", deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "fixed"))
