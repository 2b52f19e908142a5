"""Hypothesis profiles.

`HYPOTHESIS_PROFILE=ci` makes the property tests draw the same examples on
every run (`derandomize`) and drops the per-example deadline, which a
shared CI runner's timing noise would otherwise trip.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
