"""BLAS threads and Hypothesis profiles.

OpenBLAS runs on one thread unless the caller's environment says
otherwise: closed-loop states are bit-reproducible only at a fixed thread
count, and the suite's small matrices run faster on one.  The variables
are set here because numpy reads them once, when it loads, and no test
module has imported it yet.

`HYPOTHESIS_PROFILE=ci` makes the property tests draw the same examples on
every run (`derandomize`) and drops the per-example deadline, which a
shared CI runner's timing noise would otherwise trip.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

from hypothesis import settings  # noqa: E402

settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
