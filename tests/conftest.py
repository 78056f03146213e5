"""Hypothesis profiles. `HYPOTHESIS_PROFILE=ci` derandomizes the fuzz tests,
so a failure seen in CI reproduces with the same examples anywhere."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
