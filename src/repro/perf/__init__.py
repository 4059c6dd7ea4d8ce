"""The enable switch for the hot-path caches, and their contract.

Harmony's scheduler is the heaviest CPU path in this reproduction -- the
paper reports ~1 s configuration searches for transformers but ~32 s for
ResNet1K (Table 1), and the discrete-event engine is re-executed
thousands of times across the test/chaos/elastic suites.  The profile
store, the estimator's memo tables and the time model's tables keep
those paths fast; each is gated on :func:`perf_enabled`, and
``REPRO_PERF_DISABLE=1`` turns them all off.

Every optimization gated on :func:`perf_enabled` is *bit-identical* to
the naive computation it replaces: integer prefix sums are exact, and
float caches store a value computed once with the very summation order
the naive code used, so a cache hit returns the identical bit pattern.
The regression suite (``tests/perf``) re-plans and re-runs the model zoo
with caches on and off and asserts equality down to the golden traces.
"""

from __future__ import annotations

import os

__all__ = ["perf_enabled"]

#: Environment variable that disables every perf cache and store when set
#: to a truthy value ("1", "true", "yes", "on").
DISABLE_ENV = "REPRO_PERF_DISABLE"

_TRUTHY = {"1", "true", "yes", "on"}


def perf_enabled() -> bool:
    """True unless ``REPRO_PERF_DISABLE`` is set to a truthy value.

    Consulted when a cache-bearing object is *constructed* (profiles,
    estimators, searches), never in a hot loop -- flipping the variable
    mid-object does not change that object's behavior.
    """
    return os.environ.get(DISABLE_ENV, "").strip().lower() not in _TRUTHY
