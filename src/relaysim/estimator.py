"""The windowed estimators under this module's old name: a re-export of the
compiled ``relaysim._estimator``, their one implementation, with
``IMPLEMENTATION`` naming it.

A shim, and no implementation, kept for relaybench alone:
``relaybench/workloads.py`` imports it, and ``relaybench/scale_probe.py``
reads ``IMPLEMENTATION`` through the package, which re-exports it for that
reason only; ``tests/test_build.py`` checks that a built package still
serves both. The library and its scripts import ``relaysim._estimator`` or
the package. It goes when relaybench stops importing it.
"""

from ._estimator import JitterEstimator, TransitEstimator

IMPLEMENTATION = "compiled"

__all__ = ["JitterEstimator", "TransitEstimator", "IMPLEMENTATION"]
