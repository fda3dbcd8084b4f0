"""The compiled estimators (``relaysim._estimator``) under this module's old
name, with ``DISORDER_GUARD_MS``.

A re-export shim, and no implementation, kept for relaybench alone:
``relaybench/gates.py`` imports ``JitterEstimator`` from it. The library,
its tests and its scripts import ``relaysim._estimator`` or the package. It
goes when relaybench stops importing it.
"""

from ._estimator import DISORDER_GUARD_MS, JitterEstimator, TransitEstimator

__all__ = ["DISORDER_GUARD_MS", "JitterEstimator", "TransitEstimator"]
