"""The compiled estimators (``relaysim._estimator``) under this module's old
name, with ``DISORDER_GUARD_MS``.

A re-export shim, and no implementation: relaybench imports
``JitterEstimator`` and ``DISORDER_GUARD_MS`` from here, and
``tests/estimator_reference.py`` the constant. It goes when relaybench stops
importing it.
"""

from ._estimator import DISORDER_GUARD_MS, JitterEstimator, TransitEstimator

__all__ = ["DISORDER_GUARD_MS", "JitterEstimator", "TransitEstimator"]
