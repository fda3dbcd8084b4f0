"""The windowed estimators under their public names: a re-export of the
compiled ``relaysim._estimator``, their one implementation.

``IMPLEMENTATION`` names it. Reports no longer carry it (schema 2); it stays
because relaybench imports it.
"""

from ._estimator import JitterEstimator, TransitEstimator

IMPLEMENTATION = "compiled"

__all__ = ["JitterEstimator", "TransitEstimator", "IMPLEMENTATION"]
