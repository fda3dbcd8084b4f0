"""The windowed estimators (``_estimator_py``) under their public names.

``IMPLEMENTATION`` names the one implementation. Reports no longer carry
it (schema 2); it stays because relaybench imports it.
"""

from ._estimator_py import JitterEstimator, TransitEstimator

IMPLEMENTATION = "python"

__all__ = ["JitterEstimator", "TransitEstimator", "IMPLEMENTATION"]
