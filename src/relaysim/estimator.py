"""The windowed estimators (``_estimator_py``) under their public names.

``IMPLEMENTATION`` is a constant kept for report schema 1, whose reports
carry it as ``estimator_implementation``.
"""

from ._estimator_py import JitterEstimator, TransitEstimator

IMPLEMENTATION = "python"

__all__ = ["JitterEstimator", "TransitEstimator", "IMPLEMENTATION"]
