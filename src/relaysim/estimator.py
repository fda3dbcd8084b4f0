"""The windowed jitter estimator (``_estimator_py``) under its public name.

``IMPLEMENTATION`` is a constant kept for report schema 1, whose reports
carry it as ``estimator_implementation``.
"""

from ._estimator_py import JitterEstimator

IMPLEMENTATION = "python"

__all__ = ["JitterEstimator", "IMPLEMENTATION"]
