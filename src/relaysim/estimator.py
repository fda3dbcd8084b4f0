"""Selects the jitter-estimator implementation at import time.

The compiled kernel is preferred when it built; the pure-Python twin is the
fallback and can be forced with the environment variable ``RELAYSIM_PURE=1``
(useful for the benchmark and for debugging). The twins must return
identical outputs, so everything downstream is implementation-agnostic; they
get there differently (the pure twin keeps incremental quantile pointers,
the compiled one recomputes a cumulative sum per query). The compiled twin
has not been built or checked against the pure one since the reorder-depth
change.
"""

from __future__ import annotations

import os

if os.environ.get("RELAYSIM_PURE"):
    from ._estimator_py import JitterEstimator

    IMPLEMENTATION = "python"
else:
    try:
        from ._estimator_cy import JitterEstimator  # type: ignore[no-redef]

        IMPLEMENTATION = "cython"
    except ImportError:
        from ._estimator_py import JitterEstimator  # type: ignore[no-redef]

        IMPLEMENTATION = "python"

__all__ = ["JitterEstimator", "IMPLEMENTATION"]
