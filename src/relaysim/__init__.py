"""Trace-driven simulator for relay-path routing and jitter management.

The package replays per-link latency traces through a discrete-event session
model and compares routing policies (direct, UCB1, Thompson sampling) crossed
with receive-side jitter managers (adaptive playout buffer, watermark
reorderer) on end-to-end latency, loss, path churn, and control overhead.
"""

from .engine import (
    METHODS,
    MatrixResult,
    PacketRecord,
    RouterConfig,
    SessionConfig,
    SessionResult,
    method_config,
    run_matrix,
    run_session,
)
from .errors import (
    ConfigurationError,
    InsufficientHistoryError,
    TraceParseError,
    ValidationError,
)
from .estimator import IMPLEMENTATION, JitterEstimator
from .jitter import (
    Emission,
    JitterConfig,
    Packet,
    PlayoutBuffer,
    WatermarkReorderer,
    build_jitter_manager,
)
from .paths import (
    PathStats,
    RelayPath,
    enumerate_paths,
    path_count,
    prune_topk,
    required_links,
    warmup_stats,
)
from .reports import MetricsReport, compute_cdf, percentile_nearest_rank
from .routing import (
    DirectRouter,
    GaussianArmPosterior,
    ThompsonRouter,
    Ucb1Arm,
    Ucb1Router,
    tau0_from_variance,
    ts_select,
    ts_update,
    ucb1_select,
)
from .traces import (
    LatencyTrace,
    Node,
    SyntheticTraceSpec,
    Topology,
    generate_synthetic,
    ingest_trace,
    load_topology,
    save_topology,
)

__version__ = "0.1.0"

__all__ = [
    "METHODS",
    "MatrixResult",
    "PacketRecord",
    "RouterConfig",
    "SessionConfig",
    "SessionResult",
    "method_config",
    "run_matrix",
    "run_session",
    "ConfigurationError",
    "InsufficientHistoryError",
    "TraceParseError",
    "ValidationError",
    "IMPLEMENTATION",
    "JitterEstimator",
    "Emission",
    "JitterConfig",
    "Packet",
    "PlayoutBuffer",
    "WatermarkReorderer",
    "build_jitter_manager",
    "PathStats",
    "RelayPath",
    "enumerate_paths",
    "path_count",
    "prune_topk",
    "required_links",
    "warmup_stats",
    "MetricsReport",
    "compute_cdf",
    "percentile_nearest_rank",
    "DirectRouter",
    "GaussianArmPosterior",
    "ThompsonRouter",
    "Ucb1Arm",
    "Ucb1Router",
    "tau0_from_variance",
    "ts_select",
    "ts_update",
    "ucb1_select",
    "LatencyTrace",
    "Node",
    "SyntheticTraceSpec",
    "Topology",
    "generate_synthetic",
    "ingest_trace",
    "load_topology",
    "save_topology",
    "__version__",
]
