"""Session metrics: loss, latency distribution, plan churn, overhead.

A report is derived from a session's packet records and its config alone.
Reports serialize to JSON (every field but the CDF, ``to_dict``) and to
CSV (a summary row per report, and each report's exact CDF, one row per
distinct latency). Serialization is deterministic: identical inputs produce
byte-identical files. ``to_dict`` returns a copy sharing nothing.

Schema 2 writes the CDF once, to its CSV: the JSON keeps the exact mean,
percentiles and maximum, and drops the CDF, ``control_messages`` (always
``plan_update_count``) and ``estimator_implementation`` (always
``"python"``), which schema 1 carried.

``write_cdf_csv`` formats the rows in bulk, ``CSV_BLOCK`` rows a string, by
json's C encoder (``_compact``). It writes a float as ``float.__repr__``
(numpy float scalars included), an int as ``int.__repr__``, and NaN and the
infinities as ``NaN``, ``Infinity`` and ``-Infinity``, which are respelled
as ``str`` spells them (``nan``, ``inf``, ``-inf``). ``csv.writer`` writes
``str`` of each number, which for a float is its repr, and never quotes
one, so the bytes equal its rows.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

import numpy as np

if TYPE_CHECKING:
    from .engine import SessionConfig

REPORT_SCHEMA_VERSION = 2

PERCENTILE_KEYS = (0.10, 0.50, 0.90, 0.99)

# CDF CSV rows per written string: bounds the writer's temporaries
CSV_BLOCK = 4096

_compact = json.JSONEncoder(separators=(",", ":")).encode


def percentile_nearest_rank(sorted_values: np.ndarray, q: float) -> float:
    """Nearest-rank percentile, lower value at even-count midpoints."""
    n = sorted_values.size
    if n == 0:
        raise ValueError("no values")
    if not (0 < q <= 1):
        raise ValueError("q must be in (0, 1]")
    rank = math.ceil(q * n)  # >= 1 for q in (0, 1] and n >= 1
    return float(sorted_values[rank - 1])


def compute_cdf(latencies: Sequence[float]) -> list[tuple[float, float]]:
    """Empirical CDF over delivered latencies: (value, cumulative fraction).

    One row per distinct latency, ascending (``np.unique`` sorts); the last
    fraction is 1.0. Empty input gives an empty table.
    """
    arr = np.asarray(latencies, dtype=np.float64)
    if arr.size == 0:
        return []
    values, counts = np.unique(arr, return_counts=True)
    fractions = np.cumsum(counts) / arr.size
    return list(zip(values.tolist(), fractions.tolist()))


@dataclass
class MetricsReport:
    schema_version: int
    method: str
    router_kind: str
    jitter_kind: str
    endpoint: str
    user: str
    seed: int
    packet_count: int
    interval_ms: float
    warmup_ms: float
    delivered: int
    dropped_late: int
    tail_flushed: int
    loss_rate: float
    latency_mean_ms: float
    latency_p10_ms: float
    latency_p50_ms: float
    latency_p90_ms: float
    latency_p99_ms: float
    latency_max_ms: float
    plan_update_count: int
    path_changes: list[tuple[float, int, int]]
    overhead_per_packet_ms: float
    candidate_paths: int
    topk_paths: list[int]
    feedback_delay_model: str
    control_delay_model: str
    loss_threshold: float | None
    loss_threshold_exceeded: bool | None
    config: dict = field(default_factory=dict)
    cdf: list[tuple[float, float]] = field(default_factory=list)

    def to_dict(self) -> dict:
        """Every field but ``cdf``, which only the CDF CSV holds."""
        d = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "cdf"}
        d["path_changes"] = [list(row) for row in self.path_changes]
        d["topk_paths"] = list(self.topk_paths)
        d["config"] = {name: dict(section) for name, section in self.config.items()}
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def write_json(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json())
        return path

    def write_cdf_csv(self, path: str | Path) -> Path:
        return _write_csv(path, ["latency_ms", "cumulative_fraction"], (),
                          _csv_blocks(_row_text(self.cdf)))


def _row_text(rows: Sequence[Sequence[float]]) -> Iterator[str]:
    """The rows' compact json text, ``CSV_BLOCK`` rows a string, each
    without its outer brackets."""
    for lo in range(0, len(rows), CSV_BLOCK):
        yield _compact(rows[lo:lo + CSV_BLOCK])[2:-2]


def _csv_blocks(blocks: Iterable[str]) -> Iterator[str]:
    """``csv.writer``'s text of rows of numbers from their ``_row_text``."""
    for text in blocks:
        text = text.replace("],[", "\r\n")
        yield text.replace("NaN", "nan").replace("Infinity", "inf") + "\r\n"


SUMMARY_FIELDS = [
    "method", "endpoint", "user", "seed", "packet_count", "delivered",
    "dropped_late", "tail_flushed", "loss_rate", "latency_mean_ms",
    "latency_p10_ms", "latency_p50_ms", "latency_p90_ms", "latency_p99_ms",
    "latency_max_ms", "plan_update_count", "overhead_per_packet_ms",
]


def write_summary_csv(reports: Sequence[MetricsReport], path: str | Path) -> Path:
    rows = ([getattr(report, k) for k in SUMMARY_FIELDS] for report in reports)
    return _write_csv(path, SUMMARY_FIELDS, rows)


def _write_csv(path: str | Path, header: list[str], rows: Iterable[Sequence],
               blocks: Iterable[str] = ()) -> Path:
    """A CSV led by the schema version row and ``header``, then ``rows``,
    then the text ``blocks``; the csv module writes a float as its repr, so
    values round-trip exactly."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["schema_version", REPORT_SCHEMA_VERSION])
        writer.writerow(header)
        writer.writerows(rows)
        fh.writelines(blocks)
    return path


def build_report(
    cfg: SessionConfig,
    *,
    method: str,
    latencies: Sequence[float],
    dropped_late: int,
    tail_flushed: int,
    path_changes: list[tuple[float, int, int]],
    overhead_sum_ms: float,
    candidate_paths: int,
    topk_paths: Sequence[int],
) -> MetricsReport:
    """``latencies``: To - Ts of each delivered or flushed packet, any order;
    each plan update in ``path_changes`` sent one control message."""
    arr = np.sort(np.asarray(latencies, dtype=np.float64))
    if arr.size:
        mean = float(np.mean(arr))
        p10, p50, p90, p99 = (percentile_nearest_rank(arr, q) for q in PERCENTILE_KEYS)
        lat_max = float(arr[-1])
    else:
        mean = p10 = p50 = p90 = p99 = lat_max = 0.0
    n = cfg.packet_count
    loss_rate = dropped_late / n if n > 0 else 0.0
    return MetricsReport(
        schema_version=REPORT_SCHEMA_VERSION,
        method=method,
        router_kind=cfg.router.kind,
        jitter_kind=cfg.jitter.kind,
        endpoint=cfg.endpoint,
        user=cfg.user,
        seed=cfg.seed,
        packet_count=n,
        interval_ms=cfg.interval_ms,
        warmup_ms=cfg.warmup_ms,
        delivered=int(arr.size),
        dropped_late=dropped_late,
        tail_flushed=tail_flushed,
        loss_rate=loss_rate,
        latency_mean_ms=mean,
        latency_p10_ms=p10,
        latency_p50_ms=p50,
        latency_p90_ms=p90,
        latency_p99_ms=p99,
        latency_max_ms=lat_max,
        plan_update_count=len(path_changes),
        path_changes=path_changes,
        overhead_per_packet_ms=overhead_sum_ms / n if n > 0 else 0.0,
        candidate_paths=candidate_paths,
        topk_paths=list(topk_paths),
        feedback_delay_model="reverse-direct-oneway",
        control_delay_model="forward-direct-oneway",
        loss_threshold=cfg.loss_threshold,
        loss_threshold_exceeded=(loss_rate > cfg.loss_threshold
                                 if cfg.loss_threshold is not None else None),
        config={"router": asdict(cfg.router), "jitter": asdict(cfg.jitter)},
        cdf=compute_cdf(arr),
    )
