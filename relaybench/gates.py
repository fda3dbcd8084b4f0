"""Correctness gates and arrival-stream replays.

Every gate returns a list of failure messages; an empty list is a pass. The
gates run outside the timed regions; a failing session is counted and
reported, and the run goes on.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import importlib.util
import io
from pathlib import Path

from relaysim import Packet, build_jitter_manager
from relaysim._estimator_py import JitterEstimator as PyEstimator

ESTIMATOR_PARAMS = ("window_ms", "bin_ms", "percentile", "loss_cost_ms",
                    "initial_lag_ms", "max_lag_ms")
BENCH_ESTIMATOR = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_estimator.py"


@functools.cache
def bench_estimator():
    """``benchmarks/bench_estimator.py``, loaded as a module: its bursty
    stream, its ``drive`` loop and its abort-on-mismatch ``main``."""
    spec = importlib.util.spec_from_file_location("bench_estimator", BENCH_ESTIMATOR)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def compiled_estimator():
    """The compiled estimator class, or None when it is not importable."""
    try:
        return importlib.import_module("relaysim._estimator_cy").JitterEstimator
    except ImportError:
        return None


def arrival_order(records) -> list:
    """Records in the order the jitter manager saw them: by (arrival, seq)."""
    return sorted(records, key=lambda r: (r.ta, r.seq))


def check_report(report) -> list[str]:
    if report.delivered + report.dropped_late != report.packet_count:
        return [f"{report.method}: delivered {report.delivered} + dropped "
                f"{report.dropped_late} != packets {report.packet_count}"]
    return []


def replay_fates(records, jitter_cfg, interval_ms: float) -> list[str]:
    """Feed the arrivals through a fresh manager; every fate must repeat.

    Flushed packets are handed out at the session end time, which a replay
    cannot see; it is recovered as the latest flushed output time.
    """
    manager = build_jitter_manager(jitter_cfg, interval_ms)
    fate: dict[int, str] = {}
    out: dict[int, float] = {}
    for rec in arrival_order(records):
        emissions, dropped = manager.on_arrival(Packet(rec.seq, rec.ts, rec.ta), rec.ta)
        if dropped:
            fate[rec.seq] = "dropped_late"
        for em in emissions:
            fate[em.seq] = "delivered"
            out[em.seq] = em.out
    flushed = [rec.to for rec in records if rec.fate == "flushed"]
    for em in manager.flush(max(flushed) if flushed else 0.0):
        fate[em.seq] = "flushed"
        out[em.seq] = em.out
    bad = [rec.seq for rec in records
           if fate.get(rec.seq) != rec.fate or out.get(rec.seq) != rec.to]
    if bad:
        return [f"replay changed the fate of {len(bad)} packets, first seq {bad[0]}"]
    return []


def check_session(result, cfg) -> list[str]:
    """Conservation, no packet left in flight, no emission before arrival,
    and a replay through a fresh manager that reproduces every fate."""
    report, records = result.report, result.records
    failures = check_report(report)
    if len(records) != cfg.packet_count:
        failures.append(f"{report.method}: {len(records)} records for "
                        f"{cfg.packet_count} packets")
    in_flight = sum(1 for rec in records if rec.fate == "in_flight")
    if in_flight:
        failures.append(f"{report.method}: {in_flight} packets still in flight")
    early = sum(1 for rec in records if rec.to is not None and rec.to < rec.ta)
    if early:
        failures.append(f"{report.method}: {early} packets emitted before arrival")
    failures += [f"{report.method}: {msg}"
                 for msg in replay_fates(records, cfg.jitter, cfg.interval_ms)]
    return failures


def configured(cls, jitter_cfg):
    """An estimator class bound to a session's jitter settings, for ``drive``."""
    return functools.partial(cls, **{name: getattr(jitter_cfg, name)
                                     for name in ESTIMATOR_PARAMS})


def drive(estimator_cls, stream):
    """bench_estimator's loop: (seconds, lag after each update, estimator)."""
    return bench_estimator().drive(estimator_cls, stream)


def session_stream(records) -> list[tuple[float, float]]:
    return [(rec.ts, rec.ta) for rec in arrival_order(records)]


def bench_estimator_gate(updates: int) -> tuple[list[str], str]:
    """bench_estimator's own run on its bursty stream: (failures, its output).

    It exits non-zero when the twins differ anywhere or the compiled twin is
    missing, so run it only when the compiled twin imports.
    """
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = bench_estimator().main(["--n", str(updates), "--seed", "0"])
    text = out.getvalue().strip()
    return ([f"bench_estimator exited {code}: {text}"] if code else []), text


def twin_mismatch(stream, jitter_cfg, compiled) -> list[str]:
    """Both estimator twins on one session stream, compared the way
    bench_estimator compares them; any difference is a failure."""
    _, py_lags, py = drive(configured(PyEstimator, jitter_cfg), stream)
    _, cy_lags, cy = drive(configured(compiled, jitter_cfg), stream)
    if py_lags != cy_lags:
        i = next(i for i, (a, b) in enumerate(zip(py_lags, cy_lags)) if a != b)
        return [f"estimator twins differ at update {i}: python {py_lags[i]!r} "
                f"vs compiled {cy_lags[i]!r}"]
    if py.transit_target() != cy.transit_target() or py.n_window != cy.n_window:
        return ["estimator twins differ in final state"]
    return []
