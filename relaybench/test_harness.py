"""Tests for the benchmark's own logic: span arithmetic and stream replay.

Run from the repository root: python3 -m pytest relaybench/test_harness.py
"""

from __future__ import annotations

import gc
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
for entry in (str(ROOT / "src"), str(BENCH_DIR)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import calibration  # noqa: E402
import gates  # noqa: E402
import topologies  # noqa: E402
import workloads  # noqa: E402
from spans import GcMonitor, Tracer, instrument  # noqa: E402

from relaysim import (JitterConfig, SessionConfig, engine, method_config,  # noqa: E402
                      run_session)
from relaysim.routing import ThompsonRouter  # noqa: E402


class FakeClock:
    def __init__(self, *ticks: float) -> None:
        self._ticks = iter(ticks)

    def __call__(self) -> float:
        return next(self._ticks)


def test_self_time_subtracts_direct_children_only():
    # outer [0, 10] holds a [1, 4] and b [5, 6]; b holds c [5.2, 5.7]
    tracer = Tracer(clock=FakeClock(0.0, 1.0, 4.0, 5.0, 5.2, 5.7, 6.0, 10.0))
    tracer.enter("outer")
    tracer.enter("a")
    tracer.exit()
    tracer.enter("b")
    tracer.enter("c")
    tracer.exit()
    tracer.exit()
    tracer.exit()
    assert tracer.total_s == pytest.approx({"outer": 10.0, "a": 3.0, "b": 1.0, "c": 0.5})
    assert tracer.self_s == pytest.approx({"outer": 6.0, "a": 3.0, "b": 0.5, "c": 0.5})
    assert tracer.calls == {"outer": 1, "a": 1, "b": 1, "c": 1}


def test_spans_of_one_name_accumulate_and_close_on_error():
    tracer = Tracer(clock=FakeClock(0.0, 2.0, 3.0, 7.0))

    def boom():
        raise ValueError

    traced = tracer.wrap("x", boom)
    for _ in range(2):
        with pytest.raises(ValueError):
            traced()
    assert tracer.calls == {"x": 2}
    assert tracer.total_s["x"] == pytest.approx(6.0)
    assert tracer.self_s["x"] == pytest.approx(6.0)


def test_gc_monitor_counts_collections_and_detaches():
    with GcMonitor() as monitor:
        gc.collect()
    assert monitor.collections[2] >= 1 and monitor.pause_s > 0
    assert monitor._callback not in gc.callbacks


def test_instrument_restores_every_entry_point():
    before = (engine.run_session, engine.build_jitter_manager, ThompsonRouter.select)
    with instrument(Tracer()) as missing:
        assert engine.run_session is not before[0]
        assert ThompsonRouter.select is not before[2]
    assert missing == []
    assert (engine.run_session, engine.build_jitter_manager, ThompsonRouter.select) == before


def test_instrumented_session_matches_plain_session_and_counts_layers():
    topo = topologies.hetero(3, topologies.session_duration_ms(1500))
    cfg = method_config(SessionConfig("e0", "u0", packet_count=1500, seed=3), "vcr-wm")
    cfg = replace(cfg, router=replace(cfg.router, prune=False))
    plain = run_session(topo, cfg).report.to_json()
    tracer = Tracer()
    with instrument(tracer):
        traced = engine.run_session(topo, cfg)
    assert traced.report.to_json() == plain
    assert tracer.calls["engine.run_session"] == 1
    assert tracer.calls["jitter.on_arrival"] == 1500
    assert tracer.calls["estimator.update"] == 1500
    assert tracer.calls["routing.select"] == tracer.calls["routing.observe"]
    inner = sum(tracer.total_s[name] for name in tracer.total_s if name != "engine.run_session"
                and not name.startswith("estimator."))
    assert tracer.self_s["engine.run_session"] == pytest.approx(
        tracer.total_s["engine.run_session"] - inner)


@pytest.fixture(scope="module")
def burst_sessions():
    topo = topologies.burst_direct(11, topologies.session_duration_ms(3000))
    out = []
    for method in ("drt-wm", "drt-bf"):
        cfg = method_config(SessionConfig("e0", "u0", packet_count=3000, seed=11), method)
        out.append((run_session(topo, cfg, method=method), cfg))
    return out


def test_replay_reproduces_every_fate(burst_sessions):
    for result, cfg in burst_sessions:
        assert {r.fate for r in result.records} >= {"delivered", "dropped_late"}
        assert gates.check_session(result, cfg) == []


def test_replay_detects_a_changed_fate_or_time(burst_sessions):
    for result, cfg in burst_sessions:
        records = [replace(r) for r in result.records]
        dropped = next(r for r in records if r.fate == "dropped_late")
        dropped.fate = "delivered"
        assert gates.replay_fates(records, cfg.jitter, cfg.interval_ms)
        records = [replace(r) for r in result.records]
        delivered = next(r for r in records if r.fate == "delivered")
        delivered.to += 1e-9
        assert gates.replay_fates(records, cfg.jitter, cfg.interval_ms)


def test_session_gates_catch_in_flight_and_time_travel(burst_sessions):
    result, cfg = burst_sessions[0]
    records = [replace(r) for r in result.records]
    records[0].fate = "in_flight"
    delivered = next(r for r in records if r.fate == "delivered")
    delivered.to = delivered.ta - 1.0
    failures = gates.check_session(replace(result, records=records), cfg)
    assert any("in flight" in f for f in failures)
    assert any("before arrival" in f for f in failures)


def test_arrival_order_breaks_ties_by_seq(burst_sessions):
    result, _ = burst_sessions[0]
    a, b = (replace(r) for r in result.records[:2])
    a.ta = b.ta = 5.0
    assert [r.seq for r in gates.arrival_order([b, a])] == [a.seq, b.seq]


def test_estimator_replay_matches_the_session_stream(burst_sessions):
    for result, cfg in burst_sessions:
        stream = gates.session_stream(result.records)
        assert len(stream) == cfg.packet_count
        assert all(x[1] <= y[1] for x, y in zip(stream, stream[1:]))
        _, lags, est = gates.drive(gates.configured(gates.PyEstimator, cfg.jitter), stream)
        assert len(lags) == len(stream)
        assert est.window_ms == cfg.jitter.window_ms


def test_twin_gate_passes_identical_twins_and_catches_a_difference():
    stream = gates.bench_estimator().bursty_stream(np.random.default_rng(1), 3000)
    assert gates.twin_mismatch(stream, JitterConfig(), gates.PyEstimator) == []

    class Off(gates.PyEstimator):
        def update(self, ts, arrival):
            return super().update(ts, arrival) + (1e-9 if ts > 20_000 else 0.0)

    failures = gates.twin_mismatch(stream, JitterConfig(), Off)
    assert len(failures) == 1 and "differ at update" in failures[0]


def test_timed_repeats_short_calls_to_fill_the_block():
    calls = []
    per_call, last = workloads._timed(lambda: calls.append(None) or len(calls), 0.01)
    assert last == len(calls) > 1
    assert per_call * len(calls) >= 0.01


def test_host_meter_scales_by_the_kernel_runs_around_each_piece():
    nominal = calibration.NOMINAL_S
    # kernel runs: one when the meter is made, then one after each piece
    meter = calibration.HostMeter(kernel=FakeClock(nominal, 3 * nominal, 2 * nominal))
    assert meter.scale() == pytest.approx(1 / 2)     # around piece 1: 1x and 3x
    assert meter.scale() == pytest.approx(1 / 2.5)   # around piece 2: 3x and 2x


def test_kernel_per_cpu_times_every_cpu_and_restores_affinity():
    cpus = os.sched_getaffinity(0)
    times = calibration.kernel_s_per_cpu()
    assert len(times) == len(cpus) and min(times) > 0
    assert os.sched_getaffinity(0) == cpus


def test_a_missed_prediction_fails_the_run(tmp_path):
    held = workloads.Run(seconds=0, work=tmp_path)
    held.metrics = dict(workloads.PREDICTIONS["burst-direct"])
    workloads.check_predictions("burst-direct", held)
    assert held.failures == []

    missed = workloads.Run(seconds=0, work=tmp_path)
    missed.metrics = {**workloads.PREDICTIONS["burst-direct"], "routing.select.calls": 3.0}
    workloads.check_predictions("burst-direct", missed)
    assert missed.failures == ["prediction missed: routing.select.calls is 3, expected 0"]
    ratio = workloads.Run(seconds=0, work=tmp_path)
    ratio.metrics = {"paths.kept_ratio": 1 / 17}
    workloads.check_predictions("relay-hetero", ratio)
    assert len(ratio.failures) == 1


def test_benchmark_json_names_match_the_harness():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in doc["workloads"]} == set(workloads.WORKLOADS)
    for metric in doc["end_to_end"]:
        assert workloads.E2E_UNITS[metric["name"]] == metric["unit"]
    assert [m["name"] for m in doc["per_layer"]] == list(workloads.LAYER)
    assert [m["unit"] for m in doc["per_layer"]] == [u for u, _ in workloads.LAYER.values()]
