"""The three benchmark workloads and the metrics they report.

Library workloads (relay-hetero, burst-direct) call ``run_session`` on a
topology built in-process; matrix-cli runs the ``relaysim`` command over a
topology that ``relaysim synth`` wrote. Each workload repeats its sessions
until the time budget is spent, reports medians over those repetitions, and
runs the correctness gates from ``gates`` on the side, outside the timers.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gates
import topologies
from calibration import NOMINAL_S, HostMeter, kernel_s_per_cpu
from spans import GcMonitor, Tracer, instrument

from relaysim import (RouterConfig, SessionConfig, load_topology, method_config,
                      run_matrix)
from relaysim import engine
from relaysim.estimator import IMPLEMENTATION, JitterEstimator
from relaysim.reports import write_summary_csv

SETUP_BLOCK_S = 0.25         # topology builds are timed in blocks this long
ESTIMATOR_STREAM_UPDATES = 20_000
CLI_JOBS = 2
CLI_RELAYS = 4

# end-to-end metric -> unit; every one is printed, BENCHMARK.json bounds
# those that are never 0 and steady across seeds. Host times are in
# calibrated seconds (see calibration.py); the *_raw_* ones are as read.
E2E_UNITS = {
    "setup_s": "s", "wall_s": "s", "sim_pkt_per_s": "1/s", "report_s": "s",
    "setup_raw_s": "s", "wall_raw_s": "s", "sim_raw_pkt_per_s": "1/s",
    "peak_rss_mb": "MB", "report_bytes": "bytes", "session_fail_rate": "ratio",
    "latency_mean_ms": "ms", "latency_p99_ms": "ms", "loss_rate": "ratio",
    "plan_updates": "count",
}

# per-layer metric -> (unit, the end-to-end metric and workload it should move)
LAYER = {
    "engine.self_s": ("s", "sim_pkt_per_s, every workload"),
    "engine.gc_pause_s": ("s", "sim_pkt_per_s and peak_rss_mb, mostly matrix-cli"),
    "engine.gc_collections": ("count", "sim_pkt_per_s and peak_rss_mb, mostly matrix-cli"),
    "traces.sample.calls": ("count", "sim_pkt_per_s on relay-hetero; 0 on burst-direct"),
    "traces.sample.self_s": ("s", "sim_pkt_per_s on relay-hetero"),
    "traces.synth_s": ("s", "setup_s on relay-hetero and burst-direct"),
    "traces.load_topology_s": ("s", "setup_s and wall_s on matrix-cli"),
    "paths.warmup_stats_s": ("s", "wall_s on relay-hetero"),
    "paths.kept_ratio": ("ratio", "wall_s; 17/17 on relay-hetero, 1/17 on matrix-cli"),
    "routing.observe.calls": ("count", "sim_pkt_per_s on relay-hetero; 0 on burst-direct"),
    "routing.observe.self_s": ("s", "sim_pkt_per_s on relay-hetero"),
    "routing.select.calls": ("count", "sim_pkt_per_s on relay-hetero; 0 on burst-direct"),
    "routing.select.self_s": ("s", "sim_pkt_per_s on relay-hetero"),
    "routing.plan_update_ratio": ("ratio", "sim_pkt_per_s on relay-hetero"),
    "estimator.update.calls": ("count", "sim_pkt_per_s, most on burst-direct"),
    "estimator.update_per_s": ("1/s", "sim_pkt_per_s, most on burst-direct"),
    "estimator.update_per_s.python": ("1/s", "sim_pkt_per_s when the pure twin is active"),
    "estimator.disorder_share": ("ratio", "sim_pkt_per_s, most on burst-direct"),
    "estimator.transit_target.calls": ("count", "sim_pkt_per_s on burst-direct (drt-bf)"),
    "jitter.on_arrival.calls": ("count", "sim_pkt_per_s on burst-direct"),
    "jitter.on_arrival.self_s": ("s", "sim_pkt_per_s on burst-direct"),
    "jitter.drop_ratio": ("ratio", "sim_pkt_per_s on burst-direct"),
    "jitter.flushed": ("count", "sim_pkt_per_s on burst-direct"),
    "reports.build_report_s": ("s", "report_s and peak_rss_mb on watermark cells"),
    "reports.to_json_s": ("s", "report_s and report_bytes on watermark cells"),
    "reports.cdf_rows": ("count", "report_bytes and peak_rss_mb on watermark cells"),
    "cli.topology_pickle_mb": ("MB", "wall_s on matrix-cli"),
    "cli.overhead_s": ("s", "wall_s on matrix-cli"),
    "trace.overhead_pkt_per_s": ("1/s", "none: the tracer's own cost"),
    "trace.overhead_share": ("ratio", "none: the tracer's own cost"),
}

# what the traced run should read where a layer does no work, or differs
PREDICTIONS = {
    "relay-hetero": {"paths.kept_ratio": 17 / 17},
    "burst-direct": {"routing.observe.calls": 0, "routing.select.calls": 0,
                     "traces.sample.calls": 0, "paths.warmup_stats_s": 0},
    "matrix-cli": {"paths.kept_ratio": 1 / 17},
}


@dataclass
class Run:
    """What one benchmark invocation measured, checked and found wrong."""

    seconds: float
    work: Path
    metrics: dict = field(default_factory=dict)
    fidelity: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def fail(self, messages: list[str], sessions: int = 1) -> None:
        if messages:
            self.failures.extend(messages)
            self.failed += sessions


def _median(values) -> float:
    return float(statistics.median(values))


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed(fn, block_s: float = 0.0):
    """Seconds per call of ``fn``, and its last result.

    Calls are repeated until together they take ``block_s``, so that a call
    of a few milliseconds is timed over a block long enough to measure.
    """
    calls = 0
    t0 = time.perf_counter()
    while True:
        result = fn()
        calls += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= block_s:
            return elapsed / calls, result


def _write_reports(reports, out_dir: Path) -> list[Path]:
    """The files ``relaysim run`` writes per cell, plus its summary."""
    files = []
    for report in reports:
        stem = report.method.replace("+", "_")
        files.append(report.write_json(out_dir / f"{stem}.json"))
        files.append(report.write_cdf_csv(out_dir / f"{stem}_cdf.csv"))
    files.append(write_summary_csv(reports, out_dir / "summary.csv"))
    return files


def _digests(files) -> dict[str, str]:
    return {Path(f).name: hashlib.sha256(Path(f).read_bytes()).hexdigest() for f in files}


def _fidelity(reports) -> dict[str, float]:
    """Session-averaged latency and loss; plan updates summed over sessions."""
    return {
        "latency_mean_ms": float(np.mean([r.latency_mean_ms for r in reports])),
        "latency_p99_ms": float(np.mean([r.latency_p99_ms for r in reports])),
        "loss_rate": float(np.mean([r.loss_rate for r in reports])),
        "plan_updates": float(sum(r.plan_update_count for r in reports)),
    }


def _layer_metrics(tracer: Tracer, gc_monitor: GcMonitor, reports) -> dict[str, float]:
    calls, total, own = tracer.calls, tracer.total_s, tracer.self_s
    selects = calls.get("routing.select", 0)
    plan_updates = sum(r.plan_update_count for r in reports)
    packets = sum(r.packet_count for r in reports)
    return {
        "engine.self_s": own.get("engine.run_session", 0.0),
        "engine.gc_pause_s": gc_monitor.pause_s,
        "engine.gc_collections": float(sum(gc_monitor.collections)),
        "traces.sample.calls": float(calls.get("traces.sample", 0)),
        "traces.sample.self_s": own.get("traces.sample", 0.0),
        "paths.warmup_stats_s": total.get("paths.warmup_stats", 0.0),
        "paths.kept_ratio": (sum(len(r.topk_paths) for r in reports)
                             / sum(r.candidate_paths for r in reports)),
        "routing.observe.calls": float(calls.get("routing.observe", 0)),
        "routing.observe.self_s": own.get("routing.observe", 0.0),
        "routing.select.calls": float(selects),
        "routing.select.self_s": own.get("routing.select", 0.0),
        "routing.plan_update_ratio": plan_updates / selects if selects else 0.0,
        "estimator.update.calls": float(calls.get("estimator.update", 0)),
        "estimator.transit_target.calls": float(calls.get("estimator.transit_target", 0)),
        "jitter.on_arrival.calls": float(calls.get("jitter.on_arrival", 0)),
        "jitter.on_arrival.self_s": own.get("jitter.on_arrival", 0.0),
        "jitter.drop_ratio": sum(r.dropped_late for r in reports) / packets,
        "jitter.flushed": float(sum(r.tail_flushed for r in reports)),
        "reports.build_report_s": total.get("reports.build_report", 0.0),
        "reports.to_json_s": total.get("reports.to_json", 0.0),
        "reports.cdf_rows": float(sum(len(r.cdf) for r in reports)),
    }


def _estimator_metrics(sessions) -> dict[str, float]:
    """Replay each session's arrival stream through fresh estimators."""
    updates = 0
    active_s = python_s = 0.0
    disorder = 0
    for result, cfg in sessions:
        stream = gates.session_stream(result.records)
        updates += len(stream)
        active_s += gates.drive(gates.configured(JitterEstimator, cfg.jitter), stream)[0]
        python_s += gates.drive(gates.configured(gates.PyEstimator, cfg.jitter), stream)[0]
        est = gates.configured(JitterEstimator, cfg.jitter)()
        for ts, arrival in stream:
            est.update(ts, arrival)
            disorder += est.disorder
    return {
        "estimator.update_per_s": updates / active_s,
        "estimator.update_per_s.python": updates / python_s,
        "estimator.disorder_share": disorder / updates,
    }


def check_estimator_twins(run: Run, sessions) -> None:
    """bench_estimator's stream, then every session's own stream, through both
    twins; any difference fails the run. Skipped without the compiled twin."""
    compiled = gates.compiled_estimator()
    if compiled is None:
        run.notes.append("estimator twin gate skipped: compiled twin not importable")
        return
    failures, output = gates.bench_estimator_gate(ESTIMATOR_STREAM_UPDATES)
    run.fail(failures, sessions=0)
    run.notes.append("bench_estimator: " + " / ".join(output.splitlines()))
    for result, cfg in sessions:
        run.fail(gates.twin_mismatch(gates.session_stream(result.records), cfg.jitter,
                                     compiled))
    run.notes.append(f"estimator twin gate ran on {len(sessions)} sessions "
                     f"and a {ESTIMATOR_STREAM_UPDATES}-update stream")


def _check_sessions(run: Run, sessions) -> None:
    for result, cfg in sessions:
        run.fail(gates.check_session(result, cfg))


# ------------------------------------------------------------- library

LIBRARY = {
    "relay-hetero": (topologies.hetero, ("vcr-wm", "via-bf"), False, 15_000),
    "burst-direct": (topologies.burst_direct, ("drt-wm", "drt-bf"), True, 20_000),
}


def _library_cells(name: str, seed: int):
    """A library workload's topology builder and its (method, config) cells."""
    build, methods, prune, packets = LIBRARY[name]
    duration = topologies.session_duration_ms(packets)
    template = SessionConfig(endpoint="e0", user="u0", packet_count=packets,
                             interval_ms=topologies.INTERVAL_MS,
                             warmup_ms=topologies.WARMUP_MS, seed=seed,
                             router=RouterConfig(prune=prune))
    return (lambda: build(seed, duration)), [(m, method_config(template, m)) for m in methods]


def _library_iteration(topo, cfgs, out_dir: Path) -> dict:
    """One pass over the cells: each session, then the reports. Each piece is
    timed raw and in calibrated seconds; wall time is their sum."""
    meter = HostMeter()
    sessions, sim_s, sim_cal = [], 0.0, 0.0
    for method, cfg in cfgs:
        t0 = time.perf_counter()
        result = engine.run_session(topo, cfg, method=method)
        elapsed = time.perf_counter() - t0
        sim_s += elapsed
        sim_cal += elapsed * meter.scale()
        sessions.append((result, cfg))
    t0 = time.perf_counter()
    files = _write_reports([r.report for r, _ in sessions], out_dir)
    report_s = time.perf_counter() - t0
    report_cal = report_s * meter.scale()
    packets = sum(cfg.packet_count for _, cfg in sessions)
    return {"sessions": sessions, "files": files, "sim_rate": packets / sim_s,
            "sim_rate_cal": packets / sim_cal, "report_cal": report_cal,
            "wall_s": sim_s + report_s, "wall_cal": sim_cal + report_cal}


def library_rss(name: str, seed: int, out_dir: Path) -> dict:
    """One iteration of a library workload and nothing else, for a fresh
    process (``rss_child.py``): its reports' digests and its peak RSS."""
    build, cfgs = _library_cells(name, seed)
    it = _library_iteration(build(), cfgs, out_dir)
    return {"digests": _digests(it["files"]), "peak_rss_mb": _rss_mb()}


def _child_rss(run: Run, name: str, seed: int) -> dict:
    cmd = [sys.executable, str(Path(__file__).with_name("rss_child.py")), name, str(seed),
           str(run.work / "rss")]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"rss_child.py exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _until(seconds: float, step, at_least: int = 1) -> list:
    out = []
    t0 = time.perf_counter()
    while len(out) < at_least or time.perf_counter() - t0 < seconds:
        out.append(step(len(out)))
    return out


def run_library(name: str, seed: int, run: Run, trace: bool) -> None:
    build, cfgs = _library_cells(name, seed)
    out_dir = run.work / "reports"
    setup_times: list[tuple[float, float]] = []   # (raw, calibrated) s per build
    first: dict = {}

    def set_up():
        # rebuilt every iteration, so set-up time is sampled across the run
        meter = HostMeter()
        t, topo = _timed(build, SETUP_BLOCK_S)
        setup_times.append((t, t * meter.scale()))
        return topo

    def step(i: int) -> dict:
        it = _library_iteration(set_up(), cfgs, out_dir)
        run.attempted += len(cfgs)
        sessions = it.pop("sessions")
        digests = _digests(it["files"])
        if i == 0:
            # the first iteration's records feed the gates and the estimator
            # replay here; past this point only its digests and figures are kept
            _check_sessions(run, sessions)
            check_estimator_twins(run, sessions)
            first.update(digests=digests, files=it["files"],
                         fidelity=_fidelity([r.report for r, _ in sessions]))
            if trace:
                first["estimator"] = _estimator_metrics(sessions)
        else:
            for result, _ in sessions:
                run.fail(gates.check_report(result.report))
            if digests != first["digests"]:
                run.fail([f"iteration {i} reports differ from the first"], len(cfgs))
        return it

    traced: list[dict] = []

    def traced_step() -> dict:
        topo = set_up()
        tracer = Tracer()
        with instrument(tracer) as missing, GcMonitor() as gc_monitor:
            it = _library_iteration(topo, cfgs, out_dir)
        run.attempted += len(cfgs)
        if missing and not traced:
            run.notes.append(f"entry points not found: {missing}")
        if _digests(it["files"]) != first["digests"]:
            run.fail(["a traced iteration wrote different reports"], len(cfgs))
        reports = [r.report for r, _ in it.pop("sessions")]
        traced.append(_layer_metrics(tracer, gc_monitor, reports))
        return it

    def next_iteration(i: int) -> dict:
        # the traced run alternates untraced and traced iterations, so that
        # both see the same machine and their difference is the tracer's cost
        if not trace:
            return step(i)
        return traced_step() if i % 2 else step(i // 2)

    iterations = _until(run.seconds, next_iteration, at_least=2 if trace else 1)
    # the first iteration warms caches and runs the gates; it is timed only
    # when nothing else was
    untraced = iterations[0::2] if trace else iterations
    untraced = untraced[1:] or untraced
    setup_s = _median(cal for _, cal in setup_times)
    run.digests = first["digests"]
    run.fidelity = first["fidelity"]
    untraced_rate = _median(it["sim_rate_cal"] for it in untraced)
    if not trace:
        # peak RSS is read in a fresh process that runs the sessions alone,
        # so the gates' replays and this process's bookkeeping are not in it
        rss = _child_rss(run, name, seed)
        run.attempted += len(cfgs)
        if rss["digests"] != first["digests"]:
            run.fail(["the fresh process wrote different reports"], len(cfgs))
        run.metrics = {
            "setup_s": setup_s,
            "wall_s": _median(it["wall_cal"] for it in untraced),
            "sim_pkt_per_s": untraced_rate,
            "report_s": _median(it["report_cal"] for it in untraced),
            "setup_raw_s": _median(raw for raw, _ in setup_times),
            "wall_raw_s": _median(it["wall_s"] for it in untraced),
            "sim_raw_pkt_per_s": _median(it["sim_rate"] for it in untraced),
            "peak_rss_mb": rss["peak_rss_mb"],
            "report_bytes": float(sum(Path(f).stat().st_size for f in first["files"])),
        }
        run.notes.append(f"{len(iterations)} iterations of {len(cfgs)} sessions x "
                         f"{cfgs[0][1].packet_count} packets; set-up ms per build, raw: "
                         + " ".join(f"{raw * 1e3:.2f}" for raw, _ in setup_times)
                         + "; timed pkt/s, raw: "
                         + " ".join(f"{it['sim_rate']:.0f}" for it in untraced)
                         + "; calibrated: "
                         + " ".join(f"{it['sim_rate_cal']:.0f}" for it in untraced))
        return

    traced_rate = _median(it["sim_rate_cal"] for it in iterations[1::2])
    layer = {key: _median(m[key] for m in traced) for key in traced[0]}
    layer.update(first["estimator"])
    layer.update({
        "traces.synth_s": setup_s,
        "traces.load_topology_s": 0.0,
        "cli.topology_pickle_mb": 0.0,
        "cli.overhead_s": 0.0,
        "trace.overhead_pkt_per_s": untraced_rate - traced_rate,
        "trace.overhead_share": 1.0 - traced_rate / untraced_rate,
    })
    run.metrics = layer
    run.notes.append(f"{len(untraced)} untraced and {len(traced)} traced iterations; "
                     f"untraced {untraced_rate:.0f} pkt/s, traced {traced_rate:.0f} pkt/s")


# ---------------------------------------------------------- matrix-cli

CLI_PACKETS = 5_000
# the trace covers the sessions' warm-up, packets and drain, as the library
# workloads' topologies do, rather than synth's default 700 s
CLI_DURATION_MS = topologies.session_duration_ms(CLI_PACKETS)
CLI_METHODS = ("drt-bf", "drt-wm", "via-bf", "via-wm", "vcr-wm")


def _relaysim(run: Run, args: list[str]) -> tuple[float, dict]:
    """Run the relaysim command in a child; returns (wall seconds, its costs)."""
    result_path = run.work / "cli_result.json"
    cmd = [sys.executable, str(Path(__file__).with_name("cli_child.py")), str(result_path)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd + ["--"] + args, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"relaysim {args[0]} exited {proc.returncode}: {proc.stderr.strip()}")
    return wall, json.loads(result_path.read_text())


def _matrix_library(topo, template):
    """run_matrix over the command's cells, keeping each session for the gates.

    Returns (matrix, [(result, cfg)], calibrated seconds inside run_session);
    each session is bracketed by the calibration kernel.
    """
    sessions, sim_s = [], [0.0]
    inner = engine.run_session
    meter = HostMeter()

    def capture(topology, cfg, method=None):
        t0 = time.perf_counter()
        result = inner(topology, cfg, method=method)
        sim_s[0] += (time.perf_counter() - t0) * meter.scale()
        sessions.append((result, cfg))
        return result

    engine.run_session = capture
    try:
        matrix = run_matrix([(topo, template)], list(CLI_METHODS))
    finally:
        engine.run_session = inner
    return matrix, sessions, sim_s[0]


def run_matrix_cli(seed: int, run: Run, trace: bool) -> None:
    topo_dir = run.work / "topology"
    synth_s, _ = _relaysim(run, ["synth", "--relays", str(CLI_RELAYS), "--seed", str(seed),
                                 "--duration-ms", str(CLI_DURATION_MS),
                                 "--out", str(topo_dir)])
    manifest = topo_dir / "topology.json"
    template = SessionConfig(endpoint="e0", user="u0", packet_count=CLI_PACKETS, seed=seed)
    packets = len(CLI_METHODS) * CLI_PACKETS
    first: dict = {}

    def step(i: int) -> dict:
        # each step is one command run; set-up is the command's own topology
        # load and sim_pkt_per_s its cells' time inside run_session
        out_dir = run.work / f"cli{i}"
        kernels = kernel_s_per_cpu()
        wall, costs = _relaysim(run, ["run", str(topo_dir / "experiment.json"),
                                      "--jobs", str(CLI_JOBS), "--packets", str(CLI_PACKETS),
                                      "--out", str(out_dir)])
        files = [out_dir / f"s0_{m}{ext}" for m in CLI_METHODS
                 for ext in (".json", "_cdf.csv")] + [out_dir / "summary.csv"]
        digests = _digests(files)
        run.attempted += len(CLI_METHODS)
        for m in CLI_METHODS:
            cell = json.loads((out_dir / f"s0_{m}.json").read_text())
            if cell["delivered"] + cell["dropped_late"] != cell["packet_count"]:
                run.fail([f"cli {m}: delivered + dropped != packets"])
        if sorted(costs["cell_s"]) != sorted(CLI_METHODS):
            run.fail([f"cli run {i} timed cells {sorted(costs['cell_s'])}"], 0)
        if i == 0:
            # the same cells once through the library, serially: the records
            # the session gates need, and the byte-for-byte comparison
            topo = load_topology(manifest)
            matrix, sessions, lib_sim_s = _matrix_library(topo, template)
            run.attempted += len(CLI_METHODS)
            first.update(topo=topo, files=files, digests=digests, sessions=sessions,
                         matrix=matrix,
                         lib_rate=packets / lib_sim_s,
                         json={m: (out_dir / f"s0_{m}.json").read_bytes() for m in CLI_METHODS})
        else:
            if digests != first["digests"]:
                run.fail([f"cli run {i} reports differ from the first"], len(CLI_METHODS))
            shutil.rmtree(out_dir)
        sim_s = sum(costs["cell_s"].values())
        kernels += kernel_s_per_cpu()
        return {"wall_s": wall, "load_s": costs["load_s"], "report_s": costs["report_s"],
                "sim_s": sim_s, "kernels": kernels,
                "rss_kb": max(costs["self_rss_kb"], costs["children_rss_kb"]),
                "pickled_mb": costs["pickled_bytes"] / 1e6}

    iterations = _until(run.seconds, step)
    run.digests = first["digests"]
    # the first run warms caches and feeds the gates; it is timed only when
    # nothing else was. A command's time is bimodal, by the CPU it lands on,
    # so host times are means over the run, scaled by the run's mean kernel
    # time on every CPU (see calibration.py)
    timed = iterations[1:] or iterations
    raw = {key: statistics.fmean(it[key] for it in timed)
           for key in ("load_s", "wall_s", "sim_s", "report_s")}
    scale = NOMINAL_S / statistics.fmean(k for it in timed for k in it["kernels"])
    setup_s = raw["load_s"] * scale
    cli_wall = raw["wall_s"] * scale
    cli_rate = packets / (raw["sim_s"] * scale)

    sessions = first["sessions"]
    _check_sessions(run, sessions)
    check_estimator_twins(run, sessions)
    for m in CLI_METHODS:
        if first["matrix"].cells[(0, m)].to_json().encode() != first["json"][m]:
            run.fail([f"cli cell {m} differs from run_matrix"])
    run.fidelity = _fidelity([r.report for r, _ in sessions])

    if not trace:
        run.metrics = {
            "setup_s": setup_s,
            "wall_s": cli_wall,
            "sim_pkt_per_s": cli_rate,
            "report_s": raw["report_s"] * scale,
            "setup_raw_s": raw["load_s"],
            "wall_raw_s": raw["wall_s"],
            "sim_raw_pkt_per_s": packets / raw["sim_s"],
            "peak_rss_mb": _median(it["rss_kb"] for it in timed) / 1024.0,
            "report_bytes": float(sum(f.stat().st_size for f in first["files"])),
        }
        run.notes.append(f"{len(iterations)} cli runs of {len(CLI_METHODS)} cells x "
                         f"{CLI_PACKETS} packets, --jobs {CLI_JOBS}; wall s: "
                         + " ".join(f"{it['wall_s']:.2f}" for it in iterations)
                         + "; load s: "
                         + " ".join(f"{it['load_s']:.2f}" for it in iterations)
                         + "; pkt/s: "
                         + " ".join(f"{packets / it['sim_s']:.0f}" for it in iterations)
                         + f"; timed runs scaled by {scale:.3f}")
        return

    tracer = Tracer()
    with instrument(tracer) as missing, GcMonitor() as gc_monitor:
        _, traced_sessions, traced_sim_s = _matrix_library(first["topo"], template)
        _write_reports([r.report for r, _ in traced_sessions], run.work / "lib")
    if missing:
        run.notes.append(f"entry points not found: {missing}")
    run.attempted += len(traced_sessions)
    for result, _ in traced_sessions:
        if result.report.to_json().encode() != first["json"][result.report.method]:
            run.fail([f"traced cell {result.report.method} differs from the cli"])
    # the tracer's cost: the untraced serial library pass against the traced one
    traced_rate = packets / traced_sim_s
    layer = _layer_metrics(tracer, gc_monitor, [r.report for r, _ in traced_sessions])
    layer.update(_estimator_metrics(sessions))
    layer.update({
        "traces.synth_s": synth_s,
        "traces.load_topology_s": setup_s,
        "cli.topology_pickle_mb": _median(it["pickled_mb"] for it in iterations),
        "cli.overhead_s": cli_wall - setup_s - packets / cli_rate / CLI_JOBS,
        "trace.overhead_pkt_per_s": first["lib_rate"] - traced_rate,
        "trace.overhead_share": 1.0 - traced_rate / first["lib_rate"],
    })
    run.metrics = layer
    run.notes.append(f"cli {cli_wall:.2f} s; library run_matrix {first['lib_rate']:.0f} pkt/s "
                     f"untraced, {traced_rate:.0f} pkt/s traced; topology pickle "
                     f"{len(pickle.dumps(first['topo'])) / 1e6:.1f} MB")


def check_predictions(name: str, run: Run) -> None:
    """The traced run's layer metrics against PREDICTIONS; a miss fails the run."""
    for metric, expected in PREDICTIONS[name].items():
        value = run.metrics.get(metric, float("nan"))
        if not abs(value - expected) < 1e-12:
            run.fail([f"prediction missed: {metric} is {value:.6g}, expected {expected:.6g}"],
                     sessions=0)
    run.notes.append(f"{len(PREDICTIONS[name])} layer predictions checked: "
                     + ", ".join(f"{m} == {v:.6g}" for m, v in PREDICTIONS[name].items()))


def run_workload(name: str, seed: int, run: Run, trace: bool) -> None:
    run.notes.append(f"estimator {IMPLEMENTATION}, python {sys.version.split()[0]}, "
                     f"numpy {np.__version__}, nproc {os.cpu_count()}")
    if name == "matrix-cli":
        run_matrix_cli(seed, run, trace)
    else:
        run_library(name, seed, run, trace)
    if trace:
        check_predictions(name, run)
    sessions = max(run.attempted, 1)
    run.fidelity["session_fail_rate"] = run.failed / sessions


WORKLOADS = ("relay-hetero", "burst-direct", "matrix-cli")
