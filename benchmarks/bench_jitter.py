"""Time the pieces of a feedback-free session's jitter layer, apart.

For the ``drt-wm`` and ``drt-bf`` sessions on relaybench's burst-direct
geometry (one e0->u0 link, 150+-30 ms with multiplicative spikes, 10 ms
cadence) the arrival stream is built as the engine builds it: every tick's
arrival time on the direct path, in (arrival, seq) order. Through a fresh
manager of each method's jitter config, it times:

* ``estimator``: the estimator alone, one ``update`` per arrival (plus one
  ``transit_target`` read for the buffer, which reads it after each update),
  as a routed session calls it;
* ``est_pass``: the same work as one whole-stream pass, ``lags`` for the
  watermark and ``targets`` for the buffer, as ``play`` calls it;
* ``play``: the whole-stream pass and the flush, into numpy columns;
* ``on_arrival``: the same arrivals one ``on_arrival`` call at a time, and
  the flush, as a routed session would hand them over;
* ``session``: ``run_session`` itself, its records unread;
* ``records``: reading ``SessionResult.records`` once after the session.
  A feedback-free session builds its records only then, so this is the
  work a session that reads them pays on top of ``session``.

Every figure is the fastest of ``--repeats`` runs, in seconds, to four
significant digits. The run fails if ``play`` and the ``on_arrival`` loop
decide any fate or output time differently, or if the pass's column differs
from the per-call outputs.

    PYTHONPATH=src python benchmarks/bench_jitter.py [--packets 20000,600000] [--repeats 3]
"""

from __future__ import annotations

import argparse
import sys
import time
import zlib

import numpy as np

from relaysim import (JitterConfig, LatencyTrace, Node, Packet, SessionConfig, Topology,
                      build_jitter_manager, method_config, run_session)
from relaysim.jitter import FATES
from relaysim.paths import enumerate_paths, path_latency
from relaysim.traces import synth_link_samples

METHODS = ("drt-wm", "drt-bf")
COLUMNS = ("estimator", "est_pass", "play", "on_arrival", "session", "records")
WARMUP_MS = 60_000.0
INTERVAL_MS = 10.0


def burst_direct(seed: int, packets: int) -> Topology:
    """relaybench's burst-direct link, long enough for the session and a drain."""
    duration = WARMUP_MS + packets * INTERVAL_MS + 20_000.0
    ts = np.arange(0.0, duration, 100.0)
    rng = np.random.default_rng(np.random.SeedSequence([seed, zlib.crc32(b"e0->u0")]))
    samples = synth_link_samples(rng, 150.0, 30.0, ts.size, "regime-switching-spikes")
    return Topology([Node("e0", "endpoint"), Node("u0", "user")],
                    {("e0", "u0"): LatencyTrace("e0", "u0", ts, samples)})


def session_config(method: str, packets: int, seed: int) -> SessionConfig:
    return method_config(SessionConfig(endpoint="e0", user="u0", packet_count=packets,
                                       interval_ms=INTERVAL_MS, warmup_ms=WARMUP_MS,
                                       seed=seed), method)


def arrival_stream(topology: Topology, packets: int):
    """``(order, ts, ta)``: seq-indexed tick and arrival columns on the direct
    path, and the seqs in (arrival, seq) order, as the engine plays them."""
    ts = WARMUP_MS + np.arange(packets) * INTERVAL_MS
    ta = ts + path_latency(topology, enumerate_paths("e0", "u0", [])[0], ts)
    return np.argsort(ta, kind="stable"), ts, ta


def _estimator_s(cfg: JitterConfig, ts_o: list, ta_o: list) -> tuple[float, list]:
    """(seconds, outputs) of the per-call estimator work: the lag after each
    update, or for the buffer the target read after it."""
    est = cfg.make_estimator()
    update = est.update
    t0 = time.perf_counter()
    if cfg.kind == "buffer":
        transit_target = est.transit_target
        out = []
        for t, now in zip(ts_o, ta_o):
            update(t, now)
            out.append(transit_target())
    else:
        out = [update(t, now) for t, now in zip(ts_o, ta_o)]
    return time.perf_counter() - t0, out


def _pass_s(cfg: JitterConfig, ts_o: np.ndarray, ta_o: np.ndarray) -> tuple[float, list]:
    """(seconds, column) of the same work as one whole-stream pass."""
    est = cfg.make_estimator()
    run = est.targets if cfg.kind == "buffer" else est.lags
    t0 = time.perf_counter()
    column = run(ts_o, ta_o)
    return time.perf_counter() - t0, column.tolist()


def _play(cfg: JitterConfig, order, ts, ta):
    """(seconds, to, fate) of one pass and its flush."""
    manager = build_jitter_manager(cfg, INTERVAL_MS)
    to, fate = np.full(ts.size, np.nan), np.zeros(ts.size, np.int8)
    t0 = time.perf_counter()
    manager.play(order, ts, ta, to, fate)
    for em in manager.flush(float(ta.max())):
        to[em.seq] = em.out
        fate[em.seq] = FATES.index("flushed")
    return time.perf_counter() - t0, to, fate


def _on_arrival(cfg: JitterConfig, arrivals: list, ta_o: list, end: float):
    """(seconds, to, fate) of the on_arrival loop and its flush."""
    manager = build_jitter_manager(cfg, INTERVAL_MS)
    on_arrival = manager.on_arrival
    dropped, emitted = [], []
    t0 = time.perf_counter()
    for arrival, now in zip(arrivals, ta_o):
        emissions, was_dropped = on_arrival(arrival, now)
        if was_dropped:
            dropped.append(arrival.seq)
        emitted += emissions
    flushed = manager.flush(end)
    elapsed = time.perf_counter() - t0
    to, fate = np.full(len(arrivals), np.nan), np.zeros(len(arrivals), np.int8)
    fate[dropped] = FATES.index("dropped_late")
    for code, ems in ((FATES.index("delivered"), emitted), (FATES.index("flushed"), flushed)):
        seqs = [em.seq for em in ems]
        to[seqs] = [em.out for em in ems]
        fate[seqs] = code
    return elapsed, to, fate


def _session(topology: Topology, cfg: SessionConfig) -> tuple[float, float]:
    """Seconds of ``run_session``, then of the first read of its records."""
    t0 = time.perf_counter()
    result = run_session(topology, cfg)
    t1 = time.perf_counter()
    result.records
    return t1 - t0, time.perf_counter() - t1


def measure(method: str, packets: int, seed: int, repeats: int) -> dict[str, float]:
    """The fastest of ``repeats`` runs of every column; raises if ``play``
    and ``on_arrival`` disagree anywhere."""
    topology = burst_direct(seed, packets)
    cfg = session_config(method, packets, seed)
    order, ts, ta = arrival_stream(topology, packets)
    ts_o, ta_o = ts[order].tolist(), ta[order].tolist()
    arrivals = [Packet(seq, t, now) for seq, t, now in zip(order.tolist(), ts_o, ta_o)]
    best = dict.fromkeys(COLUMNS, float("inf"))
    for _ in range(repeats):
        play_s, to, fate = _play(cfg.jitter, order, ts, ta)
        loop_s, want_to, want_fate = _on_arrival(cfg.jitter, arrivals, ta_o, float(ta.max()))
        if not (np.array_equal(to, want_to, equal_nan=True) and np.array_equal(fate, want_fate)):
            raise RuntimeError(f"{method}: play and on_arrival decide differently")
        session_s, records_s = _session(topology, cfg)
        estimator_s, outputs = _estimator_s(cfg.jitter, ts_o, ta_o)
        pass_s, column = _pass_s(cfg.jitter, ts[order], ta[order])
        if column != outputs:
            raise RuntimeError(f"{method}: the estimator's pass differs from its updates")
        for name, value in zip(COLUMNS, (estimator_s, pass_s, play_s, loop_s, session_s,
                                         records_s)):
            best[name] = min(best[name], value)
    return best


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--packets", default="20000,600000",
                        help="comma-separated session lengths")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    print(f"{'method':8} {'packets':>8} " + " ".join(f"{c + '_s':>12}" for c in COLUMNS))
    for packets in (int(p) for p in args.packets.split(",")):
        for method in METHODS:
            best = measure(method, packets, args.seed, args.repeats)
            print(f"{method:8} {packets:8d} " + " ".join(f"{best[c]:12.4g}" for c in COLUMNS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
