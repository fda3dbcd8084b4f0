"""Times the jitter estimators on a bursty arrival stream, per call and in
one whole-stream pass.

The stream has latency bursts dense with reordering, the case that drives
the estimator's episode ratchet and reorder depth. ``watermark`` times a
``JitterEstimator`` update per arrival, and ``watermark pass`` its ``lags``
over the same stream. ``buffer`` times the playout buffer's estimator work
per arrival, a ``TransitEstimator`` update and one ``transit_target`` read,
and ``buffer pass`` its ``targets``. The run fails if a pass's column
differs from the per-call outputs anywhere.

Usage: python benchmarks/bench_estimator.py [--n 200000] [--seed 0]
"""

import argparse
import sys
import time

import numpy as np

from relaysim._estimator import JitterEstimator, TransitEstimator


def bursty_stream(rng, n, interval_ms=10.0, base_ms=50.0):
    ts = np.arange(n) * interval_ms
    transit = base_ms + rng.gamma(2.0, 3.0, n)
    i = 0
    while i < n:
        if rng.random() < 0.01:
            width = int(rng.integers(5, 40))
            transit[i:i + width] += rng.uniform(50.0, 400.0)
            i += width
        else:
            i += 1
    arrival = ts + transit
    order = np.argsort(arrival, kind="stable")
    return list(zip(ts[order].tolist(), arrival[order].tolist()))


def drive(estimator_cls, stream):
    est = estimator_cls()
    lags = []
    t0 = time.perf_counter()
    for ts, arrival in stream:
        lags.append(est.update(ts, arrival))
    elapsed = time.perf_counter() - t0
    return elapsed, lags, est


def drive_buffer(stream):
    """The playout buffer's estimator calls per arrival: (seconds, targets)."""
    est = TransitEstimator()
    targets = []
    t0 = time.perf_counter()
    for ts, arrival in stream:
        est.update(ts, arrival)
        targets.append(est.transit_target())
    return time.perf_counter() - t0, targets


def drive_pass(estimator_cls, stream):
    """One whole-stream pass, ``lags`` or ``targets`` by estimator: (seconds,
    column)."""
    est = estimator_cls()
    ts, ta = (np.array(col) for col in zip(*stream))
    run = est.lags if estimator_cls is JitterEstimator else est.targets
    t0 = time.perf_counter()
    column = run(ts, ta)
    return time.perf_counter() - t0, column.tolist()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=200_000, help="stream length")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    stream = bursty_stream(np.random.default_rng(args.seed), args.n)
    elapsed, lags, _ = drive(JitterEstimator, stream)
    passed, pass_lags = drive_pass(JitterEstimator, stream)
    buffer_s, targets = drive_buffer(stream)
    buffer_pass_s, pass_targets = drive_pass(TransitEstimator, stream)
    for name, seconds in (("watermark", elapsed), ("watermark pass", passed),
                          ("buffer", buffer_s), ("buffer pass", buffer_pass_s)):
        print(f"{name:15} {args.n / seconds:10.0f} updates/s  ({seconds:.3f}s)")
    if pass_lags != lags or pass_targets != targets:
        print("a whole-stream pass differs from the per-call outputs", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
