"""Times the jitter estimator's update on a bursty arrival stream.

The stream has latency bursts dense with reordering, the case that drives
the estimator's episode ratchet and reorder depth. A second line times the
playout buffer's estimator work per arrival on the same stream: a
``TransitEstimator`` update and one ``transit_target`` read.

Usage: python benchmarks/bench_estimator.py [--n 200000] [--seed 0]
"""

import argparse
import sys
import time

import numpy as np

from relaysim.estimator import JitterEstimator, TransitEstimator


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


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=200_000, help="stream length")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    stream = bursty_stream(np.random.default_rng(args.seed), args.n)
    elapsed, _, _ = drive(JitterEstimator, stream)
    print(f"watermark  {args.n / elapsed:10.0f} updates/s  ({elapsed:.3f}s)")
    elapsed, _ = drive_buffer(stream)
    print(f"buffer     {args.n / elapsed:10.0f} updates/s  ({elapsed:.3f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
