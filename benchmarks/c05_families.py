"""Criterion 5 on several seed families: watermark against playout buffer.

Runs the bursty single-link scenario of ``tests/test_acceptance.py``
(``burst_direct_topology``, 60000 packets per session) for each seed family
``base, base+1, ...`` and prints the watermark's mean-latency reduction and
loss delta against the playout buffer, the two clauses criterion 5 asserts
(reduction >= 5%, loss delta <= +1pp). The default lag rule and the jitter
lag alone (the default with its reorder-depth term off) are always run;
``--fixed`` adds watermark runs whose lag is pinned to a constant.

Usage: python benchmarks/c05_families.py [--families 5000,1000,3000,7000,9000,11000]
                                         [--seeds 5] [--fixed 230]
"""

import argparse
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from relaysim import JitterConfig, JitterEstimator, SessionConfig, run_session  # noqa: E402
from scenarios import burst_direct_topology  # noqa: E402

PACKETS = 60_000


class FixedLag:
    """An estimator stand-in whose lag never moves."""

    def __init__(self, lag_ms: float) -> None:
        self.lag_ms = lag_ms

    def update(self, ts: float, arrival: float) -> float:
        return self.lag_ms

    def lags(self, ts, ta):
        """The whole-stream pass the watermark plays a schedule with."""
        return np.full(len(ts), self.lag_ms)


@dataclass
class FixedLagConfig(JitterConfig):
    fixed_lag_ms: float = 0.0

    def make_estimator(self):
        return FixedLag(self.fixed_lag_ms)


class JitterLagOnly(JitterEstimator):
    """The watermark's estimator with the reorder-depth term off: the lag is
    the jitter part alone, the jitter quantile, ratcheted while a reordering
    episode is open."""

    __slots__ = ()

    @property
    def lag_ms(self) -> float:
        return self.jitter_lag_ms

    def update(self, ts: float, arrival: float) -> float:
        JitterEstimator.update(self, ts, arrival)
        return self.jitter_lag_ms

    def lags(self, ts, ta):
        # the inherited pass would return the full lag: this rule's update
        # per arrival instead
        return np.fromiter(map(self.update, ts, ta), float, len(ts))


class JitterLagOnlyConfig(JitterConfig):
    def make_estimator(self):
        return JitterLagOnly(self.window_ms, self.bin_ms, self.percentile, self.loss_cost_ms,
                             self.initial_lag_ms, self.max_lag_ms)


def session(topo, seed, jitter, method):
    cfg = SessionConfig(endpoint="e0", user="u0", packet_count=PACKETS, interval_ms=10.0,
                        warmup_ms=60_000.0, seed=seed, jitter=jitter)
    rep = run_session(topo, cfg, method=method).report
    return rep.latency_mean_ms, rep.loss_rate


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--families", default="5000,1000,3000,7000,9000,11000",
                        help="comma-separated first topology seed of each family")
    parser.add_argument("--seeds", type=int, default=5, help="seeds per family")
    parser.add_argument("--fixed", default="", help="comma-separated fixed lags, ms")
    args = parser.parse_args(argv)
    duration_ms = 60_000.0 + PACKETS * 10.0 + 20_000.0  # warm-up, packets, drain

    rules = [("default", JitterConfig(kind="watermark")),
             ("jitter only", JitterLagOnlyConfig(kind="watermark"))]
    rules += [(f"fixed {float(lag):g} ms", FixedLagConfig(kind="watermark", fixed_lag_ms=float(lag)))
              for lag in args.fixed.split(",") if lag]
    print(f"{'family':>8} {'rule':>14} {'wm ms':>8} {'wm loss':>8} {'bf ms':>8} "
          f"{'bf loss':>8} {'reduction':>9} {'loss delta':>10}  both clauses")
    for base in (int(b) for b in args.families.split(",")):
        topos = [(seed, burst_direct_topology(base + seed, duration_ms))
                 for seed in range(args.seeds)]
        bf = [session(topo, seed, JitterConfig(kind="buffer"), "drt-bf") for seed, topo in topos]
        bf_mean = statistics.mean(m for m, _ in bf)
        bf_loss = statistics.mean(loss for _, loss in bf)
        for name, jitter in rules:
            wm = [session(topo, seed, jitter, "drt-wm") for seed, topo in topos]
            wm_mean = statistics.mean(m for m, _ in wm)
            wm_loss = statistics.mean(loss for _, loss in wm)
            reduction = (bf_mean - wm_mean) / bf_mean
            dloss = wm_loss - bf_loss
            ok = reduction >= 0.05 and dloss <= 0.01
            print(f"{base:>8} {name:>14} {wm_mean:>8.1f} {wm_loss:>8.2%} {bf_mean:>8.1f} "
                  f"{bf_loss:>8.2%} {reduction:>9.1%} {dloss * 100:>+9.2f}pp  {'yes' if ok else 'no'}",
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
