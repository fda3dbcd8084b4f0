"""Independent reference model of the watermark reorderer.

Deliberately written with different data structures than the production
class (flat list scans instead of a heap, explicit max instead of guarded
assignment) so a shared bug is unlikely. The equivalence tests feed both
the same arrival stream and require identical emissions and drops.
"""

from __future__ import annotations

from relaysim import JitterEstimator, Packet


class WatermarkReference:
    def __init__(self, estimator: JitterEstimator) -> None:
        self.est = estimator
        self.wm = float("-inf")
        self.pending: list[Packet] = []
        self.drops: list[int] = []
        self.emissions: list[tuple[int, float]] = []  # (seq, out_time)

    def arrival(self, pkt: Packet) -> None:
        now = pkt.arrival
        if pkt.ts < self.wm:
            # a late arrival still feeds the estimator
            self.est.update(pkt.ts, now)
            self.drops.append(pkt.seq)
            return
        lag = self.est.update(pkt.ts, now)
        self.wm = max(self.wm, pkt.ts - lag)
        self.pending.append(pkt)
        ripe = sorted((p for p in self.pending if p.ts < self.wm),
                      key=lambda p: (p.ts, p.seq))
        self.pending = [p for p in self.pending if p.ts >= self.wm]
        for p in ripe:
            self.emissions.append((p.seq, now))

    def flush(self, end_time: float) -> None:
        for p in sorted(self.pending, key=lambda p: (p.ts, p.seq)):
            self.emissions.append((p.seq, end_time))
        self.pending = []


def bursty_packets(rng, n: int, interval_ms: float = 10.0,
                   base_ms: float = 50.0) -> list[Packet]:
    """A cadenced stream whose transit has occasional square spikes.

    Returned in arrival order (stable on ties), the order a receiver sees.
    """
    import numpy as np

    ts = np.arange(n) * interval_ms
    transit = base_ms + rng.gamma(2.0, 3.0, n)
    i = 0
    while i < n:
        if rng.random() < 0.01:
            depth = rng.uniform(50.0, 400.0)
            width = int(rng.integers(5, 40))
            transit[i:i + width] += depth
            i += width
        else:
            i += 1
    arrival = ts + transit
    order = np.argsort(arrival, kind="stable")
    return [Packet(int(s), float(ts[s]), float(arrival[s])) for s in order]
