"""Independent reference model of the adaptive playout buffer.

The buffer's rule as it was written before ``PlayoutBuffer`` stated it once
for ``on_arrival`` and ``play`` alike: one arrival at a time, a sweep over
sequence slots after every accepted packet. Written per arrival, with plain
attributes and no column or block in sight, so a fault in the production
step's block bookkeeping cannot hide here. The equivalence tests feed both
the same arrival stream and require identical emissions, drops and state,
bit for bit. The rule is adaptive playout after Ramjee et al. (INFOCOM
1994), played strictly in sequence order.
"""

from __future__ import annotations

from relaysim import Emission, Packet, TransitEstimator


class BufferReference:
    def __init__(self, estimator: TransitEstimator, interval_ms: float) -> None:
        self.est = estimator
        self.interval = interval_ms
        self.target = estimator.transit_target()  # as of the last update
        self.next_seq = 0
        self.held: dict[int, tuple[float, float]] = {}  # seq -> (ts, arrival)
        self.ts_base: float | None = None  # ts of seq 0, set by the first arrival
        self.max_seen = -1
        self.last_out = float("-inf")
        self.drops: list[int] = []
        self.emissions: list[Emission] = []

    def arrival(self, pkt: Packet) -> tuple[list[Emission], bool]:
        """Process one arrival: (what it plays out, whether it was dropped)."""
        seq, ts, now = pkt.seq, pkt.ts, pkt.arrival
        cold = self.ts_base is None  # the first arrival is never late
        if cold:
            self.ts_base = ts - seq * self.interval
        self.max_seen = max(self.max_seen, seq)
        # the drop is judged against the target before this arrival; the
        # estimator measures the arrival either way
        before = self.target
        self.est.update(ts, now)
        self.target = self.est.transit_target()
        if seq < self.next_seq or (not cold and now > ts + before):
            self.drops.append(seq)
            return [], True
        if seq in self.held:
            raise ValueError(f"duplicate seq {seq}")
        self.held[seq] = (ts, now)
        out = self._sweep(now)
        self.emissions.extend(out)
        return out, False

    def _sweep(self, now: float) -> list[Emission]:
        out: list[Emission] = []
        while True:
            if self.next_seq in self.held:
                ts, arrival = self.held[self.next_seq]
                if ts + self.target > now:
                    break  # holds until its scheduled playout time
                t_out = max(ts + self.target, arrival, self.last_out)
                out.append(Emission(self.next_seq, t_out))
                self.last_out = t_out
                del self.held[self.next_seq]
                self.next_seq += 1
            elif self.next_seq <= self.max_seen:
                # a missing slot blocks its successors until its own deadline
                # strictly passes; its ts is inferred from the base
                slot_ts = self.ts_base + self.next_seq * self.interval
                if now > slot_ts + self.target:
                    self.next_seq += 1
                else:
                    break
            else:
                break
        return out

    def flush(self, end_time: float) -> list[Emission]:
        """Play out everything still held, in sequence order, at end_time."""
        out: list[Emission] = []
        for seq in sorted(self.held):
            self.last_out = max(end_time, self.last_out)
            out.append(Emission(seq, self.last_out))
        self.held = {}
        self.emissions.extend(out)
        return out
