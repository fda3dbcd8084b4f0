"""Out-of-order packet handling at the receiver.

Two managers share one windowed :class:`~relaysim.estimator.JitterEstimator`
per stream and differ only in ordering discipline:

``WatermarkReorderer``
    Out-of-order processing. Each accepted arrival advances a monotone low
    watermark wm = max(wm, p.ts - lag); every pending packet with ts < wm is
    emitted immediately (sorted by ts), so nobody waits for a missing
    predecessor. A packet arriving with ts < wm is dropped as late. The drop
    never touches the watermark or the pending queue, but by default the
    estimator still measures the dropped arrival (``update_on_drop``): a late
    packet's transit is exactly the reorder-depth evidence the lag needs
    while a reorder run is in progress, and the estimator forgets it once it
    leaves the depth hold.

``PlayoutBuffer``
    In-order processing with an adaptive playout schedule. A packet plays at
    ts + target_delay (target = windowed transit quantile), strictly in
    sequence order; a missing packet blocks successors until its own deadline
    passes, and a packet arriving after its deadline, or for a slot already
    passed, is dropped.

Both managers are event-driven: emissions happen while processing an arrival,
plus a final flush at session teardown.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush

from .estimator import JitterEstimator


@dataclass(frozen=True)
class Packet:
    seq: int
    ts: float       # generation timestamp, ms
    arrival: float  # receiver arrival time, ms

    def __post_init__(self) -> None:
        if self.arrival < self.ts:
            raise ValueError(f"packet {self.seq} arrives before it is generated")


@dataclass(frozen=True)
class Emission:
    seq: int
    ts: float
    arrival: float
    out: float  # emission (playout hand-off) time, ms


JITTER_KINDS = ("watermark", "buffer")


@dataclass
class JitterConfig:
    kind: str = "watermark"  # one of JITTER_KINDS
    window_ms: float = 2000.0
    bin_ms: float = 1.0
    percentile: float = 0.95
    loss_cost_ms: float = 100.0
    initial_lag_ms: float = 0.0
    max_lag_ms: float = 10000.0
    update_on_drop: bool = True  # late arrivals still feed the estimator

    def make_estimator(self) -> JitterEstimator:
        return JitterEstimator(
            window_ms=self.window_ms,
            bin_ms=self.bin_ms,
            percentile=self.percentile,
            loss_cost_ms=self.loss_cost_ms,
            initial_lag_ms=self.initial_lag_ms,
            max_lag_ms=self.max_lag_ms,
        )


class WatermarkReorderer:
    """Watermark-driven out-of-order emission."""

    def __init__(self, estimator: JitterEstimator, update_on_drop: bool = True) -> None:
        self._est = estimator
        self._update_on_drop = update_on_drop
        self._wm = float("-inf")
        self._pending: list[tuple[float, int, float]] = []  # (ts, seq, arrival)
        self.dropped_count = 0

    @property
    def watermark(self) -> float:
        return self._wm

    @property
    def lag_ms(self) -> float:
        return self._est.lag_ms

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    def on_arrival(self, packet: Packet, now: float) -> tuple[list[Emission], bool]:
        """Process one arrival; returns (emissions, dropped_this_packet)."""
        if now != packet.arrival:
            raise ValueError("now must equal the packet arrival time")
        if packet.ts < self._wm:
            # late: the watermark already passed this timestamp. The drop
            # leaves wm and the queue untouched, but the estimator may still
            # measure the arrival (its transit measures the depth of the
            # current reorder run, evidence the lag cannot get elsewhere).
            if self._update_on_drop:
                self._est.update(packet.ts, now)
            self.dropped_count += 1
            return [], True
        lag = self._est.update(packet.ts, now)
        wm = packet.ts - lag
        if wm > self._wm:
            self._wm = wm
        heappush(self._pending, (packet.ts, packet.seq, packet.arrival))
        out: list[Emission] = []
        while self._pending and self._pending[0][0] < self._wm:
            ts, seq, arrival = heappop(self._pending)
            out.append(Emission(seq, ts, arrival, now))
        return out, False

    def flush(self, end_time: float) -> list[Emission]:
        """Emit everything still pending, in ts order, at end_time."""
        out: list[Emission] = []
        while self._pending:
            ts, seq, arrival = heappop(self._pending)
            out.append(Emission(seq, ts, arrival, end_time))
        return out


class PlayoutBuffer:
    """In-order playout with an adaptive target delay.

    ``interval_ms`` is the sender cadence; it anchors deadlines for sequence
    slots that have not arrived (ts inferred from the slot index).
    """

    def __init__(
        self,
        estimator: JitterEstimator,
        interval_ms: float,
        update_on_drop: bool = True,
    ) -> None:
        if interval_ms <= 0:
            raise ValueError("interval_ms must be positive")
        self._est = estimator
        self._update_on_drop = update_on_drop
        self._interval = interval_ms
        self._next_seq = 0
        self._buffer: dict[int, Packet] = {}
        self._ts_base: float | None = None  # ts of seq 0, learned from arrivals
        self._max_seen = -1
        self._last_out = float("-inf")
        self.dropped_count = 0

    @property
    def target_delay_ms(self) -> float:
        return self._est.transit_target()

    @property
    def pending_count(self) -> int:
        return len(self._buffer)

    def on_arrival(self, packet: Packet, now: float) -> tuple[list[Emission], bool]:
        if now != packet.arrival:
            raise ValueError("now must equal the packet arrival time")
        cold = self._ts_base is None  # first arrival seeds the estimate, never late
        if cold:
            self._ts_base = packet.ts - packet.seq * self._interval
        if packet.seq > self._max_seen:
            self._max_seen = packet.seq
        # drop decisions use the pre-arrival target, mirroring the watermark
        # manager's check against the pre-arrival wm
        target = self._est.transit_target()
        if self._update_on_drop:
            self._est.update(packet.ts, now)
        if packet.seq < self._next_seq:
            self.dropped_count += 1
            return [], True
        if not cold and now > packet.ts + target:
            self.dropped_count += 1
            return [], True
        if not self._update_on_drop:
            self._est.update(packet.ts, now)
        if packet.seq in self._buffer:
            raise ValueError(f"duplicate seq {packet.seq}")
        self._buffer[packet.seq] = packet
        return self._sweep(now), False

    def _sweep(self, now: float) -> list[Emission]:
        target = self._est.transit_target()
        out: list[Emission] = []
        while True:
            pkt = self._buffer.get(self._next_seq)
            if pkt is not None:
                deadline = pkt.ts + target
                if deadline > now:
                    break  # holds until its scheduled playout time
                t_out = deadline
                if pkt.arrival > t_out:
                    t_out = pkt.arrival
                if self._last_out > t_out:
                    t_out = self._last_out
                out.append(Emission(pkt.seq, pkt.ts, pkt.arrival, t_out))
                self._last_out = t_out
                del self._buffer[self._next_seq]
                self._next_seq += 1
            elif self._next_seq <= self._max_seen:
                # missing slot: blocks successors until its own deadline passes
                # (strict, matching the late-arrival drop rule); its ts is
                # inferred from the base the first arrival set
                slot_ts = self._ts_base + self._next_seq * self._interval
                if now > slot_ts + target:
                    self._next_seq += 1
                else:
                    break
            else:
                break
        return out

    def flush(self, end_time: float) -> list[Emission]:
        """Emit everything still buffered, in sequence order, at end_time."""
        out: list[Emission] = []
        for seq in sorted(self._buffer):
            pkt = self._buffer[seq]
            t_out = end_time if end_time > self._last_out else self._last_out
            out.append(Emission(pkt.seq, pkt.ts, pkt.arrival, t_out))
            self._last_out = t_out
        self._buffer.clear()
        return out


def build_jitter_manager(cfg: JitterConfig, interval_ms: float):
    est = cfg.make_estimator()
    if cfg.kind == "watermark":
        return WatermarkReorderer(est, update_on_drop=cfg.update_on_drop)
    if cfg.kind == "buffer":
        return PlayoutBuffer(est, interval_ms, update_on_drop=cfg.update_on_drop)
    raise ValueError(f"unknown jitter manager kind {cfg.kind!r}")
