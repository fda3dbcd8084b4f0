"""Out-of-order packet handling at the receiver.

Two managers, each on its own windowed estimator per stream, differ in
ordering discipline and in what they measure. The watermark reads the lag of
a :class:`~relaysim.estimator.JitterEstimator`; the playout buffer reads only
the transit quantile, which a :class:`~relaysim.estimator.TransitEstimator`
keeps without the jitter histogram, reorder depth and episode ratchet behind
the lag. ``JitterEstimator`` extends ``TransitEstimator``, so the transit
window and its quantile are the same code for both:

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
    passed, is dropped. The target changes only when the estimator is
    updated, so the buffer reads it once after each update and keeps it.

Both managers are event-driven: emissions happen while processing an arrival,
plus a final flush at session teardown. ``on_arrival(packet, now)`` processes
one arrival; it takes the arrival time from ``now`` and reads only ``seq`` and
``ts`` off ``packet``, so a :class:`Packet` and the engine's own per-packet
record both serve. The engine calls it in routed sessions, where feedback and
plan changes interleave with arrivals. ``play(order, ts, ta, to, fate)``
processes a whole arrival schedule held in seq-indexed columns, with the
manager's state in locals and no object per arrival; the engine calls it in
feedback-free sessions, whose schedule is known up front. So each manager
states its rule twice: routing ``on_arrival`` through the pass slowed routed
sessions, and ``tests/test_jitter.py`` requires both forms to decide the same
fates and output times and to leave the same state.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Iterable, MutableSequence, NamedTuple, Protocol, Sequence

from .errors import ValidationError
from .estimator import JitterEstimator, TransitEstimator


@dataclass(frozen=True)
class Packet:
    seq: int
    ts: float       # generation timestamp, ms
    arrival: float  # receiver arrival time, ms

    def __post_init__(self) -> None:
        if self.arrival < self.ts:
            raise ValueError(f"packet {self.seq} arrives before it is generated")


class Stamped(Protocol):
    """What a manager reads off an arrival: a Packet or an engine PacketRecord."""

    seq: int
    ts: float


class Emission(NamedTuple):
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

    def __post_init__(self) -> None:
        if self.kind not in JITTER_KINDS:
            raise ValidationError(
                f"unknown jitter kind {self.kind!r}, want one of {list(JITTER_KINDS)}")

    def make_estimator(self) -> TransitEstimator:
        """A ``JitterEstimator`` for the watermark; the playout buffer reads
        only the transit quantile and gets a ``TransitEstimator``."""
        cls = TransitEstimator if self.kind == "buffer" else JitterEstimator
        return cls(
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

    def on_arrival(self, packet: Stamped, now: float) -> tuple[list[Emission], bool]:
        """Process one arrival; returns (emissions, dropped_this_packet).

        ``now`` is the arrival time; ``packet`` supplies ``seq`` and ``ts``."""
        ts = packet.ts
        if ts < self._wm:
            # late: the watermark already passed this timestamp. The drop
            # leaves wm and the queue untouched, but the estimator may still
            # measure the arrival (its transit measures the depth of the
            # current reorder run, evidence the lag cannot get elsewhere).
            if self._update_on_drop:
                self._est.update(ts, now)
            self.dropped_count += 1
            return [], True
        lag = self._est.update(ts, now)
        wm = ts - lag
        if wm > self._wm:
            self._wm = wm
        heappush(self._pending, (ts, packet.seq, now))
        out: list[Emission] = []
        while self._pending and self._pending[0][0] < self._wm:
            ts, seq, arrival = heappop(self._pending)
            out.append(Emission(seq, ts, arrival, now))
        return out, False

    def play(self, order: Iterable[int], ts: Sequence[float], ta: Sequence[float],
             to: MutableSequence[float | None], fate: MutableSequence[str]) -> None:
        """Process a whole arrival schedule, as ``on_arrival`` would one by one.

        ``order`` lists the seqs in arrival order; ``ts`` and ``ta`` are
        indexed by seq. Each packet played out gets its output time in
        ``to[seq]`` and ``fate[seq] = "delivered"``; each late one gets
        ``fate[seq] = "dropped_late"``. What is still pending stays for
        ``flush``, and the manager ends in the state the same ``on_arrival``
        calls would leave."""
        update = self._est.update
        update_on_drop = self._update_on_drop
        pending = self._pending
        wm = self._wm
        dropped = self.dropped_count
        try:
            for seq in order:
                t = ts[seq]
                now = ta[seq]
                if t < wm:
                    if update_on_drop:
                        update(t, now)
                    dropped += 1
                    fate[seq] = "dropped_late"
                    continue
                mark = t - update(t, now)
                if mark > wm:
                    wm = mark
                heappush(pending, (t, seq, now))
                while pending and pending[0][0] < wm:
                    held = heappop(pending)[1]
                    to[held] = now
                    fate[held] = "delivered"
        finally:
            self._wm = wm
            self.dropped_count = dropped

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
        estimator: TransitEstimator,
        interval_ms: float,
        update_on_drop: bool = True,
    ) -> None:
        if interval_ms <= 0:
            raise ValueError("interval_ms must be positive")
        self._est = estimator
        self._target = estimator.transit_target()  # as of the last update
        self._update_on_drop = update_on_drop
        self._interval = interval_ms
        self._next_seq = 0
        self._buffer: dict[int, tuple[float, float]] = {}  # seq -> (ts, arrival)
        self._ts_base: float | None = None  # ts of seq 0, learned from arrivals
        self._max_seen = -1
        self._last_out = float("-inf")
        self.dropped_count = 0

    @property
    def target_delay_ms(self) -> float:
        return self._target

    @property
    def pending_count(self) -> int:
        return len(self._buffer)

    def on_arrival(self, packet: Stamped, now: float) -> tuple[list[Emission], bool]:
        """Process one arrival; returns (emissions, dropped_this_packet).

        ``now`` is the arrival time; ``packet`` supplies ``seq`` and ``ts``."""
        seq, ts = packet.seq, packet.ts
        cold = self._ts_base is None  # first arrival seeds the estimate, never late
        if cold:
            self._ts_base = ts - seq * self._interval
        if seq > self._max_seen:
            self._max_seen = seq
        # drop decisions use the pre-arrival target, mirroring the watermark
        # manager's check against the pre-arrival wm
        target = self._target
        if self._update_on_drop:
            self._est.update(ts, now)
            self._target = self._est.transit_target()
        if seq < self._next_seq:
            self.dropped_count += 1
            return [], True
        if not cold and now > ts + target:
            self.dropped_count += 1
            return [], True
        if not self._update_on_drop:
            self._est.update(ts, now)
            self._target = self._est.transit_target()
        if seq in self._buffer:
            raise ValueError(f"duplicate seq {seq}")
        self._buffer[seq] = (ts, now)
        return self._sweep(now), False

    def _sweep(self, now: float) -> list[Emission]:
        target = self._target
        out: list[Emission] = []
        while True:
            held = self._buffer.get(self._next_seq)
            if held is not None:
                ts, arrival = held
                deadline = ts + target
                if deadline > now:
                    break  # holds until its scheduled playout time
                t_out = deadline
                if arrival > t_out:
                    t_out = arrival
                if self._last_out > t_out:
                    t_out = self._last_out
                out.append(Emission(self._next_seq, ts, arrival, t_out))
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

    def play(self, order: Iterable[int], ts: Sequence[float], ta: Sequence[float],
             to: MutableSequence[float | None], fate: MutableSequence[str]) -> None:
        """Process a whole arrival schedule, as ``on_arrival`` would one by one.

        The columns are those of :meth:`WatermarkReorderer.play`; the sweep
        is ``_sweep``'s, inline."""
        est = self._est
        update, transit_target = est.update, est.transit_target
        update_on_drop = self._update_on_drop
        interval = self._interval
        buffer = self._buffer
        target = self._target
        ts_base = self._ts_base
        next_seq = self._next_seq
        max_seen = self._max_seen
        last_out = self._last_out
        dropped = self.dropped_count
        try:
            for seq in order:
                t = ts[seq]
                now = ta[seq]
                cold = ts_base is None
                if cold:
                    ts_base = t - seq * interval
                if seq > max_seen:
                    max_seen = seq
                late = not cold and now > t + target  # the pre-arrival target
                if update_on_drop:
                    update(t, now)
                    target = transit_target()
                if seq < next_seq or late:
                    dropped += 1
                    fate[seq] = "dropped_late"
                    continue
                if not update_on_drop:
                    update(t, now)
                    target = transit_target()
                if seq in buffer:
                    raise ValueError(f"duplicate seq {seq}")
                buffer[seq] = (t, now)
                while True:
                    held = buffer.get(next_seq)
                    if held is not None:
                        t_out = held[0] + target
                        if t_out > now:
                            break
                        if held[1] > t_out:
                            t_out = held[1]
                        if last_out > t_out:
                            t_out = last_out
                        to[next_seq] = last_out = t_out
                        fate[next_seq] = "delivered"
                        del buffer[next_seq]
                        next_seq += 1
                    elif next_seq <= max_seen and now > ts_base + next_seq * interval + target:
                        next_seq += 1
                    else:
                        break
        finally:
            self._target = target
            self._ts_base = ts_base
            self._next_seq = next_seq
            self._max_seen = max_seen
            self._last_out = last_out
            self.dropped_count = dropped

    def flush(self, end_time: float) -> list[Emission]:
        """Emit everything still buffered, in sequence order, at end_time."""
        out: list[Emission] = []
        for seq, (ts, arrival) in sorted(self._buffer.items()):
            t_out = end_time if end_time > self._last_out else self._last_out
            out.append(Emission(seq, ts, arrival, t_out))
            self._last_out = t_out
        self._buffer.clear()
        return out


def build_jitter_manager(cfg: JitterConfig, interval_ms: float):
    est = cfg.make_estimator()
    if cfg.kind == "watermark":
        return WatermarkReorderer(est, update_on_drop=cfg.update_on_drop)
    return PlayoutBuffer(est, interval_ms, update_on_drop=cfg.update_on_drop)
