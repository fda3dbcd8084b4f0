"""Out-of-order packet handling at the receiver.

Two managers, each on its own windowed estimator per stream, differ in
ordering discipline and in what they measure. The watermark reads the lag of
a :class:`~relaysim.JitterEstimator`; the playout buffer reads only the
transit quantile, which a :class:`~relaysim.TransitEstimator` keeps without
the jitter histogram, reorder depth and episode ratchet behind the lag.
``JitterEstimator`` extends ``TransitEstimator``, so the transit window and
its quantile are the same code for both:

``WatermarkReorderer``
    Out-of-order processing. Each accepted arrival advances a monotone low
    watermark wm = max(wm, p.ts - lag); every pending packet with ts < wm is
    emitted immediately (sorted by ts), so nobody waits for a missing
    predecessor. A packet arriving with ts < wm is dropped as late. The drop
    never touches the watermark or the pending queue, but the estimator
    still measures the dropped arrival: a late packet's transit is exactly
    the reorder-depth evidence the lag needs while a reorder run is in
    progress, and the estimator forgets it once it leaves the depth hold.

``PlayoutBuffer``
    In-order processing with an adaptive playout schedule. A packet plays at
    ts + target_delay (target = windowed transit quantile), strictly in
    sequence order; a missing packet blocks successors until its own deadline
    passes, and a packet arriving after its deadline, or for a slot already
    passed, is dropped. The estimator measures every arrival, a dropped one
    too, as the watermark's does. The target changes only when the estimator
    is updated, so the buffer reads it once after each update and keeps it.

Both managers are event-driven: emissions happen while processing an arrival,
plus a final flush at session teardown. An emission is ``(seq, out)``: which
packet plays out, and when. ``on_arrival(packet, now)`` processes one
arrival; it takes the arrival time from ``now`` and reads only ``seq`` and
``ts`` off ``packet``, so a :class:`Packet`, a record and the engine's
``_Arrival`` all serve. ``play(order, ts, ta, to, fate)`` processes a whole
arrival schedule held in seq-indexed numpy columns: it writes each packet's
output time into ``to`` and its fate code (``FATES``) into ``fate``. The
engine calls ``play`` once per session, after its loop, for every session
whose feedback reads nothing the manager decides: feedback-free ones and
routed ones rewarded at transmit (``via-bf``, ``via-wm``). ``on_arrival``
serves routed sessions rewarded end to end (``vcr-wm``), whose feedback
needs each playout as it happens, and replays of a finished session's
arrivals (relaybench's replay gate). ``tests/test_jitter.py`` requires both
forms to decide the same fates and output times and to leave the same
state.

The watermark states its rule twice, in ``on_arrival`` and in a closed form.
The estimator sees every arrival, so its lag column depends on the arrival
stream alone, and ``play`` takes it from one whole-stream pass,
``JitterEstimator.lags``. Every lag is nonnegative, so a
dropped arrival's ``ts - lag`` is already below the watermark. So, in
arrival order, the watermark is ``maximum.accumulate(ts - lag)`` from the
one before the schedule; an arrival is dropped when its ``ts`` is below the
previous watermark; and an accepted packet, or one pending from before, is
played out at the arrival time of the first arrival whose watermark exceeds
its ``ts`` (``searchsorted(wm, ts, "right")``), or stays pending for the
flush. This is MillWheel's lateness rule against a low watermark (Akidau et
al., VLDB 2013) in array form.

The playout buffer has no such form. Its target column is fate-free too,
and ``play`` takes it from one pass, ``TransitEstimator.targets``, but its
sweep walks seq order: slot k is released at the first arrival, from the one
that released slot k-1 on, at which the current target puts its deadline
behind it. The target rises and falls, so that search starts where slot
k-1's ended: a recurrence over seq order, not a prefix scan over arrival
order. Whether an arrival comes too late for its slot depends on the same
recurrence. So the buffer states its rule once, compiled, in the base type
it extends (``relaysim._estimator.PlayoutCore``): adaptive playout after
Ramjee et al. (INFOCOM 1994), played strictly in seq order. The base type
holds all of the buffer's state, its held packets too, and the rule runs on
it in place. ``play`` hands it the whole schedule and the estimator's
bound ``targets``, which it calls once the columns are checked, and it
writes output times and fates straight into the columns; ``on_arrival``
updates the estimator and hands it one arrival and the target after it,
and gets back what it releases. ``_buffer`` is a snapshot of the held
packets, a new dict of seq -> (ts, arrival) per read.
``tests/buffer_reference.py`` holds the rule as it was written per arrival,
and both forms are checked against it.

Each manager's ``play`` calls one estimator method per schedule, ``lags`` or
``targets``, and assigns none of the estimator's attributes.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import NamedTuple, Protocol

import numpy as np

from .errors import ValidationError
from ._estimator import JitterEstimator, PlayoutCore, TransitEstimator


@dataclass(frozen=True)
class Packet:
    seq: int
    ts: float       # generation timestamp, ms
    arrival: float  # receiver arrival time, ms

    def __post_init__(self) -> None:
        if self.arrival < self.ts:
            raise ValueError(f"packet {self.seq} arrives before it is generated")


class Stamped(Protocol):
    """What a manager reads off an arrival: a Packet, a PacketRecord or an
    _Arrival. Its emissions give back the seq alone, so a caller that needs
    the ts keeps it by seq."""

    seq: int
    ts: float


class _Arrival:
    """The ``(seq, ts)`` that the engine hands to ``on_arrival``: a slotted
    class, which builds in about half a NamedTuple's time."""

    __slots__ = ("seq", "ts")

    def __init__(self, seq: int, ts: float) -> None:
        self.seq = seq
        self.ts = ts


class Emission(NamedTuple):
    seq: int
    out: float  # emission (playout hand-off) time, ms


JITTER_KINDS = ("watermark", "buffer")

# a packet's fate, one byte per packet in the columns ``play`` writes: a
# code indexes FATES, and a packet has played out when its code >= DELIVERED
FATES = ("in_flight", "dropped_late", "delivered", "flushed")
IN_FLIGHT, DROPPED_LATE, DELIVERED, FLUSHED = range(len(FATES))

@dataclass
class JitterConfig:
    kind: str = "watermark"  # one of JITTER_KINDS
    window_ms: float = 2000.0
    bin_ms: float = 1.0
    percentile: float = 0.95
    loss_cost_ms: float = 100.0
    initial_lag_ms: float = 0.0
    max_lag_ms: float = 10000.0

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

    def __init__(self, estimator: JitterEstimator) -> None:
        self._est = estimator
        self._wm = float("-inf")
        self._pending: list[tuple[float, int]] = []  # a heap of (ts, seq)
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
            # leaves wm and the queue untouched, but the estimator still
            # measures the arrival (its transit measures the depth of the
            # current reorder run, evidence the lag cannot get elsewhere).
            self._est.update(ts, now)
            self.dropped_count += 1
            return [], True
        lag = self._est.update(ts, now)
        wm = ts - lag
        if wm > self._wm:
            self._wm = wm
        heappush(self._pending, (ts, packet.seq))
        out: list[Emission] = []
        while self._pending and self._pending[0][0] < self._wm:
            out.append(Emission(heappop(self._pending)[1], now))
        return out, False

    def play(self, order: np.ndarray, ts: np.ndarray, ta: np.ndarray,
             to: np.ndarray, fate: np.ndarray) -> None:
        """Process a whole arrival schedule, as ``on_arrival`` would one by one.

        ``order`` lists the seqs in arrival order; ``ts`` and ``ta`` are
        float64 columns indexed by seq. Each packet played out gets its output
        time in ``to[seq]`` and ``fate[seq] = DELIVERED``; each late one gets
        ``fate[seq] = DROPPED_LATE``. What is still pending stays for
        ``flush``, and the manager ends in the state the same ``on_arrival``
        calls would leave, up to the layout of its pending heap."""
        if not len(order):
            return
        ts_o, ta_o = ts[order], ta[order]
        lag = self._est.lags(ts_o, ta_o)
        # one buffer: the watermark before the schedule, then the running
        # maximum of ts - lag from it, the watermark after each arrival
        marks = np.empty(len(order) + 1)
        marks[0] = self._wm
        np.subtract(ts_o, lag, out=marks[1:])
        del lag
        np.maximum.accumulate(marks, out=marks)
        wm = marks[1:]
        # each arrival is judged against the watermark before it
        late = ts_o < marks[:-1]
        kept = ~late
        # (ts, seq) of every packet held: pending ones, then this schedule's
        # accepted ones
        held = np.array(self._pending, dtype=np.float64).reshape(-1, 2)
        held_ts = np.concatenate((held[:, 0], ts_o[kept]))
        held_seq = np.concatenate((held[:, 1].astype(order.dtype), order[kept]))
        at = np.searchsorted(wm, held_ts, "right")
        out = at < len(wm)
        to[held_seq[out]] = ta_o[at[out]]
        fate[held_seq[out]] = DELIVERED
        fate[order[late]] = DROPPED_LATE
        stay = ~out
        # sorted, so a heap: flush and on_arrival pop the (ts, seq) minimum
        self._pending = sorted(zip(held_ts[stay].tolist(), held_seq[stay].tolist()))
        self._wm = float(wm[-1])
        self.dropped_count += int(np.count_nonzero(late))

    def flush(self, end_time: float) -> list[Emission]:
        """Emit everything still pending, in ts order, at end_time."""
        out = [Emission(seq, end_time) for _, seq in sorted(self._pending)]
        self._pending = []
        return out


class PlayoutBuffer(PlayoutCore):
    """In-order playout with an adaptive target delay.

    ``interval_ms`` is the sender cadence; it anchors deadlines for sequence
    slots that have not arrived (ts inferred from the slot index). The state
    and its read-only views (``target_delay_ms``, ``pending_count``,
    ``dropped_count``) are the base type's; the estimator is ``_est``.
    """

    def __init__(self, estimator: TransitEstimator, interval_ms: float) -> None:
        super().__init__(interval_ms, estimator.transit_target())
        self._est = estimator

    def on_arrival(self, packet: Stamped, now: float) -> tuple[list[Emission], bool]:
        """Process one arrival; returns (emissions, dropped_this_packet).

        ``now`` is the arrival time; ``packet`` supplies ``seq`` and ``ts``."""
        ts = packet.ts
        est = self._est
        est.update(ts, now)
        released, dropped = self._arrive(packet.seq, ts, now, est.transit_target())
        return list(map(Emission._make, released)), dropped

    def play(self, order: np.ndarray, ts: np.ndarray, ta: np.ndarray,
             to: np.ndarray, fate: np.ndarray) -> None:
        """Process a whole arrival schedule, as ``on_arrival`` would one by one.

        The columns are those of :meth:`WatermarkReorderer.play`, C-contiguous:
        ``order`` int64, ``to`` float64 and ``fate`` int8. A bad column, or a
        seq outside ``to``, raises before the estimator sees the schedule or
        anything is written. Then the estimator's ``targets`` gives the
        target after every arrival in one pass, and the rule takes the whole
        schedule in one call. A duplicate seq raises where it comes, and what
        was written before it stays."""
        self._play(order, ts[order], ta[order], self._est.targets, to, fate)

    def flush(self, end_time: float) -> list[Emission]:
        """Emit everything still buffered, in sequence order, at end_time or
        the last output time, whichever is later."""
        return list(map(Emission._make, self._flush(end_time)))


def build_jitter_manager(cfg: JitterConfig, interval_ms: float):
    est = cfg.make_estimator()
    if cfg.kind == "watermark":
        return WatermarkReorderer(est)
    return PlayoutBuffer(est, interval_ms)
