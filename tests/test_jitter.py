"""Watermark reorderer and adaptive playout buffer."""

import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from relaysim import (
    JitterConfig,
    JitterEstimator,
    Packet,
    PlayoutBuffer,
    TransitEstimator,
    ValidationError,
    WatermarkReorderer,
    build_jitter_manager,
)
from relaysim.jitter import FATES, JITTER_KINDS, _Arrival
from buffer_reference import BufferReference
from wm_reference import WatermarkReference, bursty_packets

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "relaybench"))
import spans  # noqa: E402


class FixedEstimator:
    """Stub pinning lag and target; records every update call and every
    whole-stream ``targets`` call."""

    def __init__(self, lag=0.0, target=0.0):
        self.lag = lag
        self.target = target
        self.calls = []
        self.passes = []

    def update(self, ts, arrival):
        self.calls.append((ts, arrival))
        return self.lag

    def transit_target(self):
        return self.target

    def targets(self, ts, ta):
        self.passes.append((ts.tolist(), ta.tolist()))
        return np.full(len(ts), self.target)

    @property
    def lag_ms(self):
        return self.lag


def test_packet_validation():
    Packet(0, 10.0, 10.0)  # zero transit is legal
    with pytest.raises(ValueError):
        Packet(0, 10.0, 9.0)


def test_the_compiled_arrival_serves_both_managers():
    # the routed loop hands on_arrival a compiled (seq, ts); each manager
    # decides from it what it decides from a Packet
    packets = bursty_packets(np.random.default_rng(4), 800)
    for kind in JITTER_KINDS:
        compiled, plain = (build_jitter_manager(JitterConfig(kind=kind), 10.0) for _ in range(2))
        for p in packets:
            assert compiled.on_arrival(_Arrival(p.seq, p.ts), p.arrival) == plain.on_arrival(
                p, p.arrival)
    arrival = _Arrival(seq=7, ts=2.5)
    assert (arrival.seq, arrival.ts) == (7, 2.5)
    with pytest.raises(AttributeError):
        arrival.ts = 3.0


# ---------------------------------------------------------------- watermark

def test_watermark_advances_with_ts_minus_lag():
    wm = WatermarkReorderer(FixedEstimator(lag=10.0))
    wm.on_arrival(Packet(0, 40.0, 41.0), 41.0)
    assert wm.watermark == 30.0
    wm.on_arrival(Packet(1, 45.0, 50.0), 50.0)
    assert wm.watermark == 35.0


def test_watermark_never_retreats():
    est = FixedEstimator(lag=10.0)
    wm = WatermarkReorderer(est)
    wm.on_arrival(Packet(0, 100.0, 101.0), 101.0)
    assert wm.watermark == 90.0
    # a smaller (but not yet late) ts cannot move the watermark back
    wm.on_arrival(Packet(1, 95.0, 102.0), 102.0)
    assert wm.watermark == 90.0


def test_late_packet_dropped_without_state_change():
    est = FixedEstimator(lag=10.0)
    wm = WatermarkReorderer(est)
    wm.on_arrival(Packet(0, 40.0, 41.0), 41.0)
    wm.on_arrival(Packet(1, 45.0, 50.0), 50.0)
    calls_before = len(est.calls)
    emissions, dropped = wm.on_arrival(Packet(2, 25.0, 55.0), 55.0)
    assert dropped and emissions == []
    assert wm.watermark == 35.0       # untouched
    assert wm.pending_count == 2      # untouched
    assert wm.dropped_count == 1
    assert len(est.calls) == calls_before + 1  # but the estimator measured it


def test_emission_boundary_is_strict():
    wm = WatermarkReorderer(FixedEstimator(lag=10.0))
    wm.on_arrival(Packet(0, 0.0, 5.0), 5.0)
    emissions, _ = wm.on_arrival(Packet(1, 10.0, 15.0), 15.0)
    assert emissions == []            # ts 0 == wm 0: waits
    emissions, _ = wm.on_arrival(Packet(2, 20.0, 25.0), 25.0)
    assert [e.seq for e in emissions] == [0]   # ts 0 < wm 10; ts 10 waits
    assert emissions[0].out == 25.0


def test_reordered_packets_emit_in_ts_order():
    wm = WatermarkReorderer(FixedEstimator(lag=100.0))
    for seq, ts, arrival in [(0, 0.0, 50.0), (3, 30.0, 55.0),
                             (1, 10.0, 60.0), (2, 20.0, 65.0)]:
        emissions, dropped = wm.on_arrival(Packet(seq, ts, arrival), arrival)
        assert emissions == [] and not dropped
    emissions, _ = wm.on_arrival(Packet(4, 200.0, 210.0), 210.0)
    assert [e.seq for e in emissions] == [0, 1, 2, 3]
    assert all(e.out == 210.0 for e in emissions)


def test_flush_emits_pending_in_ts_order_once():
    wm = WatermarkReorderer(FixedEstimator(lag=100.0))
    packets = [Packet(0, 5.0, 10.0), Packet(1, 3.0, 12.0)]
    for p in packets:
        wm.on_arrival(p, p.arrival)
    ts_of = {p.seq: p.ts for p in packets}
    out = wm.flush(50.0)
    assert [(e.seq, ts_of[e.seq], e.out) for e in out] == [(1, 3.0, 50.0), (0, 5.0, 50.0)]
    assert wm.flush(60.0) == []
    assert wm.pending_count == 0


def test_zero_jitter_stream_emits_at_next_arrival():
    est = JitterEstimator()
    wm = WatermarkReorderer(est)
    interval, transit = 10.0, 50.0
    outs = {}
    for i in range(100):
        ts = i * interval
        emissions, dropped = wm.on_arrival(Packet(i, ts, ts + transit), ts + transit)
        assert not dropped
        for e in emissions:
            outs[e.seq] = e.out
    # a constant-delay stream has zero lag: packet i clears the watermark the
    # moment packet i+1 lands
    for seq, out in outs.items():
        assert out == (seq + 1) * interval + transit
    assert wm.dropped_count == 0


def test_watermark_matches_reference_on_bursty_streams():
    for seed in (1, 2, 3):
        packets = bursty_packets(np.random.default_rng(seed), 1500)
        mgr = WatermarkReorderer(JitterEstimator())
        ref = WatermarkReference(JitterEstimator())
        got = []
        drops = []
        for p in packets:
            emissions, dropped = mgr.on_arrival(p, p.arrival)
            if dropped:
                drops.append(p.seq)
            got.extend((e.seq, e.out) for e in emissions)
            ref.arrival(p)
        end = packets[-1].arrival
        got.extend((e.seq, e.out) for e in mgr.flush(end))
        ref.flush(end)
        assert got == ref.emissions
        assert drops == ref.drops


def _columns(packets):
    """Arrival order and seq-indexed ts/ta columns of an arrival-ordered
    stream, as numpy arrays, the columns the engine passes to ``play``."""
    ts, ta = np.zeros(len(packets)), np.zeros(len(packets))
    for p in packets:
        ts[p.seq], ta[p.seq] = p.ts, p.arrival
    return np.array([p.seq for p in packets]), ts, ta


def _outputs(n):
    """Empty ``to`` and ``fate`` columns: nothing played, all in flight."""
    return np.full(n, np.nan), np.zeros(n, np.int8)


def _fates(fate):
    return [FATES[code] for code in fate.tolist()]


def _times(to):
    return [None if out != out else out for out in to.tolist()]  # NaN: not played


def _state(manager):
    """Everything a manager carries from one arrival to the next: its own
    attributes and, for a playout buffer, what its C base type holds. A
    pending heap is compared sorted: every pop and ``flush`` take its
    (ts, seq) minimum, so its layout is not behaviour."""
    est = manager._est
    own = {k: sorted(v) if k == "_pending" else v
           for k, v in vars(manager).items() if k != "_est"}
    if isinstance(manager, PlayoutBuffer):
        own["core"] = _own_state(manager)
    return (own, est.transit_target(), getattr(est, "n_window", None),
            getattr(est, "lag_ms", None))


def _step(manager, packets, to, fate):
    """``on_arrival`` over packets, writing the columns ``play`` would."""
    for p in packets:
        emissions, dropped = manager.on_arrival(p, p.arrival)
        if dropped:
            fate[p.seq] = FATES.index("dropped_late")
        for em in emissions:
            to[em.seq], fate[em.seq] = em.out, FATES.index("delivered")


def _assert_columns_equal(got, want):
    assert np.array_equal(got[0], want[0], equal_nan=True)
    assert np.array_equal(got[1], want[1])


def _play_against_on_arrival(build, packets, split):
    """Play packets[:split] through a manager's whole-stream pass and through
    on_arrival on a twin: the fates, output times and state must be equal,
    and stay equal as both go on through on_arrival and flush. Returns the
    pass's (to, fate) columns."""
    order, ts, ta = _columns(packets)
    stepped = build()
    want = _outputs(len(ts))
    _step(stepped, packets[:split], *want)
    played = build()
    to, fate = _outputs(len(ts))
    played.play(order[:split], ts, ta, to, fate)
    _assert_columns_equal((to, fate), want)
    assert _state(played) == _state(stepped)
    for p in packets[split:]:
        assert played.on_arrival(p, p.arrival) == stepped.on_arrival(p, p.arrival)
    end = packets[-1].arrival
    assert played.flush(end) == stepped.flush(end)
    assert _state(played) == _state(stepped)
    return _times(to), _fates(fate)


def _whole_ms(packets):
    """The stream with its arrivals rounded to whole ms: deadlines and
    watermarks tie with arrival times."""
    return [Packet(p.seq, p.ts, float(round(p.arrival))) for p in packets]


def _bursty_streams(whole_ms):
    """The bursty streams of seeds 1-3, or seed 4's with whole-ms arrivals."""
    if whole_ms:
        return [_whole_ms(bursty_packets(np.random.default_rng(4), 1500))]
    return [bursty_packets(np.random.default_rng(seed), 1500) for seed in (1, 2, 3)]


@pytest.mark.parametrize("whole_ms", [True, False])
@pytest.mark.parametrize("kind", ["watermark", "buffer"])
def test_play_equals_on_arrival(kind, whole_ms):
    cfg = JitterConfig(kind=kind)
    for packets in _bursty_streams(whole_ms):
        _, fate = _play_against_on_arrival(lambda: build_jitter_manager(cfg, 10.0),
                                           packets, len(packets) // 2)
        assert "dropped_late" in fate and "in_flight" in fate


@pytest.mark.parametrize("whole_ms", [True, False])
@pytest.mark.parametrize("kind", ["watermark", "buffer"])
def test_no_output_time_after_the_arrival_being_processed(kind, whole_ms):
    # the engine sends a packet's end-to-end feedback at the arrival that
    # plays it out, which is its playout time only if no manager emits later
    cfg = JitterConfig(kind=kind)
    for packets in _bursty_streams(whole_ms):
        stepped = build_jitter_manager(cfg, 10.0)
        emitted = 0
        for p in packets:
            emissions, _ = stepped.on_arrival(p, p.arrival)
            assert all(em.out <= p.arrival for em in emissions)
            emitted += len(emissions)

        # play one arrival at a time: what it plays out then must not be
        # later than that arrival
        order, ts, ta = _columns(packets)
        to, fate = _outputs(len(ts))
        played = build_jitter_manager(cfg, 10.0)
        for i, seq in enumerate(order.tolist()):
            before = to.copy()
            played.play(order[i:i + 1], ts, ta, to, fate)
            fresh = np.isnan(before) & ~np.isnan(to)
            assert (to[fresh] <= ta[seq]).all(), (seq, to[fresh], ta[seq])
        assert np.count_nonzero(~np.isnan(to)) == emitted > 0


@pytest.mark.parametrize("whole_ms", [True, False])
def test_buffer_play_on_a_jitter_estimator_advances_its_lag(whole_ms):
    # a buffer reads only the transit target, but a JitterEstimator handed
    # to it must end where on_arrival leaves it, its lag state included
    packets = bursty_packets(np.random.default_rng(6), 1500)
    if whole_ms:
        packets = _whole_ms(packets)
    _play_against_on_arrival(
        lambda: PlayoutBuffer(JitterEstimator(), interval_ms=10.0), packets, 1000)


def test_buffer_play_missing_slot_boundary_is_strict():
    # seq 1's slot is due at 60 when seq 2 arrives at 60: it still blocks
    # seq 2, so seq 1, arriving at 60 too, is not late and plays at 60
    packets = [Packet(0, 0.0, 50.0), Packet(2, 20.0, 60.0), Packet(1, 10.0, 60.0),
               Packet(3, 30.0, 80.0)]
    to, fate = _play_against_on_arrival(
        lambda: PlayoutBuffer(FixedEstimator(target=50.0), interval_ms=10.0), packets, 3)
    assert to[:3] == [50.0, 60.0, None] and fate[1] == "delivered"


def test_watermark_play_matches_reference_on_bursty_streams():
    for seed in (1, 2, 3):
        packets = bursty_packets(np.random.default_rng(seed), 1500)
        order, ts, ta = _columns(packets)
        mgr = WatermarkReorderer(JitterEstimator())
        ref = WatermarkReference(JitterEstimator())
        to, fate = _outputs(len(ts))
        mgr.play(order, ts, ta, to, fate)
        for p in packets:
            ref.arrival(p)
        end = packets[-1].arrival
        for em in mgr.flush(end):
            to[em.seq], fate[em.seq] = em.out, FATES.index("flushed")
        ref.flush(end)
        _assert_matches_reference(order, to, _fates(fate), ref)
        assert mgr.dropped_count == len(ref.drops) > 0


def _assert_matches_reference(order, to, fate, ref):
    order = order.tolist()
    assert {seq: to[seq] for seq in order if fate[seq] != "dropped_late"} == dict(
        ref.emissions)
    assert [seq for seq in order if fate[seq] == "dropped_late"] == ref.drops


def _tied_stream(whole_ms):
    """Whole-ms arrivals, where lags, watermarks and arrival times tie
    outright, or a 20/3 ms cadence, where ``ts - lag`` lands on another
    packet's ts up to float rounding (ROADMAP item 11)."""
    if whole_ms:
        return "whole ms", _whole_ms(bursty_packets(np.random.default_rng(9), 3000))
    return "20/3 ms", bursty_packets(np.random.default_rng(8), 3000, interval_ms=20 / 3)


@pytest.mark.parametrize("whole_ms", [True, False])
def test_watermark_play_in_chunks_matches_reference(whole_ms):
    # play in uneven chunks, so the closed form starts from a watermark and a
    # pending heap it inherits: after every chunk each fate, output time and
    # the state equal on_arrival's, and the whole run equals the reference
    name, packets = _tied_stream(whole_ms)
    order, ts, ta = _columns(packets)
    rng = np.random.default_rng(len(name))
    played = WatermarkReorderer(JitterEstimator())
    stepped = WatermarkReorderer(JitterEstimator())
    ref = WatermarkReference(JitterEstimator())
    got, want = _outputs(len(ts)), _outputs(len(ts))
    lo = ties = 0
    while lo < len(packets):  # chunks of 1 to 59 arrivals
        hi = min(lo + int(rng.integers(1, 60)), len(packets))
        played.play(order[lo:hi], ts, ta, *got)
        for p in packets[lo:hi]:
            _step(stepped, [p], *want)
            ref.arrival(p)
            # a packet held with its ts on the watermark, up to rounding
            ties += any(abs(held[0] - stepped.watermark) < 1e-6
                        for held in stepped._pending)
        _assert_columns_equal(got, want)
        assert _state(played) == _state(stepped), lo
        lo = hi
    end = packets[-1].arrival
    flushed = played.flush(end)
    assert flushed == stepped.flush(end) and flushed
    for em in flushed:
        got[0][em.seq], got[1][em.seq] = em.out, FATES.index("flushed")
    ref.flush(end)
    _assert_matches_reference(order, got[0], _fates(got[1]), ref)
    assert played.dropped_count == len(ref.drops) > 0
    assert ties > 0  # the stream reaches the strict boundary


# ------------------------------------------------------------------- buffer

def test_buffer_constant_delay_plays_at_schedule():
    est = JitterEstimator()
    buf = PlayoutBuffer(est, interval_ms=10.0)
    interval, transit = 10.0, 50.0
    outs = {}
    for i in range(30):
        ts = i * interval
        emissions, dropped = buf.on_arrival(Packet(i, ts, ts + transit), ts + transit)
        assert not dropped
        for e in emissions:
            outs[e.seq] = e.out
    # constant transit 50 -> windowed target 51 (upper bin edge): every packet
    # plays exactly at ts + 51, released while its successor is processed
    for seq, out in outs.items():
        assert out == seq * interval + 51.0
    assert buf.dropped_count == 0
    tail = buf.flush(29 * interval + transit)
    assert [e.seq for e in tail] == [29]


def test_buffer_missing_slot_blocks_until_own_deadline():
    buf = PlayoutBuffer(FixedEstimator(target=20.0), interval_ms=10.0)
    out0, _ = buf.on_arrival(Packet(0, 0.0, 1.0), 1.0)
    assert out0 == []                       # holds for its schedule
    out2, _ = buf.on_arrival(Packet(2, 20.0, 22.0), 22.0)
    assert [(e.seq, e.out) for e in out2] == [(0, 20.0)]
    # seq 1 is missing; seq 2 stays blocked while seq 1's deadline (30) has
    # not strictly passed, then plays at its own schedule, not at 30
    out3, _ = buf.on_arrival(Packet(3, 30.0, 41.0), 41.0)
    assert [(e.seq, e.out) for e in out3] == [(2, 40.0)]
    # the straggler finally shows up: its slot is gone
    _, dropped = buf.on_arrival(Packet(1, 10.0, 45.0), 45.0)
    assert dropped
    assert buf.dropped_count == 1
    tail = buf.flush(100.0)
    assert [(e.seq, e.out) for e in tail] == [(3, 100.0)]


def test_buffer_late_arrival_dropped_strictly():
    buf = PlayoutBuffer(FixedEstimator(target=20.0), interval_ms=10.0)
    buf.on_arrival(Packet(0, 0.0, 5.0), 5.0)        # cold start is never late
    _, dropped = buf.on_arrival(Packet(1, 10.0, 31.0), 31.0)
    assert dropped                                   # 31 > 10 + 20
    emissions, dropped = buf.on_arrival(Packet(2, 20.0, 40.0), 40.0)
    assert not dropped                               # 40 == 20 + 20: on time
    # ... and a deadline met exactly plays out in the same sweep
    assert [(e.seq, e.out) for e in emissions] == [(0, 20.0), (2, 40.0)]


def test_buffer_duplicate_seq_rejected():
    buf = PlayoutBuffer(FixedEstimator(target=50.0), interval_ms=10.0)
    buf.on_arrival(Packet(0, 0.0, 5.0), 5.0)
    with pytest.raises(ValueError, match="duplicate"):
        buf.on_arrival(Packet(0, 0.0, 6.0), 6.0)


def test_buffer_drop_feed_flag():
    # a dropped straggler still feeds the estimator
    est = FixedEstimator(target=20.0)
    buf = PlayoutBuffer(est, interval_ms=10.0)
    buf.on_arrival(Packet(0, 0.0, 5.0), 5.0)
    _, dropped = buf.on_arrival(Packet(1, 10.0, 90.0), 90.0)  # late
    assert dropped and est.calls == [(0.0, 5.0), (10.0, 90.0)]

    # play: one targets pass over every arrival, the late one included
    order, ts, ta = _columns([Packet(0, 0.0, 5.0), Packet(1, 10.0, 90.0)])
    est = FixedEstimator(target=20.0)
    to, fate = _outputs(2)
    PlayoutBuffer(est, interval_ms=10.0).play(order, ts, ta, to, fate)
    assert est.passes == [([0.0, 10.0], [5.0, 90.0])] and est.calls == []
    assert _fates(fate) == ["in_flight", "dropped_late"]


def test_buffer_flush_in_seq_order_nondecreasing_out():
    buf = PlayoutBuffer(FixedEstimator(target=1000.0), interval_ms=10.0)
    for seq, ts, arrival in [(0, 0.0, 5.0), (2, 20.0, 25.0), (1, 10.0, 26.0)]:
        buf.on_arrival(Packet(seq, ts, arrival), arrival)
    out = buf.flush(30.0)
    assert [e.seq for e in out] == [0, 1, 2]
    assert all(e.out == 30.0 for e in out)
    assert buf.pending_count == 0


def test_buffer_flush_before_the_last_output_plays_at_it():
    # output times never run backwards: a flush called before the last
    # output time plays the held packets at that time
    buf = PlayoutBuffer(FixedEstimator(target=20.0), interval_ms=10.0)
    buf.on_arrival(Packet(0, 0.0, 1.0), 1.0)
    emissions, _ = buf.on_arrival(Packet(2, 20.0, 22.0), 22.0)
    assert emissions == [(0, 20.0)]
    assert buf.flush(15.0) == [(2, 20.0)]
    assert buf.flush(10.0) == []


@pytest.mark.parametrize("whole_ms", [True, False])
@pytest.mark.parametrize("seed", [50, 51, 52])
def test_buffer_on_transit_estimator_matches_full_estimator(seed, whole_ms):
    # the buffer keeps the target its estimator gave after the last update.
    # On a transit-only estimator every step must equal the same buffer on
    # the full estimator, and the kept target must equal the full
    # estimator's, read fresh after every arrival, dropped ones included
    packets = bursty_packets(np.random.default_rng(seed), 2000)
    if whole_ms:
        packets = _whole_ms(packets)
    full_est = JitterEstimator()
    lean = PlayoutBuffer(TransitEstimator(), interval_ms=10.0)
    full = PlayoutBuffer(full_est, interval_ms=10.0)
    for p in packets:
        assert lean.on_arrival(p, p.arrival) == full.on_arrival(p, p.arrival)
        assert lean.target_delay_ms == full.target_delay_ms == full_est.transit_target()
    end = packets[-1].arrival
    assert lean.flush(end) == full.flush(end)
    assert lean.dropped_count == full.dropped_count > 0


def _estimator_state(est):
    """What an estimator shows of its state: the target a buffer reads, the
    window, and a ``JitterEstimator``'s lag state."""
    return (est.transit_target(), est.n_window, getattr(est, "lag_ms", None),
            getattr(est, "n_jitter_samples", None))


def _buffer_state(buf):
    return (buf._target, buf._ts_base, buf._next_seq, buf._max_seen, buf._last_out,
            buf._buffer, buf.dropped_count, _estimator_state(buf._est))


def _reference_state(ref):
    return (ref.target, ref.ts_base, ref.next_seq, ref.max_seen, ref.last_out,
            ref.held, len(ref.drops), _estimator_state(ref.est))


def _oracle_streams():
    """(interval, packets): the bursty streams of seeds 1-3, seed 4's with
    whole-ms arrivals, and a 20/3 ms cadence, whose inferred slot ts land on
    deadlines up to float rounding."""
    streams = [(10.0, bursty_packets(np.random.default_rng(seed), 1500))
               for seed in (1, 2, 3)]
    streams.append((10.0, _whole_ms(bursty_packets(np.random.default_rng(4), 1500))))
    streams.append((20 / 3, bursty_packets(np.random.default_rng(8), 3000, interval_ms=20 / 3)))
    return streams


@pytest.mark.parametrize("est_cls", [TransitEstimator, JitterEstimator])
def test_buffer_on_arrival_matches_reference(est_cls):
    # every emission, drop and state after each arrival, and the flush
    for interval, packets in _oracle_streams():
        buf = PlayoutBuffer(est_cls(), interval_ms=interval)
        ref = BufferReference(est_cls(), interval)
        for p in packets:
            assert buf.on_arrival(p, p.arrival) == ref.arrival(p)
            assert _buffer_state(buf) == _reference_state(ref)
        end = packets[-1].arrival
        flushed = buf.flush(end)
        assert flushed == ref.flush(end) and flushed
        assert _buffer_state(buf) == _reference_state(ref)
        assert buf.dropped_count > 0


def _chunk_ends(chunking, n, rng):
    """Where each chunk of an n-arrival schedule ends."""
    if chunking == "one arrival":
        return list(range(1, n + 1))
    if chunking == "uneven":  # chunks of 1 to 59 arrivals
        return sorted({min(end, n) for end in np.cumsum(rng.integers(1, 60, n)).tolist()})
    return [n]


@pytest.mark.parametrize("chunking", ["one call", "uneven", "one arrival",
                                      "longer than a block"])
@pytest.mark.parametrize("est_cls", [TransitEstimator, JitterEstimator])
def test_buffer_play_matches_reference(est_cls, chunking):
    # play the schedule in chunks: after every chunk each fate, output time,
    # the dropped count and the state equal the reference's, and so does
    # the flush
    streams = _oracle_streams()
    if chunking == "longer than a block":
        streams = [(10.0, bursty_packets(np.random.default_rng(5), 8969))]
    for interval, packets in streams:
        order, ts, ta = _columns(packets)
        buf = PlayoutBuffer(est_cls(), interval_ms=interval)
        ref = BufferReference(est_cls(), interval)
        got, want = _outputs(len(ts)), _outputs(len(ts))
        lo = 0
        for hi in _chunk_ends(chunking, len(packets), np.random.default_rng(len(packets))):
            buf.play(order[lo:hi], ts, ta, *got)
            for p in packets[lo:hi]:
                emissions, dropped = ref.arrival(p)
                if dropped:
                    want[1][p.seq] = FATES.index("dropped_late")
                for em in emissions:
                    want[0][em.seq], want[1][em.seq] = em.out, FATES.index("delivered")
            _assert_columns_equal(got, want)
            assert _buffer_state(buf) == _reference_state(ref), lo
            lo = hi
        assert lo == len(packets)
        end = packets[-1].arrival
        flushed = buf.flush(end)
        assert flushed == ref.flush(end) and flushed
        assert _buffer_state(buf) == _reference_state(ref)
        assert buf.dropped_count == len(ref.drops) > 0


class ScriptedEstimator:
    """Stub that gives the target after the k-th arrival from a script, per
    call or as one pass; records how many arrivals it was fed."""

    def __init__(self, script):
        self.script = script
        self.fed = 0

    def update(self, ts, arrival):
        self.fed += 1

    def transit_target(self):
        return self.script[self.fed - 1] if self.fed else 0.0

    def targets(self, ts, ta):
        self.fed += len(ts)
        return np.array(self.script[self.fed - len(ts):self.fed])


# seq 0 holds to 50; seq 1 comes after its deadline and is dropped; seq 2
# lands, plays seq 0 out and passes seq 1's slot; seq 2 comes again, at the
# same time, while it is held; seq 3 comes after
_DUPLICATE = [Packet(0, 0.0, 5.0), Packet(1, 10.0, 61.0), Packet(2, 20.0, 62.0),
              Packet(2, 20.0, 62.0), Packet(3, 30.0, 63.0)]
_SCRIPT = [50.0, 50.0, 50.0, 55.0, 60.0]


def _assert_left_at_the_duplicate(buf, to, fate):
    assert _times(to) == [50.0, None, None, None]
    assert _fates(fate) == ["delivered", "dropped_late", "in_flight", "in_flight"]
    # the duplicate moved the target, and nothing else
    assert (buf._target, buf._ts_base, buf._next_seq, buf._max_seen,
            buf._last_out, buf._buffer, buf.dropped_count) == (
        55.0, 0.0, 2, 2, 50.0, {2: (20.0, 62.0)}, 1)


def test_buffer_duplicate_seq_mid_block_through_play():
    _, ts, ta = _columns([p for i, p in enumerate(_DUPLICATE) if i != 3])
    order = np.array([p.seq for p in _DUPLICATE])
    est = ScriptedEstimator(_SCRIPT)
    buf = PlayoutBuffer(est, interval_ms=10.0)
    to, fate = _outputs(len(ts))
    with pytest.raises(ValueError, match=r"^duplicate seq 2$"):
        buf.play(order, ts, ta, to, fate)
    _assert_left_at_the_duplicate(buf, to, fate)
    assert est.fed == len(_DUPLICATE)  # one pass over the whole schedule


def test_buffer_duplicate_seq_mid_block_through_on_arrival():
    est = ScriptedEstimator(_SCRIPT)
    buf = PlayoutBuffer(est, interval_ms=10.0)
    to, fate = _outputs(4)
    _step(buf, _DUPLICATE[:3], to, fate)
    with pytest.raises(ValueError, match=r"^duplicate seq 2$"):
        buf.on_arrival(_DUPLICATE[3], _DUPLICATE[3].arrival)
    _assert_left_at_the_duplicate(buf, to, fate)
    assert est.fed == 4  # the duplicate fed the estimator


# a six-packet schedule that the buffer accepts whole: every arrival is in
# time, and the first plays out at the fourth
_CHECKED = [Packet(0, 0.0, 5.0), Packet(2, 20.0, 25.0), Packet(1, 10.0, 30.0),
            Packet(3, 30.0, 50.0), Packet(5, 50.0, 55.0), Packet(4, 40.0, 60.0)]


def _own_state(buf):
    return (buf._target, buf._ts_base, buf._next_seq, buf._max_seen, buf._last_out,
            dict(buf._buffer), buf.dropped_count)


def _assert_rejected(error, order, to=None, fate=None, held=(), packets=_CHECKED):
    """``play`` of the schedule with one bad column raises ``error`` before
    the step writes a fate, an output time or any of the buffer's state,
    and before the estimator's ``targets`` pass sees the schedule.
    ``ts`` and ``ta`` are those of ``packets``."""
    _, ts, ta = _columns(packets)
    good_to, good_fate = _outputs(len(_CHECKED))
    to = good_to if to is None else to
    fate = good_fate if fate is None else fate
    est = FixedEstimator(target=50.0)
    buf = PlayoutBuffer(est, interval_ms=10.0)
    for p in held:
        buf.on_arrival(p, p.arrival)
    before, to_before, fate_before = _own_state(buf), to.copy(), fate.copy()
    with pytest.raises(error):
        buf.play(order, ts, ta, to, fate)
    assert est.passes == []
    assert _own_state(buf) == before
    assert np.array_equal(to, to_before, equal_nan=True)
    assert np.array_equal(fate, fate_before)


def test_buffer_play_accepts_the_checked_schedule():
    # the schedule the rejection tests below spoil one column of
    order, ts, ta = _columns(_CHECKED)
    to, fate = _outputs(len(ts))
    buf = PlayoutBuffer(FixedEstimator(target=50.0), interval_ms=10.0)
    buf.play(order, ts, ta, to, fate)
    assert _times(to) == [50.0, 60.0, None, None, None, None]
    assert _fates(fate) == ["delivered"] * 2 + ["in_flight"] * 4
    assert buf._buffer == {2: (20.0, 25.0), 3: (30.0, 50.0), 4: (40.0, 60.0),
                           5: (50.0, 55.0)}


@pytest.mark.parametrize("seq", [-1, -6, 6])
def test_buffer_play_rejects_a_seq_outside_the_columns(seq):
    # a negative seq would index from the end of ts and ta; one past the
    # end would be written outside to and fate
    order = np.array([p.seq for p in _CHECKED])
    order[3] = seq
    # ts and ta reach seq 6; to and fate do not
    _assert_rejected(IndexError, order, packets=_CHECKED + [Packet(6, 60.0, 70.0)])


def test_buffer_on_arrival_rejects_a_negative_seq():
    buf = PlayoutBuffer(FixedEstimator(target=50.0), interval_ms=10.0)
    buf.on_arrival(Packet(1, 10.0, 15.0), 15.0)
    before = _own_state(buf)
    with pytest.raises(IndexError):
        buf.on_arrival(Packet(-1, 0.0, 20.0), 20.0)
    assert _own_state(buf) == before


def test_buffer_play_rejects_a_held_seq_outside_the_columns():
    # seq 6, held since an on_arrival, would be released into to[6]
    order = np.array([p.seq for p in _CHECKED])
    _assert_rejected(IndexError, order, held=[Packet(6, 60.0, 61.0)])


def _read_only(column):
    column.flags.writeable = False
    return column


_N = len(_CHECKED)


@pytest.mark.parametrize("to, fate, error", [
    (np.full(_N, np.nan, np.float32), None, TypeError),
    (None, np.zeros(_N, np.int64), TypeError),
    (None, np.zeros(_N, np.uint8), TypeError),
    (np.full(_N - 1, np.nan), None, ValueError),
    (None, np.zeros(_N - 1, np.int8), ValueError),
    (_read_only(np.full(_N, np.nan)), None, ValueError),
], ids=["to float32", "fate int64", "fate uint8", "to short", "fate short", "to read-only"])
def test_buffer_play_rejects_a_bad_output_column(to, fate, error):
    _assert_rejected(error, np.array([p.seq for p in _CHECKED]), to, fate)


@pytest.mark.parametrize("dtype", [np.int32, np.uint64])
def test_buffer_play_rejects_an_order_of_another_dtype(dtype):
    _assert_rejected(TypeError, np.array([p.seq for p in _CHECKED], dtype))


@pytest.mark.parametrize("column", ["order", "to", "fate"])
def test_buffer_play_rejects_a_non_contiguous_column(column):
    order = np.array([p.seq for p in _CHECKED])
    n = len(_CHECKED)
    to, fate = None, None
    if column == "order":
        order = np.repeat(order, 2)[::2]
    elif column == "to":
        to = np.full(2 * n, np.nan)[::2]
    else:
        fate = np.zeros(2 * n, np.int8)[::2]
    _assert_rejected(ValueError, order, to, fate)


@pytest.mark.parametrize("spoil", ["order int32", "to float32", "seq outside"])
def test_buffer_play_retried_after_a_rejection_matches_reference(spoil):
    # a rejected play leaves the estimator where it was too, so the good
    # schedule played next on the same buffer and estimator is the schedule
    # played once
    order, ts, ta = _columns(_CHECKED)
    to, fate = _outputs(len(ts))
    bad_order, bad_to = order, to
    if spoil == "order int32":
        bad_order = order.astype(np.int32)
    elif spoil == "to float32":
        bad_to = to.astype(np.float32)
    else:
        bad_to, fate = _outputs(len(ts) - 1)
    buf = PlayoutBuffer(TransitEstimator(), interval_ms=10.0)
    with pytest.raises((TypeError, IndexError)):
        buf.play(bad_order, ts, ta, bad_to, fate)
    to, fate = _outputs(len(ts))
    buf.play(order, ts, ta, to, fate)
    ref = BufferReference(TransitEstimator(), 10.0)
    want = _outputs(len(ts))
    for p in _CHECKED:
        emissions, dropped = ref.arrival(p)
        if dropped:
            want[1][p.seq] = FATES.index("dropped_late")
        for em in emissions:
            want[0][em.seq], want[1][em.seq] = em.out, FATES.index("delivered")
    _assert_columns_equal((to, fate), want)
    assert _buffer_state(buf) == _reference_state(ref)
    assert "delivered" in _fates(fate)


def test_buffer_empty_play_is_a_no_op():
    est = FixedEstimator(target=50.0)
    buf = PlayoutBuffer(est, interval_ms=10.0)
    buf.on_arrival(Packet(1, 10.0, 15.0), 15.0)
    _, ts, ta = _columns(_CHECKED)
    to, fate = _outputs(len(ts))
    before = _own_state(buf)
    buf.play(np.array([], np.int64), ts, ta, to, fate)
    assert est.passes == [([], [])]  # one targets call, on the empty schedule
    assert _own_state(buf) == before
    assert _times(to) == [None] * 6 and _fates(fate) == ["in_flight"] * 6


# ------------------------------------------------------- buffer lifetime

def test_buffers_share_no_held_packets_or_state():
    # each buffer's state is its own: one fed a stream, another fed a
    # different one, each ends where its own reference does, and feeding
    # one never moves the other
    shifted = [Packet(p.seq, p.ts + 3.0, p.arrival + 7.0) for p in _CHECKED]
    bufs = [PlayoutBuffer(TransitEstimator(), interval_ms=10.0) for _ in range(2)]
    refs = [BufferReference(TransitEstimator(), 10.0) for _ in range(2)]
    for p, q in zip(_CHECKED, shifted):
        other = _own_state(bufs[1])
        assert bufs[0].on_arrival(p, p.arrival) == refs[0].arrival(p)
        assert _own_state(bufs[1]) == other
        other = _own_state(bufs[0])
        assert bufs[1].on_arrival(q, q.arrival) == refs[1].arrival(q)
        assert _own_state(bufs[0]) == other
    for buf, ref in zip(bufs, refs):
        assert _buffer_state(buf) == _reference_state(ref)
    assert bufs[0]._buffer != bufs[1]._buffer
    assert bufs[0].flush(100.0) == refs[0].flush(100.0)
    assert bufs[1]._buffer == refs[1].held and bufs[1].pending_count > 0


def test_dropped_buffers_free_their_held_packets():
    # a buffer's held packets live in a table of its own; freeing the
    # buffer must free the table, or the traced size grows by it per buffer
    import tracemalloc

    def churn(count):
        for _ in range(count):
            buf = PlayoutBuffer(FixedEstimator(target=1000.0), interval_ms=10.0)
            for seq in range(40):  # all held: the table grows past its first size
                buf.on_arrival(Packet(seq, 10.0 * seq, 10.0 * seq + 1.0), 10.0 * seq + 1.0)
            assert buf.pending_count == 40

    tracemalloc.start()
    try:
        churn(50)
        before = tracemalloc.get_traced_memory()[0]
        churn(2000)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # a leaked table of 128 slots is 3 kB a buffer, 6 MB over the churn
    assert grown < 64 * 1024, grown


def test_buffer_snapshot_is_a_copy():
    buf = PlayoutBuffer(FixedEstimator(target=1000.0), interval_ms=10.0)
    for p in _CHECKED[:3]:
        buf.on_arrival(p, p.arrival)
    snapshot = buf._buffer
    held = dict(snapshot)
    assert held == {0: (0.0, 5.0), 1: (10.0, 30.0), 2: (20.0, 25.0)}
    snapshot.clear()
    snapshot[7] = (70.0, 71.0)
    assert buf._buffer == held and buf._buffer is not snapshot
    assert buf.pending_count == 3
    assert buf.flush(40.0) == [(0, 40.0), (1, 40.0), (2, 40.0)]
    assert buf._buffer == {} and held == {0: (0.0, 5.0), 1: (10.0, 30.0), 2: (20.0, 25.0)}


def test_buffer_keeps_what_relaybench_patches():
    # relaybench wraps these by name in the class dict, and replaces a
    # manager's ``_est`` with a proxy; both must keep working
    for name in ("on_arrival", "play", "flush"):
        assert name in vars(PlayoutBuffer)
    for module, dotted, _ in spans.ENTRY_POINTS:
        owner, _, name = dotted.partition(".")
        if module == "relaysim.jitter" and owner == "PlayoutBuffer":
            assert name in vars(PlayoutBuffer)
    packets = bursty_packets(np.random.default_rng(9), 1500)
    order, ts, ta = _columns(packets)
    runs = []
    for proxied in (False, True):
        stepped = PlayoutBuffer(TransitEstimator(), interval_ms=10.0)
        played = PlayoutBuffer(TransitEstimator(), interval_ms=10.0)
        if proxied:
            tracer = spans.Tracer()
            stepped._est = spans._EstimatorProxy(stepped._est, tracer)
            played._est = spans._EstimatorProxy(played._est, tracer)
        got = _outputs(len(ts))
        _step(stepped, packets, *got)
        to, fate = _outputs(len(ts))
        played.play(order, ts, ta, to, fate)
        _assert_columns_equal((to, fate), got)
        runs.append((_times(to), _fates(fate), _buffer_state(stepped), _buffer_state(played)))
    assert runs[0] == runs[1]
    assert tracer.calls["estimator.update"] == len(packets)  # on_arrival went through the proxy
    assert "dropped_late" in runs[0][1] and "delivered" in runs[0][1]


# ------------------------------------------------- shared invariants (fuzz)

def _drive(manager, packets, is_buffer):
    ts_of = {p.seq: p.ts for p in packets}
    emitted = []
    drops = []
    wm_floor = float("-inf")
    for p in packets:
        emissions, dropped = manager.on_arrival(p, p.arrival)
        if dropped:
            drops.append(p.seq)
        if not is_buffer:
            assert manager.watermark >= wm_floor
            wm_floor = manager.watermark
            batch_ts = [ts_of[e.seq] for e in emissions]
            assert batch_ts == sorted(batch_ts)
        emitted.extend(emissions)
    end = packets[-1].arrival
    emitted.extend(manager.flush(end))
    return emitted, drops


def check_invariants(manager, packets, is_buffer):
    emitted, drops = _drive(manager, packets, is_buffer)
    # conservation: every fed packet is emitted exactly once or dropped
    seqs = [e.seq for e in emitted]
    assert len(seqs) == len(set(seqs))
    assert set(seqs) | set(drops) == {p.seq for p in packets}
    assert set(seqs) & set(drops) == set()
    # hand-off times never run backwards, and nothing plays before it arrives
    outs = [e.out for e in emitted]
    assert outs == sorted(outs)
    arrival_of = {p.seq: p.arrival for p in packets}
    for e in emitted:
        assert e.out >= arrival_of[e.seq]
    if is_buffer:
        assert seqs == sorted(seqs)  # in-order discipline end to end


@pytest.mark.parametrize("seed", [10, 11, 12, 13, 14])
def test_fuzz_invariants_watermark(seed):
    packets = bursty_packets(np.random.default_rng(seed), 800)
    check_invariants(WatermarkReorderer(JitterEstimator()), packets, is_buffer=False)


@pytest.mark.parametrize("seed", [20, 21, 22, 23, 24])
def test_fuzz_invariants_buffer(seed):
    packets = bursty_packets(np.random.default_rng(seed), 800)
    check_invariants(PlayoutBuffer(JitterEstimator(), interval_ms=10.0), packets,
                     is_buffer=True)


def _sparse_bursty(rng, n, interval=10.0, base=50.0):
    # mostly orderly stream with rare deep reordering bursts
    ts = np.arange(n) * interval
    transit = base + rng.gamma(2.0, 3.0, n)
    for s in np.flatnonzero(rng.random(n) < 0.002):
        width = int(rng.integers(5, 15))
        transit[s:s + width] += rng.uniform(100.0, 300.0)
    arrival = ts + transit
    order = np.argsort(arrival, kind="stable")
    return [Packet(int(s), float(ts[s]), float(arrival[s])) for s in order]


def test_watermark_drops_fewer_than_buffer_on_sparse_bursts():
    # the point of out-of-order hand-off: the buffer schedules against a
    # transit quantile and abandons whatever lands past it, so a deep burst
    # costs it most of the stragglers; the watermark holds them for the lag
    # window and preserves strictly more of the stream (its price is a
    # higher per-packet wait, not a higher loss)
    for seed in (31, 32, 33):
        packets = _sparse_bursty(np.random.default_rng(seed), 5000)
        wm = WatermarkReorderer(JitterEstimator())
        bf = PlayoutBuffer(JitterEstimator(), 10.0)
        _drive(wm, packets, False)
        _drive(bf, packets, True)
        assert wm.dropped_count < bf.dropped_count


@pytest.mark.parametrize("seed", [40, 41, 42])
def test_managers_read_only_seq_and_ts(seed):
    # the arrival time comes from now alone: a bare (seq, ts) record fed at
    # its arrival must meet exactly the fates a full Packet meets
    packets = bursty_packets(np.random.default_rng(seed), 1500)
    bare = [SimpleNamespace(seq=p.seq, ts=p.ts) for p in packets]
    for build in (lambda: WatermarkReorderer(JitterEstimator()),
                  lambda: PlayoutBuffer(JitterEstimator(), interval_ms=10.0)):
        runs = []
        for stream in (packets, bare):
            manager = build()
            steps = [manager.on_arrival(p, q.arrival) for p, q in zip(stream, packets)]
            runs.append((steps, manager.flush(packets[-1].arrival), manager.dropped_count))
        assert runs[0] == runs[1]
        assert runs[0][2] > 0 and runs[0][1]  # the streams drop and leave a tail


# ------------------------------------------------------------------ config

def test_build_jitter_manager_kinds():
    wm = build_jitter_manager(JitterConfig(kind="watermark"), interval_ms=10.0)
    assert isinstance(wm, WatermarkReorderer)
    bf = build_jitter_manager(JitterConfig(kind="buffer"), interval_ms=10.0)
    assert isinstance(bf, PlayoutBuffer)
    with pytest.raises(ValueError):
        build_jitter_manager(JitterConfig(kind="none"), interval_ms=10.0)


def test_jitter_config_rejects_an_unknown_kind():
    # at construction, as RouterConfig does, not when a manager is built
    with pytest.raises(ValidationError, match=r"'none', want one of \['watermark', 'buffer'\]"):
        JitterConfig(kind="none")


def test_config_initial_lag_reaches_estimator():
    wm = build_jitter_manager(JitterConfig(initial_lag_ms=25.0), interval_ms=10.0)
    wm.on_arrival(Packet(0, 100.0, 101.0), 101.0)
    assert wm.watermark == 75.0
    bf = build_jitter_manager(
        JitterConfig(kind="buffer", initial_lag_ms=30.0), interval_ms=10.0)
    assert bf.target_delay_ms == 30.0


def test_config_drop_feed_changes_lag_evolution():
    mgr = build_jitter_manager(JitterConfig(), interval_ms=10.0)
    for i in range(20):
        ts = i * 10.0
        mgr.on_arrival(Packet(i, ts, ts + 50.0), ts + 50.0)
    assert mgr.lag_ms == 0.0  # a clean stream
    # deep straggler: far below the watermark, dropped on arrival
    _, dropped = mgr.on_arrival(Packet(99, 0.0, 260.0), 260.0)
    assert dropped
    mgr.on_arrival(Packet(20, 200.0, 265.0), 265.0)
    # the dropped straggler's transit (260 ms) is reorder-depth evidence: the
    # next arrival's 65 ms transit sits 195 ms under it and the lag covers
    # that depth
    assert mgr.lag_ms == 195.0
