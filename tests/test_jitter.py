"""Watermark reorderer and adaptive playout buffer."""

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
from wm_reference import WatermarkReference, bursty_packets


class FixedEstimator:
    """Stub pinning lag and target; records every update call."""

    def __init__(self, lag=0.0, target=0.0):
        self.lag = lag
        self.target = target
        self.calls = []

    def update(self, ts, arrival):
        self.calls.append((ts, arrival))
        return self.lag

    def transit_target(self):
        return self.target

    @property
    def lag_ms(self):
        return self.lag


def test_packet_validation():
    Packet(0, 10.0, 10.0)  # zero transit is legal
    with pytest.raises(ValueError):
        Packet(0, 10.0, 9.0)


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
    wm = WatermarkReorderer(est, update_on_drop=True)
    wm.on_arrival(Packet(0, 40.0, 41.0), 41.0)
    wm.on_arrival(Packet(1, 45.0, 50.0), 50.0)
    calls_before = len(est.calls)
    emissions, dropped = wm.on_arrival(Packet(2, 25.0, 55.0), 55.0)
    assert dropped and emissions == []
    assert wm.watermark == 35.0       # untouched
    assert wm.pending_count == 2      # untouched
    assert wm.dropped_count == 1
    assert len(est.calls) == calls_before + 1  # but the estimator measured it


def test_late_packet_can_skip_the_estimator():
    est = FixedEstimator(lag=10.0)
    wm = WatermarkReorderer(est, update_on_drop=False)
    wm.on_arrival(Packet(0, 40.0, 41.0), 41.0)
    calls_before = len(est.calls)
    _, dropped = wm.on_arrival(Packet(1, 5.0, 50.0), 50.0)
    assert dropped
    assert len(est.calls) == calls_before


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
    wm.on_arrival(Packet(0, 5.0, 10.0), 10.0)
    wm.on_arrival(Packet(1, 3.0, 12.0), 12.0)
    out = wm.flush(50.0)
    assert [(e.seq, e.ts, e.out) for e in out] == [(1, 3.0, 50.0), (0, 5.0, 50.0)]
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
        for feed_drops in (True, False):
            packets = bursty_packets(np.random.default_rng(seed), 1500)
            mgr = WatermarkReorderer(JitterEstimator(), update_on_drop=feed_drops)
            ref = WatermarkReference(JitterEstimator(), update_on_drop=feed_drops)
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
    """Arrival order and seq-indexed ts/ta columns of an arrival-ordered stream."""
    ts, ta = [0.0] * len(packets), [0.0] * len(packets)
    for p in packets:
        ts[p.seq], ta[p.seq] = p.ts, p.arrival
    return [p.seq for p in packets], ts, ta


def _state(manager):
    """Everything a manager carries from one arrival to the next."""
    est = manager._est
    own = {k: v for k, v in vars(manager).items() if k != "_est"}
    return (own, est.transit_target(), getattr(est, "n_window", None),
            getattr(est, "lag_ms", None))


def _play_against_on_arrival(build, packets, split):
    """Play packets[:split] through a manager's whole-stream pass and through
    on_arrival on a twin: the fates, output times and state must be equal,
    and stay equal as both go on through on_arrival and flush. Returns the
    pass's (to, fate) columns."""
    order, ts, ta = _columns(packets)
    stepped = build()
    want_to, want_fate = [None] * len(ts), ["in_flight"] * len(ts)
    for p in packets[:split]:
        emissions, dropped = stepped.on_arrival(p, p.arrival)
        if dropped:
            want_fate[p.seq] = "dropped_late"
        for em in emissions:
            want_to[em.seq], want_fate[em.seq] = em.out, "delivered"
    played = build()
    to, fate = [None] * len(ts), ["in_flight"] * len(ts)
    played.play(order[:split], ts, ta, to, fate)
    assert to == want_to and fate == want_fate
    assert _state(played) == _state(stepped)
    for p in packets[split:]:
        assert played.on_arrival(p, p.arrival) == stepped.on_arrival(p, p.arrival)
    end = packets[-1].arrival
    assert played.flush(end) == stepped.flush(end)
    assert _state(played) == _state(stepped)
    return to, fate


def _bursty_streams():
    streams = [bursty_packets(np.random.default_rng(seed), 1500) for seed in (1, 2, 3)]
    # whole-ms arrivals: deadlines and watermarks tie with arrival times
    streams.append([Packet(p.seq, p.ts, float(round(p.arrival)))
                    for p in bursty_packets(np.random.default_rng(4), 1500)])
    return streams


@pytest.mark.parametrize("feed", [True, False])
@pytest.mark.parametrize("kind", ["watermark", "buffer"])
def test_play_equals_on_arrival(kind, feed):
    cfg = JitterConfig(kind=kind, update_on_drop=feed)
    for packets in _bursty_streams():
        _, fate = _play_against_on_arrival(lambda: build_jitter_manager(cfg, 10.0),
                                           packets, len(packets) // 2)
        assert "dropped_late" in fate and "in_flight" in fate


@pytest.mark.parametrize("feed", [True, False])
@pytest.mark.parametrize("kind", ["watermark", "buffer"])
def test_no_output_time_after_the_arrival_being_processed(kind, feed):
    # the engine sends a packet's end-to-end feedback at the arrival that
    # plays it out, which is its playout time only if no manager emits later
    cfg = JitterConfig(kind=kind, update_on_drop=feed)
    for packets in _bursty_streams():
        stepped = build_jitter_manager(cfg, 10.0)
        emitted = 0
        for p in packets:
            emissions, _ = stepped.on_arrival(p, p.arrival)
            assert all(em.out <= p.arrival for em in emissions)
            emitted += len(emissions)

        order, ts, ta = _columns(packets)
        now = [None]  # the arrival time play is processing

        def processing():
            for seq in order:
                now[0] = ta[seq]
                yield seq

        class Outputs(list):
            def __setitem__(self, seq, out):
                assert out <= now[0], (seq, out, now[0])
                super().__setitem__(seq, out)

        to = Outputs([None] * len(ts))
        build_jitter_manager(cfg, 10.0).play(processing(), ts, ta, to, ["in_flight"] * len(ts))
        assert len(to) - to.count(None) == emitted > 0


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
        for feed_drops in (True, False):
            packets = bursty_packets(np.random.default_rng(seed), 1500)
            order, ts, ta = _columns(packets)
            mgr = WatermarkReorderer(JitterEstimator(), update_on_drop=feed_drops)
            ref = WatermarkReference(JitterEstimator(), update_on_drop=feed_drops)
            to, fate = [None] * len(ts), ["in_flight"] * len(ts)
            mgr.play(order, ts, ta, to, fate)
            for p in packets:
                ref.arrival(p)
            end = packets[-1].arrival
            for em in mgr.flush(end):
                to[em.seq], fate[em.seq] = em.out, "flushed"
            ref.flush(end)
            assert {seq: to[seq] for seq in order if fate[seq] != "dropped_late"} == dict(
                ref.emissions)
            assert [seq for seq in order if fate[seq] == "dropped_late"] == ref.drops
            assert mgr.dropped_count == len(ref.drops) > 0


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
    feeding = FixedEstimator(target=20.0)
    skipping = FixedEstimator(target=20.0)
    fed = PlayoutBuffer(feeding, interval_ms=10.0, update_on_drop=True)
    skp = PlayoutBuffer(skipping, interval_ms=10.0, update_on_drop=False)
    for buf in (fed, skp):
        buf.on_arrival(Packet(0, 0.0, 5.0), 5.0)
        buf.on_arrival(Packet(1, 10.0, 90.0), 90.0)  # late, dropped
    assert len(feeding.calls) == 2
    assert len(skipping.calls) == 1


def test_buffer_flush_in_seq_order_nondecreasing_out():
    buf = PlayoutBuffer(FixedEstimator(target=1000.0), interval_ms=10.0)
    for seq, ts, arrival in [(0, 0.0, 5.0), (2, 20.0, 25.0), (1, 10.0, 26.0)]:
        buf.on_arrival(Packet(seq, ts, arrival), arrival)
    out = buf.flush(30.0)
    assert [e.seq for e in out] == [0, 1, 2]
    assert all(e.out == 30.0 for e in out)
    assert buf.pending_count == 0


@pytest.mark.parametrize("feed", [True, False])
@pytest.mark.parametrize("seed", [50, 51, 52])
def test_buffer_on_transit_estimator_matches_full_estimator(seed, feed):
    # the buffer keeps the target its estimator gave after the last update.
    # On a transit-only estimator every step must equal the same buffer on
    # the full estimator, and the kept target must equal the full
    # estimator's, read fresh after every arrival, dropped ones included
    packets = bursty_packets(np.random.default_rng(seed), 2000)
    full_est = JitterEstimator()
    lean = PlayoutBuffer(TransitEstimator(), interval_ms=10.0, update_on_drop=feed)
    full = PlayoutBuffer(full_est, interval_ms=10.0, update_on_drop=feed)
    for p in packets:
        assert lean.on_arrival(p, p.arrival) == full.on_arrival(p, p.arrival)
        assert lean.target_delay_ms == full.target_delay_ms == full_est.transit_target()
    end = packets[-1].arrival
    assert lean.flush(end) == full.flush(end)
    assert lean.dropped_count == full.dropped_count > 0


# ------------------------------------------------- shared invariants (fuzz)

def _drive(manager, packets, is_buffer):
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
            batch_ts = [e.ts for e in emissions]
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
    for e in emitted:
        assert e.out >= e.arrival
    if is_buffer:
        assert seqs == sorted(seqs)  # in-order discipline end to end


@pytest.mark.parametrize("seed", [10, 11, 12, 13, 14])
def test_fuzz_invariants_watermark(seed):
    packets = bursty_packets(np.random.default_rng(seed), 800)
    for feed in (True, False):
        check_invariants(
            WatermarkReorderer(JitterEstimator(), update_on_drop=feed),
            packets, is_buffer=False)


@pytest.mark.parametrize("seed", [20, 21, 22, 23, 24])
def test_fuzz_invariants_buffer(seed):
    packets = bursty_packets(np.random.default_rng(seed), 800)
    for feed in (True, False):
        check_invariants(
            PlayoutBuffer(JitterEstimator(), interval_ms=10.0, update_on_drop=feed),
            packets, is_buffer=True)


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
    def run(update_on_drop):
        mgr = build_jitter_manager(
            JitterConfig(update_on_drop=update_on_drop), interval_ms=10.0)
        for i in range(20):
            ts = i * 10.0
            mgr.on_arrival(Packet(i, ts, ts + 50.0), ts + 50.0)
        # deep straggler: far below the watermark, dropped on arrival
        mgr.on_arrival(Packet(99, 0.0, 260.0), 260.0)
        mgr.on_arrival(Packet(20, 200.0, 265.0), 265.0)
        return mgr.lag_ms

    # the dropped straggler's transit (260 ms) is reorder-depth evidence:
    # with the feed on, the next arrival's 65 ms transit sits 195 ms under
    # it and the lag covers that depth; with it off the stream still looks
    # clean (19 zero jitter samples and one of 15: the 95% quantile is 0)
    assert run(True) == 195.0
    assert run(False) == 0.0
