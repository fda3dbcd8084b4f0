"""The compiled estimators and playout buffer against their oracles, on
generated arrival streams.

A drawn stream is cadenced at 10 or 20/3 ms, with runs of equal ts, bursts
of added transit that reorder it, gaps longer than the estimator's window,
and arrivals rounded up to whole ms, so that many of them tie with each
other and with the buffer's deadlines. It is fed in
(arrival, seq) order and cut into random chunks, so the buffer holds seqs
from one chunk into the next.

* ``TransitEstimator`` and ``JitterEstimator``: each chunk goes through
  ``update`` per arrival, ``lags`` or ``targets``, and every output and
  observable must equal ``tests/estimator_reference.py``'s.
* ``PlayoutBuffer`` (its state and rule are the compiled ``PlayoutCore``):
  each chunk goes through ``play`` or through ``on_arrival`` per arrival,
  and every fate, output time and state, and the flush, must equal
  ``tests/buffer_reference.py``'s. A copy of a packet, at its own arrival
  time, raises ``duplicate seq`` while the packet is held, as in the oracle.
* ``WatermarkReorderer``: each chunk goes through ``play`` or through
  ``on_arrival`` per arrival, and every emission, drop, the watermark, the
  pending count, the estimator's observables and the flush must equal
  ``tests/wm_reference.py``'s.
"""

from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relaysim import (JitterEstimator, Packet, PlayoutBuffer, TransitEstimator,
                      WatermarkReorderer)
from relaysim.jitter import FATES
from buffer_reference import BufferReference
from estimator_reference import ReferenceEstimator
from wm_reference import WatermarkReference

GAP_MS = 2500.0  # longer than every window drawn below
DELIVERED, DROPPED = FATES.index("delivered"), FATES.index("dropped_late")


@st.composite
def streams(draw):
    """(interval, packets in (arrival, seq) order, chunk ends)."""
    interval = draw(st.sampled_from([10.0, 20 / 3]))
    n = draw(st.integers(1, 120))
    same_ts = draw(st.sets(st.integers(1, n), max_size=n // 4))  # ts of the seq before
    gaps = draw(st.sets(st.integers(1, n), max_size=2))  # ts and arrival jump GAP_MS
    # whole ms steps, with transits on the ticks' grid, put arrivals on
    # deadlines; quarter-ms steps reorder less
    step = draw(st.sampled_from([0.25, 1.0]))
    jitter = draw(st.lists(st.integers(0, 40), min_size=n, max_size=n))
    bursts = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, 40),
                                     st.integers(20, 400)), max_size=3))
    whole_ms = draw(st.booleans())
    base = draw(st.sampled_from([0.0, 5.0, 40.0]))
    t = draw(st.sampled_from([0.0, 60_000.0]))
    packets = []
    for seq in range(n):
        if seq and seq not in same_ts:
            t += interval
        if seq in gaps:
            t += GAP_MS
        transit = base + jitter[seq] * step + sum(extra for start, width, extra in bursts
                                               if start <= seq < start + width)
        arrival = float(np.ceil(t + transit)) if whole_ms else t + transit
        packets.append(Packet(seq, t, arrival))
    packets.sort(key=lambda p: (p.arrival, p.seq))
    ends = sorted(draw(st.sets(st.integers(1, n), max_size=12)) | {n})
    return interval, packets, ends


def _observed(est):
    """Everything an estimator shows of its state without changing it."""
    seen = (est.transit_target(), est.n_window)
    if isinstance(est, (JitterEstimator, ReferenceEstimator)):
        seen += (est.lag_ms, est.jitter_lag_ms, est.reorder_depth_ms, est.disorder,
                 est.last_in_order, est.n_jitter_samples)
    return seen


@settings(max_examples=150, deadline=None)
@given(stream=streams(), config=st.fixed_dictionaries({
    "window_ms": st.sampled_from([500.0, 2000.0]),
    "bin_ms": st.sampled_from([0.5, 1.0, 2.5]),
    "percentile": st.sampled_from([0.5, 0.95, 1.0]),
    "loss_cost_ms": st.sampled_from([10.0, 100.0]),
    "max_lag_ms": st.sampled_from([50.0, 10_000.0]),
}), est_cls=st.sampled_from([TransitEstimator, JitterEstimator]), data=st.data())
def test_estimators_equal_the_oracle(stream, config, est_cls, data):
    _, packets, ends = stream
    est, ref = est_cls(**config), ReferenceEstimator(**config)
    passes = ["update", "targets"] + (["lags"] if est_cls is JitterEstimator else [])
    lo = 0
    for hi in ends:
        chunk = packets[lo:hi]
        lags, targets = [], []
        for p in chunk:
            lags.append(ref.update(p.ts, p.arrival))
            targets.append(ref.transit_target())
        how = data.draw(st.sampled_from(passes))
        if how == "update":
            got = [est.update(p.ts, p.arrival) for p in chunk]
            # a TransitEstimator's update returns the transit, not a lag
            assert got == (lags if est_cls is JitterEstimator
                           else [p.arrival - p.ts for p in chunk])
        else:
            ts = np.array([p.ts for p in chunk])
            ta = np.array([p.arrival for p in chunk])
            got = getattr(est, how)(ts, ta).tolist()
            assert got == (lags if how == "lags" else targets)
        assert _observed(est) == _observed(ref)[:len(_observed(est))]
        lo = hi


def _state(buf):
    return (buf._target, buf._ts_base, buf._next_seq, buf._max_seen, buf._last_out,
            buf._buffer, buf.dropped_count)


def _reference_state(ref):
    return (ref.target, ref.ts_base, ref.next_seq, ref.max_seen, ref.last_out,
            ref.held, len(ref.drops))


# seq 1 is held behind the missing seq 0 when its copy lands
@example(stream=(10.0, [Packet(1, 10.0, 15.0), Packet(0, 0.0, 16.0)], [2]),
         est_cls=TransitEstimator, duplicate=0, hows=["play"])
@example(stream=(10.0, [Packet(1, 10.0, 15.0), Packet(0, 0.0, 16.0)], [1, 2]),
         est_cls=JitterEstimator, duplicate=0, hows=["on_arrival"] * 2)
@settings(max_examples=150, deadline=None)
@given(stream=streams(), est_cls=st.sampled_from([TransitEstimator, JitterEstimator]),
       duplicate=st.none() | st.integers(0, 119),
       hows=st.lists(st.sampled_from(["play", "on_arrival"]), min_size=13, max_size=13))
def test_playout_buffer_equals_the_oracle(stream, est_cls, duplicate, hows):
    interval, packets, ends = stream
    if duplicate is not None:
        # a copy of one packet, right after it, at its arrival time
        i = duplicate % len(packets)
        packets = packets[:i + 1] + packets[i:]
        ends = [end + (end > i) for end in ends]
    n = max(p.seq for p in packets) + 1
    ts, ta = np.zeros(n), np.zeros(n)
    for p in packets:
        ts[p.seq], ta[p.seq] = p.ts, p.arrival
    buf, ref = PlayoutBuffer(est_cls(), interval), BufferReference(est_cls(), interval)
    to, fate = np.full(n, np.nan), np.zeros(n, np.int8)
    want_to, want_fate = to.copy(), fate.copy()
    lo = 0
    for hi, how in zip(ends, hows):
        raised = None
        for p in packets[lo:hi]:
            try:
                emissions, dropped = ref.arrival(p)
            except ValueError as exc:
                raised, copied = str(exc), p.seq
                break
            if dropped:
                want_fate[p.seq] = DROPPED
            for em in emissions:
                want_to[em.seq], want_fate[em.seq] = em.out, DELIVERED
        with pytest.raises(ValueError) if raised else nullcontext() as info:
            if how == "play":
                buf.play(np.array([p.seq for p in packets[lo:hi]]), ts, ta, to, fate)
            else:
                for p in packets[lo:hi]:
                    emissions, dropped = buf.on_arrival(p, p.arrival)
                    if dropped:
                        fate[p.seq] = DROPPED
                    for em in emissions:
                        to[em.seq], fate[em.seq] = em.out, DELIVERED
        assert np.array_equal(to, want_to, equal_nan=True)
        assert np.array_equal(fate, want_fate)
        assert _state(buf) == _reference_state(ref)
        if raised:
            # a duplicate seq raises while that seq is held
            assert str(info.value) == raised == f"duplicate seq {copied}"
            assert copied in ref.held
            return
        assert _observed(buf._est) == _observed(ref.est)
        lo = hi
    end = packets[-1].arrival
    assert buf.flush(end) == ref.flush(end)
    assert _state(buf) == _reference_state(ref)


@settings(max_examples=150, deadline=None)
@given(stream=streams(),
       hows=st.lists(st.sampled_from(["play", "on_arrival"]), min_size=13, max_size=13))
def test_watermark_equals_the_oracle(stream, hows):
    _, packets, ends = stream
    n = max(p.seq for p in packets) + 1
    ts, ta = np.zeros(n), np.zeros(n)
    for p in packets:
        ts[p.seq], ta[p.seq] = p.ts, p.arrival
    wm, ref = WatermarkReorderer(JitterEstimator()), WatermarkReference(ReferenceEstimator())
    to, fate = np.full(n, np.nan), np.zeros(n, np.int8)
    want_to, want_fate = to.copy(), fate.copy()
    lo = 0
    for hi, how in zip(ends, hows):
        emitted, dropped = len(ref.emissions), len(ref.drops)
        for p in packets[lo:hi]:
            ref.arrival(p)
        for seq, out in ref.emissions[emitted:]:
            want_to[seq], want_fate[seq] = out, DELIVERED
        want_fate[ref.drops[dropped:]] = DROPPED
        if how == "play":
            wm.play(np.array([p.seq for p in packets[lo:hi]]), ts, ta, to, fate)
        else:
            got = []
            for p in packets[lo:hi]:
                emissions, was_dropped = wm.on_arrival(p, p.arrival)
                if was_dropped:
                    fate[p.seq] = DROPPED
                for em in emissions:
                    to[em.seq], fate[em.seq] = em.out, DELIVERED
                got += emissions
            # one arrival's emissions come out in (ts, seq) order
            assert [tuple(em) for em in got] == ref.emissions[emitted:]
        assert np.array_equal(to, want_to, equal_nan=True)
        assert np.array_equal(fate, want_fate)
        assert (wm.watermark, wm.pending_count, wm.dropped_count) == (
            ref.wm, len(ref.pending), len(ref.drops))
        assert _observed(wm._est) == _observed(ref.est)
        lo = hi
    end = packets[-1].arrival
    emitted = len(ref.emissions)
    ref.flush(end)
    assert [tuple(em) for em in wm.flush(end)] == ref.emissions[emitted:]
    assert wm.pending_count == 0
