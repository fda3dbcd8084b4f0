"""Windowed jitter/transit estimator: quantiles, episodes, and the oracle."""

import itertools
import math

import numpy as np
import pytest

from relaysim import (JitterConfig, JitterEstimator, TransitEstimator, ValidationError,
                      build_jitter_manager)
from relaysim._estimator import DISORDER_GUARD_MS

from estimator_reference import ReferenceEstimator
from wm_reference import bursty_packets


def feed_cadenced(est, jitters, interval=10.0, first_transit=5.0, first_ts=0.0):
    """Feed in-order arrivals whose consecutive jitter samples are `jitters`."""
    ts = first_ts
    arrival = first_ts + first_transit
    lag = est.update(ts, arrival)
    for j in jitters:
        ts += interval
        arrival += interval + j
        lag = est.update(ts, arrival)
    return lag


def test_first_arrival_returns_initial_lag():
    est = JitterEstimator(initial_lag_ms=25.0)
    assert est.update(0.0, 5.0) == 25.0
    assert est.n_jitter_samples == 0


def test_uniform_jitter_quantile():
    # one jitter sample per value 0..99: the 95th percentile bin edge is 94
    # (95 of 100 samples fall in bins 0..94)
    rng = np.random.default_rng(0)
    jitters = rng.permutation(np.arange(100.0))
    est = JitterEstimator(window_ms=1e9, bin_ms=1.0, percentile=0.95)
    lag = feed_cadenced(est, jitters)
    assert est.n_jitter_samples == 100
    assert lag == 94.0
    assert 94.0 <= lag <= 96.0


def test_single_outlier_does_not_move_the_quantile():
    jitters = [0.0] * 50 + [500.0] + [0.0] * 49
    est = JitterEstimator(window_ms=1e9, bin_ms=1.0, percentile=0.95)
    assert feed_cadenced(est, jitters) == 0.0


def test_constant_cadence_has_zero_lag():
    est = JitterEstimator(window_ms=1e9)
    assert feed_cadenced(est, [0.0] * 200) == 0.0


def test_quantile_against_nearest_rank_oracle():
    # the lag in orderly streams must equal the nearest-rank quantile of the
    # binned samples: lower edge of the r-th smallest bin, r = ceil(p*n)
    rng = np.random.default_rng(42)
    jitters = np.concatenate([
        np.zeros(40),
        rng.uniform(0.0, 30.0, 40),
        rng.uniform(100.0, 400.0, 20),
    ])
    rng.shuffle(jitters)
    for pct in (0.5, 0.9, 0.95, 0.99, 1.0):
        est = JitterEstimator(window_ms=1e9, bin_ms=2.0, percentile=pct)
        seen = []
        ts, arrival = 0.0, 5.0
        est.update(ts, arrival)
        for j in jitters:
            ts += 10.0
            arrival += 10.0 + j
            lag = est.update(ts, arrival)
            seen.append(j)
            bins = np.minimum(np.floor(np.asarray(seen) / 2.0), est.max_lag_ms / 2.0)
            rank = math.ceil(pct * len(seen))
            expected = float(np.sort(bins)[rank - 1]) * 2.0
            assert lag == expected


def test_window_eviction_forgets_old_spike():
    est = JitterEstimator(window_ms=1000.0, bin_ms=1.0, percentile=1.0)
    est.update(0.0, 0.0)
    est.update(10.0, 510.0)           # jitter 500, recorded at arrival 510
    assert est.lag_ms == 500.0
    ts, arrival = 10.0, 510.0
    while arrival <= 1510.0:          # walk the window past the spike
        ts += 10.0
        arrival += 10.0
        est.update(ts, arrival)
    assert est.lag_ms == 0.0          # even the max-percentile sees only zeros
    assert est.n_jitter_samples == 101  # exactly the zero-jitter arrivals left


def test_lag_clamped_to_max():
    est = JitterEstimator(window_ms=1e9, bin_ms=1.0, percentile=1.0, max_lag_ms=50.0)
    lag = feed_cadenced(est, [500.0, 500.0])
    assert lag == 50.0


def test_disorder_episode_lifecycle():
    est = JitterEstimator(window_ms=1e9, bin_ms=1.0, percentile=0.5, loss_cost_ms=100.0)
    est.update(0.0, 50.0)
    assert est.last_in_order and not est.disorder
    est.update(10.0, 60.0)
    assert est.lag_ms == 0.0
    # an out-of-order ts opens the episode. The straggler adds no jitter
    # sample, and its own transit (60) is the deepest held, so its depth is
    # 0; the ratchet's cost minimizer over jitter {0} is 0
    est.update(5.0, 65.0)
    assert not est.last_in_order and est.disorder
    assert est.lag_ms == 0.0
    # in-order again, but within the guard: the episode stays open. Transit
    # 50 lands 5 ms after the straggler's 60: depth 10, jitter lag still 0
    est.update(20.0, 70.0)
    assert est.last_in_order and est.disorder
    assert (est.jitter_lag_ms, est.reorder_depth_ms, est.lag_ms) == (0.0, 10.0, 10.0)
    # quiet for longer than the guard: episode closes, quantile tracking
    # resumes (median of {0, 0, 90}: the straggler was never a jitter
    # sample); the straggler's transit has left the 100 ms hold and the
    # held 50 lies under this arrival's 140
    est.update(30.0, 170.0)
    assert est.last_in_order and not est.disorder
    assert (est.jitter_lag_ms, est.reorder_depth_ms, est.lag_ms) == (0.0, 0.0, 0.0)


def test_reorder_depth_covers_a_latency_drop():
    # transit falls 50 -> 42 at ts 20: the packets generated in the 8 ms
    # before it are still in flight and will land up to 8 ms behind the
    # newest ts. The lag covers them before any is seen out of order.
    est = JitterEstimator(window_ms=1e9, bin_ms=1.0, percentile=0.5)
    est.update(0.0, 50.0)
    est.update(10.0, 60.0)
    est.update(20.0, 62.0)
    assert est.last_in_order and not est.disorder
    assert (est.jitter_lag_ms, est.reorder_depth_ms, est.lag_ms) == (0.0, 8.0, 8.0)
    # the straggler (ts 15) opens an episode: the ratchet moves to the cost
    # minimizer over jitter {0, 8}: cost(0) = 100 * 1/2 > cost(8) = 8.
    # Its transit 50 replaces the held 50 and 42, so depth is 0
    est.update(15.0, 65.0)
    assert est.disorder
    assert (est.jitter_lag_ms, est.reorder_depth_ms, est.lag_ms) == (8.0, 0.0, 8.0)
    # transit 131 lies above every held one, so depth is 0; the episode is
    # still open (96 ms since the straggler) and the jitter lag holds at 8,
    # the cost minimizer over jitter {0, 8, 89} at lag 8
    est.update(30.0, 161.0)
    assert est.disorder
    assert (est.jitter_lag_ms, est.reorder_depth_ms, est.lag_ms) == (8.0, 0.0, 8.0)


def test_depth_is_not_ratcheted():
    # the episode ratchet holds the jitter part only. With no loss cost its
    # minimizer is 0, so the jitter lag stays 0 all episode, and the lag
    # follows the depth back down while the episode is still open
    est = JitterEstimator(window_ms=1e9, bin_ms=1.0, percentile=0.5, loss_cost_ms=0.0)
    est.update(0.0, 50.0)
    est.update(10.0, 60.0)
    est.update(5.0, 65.0)      # straggler, transit 60: the episode opens
    est.update(20.0, 70.0)     # transit 50 under the held 60: depth 10
    assert est.disorder and est.lag_ms == 10.0
    est.update(30.0, 95.0)     # transit 65 tops every held one: depth 0
    assert est.disorder
    assert (est.jitter_lag_ms, est.reorder_depth_ms, est.lag_ms) == (0.0, 0.0, 0.0)


def test_reorder_depth_hold_boundary():
    # like the window, the hold keeps an arrival exactly DISORDER_GUARD_MS old
    est = JitterEstimator(window_ms=1e9, bin_ms=1.0)
    est.update(0.0, 100.0)     # transit 100
    est.update(110.0, 200.0)   # 100 ms later, transit 90: the 100 is held
    assert est.reorder_depth_ms == 10.0
    est.update(121.0, 201.0)   # transit 80: the 100 is gone, the 90 is held
    assert est.reorder_depth_ms == 10.0


def test_reorder_depth_lower_bin_edge_and_clamp():
    est = JitterEstimator(window_ms=1e9, bin_ms=2.0, percentile=1.0, max_lag_ms=50.0)
    est.update(0.0, 100.0)
    est.update(10.0, 104.5)   # transit 100 -> 94.5: depth 5.5, lower edge 4
    assert est.reorder_depth_ms == 4.0
    est.update(20.0, 104.6)   # transit 84.6: depth 15.4, lower edge 14
    assert est.reorder_depth_ms == 14.0
    est.update(30.0, 104.7)   # transit 74.7: depth 25.3 -> 24; max jitter 9.9 -> 8
    assert (est.jitter_lag_ms, est.reorder_depth_ms, est.lag_ms) == (8.0, 24.0, 24.0)
    est.update(40.0, 104.8)   # transit 64.8: depth 35.2 -> 34
    est.update(50.0, 104.9)   # transit 54.9: depth 45.1 -> 44
    est.update(60.0, 105.0)   # transit 45: depth 55 clamps to the last bin, 50
    assert est.reorder_depth_ms == 50.0 and est.lag_ms == 50.0


def test_guard_is_a_shared_constant():
    assert DISORDER_GUARD_MS == 100.0


def test_lag_never_falls_while_disordered():
    # the ratchet: while an episode is open the jitter part of the lag never
    # falls. The lag is the larger of it and the reorder depth, which must
    # equal a brute-force scan of the transits held for the guard time.
    rng = np.random.default_rng(99)
    est = JitterEstimator(window_ms=3000.0, bin_ms=1.0)
    ts_axis = np.arange(2000) * 10.0
    transit = 50.0 + rng.gamma(2.0, 4.0, 2000)
    for start in range(100, 1900, 300):
        transit[start:start + 15] += rng.uniform(80, 300)
    arrival = ts_axis + transit
    order = np.argsort(arrival, kind="stable")
    prev = est.jitter_lag_ms
    seen = []
    episodes = 0
    for i in order:
        ts, ta = float(ts_axis[i]), float(arrival[i])
        was_disordered = est.disorder
        lag = est.update(ts, ta)
        if est.disorder:
            assert est.jitter_lag_ms >= prev
            episodes += not was_disordered
        prev = est.jitter_lag_ms
        seen.append((ta, ta - ts))
        deepest = max(tr for a, tr in seen if a >= ta - DISORDER_GUARD_MS)
        assert est.reorder_depth_ms == float(int(deepest - (ta - ts)))
        assert lag == max(est.jitter_lag_ms, est.reorder_depth_ms)
    assert episodes >= 6


def test_transit_target_upper_edge():
    est = JitterEstimator(window_ms=1e9, bin_ms=1.0, percentile=0.95,
                          initial_lag_ms=30.0)
    assert est.transit_target() == 30.0  # empty: fall back to the initial lag
    ts, arrival = 0.0, 50.0
    for _ in range(20):
        est.update(ts, arrival)
        ts += 10.0
        arrival += 10.0
    # constant 50 ms transit fills bin 50; the target must cover the sample,
    # so it is the bin's upper edge
    assert est.transit_target() == 51.0


def test_transit_target_mixed_bins():
    est = JitterEstimator(window_ms=1e9, bin_ms=1.0, percentile=0.5)
    est.update(0.0, 10.0)
    est.update(10.0, 30.0)
    assert est.transit_target() == 11.0  # median of transits {10, 20}


def test_update_validation():
    for cls in (JitterEstimator, TransitEstimator):
        est = cls()
        with pytest.raises(ValueError):
            est.update(10.0, 5.0)
        est.update(0.0, 100.0)
        with pytest.raises(RuntimeError):
            est.update(5.0, 99.0)  # receiver clock cannot run backwards
        est.update(10.0, 110.0)
        with pytest.raises(RuntimeError):
            est.update(50.0, 105.0)  # behind the newest arrival, not the oldest
        assert est.n_window == 2


@pytest.mark.parametrize(
    "kwargs",
    [
        {"window_ms": 0.0},
        {"bin_ms": -1.0},
        {"percentile": 0.0},
        {"percentile": 1.5},
        {"loss_cost_ms": -1.0},
        {"initial_lag_ms": -1.0},
        {"max_lag_ms": 0.0},
        {"window_ms": float("nan")},
        {"window_ms": float("inf")},
        {"bin_ms": float("nan")},
        {"percentile": float("nan")},
        {"loss_cost_ms": float("nan")},
        {"loss_cost_ms": float("inf")},
        {"initial_lag_ms": float("nan")},
        {"initial_lag_ms": float("inf")},
        {"max_lag_ms": float("inf")},
    ],
)
def test_constructor_validation(kwargs):
    for cls in (JitterEstimator, TransitEstimator):
        with pytest.raises(ValidationError):
            cls(**kwargs)


def test_buffer_config_is_validated():
    # the buffer's estimator ignores loss_cost_ms but still rejects a bad one,
    # so a bad jitter flag is a validation error (exit 3) for every method
    with pytest.raises(ValidationError):
        build_jitter_manager(JitterConfig(kind="buffer", loss_cost_ms=-1.0), 10.0)


def _mixed_stream(n, seed):
    """Arrival stream with dense reordering, spikes, and eviction churn."""
    rng = np.random.default_rng(seed)
    ts_axis = np.arange(n) * 10.0
    transit = 40.0 + rng.gamma(2.0, 5.0, n)
    i = 0
    while i < n:
        if rng.random() < 0.02:
            width = int(rng.integers(3, 50))
            transit[i:i + width] += rng.uniform(30, 500)
            i += width
        else:
            i += 1
    arrival = ts_axis + transit
    order = np.argsort(arrival, kind="stable")
    return [(float(ts_axis[i]), float(arrival[i])) for i in order]


# ------------------------------------------------ estimator vs the cumsum oracle
#
# The estimators answer their quantile and cost-argmin queries from
# incremental pointers; ReferenceEstimator recomputes them from a cumulative
# sum on every query. Every stream drives both estimators: the transit-only
# one must keep the same transit target and window.

def _assert_matches_reference(stream, **kwargs):
    est = JitterEstimator(**kwargs)
    transit = TransitEstimator(**kwargs)
    ref = ReferenceEstimator(**kwargs)
    for ts, arrival in stream:
        lag = ref.update(ts, arrival)
        assert est.update(ts, arrival) == lag and est.lag_ms == lag == ref.lag_ms
        transit.update(ts, arrival)
        target = ref.transit_target()
        assert est.transit_target() == target and transit.transit_target() == target
        assert est.n_window == ref.n_window and transit.n_window == ref.n_window
        assert (est.jitter_lag_ms, est.reorder_depth_ms, est.disorder, est.n_jitter_samples,
                est.last_in_order) == (ref.jitter_lag_ms, ref.reorder_depth_ms, ref.disorder,
                                       ref.n_jitter_samples, ref.last_in_order)
    return est


@pytest.fixture(scope="module")
def bursty_streams():
    return [[(p.ts, p.arrival) for p in bursty_packets(np.random.default_rng(seed), 1500)]
            for seed in (17, 18)]


@pytest.mark.parametrize("bin_ms", [0.1, 0.5, 1.0, 3.0])
def test_pure_twin_matches_reference(bursty_streams, bin_ms):
    for percentile, loss_cost_ms, window_ms in itertools.product(
            (0.5, 0.9, 0.95, 1.0), (10.0, 100.0, 400.0), (500.0, 2000.0)):
        for stream in bursty_streams:
            _assert_matches_reference(stream, bin_ms=bin_ms, percentile=percentile,
                                      loss_cost_ms=loss_cost_ms, window_ms=window_ms)


def test_pure_twin_matches_reference_at_the_lag_clamp(bursty_streams):
    for stream in bursty_streams:
        est = _assert_matches_reference(stream, percentile=1.0, loss_cost_ms=400.0,
                                        max_lag_ms=50.0)
        assert est.lag_ms <= 50.0 and est.transit_target() <= 51.0


def test_long_mixed_stream_matches_reference():
    # dense reordering and eviction churn over 20k arrivals
    _assert_matches_reference(_mixed_stream(20_000, seed=8), window_ms=500.0, bin_ms=1.0,
                              percentile=0.95, loss_cost_ms=100.0, initial_lag_ms=0.0,
                              max_lag_ms=10000.0)


def test_window_empties_and_refills():
    # rising transits leave both median pointers high (jitter 100, transit
    # 105). A gap longer than the window then evicts every sample; the first
    # arrival after it adds the drop (jitter 301) and the next ones low
    # samples, so the pointers walk back down over the emptied bins
    stream = [(0.0, 5.0), (10.0, 115.0), (20.0, 225.0), (30.0, 335.0),
              (2000.0, 2004.0), (2010.0, 2014.0), (2020.0, 2025.0)]
    est = _assert_matches_reference(stream[:4], window_ms=1000.0, percentile=0.5)
    assert (est.lag_ms, est.transit_target()) == (100.0, 106.0)
    est = _assert_matches_reference(stream, window_ms=1000.0, percentile=0.5)
    assert est.n_window == 3 and est.n_jitter_samples == 3
    assert (est.lag_ms, est.transit_target()) == (1.0, 5.0)


def _episode(jitters, straggler_ts, **kwargs):
    """In-order arrivals with the given jitter samples at a 10 ms cadence,
    then one straggler generated at `straggler_ts`, which opens a reordering
    episode: its lag is the ratchet's cost argmin over those samples."""
    ts, arrival = 0.0, 5.0
    stream = [(ts, arrival)]
    for j in jitters:
        ts += 10.0
        arrival += 10.0 + j
        stream.append((ts, arrival))
    stream.append((straggler_ts, arrival))
    return _assert_matches_reference(stream, window_ms=1e9, percentile=0.5, **kwargs)


def test_ratchet_moves_past_the_lag():
    # jitter {0, 0, 30, 30}: the median holds the lag at 0 until the
    # straggler; then cost(0) = 100 * 2/4 = 50 > cost(30) = 30 + 0
    est = _episode([0.0, 0.0, 30.0, 30.0], 35.0, loss_cost_ms=100.0)
    assert est.disorder and est.reorder_depth_ms == 0.0
    assert est.jitter_lag_ms == 30.0


def test_ratchet_tie_keeps_the_lag():
    # jitter {0, 0, 50, 50}: cost(50) = 50 + 0 ties cost(0) = 100 * 2/4, and
    # the first minimum, under the lag, wins
    est = _episode([0.0, 0.0, 50.0, 50.0], 35.0, loss_cost_ms=100.0)
    assert est.disorder and est.reorder_depth_ms == 0.0
    assert est.jitter_lag_ms == 0.0
    # one more unit of loss cost breaks the tie toward 50
    est = _episode([0.0, 0.0, 50.0, 50.0], 35.0, loss_cost_ms=101.0)
    assert est.jitter_lag_ms == 50.0



# ------------------------------------------- whole-stream passes, chunk by chunk
#
# ``lags`` and ``targets`` must equal per-call ``update`` (and
# ``transit_target``) at every arrival, and leave the same state: against the
# reference for every observable, and against a twin driven call by call for
# every observable and every later output, since both are driven on over the
# rest of the same stream.

def _observed(est):
    """Everything an estimator shows of its state without changing it."""
    if isinstance(est, (JitterEstimator, ReferenceEstimator)):
        return (est.lag_ms, est.jitter_lag_ms, est.reorder_depth_ms, est.disorder,
                est.last_in_order, est.n_window, est.n_jitter_samples)
    return (est.n_window,)


def _drive_on(est, twin, stream):
    """Drive two estimators over the same arrivals, call by call: every
    output, observable and transit target must agree."""
    for ts, ta in stream:
        assert est.update(ts, ta) == twin.update(ts, ta)
        assert est.transit_target() == twin.transit_target()
        assert _observed(est) == _observed(twin)


def _gapped_stream(seed, n, gap_at, gap_ms, whole_ms):
    """bursty_packets, with every arrival from ``gap_at`` on (and its ts)
    moved ``gap_ms`` later: a gap longer than the window empties it. With
    ``whole_ms`` the arrivals are rounded to whole ms, so transits tie and
    arrivals land exactly a window or a guard time apart."""
    stream = [(p.ts, float(round(p.arrival)) if whole_ms else p.arrival)
              for p in bursty_packets(np.random.default_rng(seed), n)]
    return [(ts + gap_ms, ta + gap_ms) if i >= gap_at else (ts, ta)
            for i, (ts, ta) in enumerate(stream)]


def _splits(stream, marks, window_ms, rng, longest):
    """Chunk ends: random ones (1-arrival chunks among them, none longer than
    ``longest``) plus a few at each case a pass must carry across a split.
    ``marks`` flags, per case, the arrivals after which the reference was in
    that case. Returns the ends and the cases the stream reaches."""
    cases = {case: [i + 1 for i, hit in enumerate(flags) if hit]
             for case, flags in marks.items()}
    cases["before an emptied window"] = [i for i in range(1, len(stream))
                                         if stream[i][1] - stream[i - 1][1] > window_ms]
    cases = {case: at for case, at in cases.items() if at}
    ends = {len(stream)} | {int(rng.choice(at)) for at in cases.values() for _ in range(3)}
    lo = 0
    while lo < len(stream):
        lo += min(int(rng.choice([1, 1, 2, 5, 17, 60, 300])), longest)
        ends.add(min(lo, len(stream)))
    return sorted(ends), set(cases)


@pytest.mark.parametrize("longest", [4096, 7])
@pytest.mark.parametrize("kwargs, clamped", [
    ({"window_ms": 500.0, "percentile": 1.0, "loss_cost_ms": 400.0, "max_lag_ms": 50.0,
      "initial_lag_ms": 80.0}, True),
    ({"window_ms": 500.0, "percentile": 0.95, "loss_cost_ms": 100.0}, False),
], ids=["clamped", "default-max"])
@pytest.mark.parametrize("whole_ms", [False, True])
@pytest.mark.parametrize("bin_ms", [1.0, 2.5])
def test_passes_match_update_in_chunks(longest, kwargs, clamped, bin_ms, whole_ms):
    kwargs = {**kwargs, "bin_ms": bin_ms}
    stream = _gapped_stream(21, 2500, 1200, 2 * kwargs["window_ms"], whole_ms)
    last_edge = int(kwargs.get("max_lag_ms", 10000.0) / bin_ms) * bin_ms
    ref = ReferenceEstimator(**kwargs)
    want_lags, want_targets, ref_states = [], [], []
    marks = {"in an open episode": [], "at the lag clamp": [], "at the last-bin clamp": []}
    for ts, ta in stream:
        want_lags.append(ref.update(ts, ta))
        want_targets.append(ref.transit_target())
        ref_states.append(_observed(ref))
        marks["in an open episode"].append(ref.disorder)
        marks["at the lag clamp"].append(ref.lag_ms == ref.max_lag_ms)
        marks["at the last-bin clamp"].append(ref.reorder_depth_ms == last_edge)
    rng = np.random.default_rng(int(bin_ms * 10) + longest)
    ends, cases = _splits(stream, marks, kwargs["window_ms"], rng, longest)
    assert {"in an open episode", "before an emptied window"} <= cases
    assert clamped == ({"at the lag clamp", "at the last-bin clamp"} <= cases)
    est, twin = JitterEstimator(**kwargs), JitterEstimator(**kwargs)
    transit, transit_twin = TransitEstimator(**kwargs), TransitEstimator(**kwargs)
    modes = set()
    lo = 0
    for hi in ends:
        ts, ta = (np.array(col) for col in zip(*stream[lo:hi]))
        mode = ("lags", "targets", "update")[int(rng.integers(3))]
        modes.add(mode)
        if mode == "update":
            got = [est.update(t, a) for t, a in stream[lo:hi]]
            assert got == want_lags[lo:hi]
            for t, a in stream[lo:hi]:
                transit.update(t, a)
        else:
            column = est.lags(ts, ta) if mode == "lags" else est.targets(ts, ta)
            want = want_lags if mode == "lags" else want_targets
            assert column.tolist() == want[lo:hi], (mode, lo)
            assert transit.targets(ts, ta).tolist() == want_targets[lo:hi]
        for i in range(lo, hi):
            assert twin.update(*stream[i]) == want_lags[i]
            transit_twin.update(*stream[i])
        # est goes on from the state this chunk left, so every later chunk
        # also checks that state against the twin's
        assert _observed(est) == _observed(twin) == ref_states[hi - 1], mode
        assert _observed(transit) == _observed(transit_twin)
        assert est.transit_target() == twin.transit_target() == want_targets[hi - 1]
        assert transit.transit_target() == transit_twin.transit_target() == want_targets[hi - 1]
        assert transit.n_window == est.n_window
        lo = hi
    assert modes == {"lags", "targets", "update"}


# (seed, packets, whole-ms arrivals, estimator kwargs) of a stream with an
# out-of-order arrival in an episode whose ratchet call moves the lag
RATCHET_CASES = {
    "after an eviction": (0, 3000, False,
                          {"window_ms": 500.0, "bin_ms": 1.0, "loss_cost_ms": 100.0}),
    "right after a raise": (23, 2000, True, {"window_ms": 500.0, "bin_ms": 2.5,
                                             "percentile": 0.5, "loss_cost_ms": 30.0}),
}


@pytest.mark.parametrize("case", sorted(RATCHET_CASES))
def test_lags_match_the_reference_where_the_ratchet_moves_without_a_sample(case):
    # two places where the ratchet moves though no sample was added: at an
    # out-of-order arrival after one sample left the window, and with the
    # histogram unchanged but right after a call that raised it
    seed, n, whole_ms, kwargs = RATCHET_CASES[case]
    stream = _gapped_stream(seed, n, n, 0.0, whole_ms)
    ref = ReferenceEstimator(**kwargs)
    want, reached, raised = [], False, False
    for ts, ta in stream:
        lag, samples = ref.jitter_lag_ms, ref.n_jitter_samples
        want.append(ref.update(ts, ta))
        if ref.disorder and not ref.last_in_order and ref.jitter_lag_ms != lag:
            reached |= (ref.n_jitter_samples < samples if case == "after an eviction"
                        else ref.n_jitter_samples == samples and raised)
        raised = ref.disorder and ref.jitter_lag_ms > lag
    assert reached
    ts, ta = (np.array(col) for col in zip(*stream))
    assert JitterEstimator(**kwargs).lags(ts, ta).tolist() == want


# a stream that moves every part of the state: jitter samples, a reorder
# run that opens an episode and deepens the hold, then an orderly stretch
LATER = [(20.0, 121.0), (40.0, 125.0), (30.0, 126.0), (50.0, 140.0), (60.0, 300.0),
         (70.0, 301.0)] + [(80.0 + 10 * i, 310.0 + 10 * i) for i in range(30)]


def _fed(cls):
    est = cls()
    est.update(0.0, 100.0)
    est.update(10.0, 110.0)
    return est


def test_empty_pass_changes_nothing():
    est = JitterEstimator()
    est.update(0.0, 50.0)
    before = _observed(est)
    assert est.lags([], []).size == 0 and est.targets([], []).size == 0
    assert _observed(est) == before
    twin = JitterEstimator()
    twin.update(0.0, 50.0)
    _drive_on(est, twin, LATER)


INF, NAN = math.inf, math.nan


@pytest.mark.parametrize("cls", [JitterEstimator, TransitEstimator])
def test_pass_rejects_what_update_rejects_before_any_state_change(cls):
    est = _fed(cls)
    before = _observed(est), est.transit_target()
    passes = [est.targets] + ([est.lags] if cls is JitterEstimator else [])
    bad = [
        # (ts, ta, what update raises at the first bad arrival)
        ([20.0, 30.0, 50.0], [120.0, 130.0, 40.0], ValueError),  # arrival before ts
        ([20.0], [105.0], RuntimeError),  # behind the newest arrival before the pass
        ([20.0, 30.0, 40.0, 60.0], [120.0, 130.0, 125.0, 50.0], RuntimeError),
        ([20.0, 30.0, 40.0], [120.0, 130.0, 35.0], ValueError),  # both: ts checked first
        # a non-finite ts or arrival, even one a window's length on
        ([20.0], [INF], ValueError),
        ([20.0, 30.0], [120.0, NAN], ValueError),
        ([INF], [130.0], ValueError),
        ([20.0, NAN], [120.0, 130.0], ValueError),
        ([-INF], [120.0], ValueError),
        ([20.0, 30.0], [5000.0, INF], ValueError),
    ]
    for run in passes:
        for ts, ta, error in bad:
            with pytest.raises(error):
                run(np.array(ts), np.array(ta))
            assert (_observed(est), est.transit_target()) == before
    for ts, ta, error in bad:
        twin = _fed(cls)
        good = 0
        with pytest.raises(error):
            for t, a in zip(ts, ta):
                twin.update(t, a)
                good += 1
        # update raised before changing anything: the twin is in the state
        # of the arrivals before the bad one
        prefix = _fed(cls)
        for t, a in zip(ts[:good], ta[:good]):
            prefix.update(t, a)
        assert _observed(twin) == _observed(prefix)
        if not good:
            _drive_on(twin, prefix, LATER)
    _drive_on(est, _fed(cls), LATER)
