"""Property tests over small sessions, feedback-free and routed.

A session without a router (one path kept) hands its sorted arrival schedule
to the jitter manager's whole-stream pass; a routed one generates its packets
in blocks between plan adoptions. One rewarded end to end hands them over one
arrival at a time; one rewarded at transmit hands its final schedule to the
whole-stream pass after its loop.
For drawn link traces (constant, Gaussian and spike regimes), cadences and
jitter managers, every session must conserve its packets, emit no packet
before it arrives, play its packets out in seq order, pass relaybench's
replay gate (the arrivals replayed in (ta, seq) order through a fresh jitter
manager decide every fate and output time again), and equal the same session
played through one event queue by ``tests/engine_reference.py``. Its arrival
stream through a fresh estimator of its jitter config must give the lags (the
watermark's) or transit targets (the buffer's) of
``tests/estimator_reference.py``. A watermark session's arrivals played in
uneven chunks must give its output times and fates again, with a watermark
that never falls from one arrival to the next. A feedback-free session must
also equal itself run with a one-arm bandit, which takes feedback. A routed
session run again must give the same report bytes, and its watermark, if it
has one, must never fall from one ``on_arrival`` or ``play`` call to the next.
"""

import sys
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relaysim import (
    METHODS,
    JitterConfig,
    LatencyTrace,
    Node,
    RouterConfig,
    SessionConfig,
    Topology,
    Ucb1Router,
    WatermarkReorderer,
    method_config,
)
from relaysim import engine, run_session
from relaysim.jitter import FATES
from relaysim.traces import synth_link_samples
from engine_reference import reference_session
from estimator_reference import ReferenceEstimator

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "relaybench"))
import gates  # noqa: E402

WARMUP = 1000.0
REGIMES = ["constant", "stationary-gaussian", "regime-switching-spikes"]


@st.composite
def direct_sessions(draw):
    return {
        "regime": draw(st.sampled_from(REGIMES)),
        "mean": draw(st.floats(5.0, 200.0)),
        "std": draw(st.floats(0.5, 60.0)),
        "trace_step": draw(st.sampled_from([1.0, 10.0, 100.0])),
        "seed": draw(st.integers(0, 2**32 - 1)),
        "interval": draw(st.sampled_from([10.0, 20 / 3, 5.0, 20.0])),
        "packets": draw(st.integers(1, 300)),
        "jitter": draw(st.sampled_from(["watermark", "buffer"])),
    }


def _topology(s):
    ts = np.arange(0.0, WARMUP + s["packets"] * s["interval"] + s["trace_step"], s["trace_step"])
    if s["regime"] == "constant":
        lat = np.full(ts.size, s["mean"])
    else:
        rng = np.random.default_rng(s["seed"])
        lat = synth_link_samples(rng, s["mean"], s["std"], ts.size, s["regime"])
    # the reverse link lets a router that takes feedback run the same session
    rev = LatencyTrace("u0", "e0", [0.0], [40.0])
    return Topology([Node("e0", "endpoint"), Node("u0", "user")],
                    {("e0", "u0"): LatencyTrace("e0", "u0", ts, lat), ("u0", "e0"): rev})


def _assert_estimator_matches_reference(records, jitter):
    """The session's arrivals, in (ta, seq) order, through a fresh estimator
    of its jitter config and through the oracle: equal lags for the
    watermark, equal transit targets for the buffer, after every arrival."""
    est = jitter.make_estimator()
    ref = ReferenceEstimator(jitter.window_ms, jitter.bin_ms, jitter.percentile,
                             jitter.loss_cost_ms, jitter.initial_lag_ms, jitter.max_lag_ms)
    watermark = jitter.kind == "watermark"
    for ts, ta in gates.session_stream(records):
        lag = ref.update(ts, ta)
        if watermark:
            assert est.update(ts, ta) == lag
        else:
            est.update(ts, ta)
            assert est.transit_target() == ref.transit_target()


def _assert_played_in_seq_order(records):
    """Both managers hand packets out in ts order, which is seq order."""
    outs = [rec.to for rec in records if rec.fate != "dropped_late"]
    assert all(a <= b for a, b in zip(outs, outs[1:]))


@settings(max_examples=40, deadline=None)
@given(s=direct_sessions())
@example(s={"regime": "regime-switching-spikes", "mean": 150.0, "std": 30.0,
            "trace_step": 100.0, "seed": 1, "interval": 20 / 3, "packets": 300,
            "jitter": "buffer"})
@example(s={"regime": "regime-switching-spikes", "mean": 150.0, "std": 30.0,
            "trace_step": 100.0, "seed": 1, "interval": 20 / 3, "packets": 300,
            "jitter": "watermark"})
# one packet; a constant link at a non-dyadic cadence; and a buffer on a
# link that reorders so much that its cold first arrival is seq 9
@example(s={"regime": "stationary-gaussian", "mean": 50.0, "std": 20.0,
            "trace_step": 10.0, "seed": 5, "interval": 10.0, "packets": 1,
            "jitter": "buffer"})
@example(s={"regime": "constant", "mean": 37.0, "std": 1.0,
            "trace_step": 1.0, "seed": 0, "interval": 20 / 3, "packets": 300,
            "jitter": "watermark"})
@example(s={"regime": "stationary-gaussian", "mean": 150.0, "std": 60.0,
            "trace_step": 1.0, "seed": 0, "interval": 5.0, "packets": 300,
            "jitter": "buffer"})
def test_feedback_free_session_properties(s):
    topo = _topology(s)
    cfg = SessionConfig(endpoint="e0", user="u0", packet_count=s["packets"],
                        interval_ms=s["interval"], warmup_ms=WARMUP, seed=s["seed"],
                        jitter=JitterConfig(kind=s["jitter"]))
    res = run_session(topo, cfg)
    rep = res.report
    assert rep.delivered + rep.dropped_late == cfg.packet_count
    assert [rec.seq for rec in res.records] == list(range(cfg.packet_count))
    for rec in res.records:
        assert rec.fate in ("delivered", "flushed", "dropped_late")
        assert rec.fate == "dropped_late" or rec.to >= rec.ta
    _assert_played_in_seq_order(res.records)
    assert gates.check_session(res, cfg) == []

    plan = engine.plan_session
    with mock.patch.object(engine, "plan_session",
                           lambda topology, cfg: (*plan(topology, cfg)[:3], Ucb1Router([0]))):
        queued = run_session(topo, cfg)
    assert queued.records == res.records
    assert queued.report.to_json() == rep.to_json()
    oracle = reference_session(topo, cfg)
    assert oracle.records == res.records
    assert oracle.report.to_json() == rep.to_json()
    _assert_estimator_matches_reference(res.records, cfg.jitter)
    if cfg.jitter.kind == "watermark":
        _assert_watermark_rises_across_chunks(res.records, cfg, s["seed"])


def _assert_watermark_rises_across_chunks(records, cfg, seed):
    """The session's arrivals, in (ta, seq) order, through a fresh reorderer's
    ``play`` in uneven chunks: after each chunk the watermark is the one a
    reorderer fed the same arrivals one ``on_arrival`` at a time holds, which
    never falls, and the output times and fates are the session's."""
    n = len(records)
    ts = np.array([rec.ts for rec in records])
    ta = np.array([rec.ta for rec in records])
    order = np.array(sorted(range(n), key=lambda seq: (ta[seq], seq)), dtype=np.intp)
    stepped = engine.build_jitter_manager(cfg.jitter, cfg.interval_ms)
    marks = [stepped.watermark]
    for seq in order.tolist():
        stepped.on_arrival(records[seq], ta[seq])
        marks.append(stepped.watermark)
    assert all(a <= b for a, b in zip(marks, marks[1:]))

    to = np.full(n, np.nan)
    fate = np.zeros(n, np.int8)
    jm = engine.build_jitter_manager(cfg.jitter, cfg.interval_ms)
    rng = np.random.default_rng(seed)
    lo = 0
    while lo < n:  # chunks of 1 to 39 arrivals
        hi = min(lo + int(rng.integers(1, 40)), n)
        jm.play(order[lo:hi], ts, ta, to, fate)
        assert jm.watermark == marks[hi]
        lo = hi
    for em in jm.flush(float(ta.max())):
        to[em.seq] = em.out
        fate[em.seq] = FATES.index("flushed")
    assert [None if out != out else out for out in to.tolist()] == [rec.to for rec in records]
    assert [FATES[code] for code in fate.tolist()] == [rec.fate for rec in records]


@st.composite
def routed_sessions(draw):
    relays = draw(st.integers(1, 2))
    nodes = ["e0", "u0"] + [f"r{i}" for i in range(relays)]
    links = [(a, b) for a in nodes for b in nodes if a != b and (a, b) != ("u0", "e0")]
    return {
        "relays": relays,
        # per directed link: regime, mean and sd; u0->e0 carries feedback
        "links": {link: (draw(st.sampled_from(REGIMES)), draw(st.floats(5.0, 150.0)),
                         draw(st.floats(0.5, 40.0)))
                  for link in links + [("u0", "e0")]},
        "trace_step": draw(st.sampled_from([1.0, 10.0, 100.0])),
        "seed": draw(st.integers(0, 2**32 - 1)),
        "interval": draw(st.sampled_from([10.0, 20 / 3, 5.0, 20.0])),
        "packets": draw(st.integers(1, 700)),  # up to three blocks
        "method": draw(st.sampled_from(sorted(METHODS) + ["vcroute_ts+buffer"])),
        "prune": draw(st.booleans()),
        "c": draw(st.sampled_from([1.0, 2000.0])),
    }


def _relay_topology(s):
    ts = np.arange(0.0, WARMUP + s["packets"] * s["interval"] + s["trace_step"], s["trace_step"])
    rng = np.random.default_rng(s["seed"])
    traces = {}
    for (src, dst), (regime, mean, std) in s["links"].items():
        if regime == "constant":
            lat = np.full(ts.size, mean)
        else:
            lat = synth_link_samples(rng, mean, std, ts.size, regime)
        traces[(src, dst)] = LatencyTrace(src, dst, ts, lat)
    nodes = [Node("e0", "endpoint"), Node("u0", "user")]
    nodes += [Node(f"r{i}", "relay") for i in range(s["relays"])]
    return Topology(nodes, traces)


def _watermark_checked(build, checked):
    """``build_jitter_manager``, whose watermark reorderers assert after each
    ``on_arrival`` and each ``play`` call that the watermark has not fallen,
    and append the watermark to ``checked``."""
    def built(cfg, interval_ms):
        jm = build(cfg, interval_ms)
        if isinstance(jm, WatermarkReorderer):
            def checking(step):
                def call(*args):
                    result = step(*args)
                    assert not checked or jm.watermark >= checked[-1]
                    checked.append(jm.watermark)
                    return result
                return call

            jm.on_arrival = checking(jm.on_arrival)
            jm.play = checking(jm.play)
        return jm
    return built


@settings(max_examples=300, deadline=None)
@given(s=routed_sessions())
def test_routed_session_properties(s):
    topo = _relay_topology(s)
    template = SessionConfig(endpoint="e0", user="u0", packet_count=s["packets"],
                             interval_ms=s["interval"], warmup_ms=WARMUP, seed=s["seed"],
                             router=RouterConfig(c=s["c"], prune=s["prune"]))
    cfg = method_config(template, s["method"])
    res = run_session(topo, cfg, method=s["method"])
    rep = res.report
    assert rep.delivered + rep.dropped_late == cfg.packet_count
    assert [rec.seq for rec in res.records] == list(range(cfg.packet_count))
    for rec in res.records:
        assert rec.fate in ("delivered", "flushed", "dropped_late")
        assert rec.fate == "dropped_late" or rec.to >= rec.ta
    _assert_played_in_seq_order(res.records)
    assert gates.check_session(res, cfg) == []
    oracle = reference_session(topo, cfg, method=s["method"])
    assert oracle.records == res.records
    assert oracle.report.to_json() == rep.to_json()
    _assert_estimator_matches_reference(res.records, cfg.jitter)
    if cfg.jitter.kind == "watermark":
        # a session played after its loop reaches the watermark in one
        # play call; this checks it at every arrival
        _assert_watermark_rises_across_chunks(res.records, cfg, s["seed"])

    # the same session again, with the watermark checked at every call
    checked = []
    with mock.patch.object(engine, "build_jitter_manager",
                           _watermark_checked(engine.build_jitter_manager, checked)):
        repeat = run_session(topo, cfg, method=s["method"])
    assert repeat.report.to_json() == rep.to_json()
    # a watermark session rewarded end to end is checked at every arrival;
    # one rewarded at transmit, or pruned to one path and so without a
    # router, at the play call after its loop
    watermark = cfg.jitter.kind == "watermark"
    e2e = len(rep.topk_paths) > 1 and cfg.router.kind == "vcroute_ts"
    if not watermark:
        assert len(checked) == 0
    elif e2e:
        assert len(checked) == cfg.packet_count
    else:
        assert len(checked) == 1
