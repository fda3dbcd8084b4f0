"""Property tests over small feedback-free sessions.

A session whose router takes no feedback is played from its sorted arrival
schedule. For drawn link traces (constant, Gaussian and spike regimes),
cadences and jitter managers, every such session must conserve its packets,
emit no packet before it arrives, pass relaybench's replay gate (the
arrivals replayed in (ta, seq) order through a fresh jitter manager decide
every fate and output time again), and equal the same session played
through the event queue.
"""

import sys
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relaysim import JitterConfig, LatencyTrace, Node, SessionConfig, Topology, Ucb1Router
from relaysim import engine, run_session
from relaysim.traces import synth_link_samples

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "relaybench"))
import gates  # noqa: E402

WARMUP = 1000.0


@st.composite
def direct_sessions(draw):
    return {
        "regime": draw(st.sampled_from(
            ["constant", "stationary-gaussian", "regime-switching-spikes"])),
        "mean": draw(st.floats(5.0, 200.0)),
        "std": draw(st.floats(0.5, 60.0)),
        "trace_step": draw(st.sampled_from([1.0, 10.0, 100.0])),
        "seed": draw(st.integers(0, 2**32 - 1)),
        "interval": draw(st.sampled_from([10.0, 20 / 3, 5.0, 20.0])),
        "packets": draw(st.integers(1, 300)),
        "jitter": draw(st.sampled_from(["watermark", "buffer"])),
        "update_on_drop": draw(st.booleans()),
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


@settings(max_examples=40, deadline=None)
@given(s=direct_sessions())
@example(s={"regime": "regime-switching-spikes", "mean": 150.0, "std": 30.0,
            "trace_step": 100.0, "seed": 1, "interval": 20 / 3, "packets": 300,
            "jitter": "buffer", "update_on_drop": True})
@example(s={"regime": "regime-switching-spikes", "mean": 150.0, "std": 30.0,
            "trace_step": 100.0, "seed": 1, "interval": 20 / 3, "packets": 300,
            "jitter": "watermark", "update_on_drop": True})
def test_feedback_free_session_properties(s):
    topo = _topology(s)
    cfg = SessionConfig(endpoint="e0", user="u0", packet_count=s["packets"],
                        interval_ms=s["interval"], warmup_ms=WARMUP, seed=s["seed"],
                        jitter=JitterConfig(kind=s["jitter"], update_on_drop=s["update_on_drop"]))
    res = run_session(topo, cfg)
    rep = res.report
    assert rep.delivered + rep.dropped_late == cfg.packet_count
    assert [rec.seq for rec in res.records] == list(range(cfg.packet_count))
    for rec in res.records:
        assert rec.fate in ("delivered", "flushed", "dropped_late")
        assert rec.fate == "dropped_late" or rec.to >= rec.ta
    assert gates.check_session(res, cfg) == []

    with mock.patch.object(engine, "DirectRouter", lambda: Ucb1Router([0])):
        queued = run_session(topo, cfg)
    assert queued.records == res.records
    assert queued.report.to_json() == rep.to_json()
