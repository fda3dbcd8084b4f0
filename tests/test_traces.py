"""Trace parsing, zero-order-hold lookup, and synthetic generation."""

import numpy as np
import pytest

from relaysim import (
    LatencyTrace,
    Node,
    SyntheticTraceSpec,
    Topology,
    TraceParseError,
    ValidationError,
    generate_synthetic,
    ingest_trace,
    load_topology,
    save_topology,
)
from relaysim.traces import (
    SPIKE_FACTOR_RANGE,
    synth_link_samples,
    trace_summary,
    write_trace_csv,
)


def test_zero_order_hold_boundaries():
    trace = LatencyTrace("A", "B", [0.0, 1000.0, 2500.0], [100.0, 104.5, 90.0])
    assert trace.sample(-5.0) == 100.0     # before the first sample: first value
    assert trace.sample(0.0) == 100.0      # exactly at a sample: that value
    assert trace.sample(999.99) == 100.0   # just before the next sample
    assert trace.sample(1000.0) == 104.5
    assert trace.sample(2499.0) == 104.5
    assert trace.sample(2500.0) == 90.0
    assert trace.sample(1e9) == 90.0       # after the last sample: last value
    times = [-5.0, 0.0, 999.99, 1000.0, 2499.0, 2500.0, 1e9]
    assert trace.at(np.array(times)).tolist() == [trace.sample(t) for t in times]


def test_single_sample_trace_is_constant():
    trace = LatencyTrace("A", "B", [10.0], [42.0])
    for t in (-100.0, 0.0, 10.0, 1e6):
        assert trace.sample(t) == 42.0


@pytest.mark.parametrize(
    "ts, lat",
    [
        ([], []),
        ([0.0, 0.0], [1.0, 1.0]),       # non-increasing timestamps
        ([0.0, 1.0], [1.0, -2.0]),      # nonpositive latency
        ([0.0, 1.0], [1.0, float("nan")]),
        ([0.0, 1.0], [1.0]),            # length mismatch
    ],
)
def test_trace_validation(ts, lat):
    with pytest.raises(ValidationError):
        LatencyTrace("A", "B", ts, lat)


def test_ingest_header_comments_and_values(tmp_path):
    p = tmp_path / "link.csv"
    p.write_text(
        "# generated fixture\n"
        "timestamp_ms,src_node,dst_node,latency_ms\n"
        "0,A,B,100.0\n"
        "# mid-file comment\n"
        "1000,A,B,104.5\n"
    )
    trace = ingest_trace(p)
    assert trace.link == ("A", "B")
    assert trace.timestamps_ms.tolist() == [0.0, 1000.0]
    assert trace.latencies_ms.tolist() == [100.0, 104.5]


def test_ingest_headerless_file(tmp_path):
    p = tmp_path / "link.csv"
    p.write_text("0,A,B,100.0\n500,A,B,90.0\n")
    trace = ingest_trace(p)
    assert len(trace) == 2
    assert trace.latencies_ms.tolist() == [100.0, 90.0]


def test_ingest_rtt_halved(tmp_path):
    p = tmp_path / "link.csv"
    p.write_text("timestamp_ms,src_node,dst_node,latency_ms\n0,A,B,100.0\n1,A,B,85.0\n")
    trace = ingest_trace(p, unit="rtt")
    assert trace.latencies_ms.tolist() == [50.0, 42.5]
    with pytest.raises(ValidationError):
        ingest_trace(p, unit="half-rtt")


def test_ingest_malformed_row_names_line(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("timestamp_ms,src_node,dst_node,latency_ms\n0,A,B,100.0\n1,A,B\n")
    with pytest.raises(TraceParseError, match="line 3"):
        ingest_trace(p)
    p.write_text("timestamp_ms,src_node,dst_node,latency_ms\nzero,A,B,100.0\n")
    with pytest.raises(TraceParseError, match="line 2"):
        ingest_trace(p)


def test_ingest_mixed_links_rejected(tmp_path):
    p = tmp_path / "mixed.csv"
    p.write_text("timestamp_ms,src_node,dst_node,latency_ms\n0,A,B,100.0\n1,A,C,100.0\n")
    with pytest.raises(ValidationError, match="mixed links"):
        ingest_trace(p)


def test_ingest_empty_file_rejected(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("timestamp_ms,src_node,dst_node,latency_ms\n")
    with pytest.raises(ValidationError, match="no samples"):
        ingest_trace(p)


def test_write_ingest_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(3)
    ts = np.cumsum(rng.uniform(0.5, 100.0, 50))
    lat = rng.uniform(0.3, 500.0, 50)
    trace = LatencyTrace("n1", "n2", ts, lat)
    path = tmp_path / "t.csv"
    write_trace_csv(trace, path)
    back = ingest_trace(path)
    # repr round-trips float64 exactly
    assert np.array_equal(back.timestamps_ms, trace.timestamps_ms)
    assert np.array_equal(back.latencies_ms, trace.latencies_ms)


def test_node_role_validation():
    Node("a", "relay")
    with pytest.raises(ValidationError):
        Node("a", "server")


def test_topology_lookup_and_errors():
    duration = 1000.0
    tr = LatencyTrace("A", "B", [0.0], [10.0])
    topo = Topology([Node("A", "endpoint"), Node("B", "user")], {("A", "B"): tr})
    assert topo.trace("A", "B").sample(duration) == 10.0
    assert topo.has_link("A", "B") and not topo.has_link("B", "A")
    with pytest.raises(ValidationError):
        topo.trace("B", "A")
    with pytest.raises(ValidationError):
        topo.node("C")
    with pytest.raises(ValidationError):  # trace keyed under the wrong link
        Topology([Node("A", "endpoint"), Node("B", "user")], {("B", "A"): tr})
    with pytest.raises(ValidationError):  # trace references unknown node
        Topology([Node("A", "endpoint")], {("A", "B"): tr})
    with pytest.raises(ValidationError):  # duplicate node names
        Topology([Node("A", "endpoint"), Node("A", "user")])


def test_synthetic_spec_validation():
    with pytest.raises(ValidationError):
        SyntheticTraceSpec(mean_range=(200.0, 100.0))
    with pytest.raises(ValidationError):
        SyntheticTraceSpec(std_choices=())
    with pytest.raises(ValidationError):
        SyntheticTraceSpec(regime="bursty")


def test_generate_synthetic_deterministic_and_order_free():
    spec = SyntheticTraceSpec(seed=7)
    links = [("a", "b"), ("b", "c"), ("c", "a")]
    t1 = generate_synthetic(spec, links, 5000.0, 10.0)
    t2 = generate_synthetic(spec, links, 5000.0, 10.0)
    t3 = generate_synthetic(spec, list(reversed(links)), 5000.0, 10.0)
    for link in links:
        a = t1.trace(*link).latencies_ms
        assert np.array_equal(a, t2.trace(*link).latencies_ms)
        # per-link rng substreams are keyed on the link name, so enumeration
        # order cannot change any trace
        assert np.array_equal(a, t3.trace(*link).latencies_ms)


def test_generate_synthetic_seed_changes_traces():
    links = [("a", "b")]
    t1 = generate_synthetic(SyntheticTraceSpec(seed=0), links, 5000.0, 10.0)
    t2 = generate_synthetic(SyntheticTraceSpec(seed=1), links, 5000.0, 10.0)
    assert not np.array_equal(t1.trace("a", "b").latencies_ms,
                              t2.trace("a", "b").latencies_ms)


def test_generate_synthetic_validation():
    spec = SyntheticTraceSpec()
    with pytest.raises(ValidationError):
        generate_synthetic(spec, [], 1000.0, 10.0)
    with pytest.raises(ValidationError):
        generate_synthetic(spec, [("a", "b"), ("a", "b")], 1000.0, 10.0)
    with pytest.raises(ValidationError):
        generate_synthetic(spec, [("a", "b")], 0.0, 10.0)


def test_generate_synthetic_roles_and_defaults():
    spec = SyntheticTraceSpec()
    topo = generate_synthetic(spec, [("e", "u")], 1000.0, 100.0,
                              roles={"e": "endpoint", "u": "user"})
    assert topo.node("e").role == "endpoint"
    assert topo.node("u").role == "user"
    topo2 = generate_synthetic(spec, [("e", "u")], 1000.0, 100.0)
    assert topo2.node("e").role == "relay"  # unnamed nodes default to relay


def test_spike_regime_inflates_and_floors():
    rng = np.random.default_rng(11)
    base = synth_link_samples(np.random.default_rng(11), 100.0, 10.0, 20000)
    spik = synth_link_samples(rng, 100.0, 10.0, 20000, "regime-switching-spikes")
    assert np.all(spik >= 0.1)
    assert np.all(base >= 0.1)
    # bursts are multiplicative (factors in SPIKE_FACTOR_RANGE), so the mean
    # rises well above the stationary mean
    assert spik.mean() > base.mean() * 1.05
    # bounded by the max factor applied to the base distribution's far tail
    assert spik.max() < SPIKE_FACTOR_RANGE[1] * (100.0 + 10.0 * 6)


def test_save_load_topology_roundtrip(tmp_path):
    spec = SyntheticTraceSpec(seed=5)
    topo = generate_synthetic(
        spec, [("e0", "u0"), ("u0", "e0")], 3000.0, 50.0,
        roles={"e0": "endpoint", "u0": "user"})
    manifest = save_topology(topo, tmp_path / "topology.json")
    back = load_topology(manifest)
    assert back.nodes == topo.nodes
    for link, trace in topo.traces.items():
        bt = back.trace(*link)
        assert np.array_equal(bt.timestamps_ms, trace.timestamps_ms)
        assert np.array_equal(bt.latencies_ms, trace.latencies_ms)


def test_load_topology_errors(tmp_path):
    with pytest.raises(ValidationError, match="not found"):
        load_topology(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(TraceParseError):
        load_topology(bad)
    bad.write_text('{"schema_version": 99}')
    with pytest.raises(ValidationError, match="schema_version"):
        load_topology(bad)


def test_trace_summary_fields():
    trace = LatencyTrace("A", "B", [0.0, 10.0, 20.0], [10.0, 20.0, 30.0])
    s = trace_summary(trace)
    assert s["samples"] == 3
    assert s["duration_ms"] == 20.0
    assert s["mean_ms"] == 20.0
    assert s["min_ms"] == 10.0 and s["max_ms"] == 30.0
