"""Trace parsing, zero-order-hold lookup, and synthetic generation."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    required_links,
    save_topology,
)
from relaysim import traces
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


HEADER = "timestamp_ms,src_node,dst_node,latency_ms"

# (name, file content, whether the columnar read takes it). Every entry must
# give the same trace, or the same exception and message, as the row loop.
CORPUS = [
    ("lf", f"{HEADER}\n0,A,B,100.0\n10,A,B,90.5\n", True),
    ("crlf", f"{HEADER}\r\n0,A,B,100.0\r\n10,A,B,90.5\r\n", True),
    ("lf and crlf", f"{HEADER}\r\n0,A,B,1\n10,A,B,2\r\n", True),
    ("no header", "0,A,B,100.0\n10,A,B,90.5\n", True),
    ("header case and space", " Timestamp_MS ,s,d,l\n0,A,B,1\n", True),
    ("header of one field", "timestamp_ms\n0,A,B,1\n", True),
    ("leading comments", f"# one\n  # two, with a comma\n{HEADER}\n0,A,B,1\n", True),
    ("leading comments crlf", f"# one\r\n{HEADER}\r\n0,A,B,1\r\n", True),
    ("comment after header", f"{HEADER}\n# c\n0,A,B,1\n", False),
    ("mid-file comment", f"{HEADER}\n0,A,B,1\n# c\n10,A,B,2\n", False),
    ("blank line", f"{HEADER}\n0,A,B,1\n\n10,A,B,2\n", False),
    ("blank line before header", f"\n{HEADER}\n0,A,B,1\n", False),
    ("blank last line", f"{HEADER}\n0,A,B,1\n\n", False),
    ("whitespace-only line", f"{HEADER}\n0,A,B,1\n   \n10,A,B,2\n", False),
    ("quoted fields", f'{HEADER}\n0,"A",B,1\n10,"A",B,2\n', False),
    ("quoted comma", f'{HEADER}\n0,"A,x",B,1\n', False),
    ("quote in a leading comment", f'# say "hi"\n{HEADER}\n0,A,B,1\n', False),
    ("spaces around names, mixed", f"{HEADER}\n0, A ,B,1\n10,A,B,2\n", False),
    ("spaces around names, same", f"{HEADER}\n0, A , B ,1\n10, A , B ,2\n", True),
    ("spaces around numbers", f"{HEADER}\n 0 ,A,B, 1.5 \n", True),
    ("underscores", f"{HEADER}\n1_000,A,B,2_5\n", True),
    ("non-ascii digits and space", f"{HEADER}\n\u0661\u0660,A,B,\u00a01.5\n", True),
    ("inf latency", f"{HEADER}\n0,A,B,inf\n", True),
    ("nan latency", f"{HEADER}\n0,A,B,nan\n", True),
    ("nan timestamp alone", f"{HEADER}\nnan,A,B,1\n", True),
    ("infinite timestamps", f"{HEADER}\n-inf,A,B,1\n0,A,B,1\ninf,A,B,2\n", True),
    ("no final newline", f"{HEADER}\n0,A,B,1\n10,A,B,2", True),
    ("no final newline crlf", f"{HEADER}\r\n0,A,B,1\r\n10,A,B,2", True),
    ("bare cr", f"{HEADER}\r0,A,B,1\r10,A,B,2\r", False),
    ("bare cr in a name", f"{HEADER}\n0,A\rB,C,1\n", False),
    ("header only", f"{HEADER}\n", False),
    ("empty file", "", False),
    ("comments only", "# nothing here\n", False),
    ("three columns", f"{HEADER}\n0,A,B,1\n10,A,B\n", False),
    ("five columns", f"{HEADER}\n0,A,B,1,9\n", False),
    ("seven then one column", "0,1,1,1,1,1,1\n5\n", False),
    ("mixed link on line 2", f"0,A,B,1\n10,A,C,2\n", False),
    ("mixed link on the last line", f"{HEADER}\n0,A,B,1\n10,A,B,2\n20,C,B,3", False),
    ("bad latency", f"{HEADER}\n0,A,B,fast\n", False),
    ("bad timestamp", f"{HEADER}\nzero,A,B,1\n", False),
    ("hex float", f"{HEADER}\n0x10,A,B,1\n", False),
    ("hash in a name", f"{HEADER}\n0,A#1,B,1\n", False),
    ("nul", f"{HEADER}\n0,A,B,1\x00\n", False),
    ("timestamps repeat", f"{HEADER}\n10,A,B,1\n10,A,B,1\n", True),
    ("negative latency", f"{HEADER}\n0,A,B,-1\n", True),
    ("not utf-8", f"{HEADER}\n0,A,B,1\n10,A,B,2\n".encode() + b"\xff\n", False),
]


def _outcome(path, unit="one-way"):
    try:
        trace = ingest_trace(path, unit=unit)
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)
    return trace.link, trace.timestamps_ms.tobytes(), trace.latencies_ms.tobytes()


@pytest.mark.parametrize("block_chars", [traces._BLOCK_CHARS, 7])
@pytest.mark.parametrize("name, content, columnar", CORPUS, ids=[c[0] for c in CORPUS])
def test_columnar_read_matches_the_row_loop(tmp_path, monkeypatch, name, content,
                                            columnar, block_chars):
    path = tmp_path / "link.csv"
    if isinstance(content, str):
        path.write_text(content, newline="")
    else:
        path.write_bytes(content)
    # tiny blocks put block edges inside lines, CRLF pairs and fields
    monkeypatch.setattr(traces, "_BLOCK_CHARS", block_chars)
    assert (traces._read_columns(path) is not None) == columnar
    got = [_outcome(path, unit) for unit in ("one-way", "rtt")]
    monkeypatch.setattr(traces, "_read_columns", lambda path: None)
    assert got == [_outcome(path, unit) for unit in ("one-way", "rtt")]


def test_columnar_read_keeps_the_csv_field_limit(tmp_path, monkeypatch):
    # csv.reader raises on a field longer than its limit; the columnar read
    # must leave such a file to it, and the row loop names the file and line
    limit = csv.field_size_limit()
    try:
        csv.field_size_limit(8)
        cases = [("0,A,B,1\n10,A,B,1234.567\n", True),   # 8 characters: allowed
                 ("0,A,B,1\n10,A,B,1234.5678\n", False),  # 9: csv.Error
                 ("# a long comment\n0,A,B,1\n", False),
                 ("0,A,Bravo_nine,1\n", False)]
        for content, columnar in cases:
            path = tmp_path / "link.csv"
            path.write_text(content)
            assert (traces._read_columns(path) is not None) == columnar
            got = _outcome(path)
            with monkeypatch.context() as m:
                m.setattr(traces, "_read_columns", lambda path: None)
                assert got == _outcome(path)
            if not columnar:
                assert got[0] is TraceParseError
                assert got[1].startswith("link.csv line ")
                assert got[1].endswith(": field larger than field limit (8)")
    finally:
        csv.field_size_limit(limit)


def test_columnar_read_spans_blocks(tmp_path):
    n = traces._BLOCK_CHARS // 10
    ts = np.arange(n, dtype=np.float64) * 0.1
    lat = 100.0 + np.sin(ts)
    trace = LatencyTrace("e0", "u0", ts, lat)
    path = tmp_path / "long.csv"
    write_trace_csv(trace, path)
    assert path.stat().st_size > 3 * traces._BLOCK_CHARS
    back = ingest_trace(path)
    assert back.timestamps_ms.tobytes() == ts.tobytes()
    assert back.latencies_ms.tobytes() == lat.tobytes()
    # a mixed link deep in the file still reaches the row loop's message
    lines = path.read_text().splitlines(keepends=True)
    lines[-2] = lines[-2].replace("e0,u0", "e0,u1")
    path.write_text("".join(lines))
    with pytest.raises(ValidationError, match=f"line {len(lines) - 1}: mixed links"):
        ingest_trace(path)


_names = st.from_regex(r"[A-Za-z0-9_.-]{1,6}", fullmatch=True)
_latencies = st.one_of(st.sampled_from([5e-324, 1e308]),
                       st.floats(min_value=5e-324, max_value=1e308))


@settings(max_examples=60, deadline=None)
@given(src=_names, dst=_names,
       samples=st.lists(st.tuples(st.floats(allow_nan=False, allow_infinity=False), _latencies),
                        min_size=1, max_size=30, unique_by=lambda s: s[0]))
@example(src="a", dst="b", samples=[(0.0, 5e-324), (1.0, 1e308)])
def test_write_ingest_roundtrip_is_exact(tmp_path_factory, src, dst, samples):
    samples.sort()
    ts = np.array([t for t, _ in samples])
    lat = np.array([x for _, x in samples])
    path = tmp_path_factory.getbasetemp() / "roundtrip.csv"
    write_trace_csv(LatencyTrace(src, dst, ts, lat), path)
    assert traces._read_columns(path) is not None
    back = ingest_trace(path)
    assert back.link == (src, dst)
    assert back.timestamps_ms.tobytes() == ts.tobytes()
    assert back.latencies_ms.tobytes() == lat.tobytes()


def _csv_writer_reference(trace):
    """The bytes of one csv.writer row per sample, numbers written by repr."""
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(["timestamp_ms", "src_node", "dst_node", "latency_ms"])
    for t, lat in zip(trace.timestamps_ms, trace.latencies_ms):
        writer.writerow([repr(float(t)), trace.src, trace.dst, repr(float(lat))])
    return out.getvalue().encode()


# node names with what csv must quote (delimiter, quote, CR, LF), what it must
# leave bare (space, '#', braces) and the empty name
_awkward_names = st.text(alphabet=st.sampled_from('a,"\r\n #{}'), max_size=6)


@settings(max_examples=60, deadline=None)
@given(src=_awkward_names, dst=_awkward_names,
       samples=st.lists(st.tuples(st.floats(allow_nan=False, allow_infinity=False), _latencies),
                        min_size=1, max_size=10, unique_by=lambda s: s[0]))
@example(src='a,b', dst='say "hi"', samples=[(0.0, 5e-324), (1e16, 1e308)])
@example(src="\r", dst="\n", samples=[(-0.0, 0.1)])
@example(src="", dst="", samples=[(0.0, 1.0)])
def test_write_trace_csv_bytes_equal_a_csv_writer(tmp_path_factory, src, dst, samples):
    samples.sort()
    trace = LatencyTrace(src, dst, [t for t, _ in samples], [x for _, x in samples])
    path = tmp_path_factory.getbasetemp() / "written.csv"
    write_trace_csv(trace, path)
    assert path.read_bytes() == _csv_writer_reference(trace)


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


def test_generate_synthetic_links_share_one_read_only_grid():
    links = [("a", "b"), ("b", "a"), ("a", "c")]
    topo = generate_synthetic(SyntheticTraceSpec(seed=2), links, 5000.0, 10.0)
    grid = topo.trace("a", "b").timestamps_ms
    assert all(trace.timestamps_ms is grid for trace in topo.traces.values())
    assert np.array_equal(grid, np.arange(0.0, 5000.0, 10.0))
    assert not grid.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        topo.trace("b", "a").timestamps_ms[0] = 1.0


def test_generate_synthetic_validation():
    spec = SyntheticTraceSpec()
    with pytest.raises(ValidationError):
        generate_synthetic(spec, [], 1000.0, 10.0)
    with pytest.raises(ValidationError):
        generate_synthetic(spec, [("a", "b"), ("a", "b")], 1000.0, 10.0)
    with pytest.raises(ValidationError):
        generate_synthetic(spec, [("a", "b")], 0.0, 10.0)
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValidationError, match="finite and positive"):
            generate_synthetic(spec, [("a", "b")], bad, 10.0)
        with pytest.raises(ValidationError, match="finite and positive"):
            generate_synthetic(spec, [("a", "b")], 1000.0, bad)


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
    # true and 1.0 equal 1 in Python, but are not the JSON integer 1
    for version in ("99", "true", "1.0"):
        bad.write_text(f'{{"schema_version": {version}}}')
        with pytest.raises(ValidationError, match="schema_version"):
            load_topology(bad)


def _saved_manifest(tmp_path):
    topo = generate_synthetic(SyntheticTraceSpec(seed=5), [("e0", "u0"), ("u0", "e0")],
                              1000.0, 100.0, roles={"e0": "endpoint", "u0": "user"})
    manifest = save_topology(topo, tmp_path / "topology.json")
    return manifest, json.loads(manifest.read_text())


def test_load_topology_rejects_a_repeated_link(tmp_path):
    manifest, doc = _saved_manifest(tmp_path)
    doc["traces"].append(dict(doc["traces"][0]))
    manifest.write_text(json.dumps(doc))
    link = f"{doc['traces'][0]['src']}->{doc['traces'][0]['dst']}"
    with pytest.raises(ValidationError, match=f"topology.json: duplicate link {link}"):
        load_topology(manifest)


@pytest.mark.parametrize("section, key", [("nodes", "name"), ("nodes", "role"),
                                          ("traces", "src"), ("traces", "dst"),
                                          ("traces", "file")])
def test_load_topology_names_a_missing_key(tmp_path, section, key):
    manifest, doc = _saved_manifest(tmp_path)
    del doc[section][1][key]
    manifest.write_text(json.dumps(doc))
    kind = section[:-1]
    with pytest.raises(ValidationError, match=f"{kind} entry 1 has no '{key}'"):
        load_topology(manifest)
    doc[section][1] = key
    manifest.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match=f"{kind} entry 1 is not an object"):
        load_topology(manifest)
    manifest.write_text("[]")
    with pytest.raises(ValidationError, match="must be a JSON object"):
        load_topology(manifest)


@pytest.mark.parametrize("section, key", [("nodes", "name"), ("nodes", "role"),
                                          ("traces", "src"), ("traces", "dst"),
                                          ("traces", "file"), ("traces", "unit")])
@pytest.mark.parametrize("value", [5, ["x"], True])
def test_load_topology_names_a_value_that_is_not_a_string(tmp_path, section, key, value):
    manifest, doc = _saved_manifest(tmp_path)
    doc[section][1][key] = value
    manifest.write_text(json.dumps(doc))
    kind = section[:-1]
    message = f"topology.json: {kind} entry 1: '{key}' must be a string, not {value!r}"
    with pytest.raises(ValidationError) as exc:
        load_topology(manifest)
    assert str(exc.value) == message


def _mesh_manifest(tmp_path):
    """A saved eight-link topology; one file is read by the row loop, one is rtt."""
    links = required_links("e0", "u0", ["r0", "r1"], include_reverse=True)
    topo = generate_synthetic(SyntheticTraceSpec(seed=3), links, 2000.0, 10.0,
                              roles={"e0": "endpoint", "u0": "user"})
    manifest = save_topology(topo, tmp_path / "topology.json")
    doc = json.loads(manifest.read_text())
    quoted, src = tmp_path / doc["traces"][1]["file"], doc["traces"][1]["src"]
    quoted.write_text(quoted.read_text().replace(f",{src},", f',"{src}",', 1))
    doc["traces"][2]["unit"] = "rtt"
    manifest.write_text(json.dumps(doc))
    return manifest, doc


def test_load_topology_is_the_same_at_any_jobs(tmp_path):
    manifest, doc = _mesh_manifest(tmp_path)
    assert traces._read_columns(tmp_path / doc["traces"][1]["file"]) is None

    def read(topology):
        return topology.nodes, [(link, t.timestamps_ms.tobytes(), t.latencies_ms.tobytes())
                                for link, t in topology.traces.items()]

    serial = read(load_topology(manifest))
    assert [link for link, *_ in serial[1]] == [(t["src"], t["dst"]) for t in doc["traces"]]
    for jobs in (1, 2, 3):
        assert read(load_topology(manifest, jobs)) == serial


def _bad_row_then_missing_file(tmp_path, doc):
    first = tmp_path / doc["traces"][0]["file"]
    first.write_text(first.read_text() + "99999,e0,r0,oops\r\n")
    doc["traces"][-1]["file"] = "traces/gone.csv"
    return TraceParseError, f"{first.name} line 202: could not convert string to float: 'oops'"


def _link_disagrees_then_bad_bytes(tmp_path, doc):
    a, b = doc["traces"][1], doc["traces"][2]
    a["file"], b["file"] = b["file"], a["file"]
    (tmp_path / doc["traces"][4]["file"]).write_bytes(b"\xff")
    return ValidationError, (f"{Path(a['file']).name}: manifest says {a['src']}->{a['dst']}, "
                             f"file contains {b['src']}->{b['dst']}")


def _repeated_link(tmp_path, doc):
    doc["traces"].append(dict(doc["traces"][3]))
    src, dst = doc["traces"][3]["src"], doc["traces"][3]["dst"]
    return ValidationError, f"topology.json: duplicate link {src}->{dst}"


def _unknown_unit(tmp_path, doc):
    doc["traces"][3]["unit"] = "two-way"
    return ValidationError, "unknown unit 'two-way'"


def _bytes_not_utf8(tmp_path, doc):
    path = tmp_path / doc["traces"][4]["file"]
    path.write_bytes(b"timestamp_ms,src_node,dst_node,latency_ms\n0,e0,r0,\xff\n")
    return TraceParseError, (f"{path.name}: 'utf-8' codec can't decode byte 0xff "
                             "in position 50: invalid start byte")


@pytest.mark.parametrize("breakage", [_bad_row_then_missing_file, _link_disagrees_then_bad_bytes,
                                      _repeated_link, _unknown_unit, _bytes_not_utf8],
                         ids=lambda f: f.__name__.strip("_"))
def test_load_topology_raises_the_serial_error_at_any_jobs(tmp_path, breakage):
    # every file before the bad one is read and checked first, in manifest
    # order, so the first error is the same however the files are spread
    manifest, doc = _mesh_manifest(tmp_path)
    kind, message = breakage(tmp_path, doc)
    manifest.write_text(json.dumps(doc))
    for jobs in (1, 2):
        with pytest.raises(Exception) as exc:
            load_topology(manifest, jobs)
        assert (type(exc.value), str(exc.value)) == (kind, message)


def test_import_leaves_the_process_pool_out():
    # the pool's modules cost a process about 1.3 MB; only a parallel load or
    # cell run imports them, so validate, synth and a serial run do without
    path = [str(Path(traces.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    code = ("import sys, relaysim, relaysim.cli; print(sorted(m for m in sys.modules"
            " if m == 'multiprocessing'"
            " or m.startswith(('multiprocessing.', 'concurrent.futures.process'))))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_trace_summary_fields():
    trace = LatencyTrace("A", "B", [0.0, 10.0, 20.0], [10.0, 20.0, 30.0])
    s = trace_summary(trace)
    assert s["samples"] == 3
    assert s["duration_ms"] == 20.0
    assert s["mean_ms"] == 20.0
    assert s["min_ms"] == 10.0 and s["max_ms"] == 30.0
