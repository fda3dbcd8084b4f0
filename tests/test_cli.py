"""End-to-end CLI pipeline: synth, validate, run."""

import concurrent.futures
import hashlib
import json
import re

import pytest

from relaysim import (METHODS, SessionConfig, SyntheticTraceSpec, Topology, load_topology,
                      run_matrix, save_topology)
from relaysim import cli, traces
from relaysim.cli import main


@pytest.fixture(autouse=True)
def _no_env_out(monkeypatch):
    monkeypatch.delenv("RELAYSIM_OUT_DIR", raising=False)


def _synth(out_dir, seed=5):
    return main([
        "synth", "--relays", "1", "--duration-ms", "150000", "--step-ms", "10",
        "--seed", str(seed), "--out", str(out_dir),
    ])


# ------------------------------------------------------------------- synth

def test_synth_writes_topology_and_experiment(tmp_path, capsys):
    out = tmp_path / "topo"
    assert _synth(out) == 0
    stdout = capsys.readouterr().out
    assert "2 candidate paths" in stdout  # 1 relay: direct + the detour

    doc = json.loads((out / "experiment.json").read_text())
    assert doc["schema_version"] == 1
    assert doc["topology"] == "topology.json"
    assert doc["pairs"] == [["e0", "u0"]]
    assert doc["methods"] == list(METHODS)

    topo = load_topology(out / "topology.json")
    assert {n.name for n in topo.nodes} == {"e0", "u0", "r0"}
    # forward mesh plus the reverse direct link for feedback
    assert set(topo.traces) == {
        ("e0", "u0"), ("u0", "e0"), ("e0", "r0"), ("r0", "u0")}


def test_synth_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert _synth(a) == 0
    assert _synth(b) == 0
    assert (a / "topology.json").read_bytes() == (b / "topology.json").read_bytes()
    csvs = sorted(p.relative_to(a) for p in a.rglob("*.csv"))
    assert len(csvs) == 4
    for name in csvs:
        assert (a / name).read_bytes() == (b / name).read_bytes()


# sha256 over each file's relative name and bytes, in name order, of
# `synth --relays 1 --duration-ms 3000 --step-ms 10 --seed 5` per regime
SYNTH_DIGESTS = {
    "stationary-gaussian": "0f84acb42ee999c12f12a3e9887b0d59039ec99465f885908edeea2b03fb794d",
    "regime-switching-spikes": "b690936937060a2a425f36ef3a418805b9a7faace43303374a0a0cb54aab0aa2",
}


def test_synth_files_keep_their_bytes(tmp_path):
    for regime, expected in SYNTH_DIGESTS.items():
        out = tmp_path / regime
        assert main(["synth", "--relays", "1", "--duration-ms", "3000", "--step-ms", "10",
                     "--seed", "5", "--regime", regime, "--out", str(out)]) == 0
        digest = hashlib.sha256()
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(out)).encode() + b"\0" + path.read_bytes())
        assert digest.hexdigest() == expected, regime


def test_synth_usage_errors(tmp_path, capsys):
    assert main(["synth", "--duration-ms", "0", "--out", str(tmp_path)]) == 2
    assert main(["synth", "--relays", "-1", "--out", str(tmp_path)]) == 2
    assert main(["synth"]) == 2  # no --out, no $RELAYSIM_OUT_DIR
    assert "error:" in capsys.readouterr().err
    for flags, message in ((["--relays", "-3"], "relays cannot be negative, not -3"),
                           (["--mean-range", "200", "100"],
                            "mean_range must be [low, high] with 0 < low < high")):
        assert main(["synth", *flags, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    # generate_synthetic checks them, before numpy sizes the time grid
    for flag in ("--duration-ms", "--step-ms"):
        for value in ("nan", "inf", "-inf"):
            assert main(["synth", f"{flag}={value}", "--out", str(tmp_path / "o")]) == 2
            assert capsys.readouterr().err == (
                "error: duration_ms and step_ms must be finite and positive\n")
    assert not (tmp_path / "o").exists()


def test_synth_env_out_dir(tmp_path, monkeypatch):
    target = tmp_path / "envout"
    monkeypatch.setenv("RELAYSIM_OUT_DIR", str(target))
    assert main(["synth", "--relays", "0", "--duration-ms", "20000"]) == 0
    assert (target / "topology.json").exists()


# ---------------------------------------------------------------- validate

def test_validate_reports_each_file(tmp_path, capsys):
    out = tmp_path / "topo"
    _synth(out)
    capsys.readouterr()
    assert main(["validate", str(out)]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    assert len(lines) == 4  # one diagnostic per link CSV
    assert all(re.search(r"samples=\d+ duration_ms=\d+", l) for l in lines)


def test_validate_rtt_halves_latency(tmp_path, capsys):
    out = tmp_path / "topo"
    _synth(out)
    trace_csv = sorted(out.rglob("*.csv"))[0]
    capsys.readouterr()

    def mean_of(unit):
        assert main(["validate", str(trace_csv), "--unit", unit]) == 0
        return float(re.search(r"mean_ms=([\d.]+)", capsys.readouterr().out).group(1))

    assert mean_of("rtt") == pytest.approx(mean_of("one-way") / 2, abs=0.01)


def test_validate_failures(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("this,is,not\na,trace,file\n")
    assert main(["validate", str(bad)]) == 3
    assert main(["validate", str(tmp_path / "missing.csv")]) == 3
    empty = tmp_path / "emptydir"
    empty.mkdir()
    assert main(["validate", str(empty)]) == 3
    err = capsys.readouterr().err
    assert "ERROR" in err and "no traces found" in err


def test_validate_goes_on_past_an_undecodable_file(tmp_path, capsys):
    out = tmp_path / "topo"
    _synth(out)
    (out / "traces" / "a_binary.csv").write_bytes(b"timestamp_ms,src_node\n\xff\xfe\n")
    capsys.readouterr()
    assert main(["validate", str(out)]) == 3
    captured = capsys.readouterr()
    assert re.search(r"a_binary\.csv: ERROR .*can't decode byte 0xff", captured.err)
    assert "1 of 5 files failed validation" in captured.err
    lines = [l for l in captured.out.splitlines() if l.strip()]
    assert len(lines) == 4  # the files sorted after it are still checked


# --------------------------------------------------------------------- run

@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    assert _synth(out) == 0
    return out


def _run(synth_dir, res_dir, *extra):
    return main([
        "run", str(synth_dir / "experiment.json"),
        "--packets", "300", "--out", str(res_dir), *extra,
    ])


def test_run_writes_full_matrix(synth_dir, tmp_path, capsys):
    res = tmp_path / "res"
    assert _run(synth_dir, res, "--jobs", "1") == 0
    stdout = capsys.readouterr().out
    assert "method means over sessions:" in stdout
    assert f"wrote {len(METHODS)} report cells" in stdout

    assert (res / "manifest.json").exists()
    effective = json.loads((res / "effective_manifest.json").read_text())
    assert effective["methods"] == list(METHODS)
    assert effective["sessions"][0]["packets"] == 300

    for label in METHODS:
        rep = json.loads((res / f"s0_{label}.json").read_text())
        assert rep["delivered"] + rep["dropped_late"] == 300
        assert (res / f"s0_{label}_cdf.csv").exists()
    rows = (res / "summary.csv").read_text().splitlines()
    assert len(rows) == 2 + len(METHODS)  # schema row, header, one per cell


def test_run_parallel_matches_serial(synth_dir, tmp_path):
    # two workers, and one per cell (8 asked for, 5 cells), load the traces
    # and run the cells: every file written is the serial run's, byte for byte
    serial = tmp_path / "s"
    assert _run(synth_dir, serial, "--jobs", "1") == 0
    names = sorted(p.name for p in serial.iterdir())
    assert names == sorted(["manifest.json", "effective_manifest.json", "summary.csv"]
                           + [f"s0_{m}{ext}" for m in METHODS for ext in (".json", "_cdf.csv")])
    for jobs in ("2", "8"):
        parallel = tmp_path / f"p{jobs}"
        assert _run(synth_dir, parallel, "--jobs", jobs) == 0
        assert sorted(p.name for p in parallel.iterdir()) == names
        for name in names:
            assert (serial / name).read_bytes() == (parallel / name).read_bytes(), (jobs, name)


def test_run_loads_the_topology_with_its_jobs(synth_dir, tmp_path, monkeypatch):
    loads, load = [], cli.load_topology

    def counted(path, jobs):
        loads.append(jobs)
        return load(path, jobs)

    monkeypatch.setattr(cli, "load_topology", counted)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
    assert _run(synth_dir, tmp_path / "flag", "--jobs", "2", "--methods", "drt-bf") == 0
    assert _run(synth_dir, tmp_path / "default") == 0
    assert loads == [2, 3]  # the flag, else min(cells, CPUs), as for the cells


@pytest.mark.parametrize("defaults, flags", [
    ({"jitter": {"percentile": 1.5}}, ()),
    ({"jitter": {"window_ms": -1}}, ()),
    ({"jitter": {"bin_ms": 0}}, ()),
    ({"jitter": {"max_lag_ms": -5}}, ()),
    ({}, ("--percentile", "0")),
    ({}, ("--window-ms", "-3")),
    ({}, ("--seed", "-1")),
    ({"seed": -1}, ()),
], ids=["percentile", "window_ms", "bin_ms", "max_lag_ms", "percentile-flag",
        "window-ms-flag", "seed-flag", "seed"])
def test_run_rejects_bad_values_before_the_load(synth_dir, tmp_path, monkeypatch, capsys,
                                                defaults, flags):
    loads, load = [], cli.load_topology

    def counted(path, jobs):
        loads.append(jobs)
        return load(path, jobs)

    monkeypatch.setattr(cli, "load_topology", counted)
    doc = json.loads((synth_dir / "experiment.json").read_text())
    doc["topology"] = str(synth_dir / "topology.json")
    doc["defaults"] = {**doc.get("defaults", {}), **defaults}
    manifest = tmp_path / "exp.json"
    manifest.write_text(json.dumps(doc))
    assert main(["run", str(manifest), "--packets", "300",
                 "--out", str(tmp_path / "res"), *flags]) == 3
    assert "error:" in capsys.readouterr().err
    assert loads == []
    assert not (tmp_path / "res").exists()


def test_run_methods_subset(synth_dir, tmp_path):
    res = tmp_path / "res"
    assert _run(synth_dir, res, "--jobs", "1", "--methods", "drt-bf,drt-wm") == 0
    assert sorted(p.name for p in res.glob("s0_*.json")) == [
        "s0_drt-bf.json", "s0_drt-wm.json"]


def test_run_rejects_repeated_methods(synth_dir, tmp_path, capsys):
    # cells are keyed by (session, label): a repeat would run twice and
    # write once
    assert _run(synth_dir, tmp_path / "flag", "--methods", "drt-bf,drt-wm,drt-bf") == 3
    assert "method 'drt-bf' given more than once" in capsys.readouterr().err
    doc = json.loads((synth_dir / "experiment.json").read_text())
    doc.update(topology=str(synth_dir / "topology.json"), methods=["drt-wm", "drt-wm"])
    manifest = tmp_path / "exp.json"
    manifest.write_text(json.dumps(doc))
    assert main(["run", str(manifest), "--packets", "300",
                 "--out", str(tmp_path / "doc")]) == 3
    assert "method 'drt-wm' given more than once" in capsys.readouterr().err
    assert not (tmp_path / "flag").exists() and not (tmp_path / "doc").exists()


def test_run_loss_warnings_name_the_session(synth_dir, tmp_path, capsys):
    doc = json.loads((synth_dir / "experiment.json").read_text())
    doc["topology"] = str(synth_dir / "topology.json")
    doc["defaults"]["loss_threshold"] = 0.01
    manifest = tmp_path / "exp.json"
    manifest.write_text(json.dumps(doc))
    assert main(["run", str(manifest), "--packets", "300", "--jobs", "1",
                 "--out", str(tmp_path / "res")]) == 0
    warnings = [l for l in capsys.readouterr().err.splitlines() if l.startswith("warning:")]
    # one pair: every cell is session 0, whatever its place in the output
    assert [w.split()[1:3] for w in warnings] == [["s0", m] for m in METHODS]


def test_run_single_custom_method(synth_dir, tmp_path):
    res = tmp_path / "res"
    assert _run(synth_dir, res, "--jobs", "1", "--methods", "direct+buffer") == 0
    rep = json.loads((res / "s0_direct_buffer.json").read_text())
    assert rep["method"] == "direct+buffer"
    assert rep["jitter_kind"] == "buffer"


def test_cli_cells_equal_run_matrix(synth_dir, tmp_path):
    # the CLI's cell runner and run_matrix are separate; their report bytes
    # must not drift apart
    topology = load_topology(synth_dir / "topology.json")
    seed = json.loads((synth_dir / "experiment.json").read_text())["defaults"]["seed"]
    template = SessionConfig(endpoint="e0", user="u0", packet_count=300, seed=seed)
    named, custom = tmp_path / "named", tmp_path / "custom"
    assert _run(synth_dir, named, "--jobs", "2") == 0
    assert _run(synth_dir, custom, "--methods", "vcroute_ts+buffer") == 0
    for out, labels in ((named, list(METHODS)), (custom, ["vcroute_ts+buffer"])):
        matrix = run_matrix([(topology, template)], labels)
        for label in labels:
            written = (out / f"s0_{label.replace('+', '_')}.json").read_text()
            assert written == matrix.cells[(0, label)].to_json()


def test_run_pool_gets_topology_once(synth_dir, tmp_path, monkeypatch):
    seen = {}

    class InlinePool:
        """Runs a pool's initializer and maps in this process: the cell pool's,
        and the trace load's, which has no initializer."""

        def __init__(self, max_workers, initializer=None, initargs=()):
            self.cells = initializer is not None
            if self.cells:
                seen["workers"] = max_workers
                initializer(*initargs)
            else:
                seen["load_workers"] = max_workers

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            if self.cells:
                cli._set_cell_topology(None)

        def map(self, fn, *iterables):
            if not self.cells:
                return map(fn, *iterables)
            jobs = list(iterables[0])
            seen["jobs"] = jobs
            return map(fn, jobs)

    # both pools are imported where they start, from concurrent.futures
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
    assert _run(synth_dir, tmp_path / "res") == 0
    assert seen["workers"] == 3  # min(cells, CPUs), not min(pairs, CPUs)
    assert len(seen["jobs"]) == len(METHODS)
    assert not any(isinstance(x, Topology) for job in seen["jobs"] for x in job)
    assert _run(synth_dir, tmp_path / "serial", "--methods", "drt-bf") == 0
    assert seen["workers"] == 3  # one cell runs serially, without a pool
    assert cli._cell_topology is None
    # more jobs than cells: the cells get one worker each, and the load one
    # per trace file
    files = len(load_topology(synth_dir / "topology.json").traces)
    seen.clear()
    assert _run(synth_dir, tmp_path / "eight", "--jobs", "8") == 0
    assert seen["workers"] == len(METHODS) and len(seen["jobs"]) == len(METHODS)
    assert seen["load_workers"] == files < 8
    # one cell starts no cell pool, whatever --jobs says; the load keeps --jobs
    seen.clear()
    assert _run(synth_dir, tmp_path / "one", "--jobs", "4", "--methods", "drt-bf") == 0
    assert seen == {"load_workers": min(4, files)} and files > 1
    assert cli._cell_topology is None


def test_run_seed_flag_overrides(synth_dir, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert _run(synth_dir, a, "--jobs", "1", "--methods", "vcr-wm") == 0
    assert _run(synth_dir, b, "--jobs", "1", "--methods", "vcr-wm",
                "--seed", "99") == 0
    assert (a / "summary.csv").read_bytes() != (b / "summary.csv").read_bytes()


@pytest.fixture(scope="module")
def small_topology(tmp_path_factory):
    """A saved direct-only topology (e0, u0 and both links), 62 s at 100 ms."""
    path = tmp_path_factory.mktemp("small") / "topology.json"
    return save_topology(cli._synthetic_topology(0, 62000.0, 100.0, SyntheticTraceSpec()), path)


def test_run_manifest_errors(small_topology, tmp_path, capsys):
    def attempt(doc):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        return main(["run", str(path), "--out", str(tmp_path / "o")])

    assert main(["run", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "o")]) == 3
    assert attempt({"schema_version": 2}) == 3
    base = {"schema_version": 1, "topology": str(small_topology),
            "pairs": [["e0", "u0"]], "methods": ["drt-wm"],
            "defaults": {"packets": 10, "warmup_ms": 5000.0}}
    # schema_version is the JSON integer 1: true and 1.0 only equal it in Python
    for version in (True, 1.0):
        assert attempt({**base, "schema_version": version}) == 3
        assert (f"error: unsupported experiment schema_version {version!r}\n"
                in capsys.readouterr().err)
    # a topology is named only by its file: an inline synthetic section is an
    # unknown key, beside a topology or in its place
    synthetic = {"relays": 0, "duration_ms": 15000.0, "step_ms": 100.0}
    for doc in ({**base, "synthetic": synthetic},
                {**{k: v for k, v in base.items() if k != "topology"}, "synthetic": synthetic}):
        assert attempt(doc) == 3
        assert "error: unknown manifest keys ['synthetic']\n" in capsys.readouterr().err
    assert attempt({**base, "pairs": []}) == 3
    assert attempt({**base, "pairs": [["e0", "e0"]]}) == 3
    # a pair is a list of two different node names, and pairs a list of them
    for pairs, message in (
            (None, "pairs must be a non-empty list, not null"),
            ("e0u0", "pairs must be a non-empty list, not \"e0u0\""),
            ({"e0": "u0"}, "pairs must be a non-empty list, not {\"e0\": \"u0\"}"),
            ([1], "bad pair 1: want two different node names"),
            ([["e0", 5]], "bad pair [\"e0\", 5]: want two different node names"),
            ([[["e0"], "u0"]], "bad pair [[\"e0\"], \"u0\"]: want two different node names"),
            ([["e0", "u0", "r0"]],
             "bad pair [\"e0\", \"u0\", \"r0\"]: want two different node names"),
            ([["e0", "u0"], "e0"], "bad pair \"e0\": want two different node names")):
        assert attempt({**base, "pairs": pairs}) == 3
        assert f"error: {message}\n" in capsys.readouterr().err
    assert attempt({**base, "methods": ["bogus"]}) == 3
    assert attempt({**base, "defaults": {"packet_count": 10}}) == 3
    assert "error:" in capsys.readouterr().err
    # update_on_drop is a retired jitter key: late arrivals always feed the estimator
    for section, bad in (("router", "kind"), ("jitter", "kind"), ("router", "window_ms"),
                         ("jitter", "bogus"), ("jitter", "update_on_drop")):
        defaults = {**base["defaults"], section: {bad: 1}}
        assert attempt({**base, "defaults": defaults}) == 3
        assert f"unknown {section} keys ['{bad}']" in capsys.readouterr().err
    # json.dumps writes NaN and Infinity, which JSON itself lacks
    for value, name in ((float("nan"), "NaN"), (float("inf"), "Infinity"),
                        (-float("inf"), "-Infinity")):
        assert attempt({**base, "defaults": {**base["defaults"], "warmup_ms": value}}) == 3
        assert f"error: {name} is not a valid manifest number\n" in capsys.readouterr().err
    # a value of the wrong JSON type is named by its section and key, not cast
    for defaults, message in (
            ({"router": {"prune": "false"}},
             "router key 'prune' must be true or false, not \"false\""),
            ({"router": {"prune": 0}}, "router key 'prune' must be true or false, not 0"),
            ({"seed": 3.7}, "defaults key 'seed' must be an integer, not 3.7"),
            ({"packets": 500.9}, "defaults key 'packets' must be an integer, not 500.9"),
            ({"packets": True}, "defaults key 'packets' must be an integer, not true"),
            ({"warmup_ms": False}, "defaults key 'warmup_ms' must be a number, not false"),
            ({"jitter": {"window_ms": "abc"}},
             "jitter key 'window_ms' must be a number, not \"abc\""),
            ({"jitter": {"max_lag_ms": None}},
             "jitter key 'max_lag_ms' must be a number, not null"),
            ({"router": {"c": True}}, "router key 'c' must be a number, not true"),
            ({"router": {"c": -5.0}}, "router c must be finite and nonnegative, not -5.0"),
            ({"router": {"confidence": 1}}, "router confidence must be in (0, 1), not 1.0"),
            ({"loss_threshold": "0.1"}, "defaults key 'loss_threshold' must be a number, not \"0.1\""),
            ({"loss_threshold": True}, "defaults key 'loss_threshold' must be a number, not true")):
        assert attempt({**base, "defaults": {**base["defaults"], **defaults}}) == 3
        assert f"error: {message}\n" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_run_top_level_keys_are_checked_before_the_load(tmp_path, capsys):
    # the manifest's topology file does not exist: an unknown key, or a
    # topology or output_dir that is not a string, is rejected before the
    # load would find that out, whether or not --out is given
    path = tmp_path / "m.json"
    base = {"schema_version": 1, "topology": "missing.json",
            "pairs": [["e0", "u0"]], "methods": ["drt-wm"]}
    for doc, message in (
            ({**base, "bogus": 1}, "unknown manifest keys ['bogus']"),
            ({**base, "synthetic": {"relays": 0}, "zz": None},
             "unknown manifest keys ['synthetic', 'zz']"),
            ({**base, "topology": 5}, "manifest key 'topology' must be a string, not 5"),
            ({**base, "topology": ["t.json"]},
             "manifest key 'topology' must be a string, not [\"t.json\"]"),
            ({key: value for key, value in base.items() if key != "topology"},
             "manifest key 'topology' must be a string, not null"),
            ({**base, "output_dir": 5}, "manifest key 'output_dir' must be a string, not 5"),
            ({**base, "output_dir": ["o"]},
             "manifest key 'output_dir' must be a string, not [\"o\"]")):
        path.write_text(json.dumps(doc))
        for out in (["--out", str(tmp_path / "o")], []):
            assert main(["run", str(path), *out]) == 3
            assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "o").exists()


def test_run_checks_the_manifest_methods_under_the_flag(small_topology, tmp_path, capsys):
    # --methods overrides the manifest's methods, which must still be a list
    # of strings
    path = tmp_path / "m.json"
    base = {"schema_version": 1, "topology": str(small_topology),
            "pairs": [["e0", "u0"]], "defaults": {"packets": 10, "warmup_ms": 5000.0}}
    for methods in (5, ["drt-wm", 5]):
        path.write_text(json.dumps({**base, "methods": methods}))
        assert main(["run", str(path), "--out", str(tmp_path / "o"), "--methods", "drt-bf"]) == 3
        assert (capsys.readouterr().err
                == f"error: methods must be a list of strings, not {json.dumps(methods)}\n")
    assert not (tmp_path / "o").exists()


def test_run_checks_the_manifest_method_labels_under_the_flag(small_topology, tmp_path, capsys):
    # --methods overrides the manifest's methods, whose labels must still be
    # known and distinct
    path = tmp_path / "m.json"
    base = {"schema_version": 1, "topology": str(small_topology),
            "pairs": [["e0", "u0"]], "defaults": {"packets": 10, "warmup_ms": 5000.0}}
    for methods, message in ((["bogus"], "unknown method 'bogus'"),
                             (["drt-wm", "drt-wm"], "method 'drt-wm' given more than once")):
        path.write_text(json.dumps({**base, "methods": methods}))
        assert main(["run", str(path), "--out", str(tmp_path / "o"), "--methods", "drt-bf"]) == 3
        assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not (tmp_path / "o").exists()


def test_run_bad_router_flag_is_rejected_before_the_load(tmp_path, capsys):
    # the manifest's topology file does not exist: RouterConfig rejects the
    # flag before the load would find that out
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"schema_version": 1, "topology": "missing.json",
                                "pairs": [["e0", "u0"]], "methods": ["drt-wm"]}))
    for confidence in ("1.5", "1", "0", "nan", "-inf"):
        assert main(["run", str(path), "--out", str(tmp_path / "o"),
                     f"--confidence={confidence}"]) == 3
        assert capsys.readouterr().err == (
            f"error: router confidence must be in (0, 1), not {float(confidence)!r}\n")
    assert main(["run", str(path), "--out", str(tmp_path / "o"), "--confidence=0.5"]) == 3
    assert "manifest not found" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_run_bad_loss_threshold_is_rejected_before_the_load(tmp_path, capsys):
    # out of [0, 1], or infinite as json reads 1e400: rejected before the
    # load would find that the topology file does not exist
    path = tmp_path / "m.json"
    for value, shown in (("1e400", "inf"), ("-0.5", "-0.5"), ("2.0", "2.0")):
        path.write_text('{"schema_version": 1, "topology": "missing.json", '
                        '"pairs": [["e0", "u0"]], "methods": ["drt-wm"], '
                        f'"defaults": {{"loss_threshold": {value}}}}}')
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err == (
            f"error: loss_threshold must be null or in [0, 1], not {shown}\n")
    assert not (tmp_path / "o").exists()


def test_run_manifest_sections_of_the_wrong_type(small_topology, tmp_path, capsys):
    # a section that is not a JSON object, a topology that is not a file name,
    # or a method list that is not a list of strings, is named as such, not
    # converted or iterated
    path = tmp_path / "m.json"
    base = {"schema_version": 1, "topology": str(small_topology),
            "pairs": [["e0", "u0"]], "methods": ["drt-wm"],
            "defaults": {"packets": 10, "warmup_ms": 5000.0}}
    for doc, message in (
            ({**base, "defaults": [1]}, "defaults must be an object, not [1]"),
            ({**base, "defaults": None}, "defaults must be an object, not null"),
            ({**base, "defaults": {"router": [1]}}, "router must be an object, not [1]"),
            ({**base, "defaults": {"jitter": "x"}}, "jitter must be an object, not \"x\""),
            ({**base, "topology": {"file": "t.json"}},
             "manifest key 'topology' must be a string, not {\"file\": \"t.json\"}"),
            ({**base, "methods": "drt-wm"}, "methods must be a list of strings, not \"drt-wm\""),
            ({**base, "methods": [["drt-wm"]]},
             "methods must be a list of strings, not [[\"drt-wm\"]]"),
            ([base], "the manifest must be an object, not [")):
        path.write_text(json.dumps(doc))
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 3
        assert f"error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("content", [
    b"timestamp_ms,src_node,dst_node,latency_ms\n0,e0,u0,\xff\n",
    b"timestamp_ms,src_node,dst_node,latency_ms\n0,e0,u0,\"" + b"9" * 140_000 + b"\"\n",
], ids=["undecodable", "over-long field"])
def test_run_bad_trace_file_is_a_validation_error(tmp_path, capsys, content):
    # as validate reports it: exit 3 with the file's name, no output directory
    assert main(["synth", "--relays", "0", "--duration-ms", "15000", "--step-ms", "100",
                 "--out", str(tmp_path)]) == 0
    (tmp_path / "traces" / "e0__u0.csv").write_bytes(content)
    capsys.readouterr()
    assert main(["run", str(tmp_path / "experiment.json"), "--out", str(tmp_path / "o")]) == 3
    assert re.search(r"^error: e0__u0\.csv", capsys.readouterr().err, re.M)
    assert not (tmp_path / "o").exists()


def test_run_topology_manifest_errors_are_validation_errors(tmp_path, capsys):
    assert _synth(tmp_path) == 0
    topology = tmp_path / "topology.json"
    doc = json.loads(topology.read_text())
    del doc["traces"][2]["src"]
    topology.write_text(json.dumps(doc))
    assert main(["run", str(tmp_path / "experiment.json"), "--out", str(tmp_path / "o")]) == 3
    assert "error: topology.json: trace entry 2 has no 'src'" in capsys.readouterr().err
    doc = json.loads(topology.read_text())
    doc["traces"][2]["src"] = doc["traces"][3]["src"]
    doc["traces"][2]["dst"] = doc["traces"][3]["dst"]
    doc["traces"][2]["file"] = doc["traces"][3]["file"]
    topology.write_text(json.dumps(doc))
    assert main(["run", str(tmp_path / "experiment.json"), "--out", str(tmp_path / "o")]) == 3
    assert "duplicate link" in capsys.readouterr().err
    doc["traces"][2]["file"] = 5
    topology.write_text(json.dumps(doc))
    assert main(["run", str(tmp_path / "experiment.json"), "--out", str(tmp_path / "o")]) == 3
    assert ("error: topology.json: trace entry 2: 'file' must be a string, not 5"
            in capsys.readouterr().err)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flag, jobs", [(("--percentile", "1.5"), "1"),
                                        (("--window-ms", "-5"), "2"),
                                        (("--window-ms", "nan"), "1"),
                                        (("--window-ms", "inf"), "2"),
                                        (("--interval-ms", "nan"), "1"),
                                        (("--interval-ms", "inf"), "2")])
def test_run_bad_jitter_flags_are_validation_errors(synth_dir, tmp_path, capsys, flag, jobs):
    # the estimator rejects them when a cell starts, in this process or a
    # worker; SessionConfig rejects a cadence that is not finite and positive
    res = tmp_path / "res"
    assert _run(synth_dir, res, "--jobs", jobs, "--methods", "drt-wm,drt-bf", *flag) == 3
    assert "error:" in capsys.readouterr().err
    assert not res.exists()


def test_manifest_without_defaults_takes_session_config_defaults(small_topology, tmp_path):
    manifest = tmp_path / "exp.json"
    manifest.write_text(json.dumps({
        "schema_version": 1, "topology": str(small_topology),
        "pairs": [["e0", "u0"]], "methods": ["drt-wm"],
    }))
    assert main(["run", str(manifest), "--packets", "50", "--out", str(tmp_path / "o")]) == 0
    session = json.loads((tmp_path / "o" / "effective_manifest.json").read_text())["sessions"][0]
    assert session == {"endpoint": "e0", "user": "u0", "packets": 50,
                       "interval_ms": SessionConfig.interval_ms,
                       "warmup_ms": SessionConfig.warmup_ms, "seed": SessionConfig.seed}
    # with no --packets flag either, the CLI's own default length
    args = cli.build_parser().parse_args(["run", str(manifest)])
    assert cli._template_config({}, args, "e0", "u0").packet_count == cli.RUN_PACKETS


def test_run_manifest_sections_cast_like_the_dataclasses(small_topology, tmp_path):
    # output_dir is resolved against the manifest's directory
    manifest = tmp_path / "exp.json"
    manifest.write_text(json.dumps({
        "schema_version": 1, "topology": str(small_topology),
        "pairs": [["e0", "u0"]], "methods": ["drt-wm"],
        "defaults": {"packets": 20, "warmup_ms": 5000.0,
                     "router": {"c": 2, "prune": False},
                     "jitter": {"window_ms": 2000, "max_lag_ms": 900}},
        "output_dir": "o",
    }))
    assert main(["run", str(manifest), "--percentile", "0.9"]) == 0
    text = (tmp_path / "o" / "s0_drt-wm.json").read_text()
    assert '"window_ms": 2000.0' in text
    rep = json.loads(text)
    assert rep["warmup_ms"] == 5000.0
    assert rep["delivered"] + rep["dropped_late"] == 20
    config = rep["config"]
    assert config["router"] == {"kind": "direct", "c": 2.0, "confidence": 0.95,
                                "prune": False}
    assert config["jitter"] == {"kind": "watermark", "window_ms": 2000.0, "bin_ms": 1.0,
                                "percentile": 0.9, "loss_cost_ms": 100.0,
                                "initial_lag_ms": 0.0, "max_lag_ms": 900.0}


def test_run_jobs_usage_error(synth_dir, tmp_path, monkeypatch, capsys):
    # the flag is checked before the costly step: no trace file is read
    read = []
    monkeypatch.setattr(traces, "ingest_trace", lambda *args, **kwargs: read.append(args))
    assert _run(synth_dir, tmp_path / "o", "--jobs", "0") == 2
    assert "error: --jobs must be >= 1" in capsys.readouterr().err
    assert read == [] and not (tmp_path / "o").exists()
