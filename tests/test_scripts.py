"""The benchmark scripts that README figures come from, run small so they cannot rot."""

import importlib.util
from pathlib import Path

import numpy as np

from relaysim import JitterEstimator, run_session
from relaysim.jitter import FATES
from wm_reference import bursty_packets

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_c05_families_prints_every_rule(monkeypatch, capsys):
    c05 = _load("c05_families")
    monkeypatch.setattr(c05, "PACKETS", 2000)
    assert c05.main(["--families", "5000", "--seeds", "2", "--fixed", "230"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split()[:2] == ["family", "rule"]
    assert [row[9:23].strip() for row in rows] == ["default", "jitter only", "fixed 230 ms"]
    for row in rows:
        assert row.split()[0] == "5000" and row.split()[-1] in ("yes", "no")


def test_c05_jitter_only_rule_is_the_default_without_its_depth_term():
    c05 = _load("c05_families")
    cfg = c05.JitterLagOnlyConfig(kind="watermark")
    only, full = cfg.make_estimator(), JitterEstimator()
    deeper = 0
    for p in bursty_packets(np.random.default_rng(5), 3000):
        lag = only.update(p.ts, p.arrival)
        full.update(p.ts, p.arrival)
        assert lag == only.lag_ms == full.jitter_lag_ms
        deeper += full.lag_ms > full.jitter_lag_ms
    assert deeper > 0  # the depth term is off where it would have decided the lag


def test_c05_stand_ins_play_their_own_rule_in_a_pass():
    # the watermark plays a schedule from its estimator's lags: each
    # stand-in's pass gives the lags its update gives
    c05 = _load("c05_families")
    packets = bursty_packets(np.random.default_rng(7), 3000)
    ts = np.array([p.ts for p in packets])
    ta = np.array([p.arrival for p in packets])
    for cfg in (c05.JitterLagOnlyConfig(kind="watermark"),
                c05.FixedLagConfig(kind="watermark", fixed_lag_ms=230.0)):
        passed, stepped = cfg.make_estimator(), cfg.make_estimator()
        lags = passed.lags(ts[:2000], ta[:2000]).tolist()
        lags += passed.lags(ts[2000:], ta[2000:]).tolist()
        assert lags == [stepped.update(p.ts, p.arrival) for p in packets]
        assert passed.lag_ms == stepped.lag_ms


def test_bench_routers_times_every_regime(capsys):
    bench = _load("bench_routers")
    assert bench.main(["--calls", "300", "--repeats", "1"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split()[:3] == ["router", "k", "regime"]
    cells = [tuple(row.split()[:3]) for row in rows]
    assert cells == [(router, str(k), regime) for router in ("thompson", "ucb1")
                     for k in bench.ARMS for regime in bench.REGIMES]
    for row in rows:
        assert float(row.split()[3]) > 0
    # the regimes are what they are named: the rewarded arm keeps winning,
    # changes at every call, or keeps losing
    for router in ("thompson", "ucb1"):
        for k in bench.ARMS:
            for regime in bench.REGIMES:
                made = bench._make(router, k, 0)
                feedback = bench._feedback(regime, k, 300, k)
                picks = []
                for pid, reward in feedback:
                    made.observe(pid, reward)
                    picks.append(made.select())
                arms = [pid for pid, _ in feedback]
                if regime == "steady":
                    assert picks == arms
                elif regime == "losing":
                    assert not set(picks) & set(arms)
                else:
                    assert all(a != b for a, b in zip(arms, arms[1:]))


def test_bench_jitter_times_every_piece(capsys):
    bench = _load("bench_jitter")
    assert bench.main(["--packets", "1500", "--repeats", "1"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["method", "packets"] + [f"{c}_s" for c in bench.COLUMNS]
    assert [row.split()[:2] for row in rows] == [[m, "1500"] for m in bench.METHODS]
    for row in rows:
        assert all(float(x) > 0 for x in row.split()[2:])


def test_bench_jitter_plays_the_sessions_arrival_stream():
    # the stream the benchmark times is the one the engine plays: the
    # session's records arrive at the same times and decide the same fates
    bench = _load("bench_jitter")
    topology = bench.burst_direct(3, 1500)
    order, ts, ta = bench.arrival_stream(topology, 1500)
    for method in bench.METHODS:
        cfg = bench.session_config(method, 1500, 3)
        records = run_session(topology, cfg).records
        assert [rec.ta for rec in records] == ta.tolist()
        _, to, fate = bench._play(cfg.jitter, order, ts, ta)
        assert [FATES[code] for code in fate.tolist()] == [rec.fate for rec in records]
        assert [None if out != out else out for out in to.tolist()] == [rec.to for rec in records]
        assert "dropped_late" in [rec.fate for rec in records]


def test_bench_reports_times_every_writer(capsys):
    bench = _load("bench_reports")
    assert bench.main(["--packets", "1500", "--rows", "5000", "--repeats", "1"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["case", "cdf_rows", "json_bytes"] + [f"{c}_s" for c in bench.COLUMNS]
    assert [row.split()[0] for row in rows] == ["session", "cdf"]
    assert rows[1].split()[1] == "5000"
    for row in rows:
        assert all(float(x) > 0 for x in row.split()[1:])


def test_bench_reports_fails_on_a_changed_byte(monkeypatch, capsys):
    bench = _load("bench_reports")
    to_json = bench.MetricsReport.to_json
    monkeypatch.setattr(bench.MetricsReport, "to_json", lambda self: to_json(self) + " ")
    assert bench.main(["--packets", "1500", "--rows", "50", "--repeats", "1"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"differs from the reference writer: {case}: {name}"
        for case in ("session", "cdf") for name in ("to_json", "write_json")]


def test_bench_ingest_times_every_read(capsys):
    bench = _load("bench_ingest")
    assert bench.main(["--durations", "2", "--jobs", "1", "2", "--repeats", "1"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["duration_s", "case", "files", "rows", "best_s", "rows_per_s"]
    assert [row.split()[:4] for row in rows] == [
        ["2", "columnar", "1", "200"], ["2", "row-loop", "1", "200"],
        ["2", "load-j1", "22", "4400"], ["2", "load-j2", "22", "4400"]]
    for row in rows:
        assert all(float(x) > 0 for x in row.split()[4:])


def test_bench_ingest_fails_on_a_changed_array(monkeypatch, capsys):
    bench = _load("bench_ingest")
    read_rows = bench.traces._read_rows

    def shifted(path):
        link, ts, lat = read_rows(path)
        return link, ts, lat + 1.0

    monkeypatch.setattr(bench.traces, "_read_rows", shifted)
    assert bench.main(["--durations", "2", "--jobs", "1", "--repeats", "1"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "2 s: the row loop's arrays differ from the columnar read's"]
