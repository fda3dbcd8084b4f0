"""Session engine tests against hand-computed constant-trace oracles."""

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from relaysim import (
    METHODS,
    ConfigurationError,
    JitterConfig,
    LatencyTrace,
    Node,
    RouterConfig,
    SessionConfig,
    ThompsonRouter,
    Ucb1Router,
    ValidationError,
    method_config,
    run_matrix,
    run_session,
    Topology,
)
from relaysim import engine
from relaysim.engine import cell_config, derive_cell_seed, method_kinds
from relaysim.jitter import DELIVERED
from relaysim.reports import write_summary_csv
from engine_reference import reference_session
from scenarios import (
    burst_direct_topology,
    constant_pair_topology,
    constant_trace,
    gaussian_link,
    hetero_topology,
)

WARMUP = 60_000.0


def _direct_cfg(method_jitter, n=100, **kw):
    return SessionConfig(
        endpoint="e0", user="u0", packet_count=n, interval_ms=10.0,
        warmup_ms=WARMUP, seed=0, jitter=JitterConfig(kind=method_jitter), **kw)


# ------------------------------------------------- constant-trace oracles

def test_constant_direct_watermark_oracle():
    # constant 50 ms transit, 10 ms cadence: packet i waits for packet i+1's
    # arrival, so To = Ts + 60; the final packet is flushed at the last
    # arrival, To = Ts + 50
    res = run_session(constant_pair_topology(), _direct_cfg("watermark"))
    rep = res.report
    assert rep.dropped_late == 0
    assert rep.loss_rate == 0.0
    assert rep.delivered == 100
    assert rep.tail_flushed == 1
    for rec in res.records[:-1]:
        assert rec.fate == "delivered"
        assert rec.ta == rec.ts + 50.0
        assert rec.to == rec.ts + 60.0
    last = res.records[-1]
    assert last.fate == "flushed"
    assert last.to == last.ts + 50.0
    assert rep.latency_mean_ms == pytest.approx((99 * 60.0 + 50.0) / 100, rel=1e-12)
    assert rep.latency_p50_ms == 60.0
    assert rep.latency_max_ms == 60.0


def test_constant_direct_buffer_oracle():
    # transit histogram pins the target at the 51 ms bin edge: To = Ts + 51,
    # last packet flushed at its own arrival
    res = run_session(constant_pair_topology(), _direct_cfg("buffer"))
    rep = res.report
    assert rep.dropped_late == 0
    assert rep.loss_rate == 0.0
    assert rep.delivered == 100
    assert rep.tail_flushed == 1
    for rec in res.records[:-1]:
        assert rec.to == rec.ts + 51.0
    assert res.records[-1].to == res.records[-1].ts + 50.0
    assert rep.latency_mean_ms == pytest.approx((99 * 51.0 + 50.0) / 100, rel=1e-12)


def test_direct_router_no_control_traffic():
    res = run_session(constant_pair_topology(), _direct_cfg("watermark"))
    rep = res.report
    assert rep.plan_update_count == 0
    assert rep.overhead_per_packet_ms == 0.0
    assert rep.path_changes == []
    assert rep.candidate_paths == 1
    assert rep.topk_paths == [0]
    assert all(rec.path_id == 0 for rec in res.records)


def test_record_timeline():
    res = run_session(constant_pair_topology(), _direct_cfg("watermark"))
    for i, rec in enumerate(res.records):
        assert rec.seq == i
        assert rec.ts == WARMUP + i * 10.0
        assert rec.to >= rec.ta >= rec.ts


def test_ticks_exact_at_non_dyadic_cadence():
    # 20/3 ms has no exact binary form, so adding it once per packet drifts
    # from warmup + seq*interval, which the playout buffer's slots use
    n, interval = 100, 20 / 3
    cfg = SessionConfig(endpoint="e0", user="u0", packet_count=n, interval_ms=interval,
                        warmup_ms=WARMUP, jitter=JitterConfig(kind="watermark"))
    res = run_session(constant_pair_topology(), cfg)
    assert [r.ts for r in res.records] == (WARMUP + np.arange(n) * interval).tolist()


def test_event_at_a_tick_goes_before_generation():
    # UCB1 forced round over the direct path (40 ms) and e0->r0->u0 (50 ms).
    # Packet 0's transmit feedback is back at tick 8 (40 ms out, 40 ms
    # back). Observed first, only arm 1 lacks a reward and packet 8 takes
    # it; generated first, packet 8 would take arm 8 % 2 = 0.
    links = {("e0", "u0"): 40.0, ("u0", "e0"): 40.0, ("e0", "r0"): 25.0, ("r0", "u0"): 25.0}
    topo = Topology([Node("e0", "endpoint"), Node("u0", "user"), Node("r0", "relay")],
                    {link: constant_trace(*link, ms, 700_000.0) for link, ms in links.items()})
    cfg = SessionConfig(endpoint="e0", user="u0", packet_count=20, interval_ms=10.0,
                        warmup_ms=WARMUP, router=RouterConfig(kind="via_ucb1", prune=False))
    paths = [rec.path_id for rec in run_session(topo, cfg).records]
    assert paths[:9] == [0, 1, 0, 1, 0, 1, 0, 1, 1]


def _script_router(monkeypatch, picks, feedback="transmit"):
    """Route both engines' UCB1 sessions through a router that takes
    ``feedback`` and returns ``picks`` from its successive selections (the
    last one from then on)."""

    class Scripted:
        needs_feedback = feedback
        follows_plan = True

        def __init__(self, path_ids, c=1.0):
            self._picks = 0

        def observe(self, path_id, reward):
            pass

        def select(self):
            self._picks += 1
            return picks[min(self._picks, len(picks)) - 1]

    monkeypatch.setattr(engine, "Ucb1Router", Scripted)  # plan_session builds both


def test_stale_plan_is_not_adopted(monkeypatch):
    # e0->r0->u0 (30 ms) beats the direct 500 ms in warmup, so path 1 is
    # the initial plan. Packet 0's feedback is back at +40 and selects the
    # direct path; its control message takes 500 ms. Packet 1's feedback at
    # +50 selects path 1 again; the direct link is 5 ms by then, so that
    # newer plan lands at +55, first. It keeps the active path, so no
    # generated packet is cut. The older plan, landing at +540, must be
    # ignored: every packet stays on path 1, all generated in one block.
    _script_router(monkeypatch, [0, 1])
    switch = WARMUP + 45.0
    fwd = LatencyTrace("e0", "u0", [0.0, switch], [500.0, 5.0])
    links = {("u0", "e0"): 10.0, ("e0", "r0"): 15.0, ("r0", "u0"): 15.0}
    traces = {link: constant_trace(*link, ms, 700_000.0) for link, ms in links.items()}
    traces[("e0", "u0")] = fwd
    topo = Topology([Node("e0", "endpoint"), Node("u0", "user"), Node("r0", "relay")], traces)
    generated = []
    block_latency = engine.path_latency

    def path_latency(topology, path, times):
        generated.append((path.path_id, times.tolist()))
        return block_latency(topology, path, times)

    monkeypatch.setattr(engine, "path_latency", path_latency)
    cfg = SessionConfig(endpoint="e0", user="u0", packet_count=100, interval_ms=10.0,
                        warmup_ms=WARMUP, router=RouterConfig(kind="via_ucb1", prune=False))
    res = run_session(topo, cfg)
    assert [(old, new) for _, old, new in res.report.path_changes] == [(1, 0), (0, 1)]
    assert all(rec.path_id == 1 for rec in res.records)
    assert generated == [(1, [rec.ts for rec in res.records])]
    _assert_equals_oracle(topo, cfg, None)


_build = engine.build_jitter_manager


def _leaky_build(*args):
    """A jitter manager that loses the last packet it holds at the flush."""
    manager = _build(*args)
    flush = manager.flush
    manager.flush = lambda end_time: flush(end_time)[:-1]
    return manager


def _early_build(*args):
    """A jitter manager that plays every packet out 1 ms before it arrives,
    in ``on_arrival`` and in the whole-stream ``play`` alike."""
    manager = _build(*args)
    on_arrival, play = manager.on_arrival, manager.play
    arrival = {}  # seq -> arrival time

    def early(packet, now):
        arrival[packet.seq] = now
        emissions, dropped = on_arrival(packet, now)
        return [em._replace(out=arrival[em.seq] - 1.0) for em in emissions], dropped

    def early_play(order, ts, ta, to, fate):
        play(order, ts, ta, to, fate)
        played = order[fate[order] == DELIVERED]
        to[played] = ta[played] - 1.0

    manager.on_arrival = early
    manager.play = early_play
    return manager


def _fault_sessions():
    """A direct session and a UCB1 session, both played by ``play`` (UCB1 is
    rewarded at transmit), and a VCRoute session, played by ``on_arrival``
    (it is rewarded end to end): 100 packets over constant 50 ms paths. The
    routers take feedback, and the detour e0->r0->u0 is as fast as the
    direct link."""
    routed = _relay_topology({("e0", "u0"): 50.0, ("u0", "e0"): 40.0,
                              ("e0", "r0"): 25.0, ("r0", "u0"): 25.0})
    vcroute = replace(_scripted_cfg(), router=RouterConfig(kind="vcroute_ts", prune=False))
    return [(constant_pair_topology(), _direct_cfg("watermark")), (routed, _scripted_cfg()),
            (routed, vcroute)]


def test_lost_packet_raises(monkeypatch):
    # a jitter manager that loses a held packet breaks conservation; the
    # check must be an exception, not an assert that python -O strips
    monkeypatch.setattr(engine, "build_jitter_manager", _leaky_build)
    for topo, cfg in _fault_sessions():
        with pytest.raises(RuntimeError, match="first seq 99"):
            run_session(topo, cfg)


def test_early_emission_raises(monkeypatch):
    # packets 0..98 play out when the next one arrives, so all are early
    # here; the flushed last packet plays out at its own arrival
    monkeypatch.setattr(engine, "build_jitter_manager", _early_build)
    for topo, cfg in _fault_sessions():
        with pytest.raises(RuntimeError,
                           match="^99 packets emitted before arrival, first seq 0$"):
            run_session(topo, cfg)


def test_invariants_hold_under_python_O():
    # both checks must survive python -O, which strips assert statements
    script = """
import sys
import test_engine as t
assert False, "asserts are on"
for build in (t._leaky_build, t._early_build):
    t.engine.build_jitter_manager = build
    for topo, cfg in t._fault_sessions():
        try:
            t.run_session(topo, cfg)
        except RuntimeError as exc:
            print(exc)
        else:
            sys.exit(f"{build.__name__}: no RuntimeError")
"""
    here = Path(__file__).resolve().parent
    path = [str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True,
                          cwd=here, env={**os.environ, "PYTHONPATH": os.pathsep.join(path)})
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines() == [
        "1 packets neither played out nor dropped, first seq 99",
    ] * 3 + [
        "99 packets emitted before arrival, first seq 0",
    ] * 3


def test_report_config_echo():
    cfg = _direct_cfg("watermark")
    rep = run_session(constant_pair_topology(), cfg).report
    assert rep.method == "direct+watermark"
    assert rep.router_kind == "direct"
    assert rep.jitter_kind == "watermark"
    assert list(rep.config["jitter"]) == [f.name for f in fields(JitterConfig)]
    assert rep.config["router"]["kind"] == "direct"
    assert rep.feedback_delay_model == "reverse-direct-oneway"
    # every field of the cell's router and jitter config is echoed as set
    template = SessionConfig(
        endpoint="e0", user="u0", packet_count=20, warmup_ms=WARMUP,
        router=RouterConfig(c=2.5, confidence=0.9, prune=False),
        jitter=JitterConfig(window_ms=1500.0, bin_ms=2.0, percentile=0.9,
                            loss_cost_ms=50.0, initial_lag_ms=5.0, max_lag_ms=900.0))
    cell = cell_config(template, 0, 1, "direct+buffer")
    echo = run_session(constant_pair_topology(), cell).report.config
    assert RouterConfig(**echo["router"]) == cell.router
    assert JitterConfig(**echo["jitter"]) == cell.jitter


def test_loss_threshold_flag():
    topo = constant_pair_topology()
    rep = run_session(topo, _direct_cfg("watermark", loss_threshold=0.0)).report
    assert rep.loss_threshold_exceeded is False  # 0.0 > 0.0 is not exceeded
    rep = run_session(topo, _direct_cfg("watermark")).report
    assert rep.loss_threshold_exceeded is None


def test_zero_packet_session():
    res = run_session(constant_pair_topology(), _direct_cfg("watermark", n=0))
    assert res.records == []
    assert res.report.delivered == 0
    assert res.report.loss_rate == 0.0
    assert res.report.latency_mean_ms == 0.0
    assert res.report.cdf == []


# ------------------------------------------------------------- validation

def test_unknown_node_rejected():
    cfg = SessionConfig(endpoint="e9", user="u0", packet_count=10)
    with pytest.raises(ValidationError):
        run_session(constant_pair_topology(), cfg)


def test_missing_reverse_link_rejected():
    # exploring routers feed back over u0->e0; the burst topology only has
    # the forward link
    topo = burst_direct_topology(1, 70_000.0)
    cfg = SessionConfig(
        endpoint="e0", user="u0", packet_count=10,
        router=RouterConfig(kind="via_ucb1"))
    with pytest.raises(ConfigurationError, match="u0"):
        run_session(topo, cfg)


def test_missing_links_are_listed_sorted_and_once():
    # a routed session needs every candidate path's links and the reverse
    # link; direct needs only e0->u0
    topo = _relay_topology({("r0", "u0"): 5.0, ("r0", "e0"): 5.0})
    for kind in ("vcroute_ts", "via_ucb1"):
        cfg = SessionConfig(endpoint="e0", user="u0", packet_count=10,
                            router=RouterConfig(kind=kind))
        with pytest.raises(ConfigurationError) as info:
            run_session(topo, cfg)
        assert str(info.value) == (
            "missing traces for links: [('e0', 'r0'), ('e0', 'u0'), ('u0', 'e0')]")
    cfg = SessionConfig(endpoint="e0", user="u0", packet_count=10)
    with pytest.raises(ConfigurationError) as info:
        run_session(topo, cfg)
    assert str(info.value) == "missing traces for links: [('e0', 'u0')]"
    topo = _relay_topology({("e0", "u0"): 5.0})
    assert run_session(topo, cfg).report.delivered == 10


def test_session_config_validation():
    with pytest.raises(ValidationError):
        SessionConfig(endpoint="e0", user="u0", packet_count=-1)
    for bad in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValidationError, match="finite and positive"):
            SessionConfig(endpoint="e0", user="u0", interval_ms=bad)
        with pytest.raises(ValidationError, match="finite and positive"):
            SessionConfig(endpoint="e0", user="u0", warmup_ms=bad)
    for bad in (float("inf"), float("nan"), -0.5, 2.0):
        with pytest.raises(ValidationError, match=r"loss_threshold must be null or in \[0, 1\]"):
            SessionConfig(endpoint="e0", user="u0", loss_threshold=bad)
    for edge in (None, 0.0, 1.0):
        assert SessionConfig(endpoint="e0", user="u0", loss_threshold=edge).loss_threshold == edge
    with pytest.raises(ValidationError):
        RouterConfig(kind="ospf")
    for c in (-5.0, float("nan"), float("inf")):
        with pytest.raises(ValidationError, match="router c must be finite and nonnegative"):
            RouterConfig(c=c)
    for confidence in (0.0, 1.0, float("nan")):
        with pytest.raises(ValidationError, match=r"router confidence must be in \(0, 1\)"):
            RouterConfig(confidence=confidence)
    with pytest.raises(ValidationError, match="router c"):
        replace(RouterConfig(), kind="via_ucb1", c=-1.0)


# ------------------------------------------------- determinism and matrix

def _small_hetero_cfg(seed=3):
    return SessionConfig(
        endpoint="e0", user="u0", packet_count=500, interval_ms=10.0,
        warmup_ms=20_000.0, seed=seed,
        router=RouterConfig(kind="vcroute_ts", prune=False))


def test_rerun_byte_identical():
    topo = hetero_topology(3, 40_000.0)
    a = run_session(topo, _small_hetero_cfg())
    b = run_session(topo, _small_hetero_cfg())
    assert a.report.to_json() == b.report.to_json()
    assert a.records == b.records


def test_seed_changes_ts_run():
    topo = hetero_topology(3, 40_000.0)
    a = run_session(topo, _small_hetero_cfg(seed=3)).report
    b = run_session(topo, _small_hetero_cfg(seed=4)).report
    assert a.to_json() != b.to_json()


# sha256 of each method's report (its to_dict, which leaves out the CDF) and of
# every record's (seq, ts, ta, to, path_id, fate) on one small unpruned
# hetero session; a change to the session loop must keep them bit for bit
GOLDEN_DIGESTS = {
    "drt-bf": "ef8578c00adc392748b52cd46fbbff93efe08eb4006f83a3218a7b9888d7cfec",
    "drt-wm": "361230d34a4747252173a011d4b0a16f470f1b7042a9ab34a3c106b5f03d3d41",
    "vcr-wm": "53d1226caf79d3d49e0086238083cc47dd318a6f2a3b6bb20a99be8d48557588",
    "via-bf": "38c1b2c426c525108eb82c4559816d06ebfdcbdd6318cf5679db9e3420eccf5c",
    "via-wm": "7e562838b1e0993ad7bdf7631a8b3fc738408adf2f8787a14ef29bc0396c6c63",
}


@pytest.mark.parametrize("method", sorted(METHODS))
def test_golden_digests(method):
    template = SessionConfig(
        endpoint="e0", user="u0", packet_count=1500, interval_ms=10.0,
        warmup_ms=20_000.0, seed=7, router=RouterConfig(prune=False))
    res = run_session(hetero_topology(5, 40_000.0), method_config(template, method),
                      method=method)
    report = res.report.to_dict()
    rows = [(r.seq, r.ts, r.ta, r.to, r.path_id, r.fate) for r in res.records]
    blob = json.dumps([report, rows], sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == GOLDEN_DIGESTS[method]


# sha256 of the three files a report is written to (to_json, the CDF CSV and
# a one-row summary CSV), byte for byte as the CLI writes them: each method
# on the golden scenario, and vcr-wm pruned at a 20/3 ms cadence with a loss
# threshold, so loss_threshold_exceeded is not null
FILE_DIGESTS = {
    "drt-bf": "b18a7325edd188c1d48ca5a47ba872e5084f99613c9d0241f93100274c826e61",
    "drt-wm": "0c9554281dd21ac0684db7a474b5aba633757895f8eda6a2019bfc7039a42c02",
    "vcr-wm": "4264a48d2c2300ff58ff8888e59e171393bf46cbea6eebf2895c0b21106f3900",
    "via-bf": "fad53637750a52919ce35160799c34a91a587d7d5d4f643815280415c6d81382",
    "via-wm": "5cf08931bc1e9b7a1bbbade108470523bf064e949cb83832d44a4fc3a6c15520",
    "vcr-wm-20/3ms": "9b25be83014a69187da376c67e58d2629b785668dfcf4b17c1f00ce4bdc193f8",
}


@pytest.mark.parametrize("case", sorted(FILE_DIGESTS))
def test_report_file_digests(case, tmp_path):
    method, _, variant = case.partition("-20/3")
    template = SessionConfig(
        endpoint="e0", user="u0", packet_count=1500, interval_ms=10.0,
        warmup_ms=20_000.0, seed=7, router=RouterConfig(prune=False))
    if variant:
        template = replace(template, interval_ms=20 / 3, loss_threshold=0.01,
                           router=RouterConfig(prune=True))
    report = run_session(hetero_topology(5, 40_000.0), method_config(template, method),
                         method=method).report
    report.write_cdf_csv(tmp_path / "cdf.csv")
    write_summary_csv([report], tmp_path / "summary.csv")
    digest = hashlib.sha256(report.to_json().encode())
    digest.update((tmp_path / "cdf.csv").read_bytes())
    digest.update((tmp_path / "summary.csv").read_bytes())
    assert digest.hexdigest() == FILE_DIGESTS[case]


ROUTED_METHODS = [m for m in sorted(METHODS) if METHODS[m][0] != "direct"]


@pytest.mark.parametrize("method", ROUTED_METHODS)
def test_session_flushes_at_its_last_arrival(method):
    # the golden scenario: feedback and control messages land after the last
    # arrival, but the jitter manager flushes at that arrival
    template = SessionConfig(
        endpoint="e0", user="u0", packet_count=1500, interval_ms=10.0,
        warmup_ms=20_000.0, seed=7, router=RouterConfig(prune=False))
    res = run_session(hetero_topology(5, 40_000.0), method_config(template, method))
    last_arrival = max(rec.ta for rec in res.records)
    flushed = [rec.to for rec in res.records if rec.fate == "flushed"]
    assert flushed
    assert all(to == last_arrival for to in flushed)


def _plan_with(monkeypatch, make_router):
    """Run ``run_session`` with ``make_router()`` in place of the router
    ``plan_session`` builds; the oracle keeps its own."""
    plan = engine.plan_session
    monkeypatch.setattr(engine, "plan_session",
                        lambda topology, cfg: (*plan(topology, cfg)[:3], make_router()))


@pytest.mark.parametrize("method", ROUTED_METHODS)
def test_one_path_session_runs_without_a_bandit(method, monkeypatch):
    # pruning keeps only e0->r0->u0 on the hetero scenario, so no feedback
    # can change the pick: the session runs without the bandit, and its
    # records and report equal those of a run that forces the bandit in
    calls = {"observe": 0, "select": 0}
    for cls in (ThompsonRouter, Ucb1Router):
        for name in calls:
            def counted(self, *args, _call=getattr(cls, name), _name=name):
                calls[_name] += 1
                return _call(self, *args)
            monkeypatch.setattr(cls, name, counted)
    topo = hetero_topology(5, 40_000.0)
    cfg = method_config(SessionConfig(
        endpoint="e0", user="u0", packet_count=1500, interval_ms=10.0,
        warmup_ms=20_000.0, seed=7), method)
    fast = run_session(topo, cfg, method=method)
    assert fast.report.topk_paths == [1]
    assert calls == {"observe": 0, "select": 0}

    def bandit():  # one arm picks itself whatever its prior
        if cfg.router.kind == "via_ucb1":
            return Ucb1Router([1])
        return ThompsonRouter([(1, 150.0, 1.0)], np.random.default_rng(cfg.seed))

    _plan_with(monkeypatch, bandit)
    slow = run_session(topo, cfg, method=method)
    assert calls["observe"] > 0 and calls["select"] > 0
    assert slow.records == fast.records
    assert slow.report.to_json() == fast.report.to_json()


def _count_records(monkeypatch):
    """The seqs of the PacketRecords the engine builds, in build order."""
    built = []
    record = engine.PacketRecord
    monkeypatch.setattr(engine, "PacketRecord",
                        lambda seq, *fields: built.append(seq) or record(seq, *fields))
    return built


@pytest.mark.parametrize("method", ["drt-bf", "drt-wm", "vcr-wm"])
def test_feedback_free_records_are_built_when_read(method, monkeypatch):
    # a session without feedback (vcr-wm pruned to one path too) keeps its
    # records as columns: none is built until they are read, then all of
    # them once, over several blocks, equal to the event-queue oracle's
    built = _count_records(monkeypatch)
    topo = hetero_topology(5, 80_000.0)
    cfg = method_config(SessionConfig(
        endpoint="e0", user="u0", packet_count=2 * engine.RECORD_BLOCK + 500, interval_ms=10.0,
        warmup_ms=20_000.0, seed=7), method)
    res = run_session(topo, cfg, method=method)
    assert built == []
    records = res.records
    assert built == list(range(cfg.packet_count))
    assert res.records == records and built == list(range(cfg.packet_count))
    oracle = reference_session(topo, cfg, method=method)
    assert records == oracle.records
    assert res.report.to_json() == oracle.report.to_json()
    assert {rec.fate for rec in records} == {"delivered", "dropped_late", "flushed"}


def test_run_matrix_builds_no_records(monkeypatch):
    # pruning keeps one path for every method here, so no cell takes
    # feedback, and run_matrix reads only the reports
    built = _count_records(monkeypatch)
    template = SessionConfig(endpoint="e0", user="u0", packet_count=1500, interval_ms=10.0,
                             warmup_ms=20_000.0, seed=7)
    result = run_matrix([(hetero_topology(5, 40_000.0), template)], sorted(METHODS))
    assert len(result.cells) == len(METHODS)
    assert built == []


def _tied_arrivals_topology():
    """e0->u0 is 20 ms, but 30 ms for one packet in every 20 from seq 4 on:
    at a 10 ms cadence each step back down makes that packet's arrival tie
    with the next one's. u0->e0 is a constant 40 ms, for a router that
    takes feedback."""
    ups = WARMUP + 35.0 + 200.0 * np.arange(5)
    fwd = LatencyTrace("e0", "u0", np.concatenate([[0.0], np.ravel([ups, ups + 10.0], "F")]),
                       [20.0] + [30.0, 20.0] * 5)
    return Topology([Node("e0", "endpoint"), Node("u0", "user")],
                    {("e0", "u0"): fwd, ("u0", "e0"): constant_trace("u0", "e0", 40.0, 700_000.0)})


@pytest.mark.parametrize("method", ["drt-bf", "drt-wm"])
def test_arrival_schedule_equals_the_event_loop(method, monkeypatch):
    # a direct session is played from its sorted arrival schedule; given a
    # one-arm bandit, which takes feedback, the same session runs through
    # the event queue, which breaks a tie on ta by seq
    topo = _tied_arrivals_topology()
    cfg = method_config(_direct_cfg("watermark"), method)
    fast = run_session(topo, cfg, method=method)
    tas = [rec.ta for rec in fast.records]
    assert len(set(tas)) == len(tas) - 5  # five ties
    observed = []
    observe = Ucb1Router.observe
    monkeypatch.setattr(Ucb1Router, "observe",
                        lambda self, *args: observed.append(args) or observe(self, *args))
    _plan_with(monkeypatch, lambda: Ucb1Router([0]))
    slow = run_session(topo, cfg, method=method)
    assert len(observed) == cfg.packet_count  # one transmit feedback per arrival
    assert slow.records == fast.records
    assert slow.report.to_json() == fast.report.to_json()
    oracle = reference_session(topo, cfg, method=method)
    assert oracle.records == fast.records
    assert oracle.report.to_json() == fast.report.to_json()


@pytest.mark.parametrize("method", ["drt-bf", "drt-wm"])
def test_many_arrival_ties_go_by_seq(method):
    # whole-ms latencies with a 60 ms spread at a 10 ms cadence: dozens of
    # packets tie on ta with one generated earlier or later, and the manager
    # must take each tie in seq order, as the event queue pops them
    times = np.arange(0.0, WARMUP + 30_000.0, 10.0)
    lat = np.round(np.random.default_rng(8).normal(150.0, 60.0, times.size)).clip(1.0)
    topo = Topology([Node("e0", "endpoint"), Node("u0", "user")],
                    {("e0", "u0"): LatencyTrace("e0", "u0", times, lat)})
    cfg = method_config(_direct_cfg("watermark", n=2000), method)
    report = _assert_equals_oracle(topo, cfg, method)
    tas = [rec.ta for rec in run_session(topo, cfg).records]
    assert len(tas) - len(set(tas)) > 50
    assert report.dropped_late > 0


# ------------------------------------------- the event-queue oracle

def _assert_equals_oracle(topo, cfg, method):
    """run_session against tests/engine_reference.py: equal records and report."""
    res = run_session(topo, cfg, method=method)
    ref = reference_session(topo, cfg, method=method)
    assert res.records == ref.records
    assert res.report.to_json() == ref.report.to_json()
    return res.report


def _twin_relay_topology(seed, duration_ms):
    """Two equally cheap detours (e0->r0->u0, e0->r1->u0, 75+-7 ms per link)
    beside a 300+-30 ms direct link; r0<->r1 is 175+-10. Pruning keeps both
    detours, so a pruned session still routes."""
    means = {("e0", "u0"): (300.0, 30.0), ("u0", "e0"): (300.0, 30.0),
             ("r0", "r1"): (175.0, 10.0), ("r1", "r0"): (175.0, 10.0)}
    for r in ("r0", "r1"):
        means[("e0", r)] = means[(r, "u0")] = (75.0, 7.0)
    nodes = [Node("e0", "endpoint"), Node("u0", "user"), Node("r0", "relay"), Node("r1", "relay")]
    return Topology(nodes, {link: gaussian_link(*link, m, sd, seed, duration_ms)
                            for link, (m, sd) in means.items()})


@pytest.mark.parametrize("method", sorted(METHODS) + ["vcroute_ts+buffer"])
def test_sessions_equal_the_event_queue_oracle(method):
    # the golden scenario, unpruned and pruned (to one path: no feedback),
    # a small relay-hetero geometry at both cadences, and a pruned candidate
    # set of two detours, which still routes
    golden = SessionConfig(endpoint="e0", user="u0", packet_count=1500, interval_ms=10.0,
                           warmup_ms=20_000.0, seed=7)
    small = replace(golden, packet_count=2000, seed=1)
    cases = [(hetero_topology(5, 40_000.0), golden)]
    cases += [(hetero_topology(1, 45_000.0), replace(small, interval_ms=interval))
              for interval in (10.0, 20 / 3)]
    for topo, template in cases:
        for prune in (False, True):
            cfg = replace(template, router=RouterConfig(prune=prune))
            _assert_equals_oracle(topo, method_config(cfg, method), method)
    twin = method_config(replace(small, router=RouterConfig(prune=True)), method)
    report = _assert_equals_oracle(_twin_relay_topology(2, 45_000.0), twin, method)
    assert len(report.topk_paths) == (1 if report.router_kind == "direct" else 2)


@pytest.mark.parametrize("method", ["via-bf", "via-wm"])
def test_ucb1_sessions_equal_the_event_queue_oracle(method):
    # at c=1 the exploration bonus is negligible against rewards in ms, so
    # the plan never changes after the forced round; at c=2000 it changes
    # dozens of times, and every change cuts a generated block
    template = SessionConfig(endpoint="e0", user="u0", packet_count=4000, interval_ms=10.0,
                             warmup_ms=20_000.0, seed=0)
    topo = hetero_topology(0, 70_000.0)
    changes = {}
    for c in (1.0, 2000.0):
        cfg = method_config(replace(template, router=RouterConfig(c=c, prune=False)), method)
        changes[c] = _assert_equals_oracle(topo, cfg, method).plan_update_count
    assert changes[1.0] == 0
    assert changes[2000.0] >= 40


@pytest.mark.parametrize("method, c, generated", [("via-bf", 2000.0, 9025), ("vcr-wm", 1.0, 4272)])
def test_no_block_runs_past_a_queued_control(method, c, generated, monkeypatch):
    # packets generated for 4000, counted through the block latency lookup.
    # While a control message is queued, a block ends at its tick; blocks
    # that ran ARRIVAL_BLOCK packets regardless generated 10715 (via-bf,
    # 43 plans) and 4527 (vcr-wm, 6 plans)
    sizes = []
    block_latency = engine.path_latency

    def path_latency(topology, path, times):
        sizes.append(len(times))
        return block_latency(topology, path, times)

    monkeypatch.setattr(engine, "path_latency", path_latency)
    template = SessionConfig(endpoint="e0", user="u0", packet_count=4000, interval_ms=10.0,
                             warmup_ms=20_000.0, seed=0)
    cfg = method_config(replace(template, router=RouterConfig(c=c, prune=False)), method)
    topo = hetero_topology(0, 70_000.0)
    run_session(topo, cfg)
    assert sum(sizes) == generated
    assert max(sizes) == engine.ARRIVAL_BLOCK
    _assert_equals_oracle(topo, cfg, method)


# ------------------------------------------------- cuts of a generated block

def _relay_topology(links):
    """e0, u0 and relay r0, each link a constant latency in ms."""
    traces = {link: constant_trace(*link, ms, 700_000.0) for link, ms in links.items()}
    return Topology([Node("e0", "endpoint"), Node("u0", "user"), Node("r0", "relay")], traces)


def _scripted_cfg(jitter="watermark"):
    return SessionConfig(endpoint="e0", user="u0", packet_count=100, interval_ms=10.0,
                         warmup_ms=WARMUP, jitter=JitterConfig(kind=jitter),
                         router=RouterConfig(kind="via_ucb1", prune=False))


@pytest.mark.parametrize("fwd, first", [(43.0, 11), (39.0, 10)], ids=["between-ticks", "at-a-tick"])
def test_adoption_cuts_the_generated_block(fwd, first, monkeypatch):
    # e0->r0->u0 (20 ms) is the initial path and the first selection moves
    # the plan to the direct path. Packet 0's feedback is back at +61 and
    # its control message lands at +61+fwd: at +104, between ticks 10 and
    # 11, or at +100, on tick 10, whose packet it already re-routes. All
    # 100 packets were generated in one block on e0->r0->u0.
    _script_router(monkeypatch, [0])
    topo = _relay_topology({("e0", "u0"): fwd, ("u0", "e0"): 41.0,
                            ("e0", "r0"): 10.0, ("r0", "u0"): 10.0})
    cfg = _scripted_cfg()
    res = run_session(topo, cfg)
    assert [rec.path_id for rec in res.records] == [1] * first + [0] * (100 - first)
    assert [rec.ta - rec.ts for rec in res.records] == [20.0] * first + [fwd] * (100 - first)
    _assert_equals_oracle(topo, cfg, None)


def _assert_in_flight_packets_interleave(monkeypatch, feedback, via, interleaved):
    # the direct path is 200 ms, e0->r0->u0 20 ms. The first five selections
    # pick the direct path and the sixth the detour back. Five packets are
    # on the direct path when the block after them is generated again; they
    # arrive among that block's packets, with which they tie, and ties go by
    # seq (``interleaved``). The manager is handed every arrival through
    # ``via`` alone.
    _script_router(monkeypatch, [0] * 5 + [1], feedback)
    topo = _relay_topology({("e0", "u0"): 200.0, ("u0", "e0"): 10.0,
                            ("e0", "r0"): 10.0, ("r0", "u0"): 10.0})
    handed = {"on_arrival": [], "play": []}

    def recording_build(*args):
        # the arrival order the manager is handed, one on_arrival at a time
        # or as play's order
        manager = _build(*args)
        on_arrival, play = manager.on_arrival, manager.play
        manager.on_arrival = lambda packet, now: (handed["on_arrival"].append(packet.seq)
                                                  or on_arrival(packet, now))
        manager.play = lambda seqs, *columns: (handed["play"].extend(seqs.tolist())
                                               or play(seqs, *columns))
        return manager

    monkeypatch.setattr(engine, "build_jitter_manager", recording_build)
    cfg = _scripted_cfg()
    res = run_session(topo, cfg)
    first = interleaved[1]  # the first packet on the direct path
    assert [rec.path_id for rec in res.records] == [1] * first + [0] * 5 + [1] * (95 - first)
    order = handed[via]
    assert len(order) == sum(map(len, handed.values()))
    assert order == sorted(range(100), key=lambda seq: (res.records[seq].ta, seq))
    i = order.index(first)
    assert order[i - 1:i + 10] == interleaved
    _assert_equals_oracle(topo, cfg, None)


def test_in_flight_packets_interleave_with_the_new_block(monkeypatch):
    # rewarded at transmit, the plans land at +230 and +280, packets 23-27
    # arrive at +430..+470, and the session is played after its loop in
    # (ta, seq) order
    _assert_in_flight_packets_interleave(monkeypatch, "transmit", "play",
                                         [40, 23, 41, 24, 42, 25, 43, 26, 44, 27, 45])


def test_in_flight_packets_reach_on_arrival_in_merge_order(monkeypatch):
    # rewarded end to end, feedback waits for the play-out, so the plans
    # cut the stream one packet later and packets 24-28 take the direct
    # path. Each arrival is handed to on_arrival as the loop's pending merge
    # releases it, so that merge and its tie by seq are what order it
    _assert_in_flight_packets_interleave(monkeypatch, "e2e", "on_arrival",
                                         [41, 24, 42, 25, 43, 26, 44, 27, 45, 28, 46])


@pytest.mark.parametrize("jitter", ["watermark", "buffer"])
def test_arrival_at_its_own_tick_waits_for_a_control_message(jitter, monkeypatch):
    # e0->r0->u0 has 1e-12 ms links, below half an ulp of Ts (7.3e-12 ms at
    # 60 s), so its packets arrive at their own tick. Packet 0's feedback is
    # back at +20 and its plan for the direct path (30 ms) lands at +50, on
    # tick 5. Packet 5 was generated on the detour with an arrival at +50,
    # but the control message at +50 goes first and re-routes it.
    _script_router(monkeypatch, [0])
    topo = _relay_topology({("e0", "u0"): 30.0, ("u0", "e0"): 20.0,
                            ("e0", "r0"): 1e-12, ("r0", "u0"): 1e-12})
    cfg = _scripted_cfg(jitter=jitter)
    res = run_session(topo, cfg)
    assert [rec.path_id for rec in res.records] == [1] * 5 + [0] * 95
    assert all(rec.ta == rec.ts for rec in res.records[:5])
    assert all(rec.ta == rec.ts + 30.0 for rec in res.records[5:])
    _assert_equals_oracle(topo, cfg, None)


def test_method_config_specializes():
    base = _direct_cfg("watermark")
    via = method_config(base, "via-bf")
    assert via.router.kind == "via_ucb1"
    assert via.jitter.kind == "buffer"
    assert base.router.kind == "direct"  # template untouched
    with pytest.raises(ValidationError, match="unknown method"):
        method_config(base, "ecmp")
    cell = cell_config(base, 2, 3, "vcroute_ts+buffer")
    assert (cell.router.kind, cell.jitter.kind) == ("vcroute_ts", "buffer")
    assert cell.seed == derive_cell_seed(base.seed, 2, 3)


def test_method_kinds_resolves_names_and_labels():
    for name, kinds in METHODS.items():
        assert method_kinds(name) == kinds
    assert method_kinds("vcroute_ts+buffer") == ("vcroute_ts", "buffer")
    assert method_kinds("direct+watermark") == ("direct", "watermark")
    base = _direct_cfg("watermark")
    for bad in ("ospf+buffer", "direct+", "+buffer", "direct+buffer+x", "bogus"):
        with pytest.raises(ValidationError) as exc:
            method_kinds(bad)
        message = str(exc.value)
        assert message.startswith(f"unknown method {bad!r}; known: ")
        for resolve in (lambda: method_config(base, bad),
                        lambda: cell_config(base, 0, 0, bad),
                        lambda: run_matrix([(constant_pair_topology(), base)], [bad])):
            with pytest.raises(ValidationError) as again:
                resolve()
            assert str(again.value) == message


def test_run_matrix_reductions():
    topo = constant_pair_topology()
    sessions = [(topo, _direct_cfg("watermark", n=50))]
    mat = run_matrix(sessions, ["drt-bf", "drt-wm"])
    assert set(mat.cells) == {(0, "drt-bf"), (0, "drt-wm")}
    bf = mat.method_mean_ms["drt-bf"]
    wm = mat.method_mean_ms["drt-wm"]
    assert mat.reductions[("drt-bf", "drt-wm")] == pytest.approx((bf - wm) / bf)
    assert mat.reductions[("drt-wm", "drt-bf")] == pytest.approx((wm - bf) / wm)
    assert mat.method_loss == {"drt-bf": 0.0, "drt-wm": 0.0}
    # cells are seeded by (session, method) position, so a rerun is identical
    again = run_matrix(sessions, ["drt-bf", "drt-wm"])
    for key, rep in mat.cells.items():
        assert again.cells[key].to_json() == rep.to_json()


def test_run_matrix_custom_label():
    sessions = [(constant_pair_topology(), _direct_cfg("watermark", n=50))]
    mat = run_matrix(sessions, ["drt-bf", "direct+buffer"])
    custom = mat.cells[(0, "direct+buffer")]
    assert (custom.method, custom.router_kind, custom.jitter_kind) == (
        "direct+buffer", "direct", "buffer")
    assert custom.seed == derive_cell_seed(0, 0, 1)
    # the direct router draws nothing, so only the label and seed differ
    named = mat.cells[(0, "drt-bf")].to_dict()
    assert {k: v for k, v in custom.to_dict().items() if named[k] != v} == {
        "method": "direct+buffer", "seed": custom.seed}


def test_run_matrix_validation():
    with pytest.raises(ValidationError):
        run_matrix([], ["drt-bf"])
    with pytest.raises(ValidationError):
        run_matrix([(constant_pair_topology(), _direct_cfg("watermark"))], [])
    with pytest.raises(ValidationError, match="unknown method"):
        run_matrix([(constant_pair_topology(), _direct_cfg("watermark", n=10))],
                   ["drt-bf", "bogus"])


def test_run_matrix_rejects_repeated_labels():
    # cells are keyed by (session, label): a repeat would run twice, keep one
    with pytest.raises(ValidationError, match="'drt-bf' given more than once"):
        run_matrix([(constant_pair_topology(), _direct_cfg("watermark", n=10))],
                   ["drt-bf", "drt-wm", "drt-bf"])
