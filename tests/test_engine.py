"""Session engine tests against hand-computed constant-trace oracles."""

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
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
    ValidationError,
    method_config,
    run_matrix,
    run_session,
    Topology,
)
from relaysim import engine
from relaysim.engine import cell_config, derive_cell_seed, method_kinds
from relaysim.reports import write_summary_csv
from scenarios import (
    burst_direct_topology,
    constant_pair_topology,
    constant_trace,
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
    assert rep.control_messages == 0
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


class _ScriptedRouter:
    """Transmit feedback; picks path 0 at the first feedback, then path 1."""

    needs_feedback = "transmit"

    def __init__(self, path_ids, c=1.0):
        self._picks = 0

    def path_for(self, seq, active_path):
        return active_path

    def ready(self):
        return True

    def observe(self, path_id, reward):
        pass

    def select(self):
        self._picks += 1
        return 0 if self._picks == 1 else 1


def test_stale_plan_is_not_adopted(monkeypatch):
    # e0->r0->u0 (30 ms) beats the direct 500 ms in warmup, so path 1 is
    # the initial plan. Packet 0's feedback is back at +40 and selects the
    # direct path; its control message takes 500 ms. Packet 1's feedback at
    # +50 selects path 1 again; the direct link is 5 ms by then, so that
    # newer plan lands at +55, first. The older plan, landing at +540, must
    # be ignored: every packet stays on path 1.
    switch = WARMUP + 45.0
    fwd = LatencyTrace("e0", "u0", [0.0, switch], [500.0, 5.0])
    links = {("u0", "e0"): 10.0, ("e0", "r0"): 15.0, ("r0", "u0"): 15.0}
    traces = {link: constant_trace(*link, ms, 700_000.0) for link, ms in links.items()}
    traces[("e0", "u0")] = fwd
    topo = Topology([Node("e0", "endpoint"), Node("u0", "user"), Node("r0", "relay")], traces)
    monkeypatch.setattr(engine, "Ucb1Router", _ScriptedRouter)
    cfg = SessionConfig(endpoint="e0", user="u0", packet_count=100, interval_ms=10.0,
                        warmup_ms=WARMUP, router=RouterConfig(kind="via_ucb1", prune=False))
    res = run_session(topo, cfg)
    assert [(old, new) for _, old, new in res.report.path_changes] == [(1, 0), (0, 1)]
    assert all(rec.path_id == 1 for rec in res.records)


_build = engine.build_jitter_manager


def _leaky_build(*args):
    """A jitter manager that loses the last packet it holds at the flush."""
    manager = _build(*args)
    flush = manager.flush
    manager.flush = lambda end_time: flush(end_time)[:-1]
    return manager


def _early_build(*args):
    """A jitter manager that plays every packet out 1 ms before it arrives."""
    manager = _build(*args)
    on_arrival = manager.on_arrival

    def early(packet, now):
        emissions, dropped = on_arrival(packet, now)
        return [replace(em, out=em.arrival - 1.0) for em in emissions], dropped

    manager.on_arrival = early
    return manager


def test_lost_packet_raises(monkeypatch):
    # a jitter manager that loses a held packet breaks conservation; the
    # check must be an exception, not an assert that python -O strips
    monkeypatch.setattr(engine, "build_jitter_manager", _leaky_build)
    with pytest.raises(RuntimeError, match="first seq 99"):
        run_session(constant_pair_topology(), _direct_cfg("watermark"))


def test_early_emission_raises(monkeypatch):
    # packets 0..98 play out when the next one arrives, so all are early
    # here; the flushed last packet plays out at its own arrival
    monkeypatch.setattr(engine, "build_jitter_manager", _early_build)
    with pytest.raises(RuntimeError,
                       match="^99 packets emitted before arrival, first seq 0$"):
        run_session(constant_pair_topology(), _direct_cfg("watermark"))


def test_invariants_hold_under_python_O():
    # both checks must survive python -O, which strips assert statements
    script = """
import sys
import test_engine as t
from scenarios import constant_pair_topology
assert False, "asserts are on"
for build in (t._leaky_build, t._early_build):
    t.engine.build_jitter_manager = build
    try:
        t.run_session(constant_pair_topology(), t._direct_cfg("watermark"))
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
        "99 packets emitted before arrival, first seq 0",
    ]


def test_report_config_echo():
    cfg = _direct_cfg("watermark")
    rep = run_session(constant_pair_topology(), cfg).report
    assert rep.method == "direct+watermark"
    assert rep.router_kind == "direct"
    assert rep.jitter_kind == "watermark"
    assert rep.config["jitter"]["update_on_drop"] is True
    assert rep.config["router"]["kind"] == "direct"
    assert rep.estimator_implementation == "python"
    assert rep.feedback_delay_model == "reverse-direct-oneway"
    # every field of the cell's router and jitter config is echoed as set
    template = SessionConfig(
        endpoint="e0", user="u0", packet_count=20, warmup_ms=WARMUP,
        router=RouterConfig(c=2.5, confidence=0.9, prune=False),
        jitter=JitterConfig(window_ms=1500.0, bin_ms=2.0, percentile=0.9,
                            loss_cost_ms=50.0, initial_lag_ms=5.0, max_lag_ms=900.0,
                            update_on_drop=False))
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


def test_session_config_validation():
    with pytest.raises(ValidationError):
        SessionConfig(endpoint="e0", user="u0", packet_count=-1)
    with pytest.raises(ValidationError):
        SessionConfig(endpoint="e0", user="u0", interval_ms=0.0)
    with pytest.raises(ValidationError):
        RouterConfig(kind="ospf")


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


# sha256 of each method's report, less the estimator twin's name, and of
# every record's (seq, ts, ta, to, path_id, fate) on one small unpruned
# hetero session; a change to the session loop must keep them bit for bit
GOLDEN_DIGESTS = {
    "drt-bf": "d7940746957653528c010f9100ac29bf40e65d17249c887885e5e88910466ce1",
    "drt-wm": "c682db9516bd1dbd5d0eac58993a4027ce29b84cabcea7e58a0441f94599ac42",
    "vcr-wm": "d148d03e4c761359c3951bcfb869da85c7c644492eb85d6d7206826759a2dfda",
    "via-bf": "028ed78198e6abb7675b4702556072a350ddb42cde3be35a03fb758d04b8fc35",
    "via-wm": "b89c8faa94f9f4839523cded4114bed56b66e5845f65d1481f57aab5218a3ae6",
}


@pytest.mark.parametrize("method", sorted(METHODS))
def test_golden_digests(method):
    template = SessionConfig(
        endpoint="e0", user="u0", packet_count=1500, interval_ms=10.0,
        warmup_ms=20_000.0, seed=7, router=RouterConfig(prune=False))
    res = run_session(hetero_topology(5, 40_000.0), method_config(template, method),
                      method=method)
    report = res.report.to_dict()
    del report["estimator_implementation"]
    rows = [(r.seq, r.ts, r.ta, r.to, r.path_id, r.fate) for r in res.records]
    blob = json.dumps([report, rows], sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == GOLDEN_DIGESTS[method]


# sha256 of the three files a report is written to (to_json, the CDF CSV and
# a one-row summary CSV), byte for byte as the CLI writes them: each method
# on the golden scenario, and vcr-wm pruned at a 20/3 ms cadence with a loss
# threshold, so loss_threshold_exceeded is not null
FILE_DIGESTS = {
    "drt-bf": "4eb02606cbd2d7db5d0fee972dee51b7a9d265f04b573cfe2824ad34639d3b51",
    "drt-wm": "e62b5ea972b740698ae2724aa0e470d2c800f1d5f361503d701cdd08d0516deb",
    "vcr-wm": "41974bdf7c6a0d25f72f70c6c92188034853df790b7e36c580da114a42d02e78",
    "via-bf": "595124bd4ce59e599933fb999f7f8ae2ac1996007ae689884f9d14ff92922eea",
    "via-wm": "bb2304a450dec20cc305f6103a3517cf73b928a036ed693ca6b18e82efd52c56",
    "vcr-wm-20/3ms": "04eec76a7a90bbd04a74c7f52850a01979c09e2bf913b327fd57e37d9958d9e3",
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
