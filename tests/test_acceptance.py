"""Ten-point acceptance gate, one criterion per test.

Run with ``pytest -v tests/test_acceptance.py`` for the per-criterion roll
call; every test prints its measured numbers next to the stated thresholds
and time budgets.

Criterion 5 is reachable on its pinned burst scenario: a fixed 230 ms lag
already meets both clauses on the test's seeds (6.1% latency reduction at
+0.99pp loss). A lag that tracked only the jitter quantile, with a cost
ratchet during reordering episodes, missed it (2.5% at +2.02pp): interleaved
stragglers filled its jitter window and held the lag at burst scale for a
whole window after each burst. The lag now also covers the reorder depth
(the deepest recently seen transit minus the current one), which measures
38.1% at -0.14pp.
"""

import math
import statistics
import time

import numpy as np
import pytest

from relaysim import (
    JitterConfig,
    JitterEstimator,
    Packet,
    PlayoutBuffer,
    RouterConfig,
    SessionConfig,
    ThompsonRouter,
    Ucb1Router,
    WatermarkReorderer,
    enumerate_paths,
    path_count,
    run_session,
)
from scenarios import burst_direct_topology, constant_pair_topology, hetero_topology
from wm_reference import WatermarkReference, bursty_packets


# ---------------------------------------------------------------- criterion 1

def test_c01_posterior_update_matches_closed_form():
    rng = np.random.default_rng(42)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(10_000):
        mu = float(rng.uniform(-200.0, 400.0))
        tau0 = float(10.0 ** rng.uniform(-3.0, 3.0))
        n = int(rng.integers(1, 9))
        rewards = rng.uniform(0.1, 1000.0, n).tolist()

        # the prior is worth one observation: tau = tau0
        router = ThompsonRouter([(0, mu, tau0)], rng)
        for r in rewards:
            router.observe(0, r)
        got_mu, got_tau, _, pulls = router.arm(0)

        want_tau = tau0 + n * tau0
        want_mu = (tau0 * mu + tau0 * math.fsum(rewards)) / want_tau
        assert math.isclose(got_tau, want_tau, rel_tol=1e-9, abs_tol=1e-12)
        assert math.isclose(got_mu, want_mu, rel_tol=1e-9, abs_tol=1e-12)
        assert pulls == n
        worst = max(worst, abs(got_mu - want_mu) / max(abs(want_mu), 1e-12))
    elapsed = time.perf_counter() - t0
    print(f"criterion 1: 10000 instances, worst rel err {worst:.2e}, {elapsed:.2f}s")
    assert elapsed < 1.0


# ---------------------------------------------------------------- criterion 2

def test_c02_bandits_converge_on_three_arm_instance():
    means = np.array([100.0, 150.0, 200.0])
    t0 = time.perf_counter()
    ts_shares, ucb_shares = [], []
    for seed in range(20):
        rewards = np.maximum(
            np.random.default_rng(1000 + seed).normal(means, 10.0, (50_000, 3)),
            0.1).tolist()
        router = ThompsonRouter([(i, 150.0, 0.01) for i in range(3)],
                                np.random.default_rng(seed))
        hits = 0
        for t, row in enumerate(rewards):
            pid = router.select()
            if t >= 40_000 and pid == 0:
                hits += 1
            router.observe(pid, row[pid])
        ts_shares.append(hits / 10_000)

        rewards = np.maximum(
            np.random.default_rng(2000 + seed).normal(means, 10.0, (50_000, 3)),
            0.1).tolist()
        ucb = Ucb1Router(range(3), c=1.0)
        hits = 0
        for t, row in enumerate(rewards):
            pid = ucb.select()
            if t >= 40_000 and pid == 0:
                hits += 1
            ucb.observe(pid, row[pid])
        ucb_shares.append(hits / 10_000)
    elapsed = time.perf_counter() - t0
    ts_mean = statistics.mean(ts_shares)
    ucb_mean = statistics.mean(ucb_shares)
    print(f"criterion 2: best-arm share TS {ts_mean:.4f} (>= 0.90), "
          f"UCB1 {ucb_mean:.4f} (>= 0.85), {elapsed:.1f}s")
    assert ts_mean >= 0.90
    assert ucb_mean >= 0.85
    assert elapsed < 10.0


# ---------------------------------------------------------------- criterion 3

def test_c03_path_count_formula():
    assert path_count(4) == 17
    for r in range(9):
        relays = [f"r{i}" for i in range(r)]
        paths = enumerate_paths("e0", "u0", relays)
        assert len(paths) == path_count(r) == 1 + r + r * (r - 1)
        assert len({p.hops for p in paths}) == len(paths)
    print("criterion 3: 17 paths at 4 relays; formula exact for 0..8 relays")


# ---------------------------------------------------------------- criterion 4

def test_c04_watermark_matches_bruteforce_reference():
    t0 = time.perf_counter()
    for seed in range(200):
        rng = np.random.default_rng(seed)
        packets = bursty_packets(rng, 1000)
        wm = WatermarkReorderer(JitterEstimator())
        ref = WatermarkReference(JitterEstimator())
        got, got_drops = [], []
        for p in packets:
            emissions, dropped = wm.on_arrival(p, p.arrival)
            got.extend((e.seq, e.out) for e in emissions)
            if dropped:
                got_drops.append(p.seq)
            ref.arrival(p)
        got.extend((e.seq, e.out) for e in wm.flush(packets[-1].arrival))
        ref.flush(packets[-1].arrival)
        assert got == ref.emissions
        assert got_drops == ref.drops
    elapsed = time.perf_counter() - t0
    print(f"criterion 4: 200 x 1000-packet sequences exact, {elapsed:.1f}s")
    assert elapsed < 30.0


# ---------------------------------------------------------------- criterion 5

def _burst_cfg(seed, jitter_kind):
    return SessionConfig(
        endpoint="e0", user="u0", packet_count=60_000, interval_ms=10.0,
        warmup_ms=60_000.0, seed=seed, jitter=JitterConfig(kind=jitter_kind))


def test_c05_watermark_vs_buffer_on_bursty_direct_link():
    duration = 60_000.0 + 60_000 * 10.0 + 20_000.0
    t0 = time.perf_counter()
    wm_means, wm_losses, bf_means, bf_losses = [], [], [], []
    for seed in range(5):
        topo = burst_direct_topology(5000 + seed, duration)
        wm = run_session(topo, _burst_cfg(seed, "watermark"), method="drt-wm").report
        bf = run_session(topo, _burst_cfg(seed, "buffer"), method="drt-bf").report
        wm_means.append(wm.latency_mean_ms)
        wm_losses.append(wm.loss_rate)
        bf_means.append(bf.latency_mean_ms)
        bf_losses.append(bf.loss_rate)
    elapsed = time.perf_counter() - t0
    wm_mean, bf_mean = statistics.mean(wm_means), statistics.mean(bf_means)
    wm_loss, bf_loss = statistics.mean(wm_losses), statistics.mean(bf_losses)
    reduction = (bf_mean - wm_mean) / bf_mean
    dloss = wm_loss - bf_loss
    print(f"criterion 5: wm {wm_mean:.1f} ms loss {wm_loss:.2%} vs "
          f"bf {bf_mean:.1f} ms loss {bf_loss:.2%}; reduction {reduction:.1%} "
          f"(>= 5%), loss delta {dloss * 100:+.2f}pp (<= +1pp), {elapsed:.0f}s")
    assert elapsed < 120.0
    assert reduction >= 0.05 and dloss <= 0.01, (
        f"bursty direct link, 5 seeds x 60000 packets: latency reduction "
        f"{reduction:.1%} misses the >= 5% target and/or loss delta "
        f"{dloss * 100:+.2f}pp exceeds +1pp (wm {wm_mean:.1f} ms at "
        f"{wm_loss:.2%} loss, bf {bf_mean:.1f} ms at {bf_loss:.2%} loss); "
        f"the target is reachable: a fixed 230 ms lag meets both clauses on "
        f"these seeds (6.1% at +0.99pp), so the watermark's lag rule is at fault")


# ---------------------------------------------------- criteria 6-8 (shared)

@pytest.fixture(scope="module")
def hetero_matrix():
    packets = 30_000
    duration = 60_000.0 + packets * 10.0 + 20_000.0

    def cfg(kind, jitter_kind, seed, c=1.0):
        return SessionConfig(
            endpoint="e0", user="u0", packet_count=packets, interval_ms=10.0,
            warmup_ms=60_000.0, seed=seed,
            router=RouterConfig(kind=kind, c=c, prune=False),
            jitter=JitterConfig(kind=jitter_kind))

    t0 = time.perf_counter()
    rows = []
    for seed in range(5):
        topo = hetero_topology(1000 + seed, duration)
        rows.append({
            "vcr": run_session(topo, cfg("vcroute_ts", "watermark", seed),
                               method="vcr-wm").report,
            "via": run_session(topo, cfg("via_ucb1", "buffer", seed, c=2000.0),
                               method="via-bf").report,
            "drt": run_session(topo, cfg("direct", "watermark", seed),
                               method="drt-wm").report,
        })
    return rows, time.perf_counter() - t0


def test_c06_learned_relay_routing_beats_explorer_baseline(hetero_matrix):
    rows, elapsed = hetero_matrix
    vcr = statistics.mean(r["vcr"].latency_mean_ms for r in rows)
    via = statistics.mean(r["via"].latency_mean_ms for r in rows)
    drt = statistics.mean(r["drt"].latency_mean_ms for r in rows)
    reduction = (via - vcr) / via
    print(f"criterion 6: vcr {vcr:.1f} ms, via {via:.1f} ms, drt {drt:.1f} ms; "
          f"reduction vs via {reduction:.1%} (>= 10%), vcr <= drt: "
          f"{vcr <= drt}, {elapsed:.0f}s")
    assert elapsed < 120.0
    assert reduction >= 0.10
    assert vcr <= drt


def test_c07_plan_update_frugality(hetero_matrix):
    rows, _ = hetero_matrix
    vcr_counts = [r["vcr"].plan_update_count for r in rows]
    via_counts = [r["via"].plan_update_count for r in rows]
    # the churn comparison is over the scenario's path-change counts: session
    # totals, with the per-session update budget bounded separately
    ratio = sum(vcr_counts) / sum(via_counts)
    print(f"criterion 7: plan updates per session {vcr_counts} (< 1500 each); "
          f"explorer baseline {via_counts}; count ratio {ratio:.3f} (< 0.20)")
    for count in vcr_counts:
        assert count < 1500
    assert ratio < 0.20


def test_c08_control_overhead_bound(hetero_matrix):
    rows, _ = hetero_matrix
    shares = [r["vcr"].overhead_per_packet_ms / r["vcr"].latency_mean_ms
              for r in rows]
    print(f"criterion 8: overhead/mean per seed "
          f"{[f'{s:.4%}' for s in shares]} (< 1%)")
    for share in shares:
        assert share < 0.01


# ---------------------------------------------------------------- criterion 9

def test_c09_conservation_and_determinism(hetero_matrix):
    rows, _ = hetero_matrix
    t0 = time.perf_counter()
    # conservation on every engine report from the routing matrix
    for row in rows:
        for rep in row.values():
            assert rep.delivered + rep.dropped_late == rep.packet_count
            assert rep.tail_flushed <= rep.delivered

    # identical (config, seed) -> byte-identical report
    topo = hetero_topology(1000, 100_000.0)
    cfg = SessionConfig(
        endpoint="e0", user="u0", packet_count=3000, interval_ms=10.0,
        warmup_ms=60_000.0, seed=7,
        router=RouterConfig(kind="vcroute_ts", prune=False),
        jitter=JitterConfig(kind="watermark"))
    assert (run_session(topo, cfg).report.to_json()
            == run_session(topo, cfg).report.to_json())

    # 1e5-arrival manager fuzz: conservation, monotone watermark, ordered
    # emission batches, no time travel
    arrivals = 0
    for seed in range(25):
        packets = bursty_packets(np.random.default_rng(300 + seed), 2000)
        by_seq = {p.seq: p for p in packets}
        for manager in (WatermarkReorderer(JitterEstimator()),
                        PlayoutBuffer(JitterEstimator(), 10.0)):
            is_wm = isinstance(manager, WatermarkReorderer)
            emitted, dropped, floor = [], 0, -math.inf
            for p in packets:
                emissions, was_dropped = manager.on_arrival(p, p.arrival)
                arrivals += 1
                dropped += bool(was_dropped)
                if is_wm:
                    assert manager.watermark >= floor
                    floor = manager.watermark
                    ts_batch = [by_seq[e.seq].ts for e in emissions]
                    assert ts_batch == sorted(ts_batch)
                emitted.extend(emissions)
            emitted.extend(manager.flush(packets[-1].arrival))
            seqs = [e.seq for e in emitted]
            assert len(seqs) == len(set(seqs))
            assert len(seqs) + dropped == len(packets)
            outs = [e.out for e in emitted]
            assert outs == sorted(outs)
            assert all(e.out >= by_seq[e.seq].arrival for e in emitted)
    elapsed = time.perf_counter() - t0
    print(f"criterion 9: {arrivals} fuzz arrivals, zero violations, "
          f"byte-identical rerun, {elapsed:.1f}s")
    assert arrivals == 100_000
    assert elapsed < 60.0


# --------------------------------------------------------------- criterion 10

def test_c10_constant_trace_zero_loss():
    topo = constant_pair_topology()
    for jitter_kind in ("watermark", "buffer"):
        cfg = SessionConfig(
            endpoint="e0", user="u0", packet_count=10_000, interval_ms=10.0,
            warmup_ms=60_000.0, seed=0, jitter=JitterConfig(kind=jitter_kind))
        rep = run_session(topo, cfg).report
        assert rep.loss_rate == 0.0
        assert rep.dropped_late == 0
        assert rep.delivered == 10_000
    print("criterion 10: constant trace, direct routing: loss exactly 0 "
          "under both managers")
