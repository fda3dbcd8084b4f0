"""Path enumeration, warmup stats, and pruning."""

from statistics import NormalDist

import numpy as np
import pytest

from relaysim import (
    InsufficientHistoryError,
    LatencyTrace,
    Node,
    PathStats,
    RelayPath,
    Topology,
    ValidationError,
    enumerate_paths,
    path_count,
    prune_topk,
    warmup_stats,
)
from relaysim.paths import path_latency, required_links
from scenarios import hetero_topology


def test_path_count_formula():
    assert path_count(0) == 1
    assert path_count(1) == 2
    assert path_count(2) == 5
    assert path_count(4) == 17


@pytest.mark.parametrize("n_relays", range(9))
def test_enumeration_matches_count(n_relays):
    relays = [f"r{i}" for i in range(n_relays)]
    paths = enumerate_paths("e", "u", relays)
    assert len(paths) == path_count(n_relays)
    assert [p.path_id for p in paths] == list(range(len(paths)))


def test_enumeration_structure():
    paths = enumerate_paths("e", "u", ["r0", "r1"])
    assert paths[0].hops == ("e", "u")
    hops = [p.hops for p in paths]
    assert ("e", "r0", "u") in hops and ("e", "r1", "u") in hops
    assert ("e", "r0", "r1", "u") in hops and ("e", "r1", "r0", "u") in hops
    assert len(set(hops)) == len(hops)
    for p in paths:
        assert p.hops[0] == "e" and p.hops[-1] == "u"
        assert len(p.hops) <= 4  # at most two relays
        assert p.links() == list(zip(p.hops[:-1], p.hops[1:]))


def test_enumeration_validation():
    with pytest.raises(ValidationError):
        enumerate_paths("e", "e", [])
    with pytest.raises(ValidationError):
        enumerate_paths("e", "u", ["r0", "r0"])
    with pytest.raises(ValidationError):
        enumerate_paths("e", "u", ["e"])
    with pytest.raises(ValidationError):
        RelayPath(0, ("e",))
    with pytest.raises(ValidationError):
        RelayPath(0, ("e", "r", "e"))


def _const_topology(latencies: dict[tuple[str, str], float]) -> Topology:
    names = sorted({n for link in latencies for n in link})
    nodes = [Node(n, "relay") for n in names]
    traces = {
        link: LatencyTrace(link[0], link[1], [0.0], [value])
        for link, value in latencies.items()
    }
    return Topology(nodes, traces)


def test_required_links_cover_all_paths():
    relays = ["r0", "r1"]
    links = required_links("e", "u", relays)
    seen = set(links)
    assert len(seen) == len(links)  # no duplicates
    for path in enumerate_paths("e", "u", relays):
        for link in path.links():
            assert link in seen
    assert ("u", "e") in seen  # feedback link
    assert ("u", "e") not in required_links("e", "u", relays, include_reverse=False)


def test_warmup_stats_against_direct_computation():
    rng = np.random.default_rng(42)
    duration = 5000.0
    step = 37.0  # deliberately not a divisor of the cadence
    t_axis = np.arange(0.0, duration, step)
    topo = Topology(
        [Node("e", "endpoint"), Node("r", "relay"), Node("u", "user")],
        {
            ("e", "u"): LatencyTrace("e", "u", t_axis, rng.uniform(10, 200, t_axis.size)),
            ("e", "r"): LatencyTrace("e", "r", t_axis, rng.uniform(10, 200, t_axis.size)),
            ("r", "u"): LatencyTrace("r", "u", t_axis, rng.uniform(10, 200, t_axis.size)),
        },
    )
    paths = enumerate_paths("e", "u", ["r"])
    interval = 10.0
    warmup = 1000.0
    stats = warmup_stats(paths, topo, warmup, interval)

    ticks = np.arange(0.0, warmup, interval)
    for path, st in zip(paths, stats):
        totals = [sum(topo.trace(a, b).sample(t) for a, b in path.links()) for t in ticks]
        assert st.path_id == path.path_id
        assert st.m == len(ticks)
        assert st.mean_ms == pytest.approx(np.mean(totals), rel=1e-12)
        assert st.std_ms == pytest.approx(np.std(totals, ddof=1), rel=1e-12)


def test_path_latency_sums_link_samples_on_a_two_relay_path():
    # each link has its own sample times, so one query time can fall before
    # one trace starts, on another's sample and between a third's samples
    rng = np.random.default_rng(7)
    axes = {("e", "r0"): [100.0, 130.0, 160.0, 190.0],
            ("r0", "r1"): [120.0, 145.0, 170.0],
            ("r1", "u"): [110.0, 140.0, 175.0, 200.0, 230.0]}
    traces = {link: LatencyTrace(*link, t, rng.uniform(5.0, 80.0, len(t)))
              for link, t in axes.items()}
    topo = Topology([Node("e", "endpoint"), Node("r0", "relay"), Node("r1", "relay"),
                     Node("u", "user")], traces)
    path = RelayPath(5, ("e", "r0", "r1", "u"))
    before = [0.0, 99.0, 99.999]
    on_samples = sorted({t for axis in axes.values() for t in axis})
    between = [105.0, 125.5, 150.0, 171.0, 199.0, 215.0]
    after = [230.5, 500.0, 1e6]
    times = np.array(before + on_samples + between + after)
    got = path_latency(topo, path, times)
    assert got.shape == times.shape
    expected = [sum(traces[link].sample(t) for link in path.links()) for t in times.tolist()]
    assert got.tolist() == expected


def test_warmup_stats_equal_per_path_latency_on_hetero_topology(monkeypatch):
    # 17 paths over 21 distinct links: each link is looked up once, and
    # every path's stats equal those of its own path_latency array exactly
    topo = hetero_topology(2, 30_000.0)
    paths = enumerate_paths("e0", "u0", ["r0", "r1", "r2", "r3"])
    assert len(paths) == 17
    lookups = []
    at = LatencyTrace.at

    def counted_at(trace, times):
        lookups.append(trace)
        return at(trace, times)

    monkeypatch.setattr(LatencyTrace, "at", counted_at)
    stats = warmup_stats(paths, topo, 20_000.0, 10.0)
    monkeypatch.undo()
    assert len(lookups) == len(set(map(id, lookups))) == 21
    ticks = np.arange(0.0, 20_000.0, 10.0)
    for path, st in zip(paths, stats):
        total = path_latency(topo, path, ticks)
        assert (st.path_id, st.m) == (path.path_id, ticks.size)
        assert st.mean_ms == float(np.mean(total))
        assert st.std_ms == float(np.std(total, ddof=1))


def test_warmup_stats_validation():
    topo = _const_topology({("e", "u"): 50.0})
    paths = enumerate_paths("e", "u", [])
    with pytest.raises(ValidationError):
        warmup_stats(paths, topo, 0.0, 10.0)
    with pytest.raises(InsufficientHistoryError):
        warmup_stats(paths, topo, 10.0, 10.0)  # a single tick is not a spread


def test_prune_overlapping_pair_survives_outlier_does_not():
    # intervals: mean +/- z*std/sqrt(m); z(0.95) ~ 1.96, half-width 0.98 here
    stats = [
        PathStats(0, 100, 100.0, 5.0),
        PathStats(1, 100, 101.0, 5.0),
        PathStats(2, 100, 300.0, 5.0),
    ]
    kept = prune_topk(stats, confidence=0.95)
    assert kept == [0, 1]
    # verify the interval arithmetic the function is supposed to apply
    z = NormalDist().inv_cdf(0.975)
    half = z * 5.0 / np.sqrt(100)
    assert 101.0 - half <= 100.0 + half       # path 1 overlaps the best
    assert 300.0 - half > 100.0 + half        # path 2 does not


def test_prune_keeps_everything_when_identical():
    stats = [PathStats(i, 50, 120.0, 8.0) for i in range(6)]
    assert prune_topk(stats) == list(range(6))


def test_prune_dominant_path_prunes_to_one():
    stats = [PathStats(0, 400, 50.0, 2.0), PathStats(1, 400, 200.0, 2.0),
             PathStats(2, 400, 210.0, 2.0)]
    assert prune_topk(stats) == [0]


def test_prune_always_keeps_min_mean_path():
    rng = np.random.default_rng(9)
    for _ in range(200):
        k = int(rng.integers(1, 8))
        stats = [
            PathStats(i, int(rng.integers(2, 300)),
                      float(rng.uniform(20, 400)), float(rng.uniform(0.5, 60)))
            for i in range(k)
        ]
        kept = prune_topk(stats, confidence=float(rng.uniform(0.5, 0.999)))
        assert kept
        best = min(stats, key=lambda s: s.mean_ms)
        assert best.path_id in kept
        assert kept == sorted(kept)


def test_prune_monotone_in_confidence():
    # wider intervals at higher confidence can only admit more paths
    rng = np.random.default_rng(17)
    stats = [
        PathStats(i, 40, float(rng.uniform(80, 160)), float(rng.uniform(5, 40)))
        for i in range(10)
    ]
    kept_lo = prune_topk(stats, confidence=0.6)
    kept_hi = prune_topk(stats, confidence=0.99)
    assert set(kept_lo) <= set(kept_hi)


def test_prune_validation():
    with pytest.raises(ValidationError):
        prune_topk([])
    with pytest.raises(ValidationError):
        prune_topk([PathStats(0, 10, 100.0, 5.0)], confidence=1.0)
    with pytest.raises(InsufficientHistoryError):
        prune_topk([PathStats(0, 1, 100.0, 5.0)])
    with pytest.raises(ValidationError):
        PathStats(0, -1, 100.0, 5.0)


def test_prune_raises_when_nothing_survives():
    # a nan mean fails every overlap comparison, so no path survives; the
    # check is a raise, which python -O keeps
    with pytest.raises(RuntimeError, match="at least the best path"):
        prune_topk([PathStats(0, 10, float("nan"), 5.0)])
