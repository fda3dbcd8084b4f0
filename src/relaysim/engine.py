"""Trace-driven session simulation.

One session streams ``packet_count`` packets from an endpoint to a user at a
fixed cadence. The sender stamps packet i with Ts = session_start +
i*interval; it arrives at Ta = Ts + path latency (zero-order hold at Ts) and
is handed to the jitter manager in arrival order, which either drops it or
emits it at To. Feedback flows back to the path scheduler over the reverse
direct link; plan updates reach the sender after the forward direct one-way
delay and apply only to packets generated after adoption.

Plan updates are gated: a new plan is issued only when the selected path
differs from the last one selected. Plans are numbered in issue order, and
the sender ignores a plan older than the one it has adopted, so a control
message overtaken by a newer one changes nothing.

Events wait in a single queue sorted by (time, kind, tie) with kind order
arrival < feedback < control. Packet i is generated at its tick Ts as soon as
no queued event is earlier; a queued event at the same time goes first. So
runs are deterministic and reports are byte-identical for identical (config,
topology, seed).

The session ends at its last event of any kind (arrival, feedback or control
message), and there the jitter manager flushes what it still holds: flushed
packets count as delivered with To = that end time. So a direct session
flushes at its last arrival, and a routed one at its last feedback or control
message, which can come well after its last arrival.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from heapq import heappop, heappush
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, ValidationError
from .jitter import JITTER_KINDS, JitterConfig, Packet, build_jitter_manager
from .paths import RelayPath, enumerate_paths, prune_topk, warmup_stats
from .reports import MetricsReport, build_report
from .routing import DirectRouter, ThompsonRouter, Ucb1Router, tau0_from_variance
from .traces import Topology

EV_ARRIVAL, EV_FEEDBACK, EV_CONTROL = 0, 1, 2

ROUTER_KINDS = ("direct", "via_ucb1", "vcroute_ts")

# method name -> (router kind, jitter kind)
METHODS = {
    "drt-bf": ("direct", "buffer"),
    "drt-wm": ("direct", "watermark"),
    "via-bf": ("via_ucb1", "buffer"),
    "via-wm": ("via_ucb1", "watermark"),
    "vcr-wm": ("vcroute_ts", "watermark"),
}


@dataclass
class RouterConfig:
    kind: str = "direct"
    c: float = 1.0                 # UCB1 exploration constant
    confidence: float = 0.95       # pruning confidence level
    prune: bool = True             # False keeps every candidate path

    def __post_init__(self) -> None:
        if self.kind not in ROUTER_KINDS:
            raise ValidationError(f"unknown router kind {self.kind!r}")


@dataclass
class SessionConfig:
    endpoint: str
    user: str
    packet_count: int = 600_000
    interval_ms: float = 10.0
    warmup_ms: float = 60_000.0
    seed: int = 0
    router: RouterConfig = field(default_factory=RouterConfig)
    jitter: JitterConfig = field(default_factory=JitterConfig)
    loss_threshold: float | None = None

    def __post_init__(self) -> None:
        if self.packet_count < 0:
            raise ValidationError("packet_count cannot be negative")
        if self.interval_ms <= 0 or self.warmup_ms <= 0:
            raise ValidationError("interval_ms and warmup_ms must be positive")


@dataclass
class PacketRecord:
    __slots__ = ("seq", "ts", "ta", "to", "path_id", "fate")
    seq: int
    ts: float
    ta: float
    to: float | None
    path_id: int
    fate: str  # in_flight -> delivered | dropped_late | flushed


@dataclass
class SessionResult:
    report: MetricsReport
    records: list[PacketRecord]


class _PathTickCache:
    """Per-path latency at every generation tick, built lazily per path."""

    def __init__(self, topology: Topology, paths: Sequence[RelayPath], ticks: np.ndarray) -> None:
        self._topology = topology
        self._paths = {p.path_id: p for p in paths}
        self._ticks = ticks
        self._links: dict[tuple[str, str], np.ndarray] = {}
        self._by_path: dict[int, np.ndarray] = {}

    def _link_array(self, src: str, dst: str) -> np.ndarray:
        key = (src, dst)
        arr = self._links.get(key)
        if arr is None:
            arr = self._topology.trace(src, dst).at(self._ticks)
            self._links[key] = arr
        return arr

    def path_array(self, path_id: int) -> np.ndarray:
        arr = self._by_path.get(path_id)
        if arr is None:
            path = self._paths[path_id]
            arr = np.zeros(self._ticks.size)
            for src, dst in path.links():
                arr = arr + self._link_array(src, dst)
            self._by_path[path_id] = arr
        return arr

    def at(self, path_id: int, tick: int) -> float:
        return float(self.path_array(path_id)[tick])


def _resolve_relays(topology: Topology, cfg: SessionConfig) -> list[str]:
    return [
        n.name
        for n in topology.nodes
        if n.name not in (cfg.endpoint, cfg.user) and n.role != "user"
    ]


def _check_coverage(topology: Topology, paths: Sequence[RelayPath], needs_reverse: bool,
                    endpoint: str, user: str) -> None:
    missing = []
    for path in paths:
        for link in path.links():
            if not topology.has_link(*link):
                missing.append(link)
    if needs_reverse and not topology.has_link(user, endpoint):
        missing.append((user, endpoint))
    if missing:
        uniq = sorted(set(missing))
        raise ConfigurationError(f"missing traces for links: {uniq}")


def run_session(topology: Topology, cfg: SessionConfig, method: str | None = None) -> SessionResult:
    """Simulate one session and report its metrics.

    ``method`` only labels the report; router/jitter kinds come from cfg.
    """
    topology.node(cfg.endpoint)
    topology.node(cfg.user)
    relays = _resolve_relays(topology, cfg)
    all_paths = enumerate_paths(cfg.endpoint, cfg.user, relays)
    router_kind = cfg.router.kind

    # candidate set and warm stats
    if router_kind == "direct":
        _check_coverage(topology, all_paths[:1], False, cfg.endpoint, cfg.user)
        topk_ids = [0]
        initial_path = 0
        router = DirectRouter()
    else:
        _check_coverage(topology, all_paths, True, cfg.endpoint, cfg.user)
        stats = warmup_stats(all_paths, topology, cfg.warmup_ms, cfg.interval_ms)
        if cfg.router.prune:
            topk_ids = prune_topk(stats, cfg.router.confidence)
        else:
            topk_ids = [s.path_id for s in stats]
        by_id = {s.path_id: s for s in stats}
        initial_path = min(topk_ids, key=lambda pid: (by_id[pid].mean_ms, pid))
        if router_kind == "via_ucb1":
            router = Ucb1Router(topk_ids, c=cfg.router.c)
        else:
            rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
            priors = [
                (pid, by_id[pid].mean_ms, tau0_from_variance(by_id[pid].std_ms ** 2))
                for pid in topk_ids
            ]
            router = ThompsonRouter(priors, rng)

    t0 = cfg.warmup_ms
    n = cfg.packet_count
    ticks = t0 + np.arange(n) * cfg.interval_ms
    cache = _PathTickCache(topology, all_paths, ticks)
    jm = build_jitter_manager(cfg.jitter, cfg.interval_ms)
    direct_fwd = topology.trace(cfg.endpoint, cfg.user)
    direct_rev = topology.trace(cfg.user, cfg.endpoint) if router.needs_feedback else None

    # plan_path is the last path selected; len(path_changes) numbers the plans
    plan_path = active_path = initial_path
    adopted_version = 0

    records: list[PacketRecord] = []
    path_changes: list[tuple[float, int, int]] = []
    overhead_sum = 0.0

    heap: list[tuple[float, int, int, float, float]] = []
    ctr = 0

    def push(t: float, kind: int, a: float, b: float) -> None:
        nonlocal ctr
        heappush(heap, (t, kind, ctr, a, b))
        ctr += 1

    gen_times = ticks.tolist()
    gen = 0  # next seq to generate
    end_time = t0

    while gen < n or heap:
        if gen < n and (not heap or gen_times[gen] < heap[0][0]):
            t = gen_times[gen]
            path_id = router.path_for(gen, active_path)
            ta = t + cache.at(path_id, gen)
            records.append(PacketRecord(gen, t, ta, None, path_id, "in_flight"))
            push(ta, EV_ARRIVAL, gen, 0.0)
            gen += 1
            continue
        t, kind, _, a, b = heappop(heap)
        end_time = t
        if kind == EV_ARRIVAL:
            seq = int(a)
            rec = records[seq]
            emissions, was_dropped = jm.on_arrival(Packet(seq, rec.ts, t), t)
            if was_dropped:
                rec.fate = "dropped_late"
            # the transmit reward, or the e2e reward of a dropped packet: it
            # never plays out, but its lateness at arrival is known and is the
            # signal that lets the scheduler learn a probed path is slow;
            # without it the posterior of a bad path never updates (every
            # probe gets dropped) and exploration is never suppressed
            if (router.needs_feedback == "transmit"
                    or (was_dropped and router.needs_feedback == "e2e")):
                push(t + direct_rev.sample(t), EV_FEEDBACK, rec.path_id, t - rec.ts)
            for em in emissions:
                erec = records[em.seq]
                erec.to = em.out
                erec.fate = "delivered"
                if router.needs_feedback == "e2e":
                    send_at = em.out if em.out > t else t
                    avail = send_at + direct_rev.sample(send_at)
                    push(avail, EV_FEEDBACK, erec.path_id, em.out - erec.ts)
        elif kind == EV_FEEDBACK:
            router.observe(int(a), b)
            if router.ready():
                selected = router.select()
                if selected != plan_path:
                    delay = direct_fwd.sample(t)
                    overhead_sum += delay
                    path_changes.append((t, plan_path, selected))
                    plan_path = selected
                    push(t + delay, EV_CONTROL, len(path_changes), selected)
        else:  # EV_CONTROL
            version = int(a)
            if version > adopted_version:
                adopted_version = version
                active_path = int(b)

    for em in jm.flush(end_time):
        erec = records[em.seq]
        erec.to = em.out
        erec.fate = "flushed"

    # read the report's counts and latencies off the records, and check
    # conservation and emission order (exceptions survive python -O)
    latencies: list[float] = []
    lost: list[int] = []
    early: list[int] = []
    dropped_late = tail_flushed = 0
    for rec in records:
        if rec.fate == "dropped_late":
            dropped_late += 1
        elif rec.fate == "in_flight":
            lost.append(rec.seq)
        else:
            tail_flushed += rec.fate == "flushed"
            if rec.to < rec.ta:
                early.append(rec.seq)
            latencies.append(rec.to - rec.ts)
    if lost:
        raise RuntimeError(f"{len(lost)} packets neither played out nor dropped, first seq {lost[0]}")
    if early:
        raise RuntimeError(f"{len(early)} packets emitted before arrival, first seq {early[0]}")

    report = build_report(
        cfg,
        method=method or f"{router_kind}+{cfg.jitter.kind}",
        latencies=latencies,
        dropped_late=dropped_late,
        tail_flushed=tail_flushed,
        path_changes=path_changes,
        overhead_sum_ms=overhead_sum,
        candidate_paths=len(all_paths),
        topk_paths=topk_ids,
    )
    return SessionResult(report, records)


def method_kinds(label: str) -> tuple[str, str]:
    """(router kind, jitter kind) of a METHODS name or a ``router+jitter`` label."""
    if label in METHODS:
        return METHODS[label]
    router_kind, _, jitter_kind = str(label).partition("+")
    if router_kind in ROUTER_KINDS and jitter_kind in JITTER_KINDS:
        return router_kind, jitter_kind
    raise ValidationError(
        f"unknown method {label!r}; known: {sorted(METHODS)} or router+jitter "
        f"with router in {list(ROUTER_KINDS)} and jitter in {list(JITTER_KINDS)}")


def check_method_labels(labels: Sequence[str]) -> None:
    """Reject an unknown label (see method_kinds) or one given twice: cells
    are keyed by (session, label), so a repeat would overwrite its twin."""
    seen = set()
    for label in labels:
        method_kinds(label)
        if label in seen:
            raise ValidationError(f"method {label!r} given more than once")
        seen.add(label)


def method_config(cfg: SessionConfig, method: str) -> SessionConfig:
    """Specialize a template config to one method label (see method_kinds)."""
    router_kind, jitter_kind = method_kinds(method)
    return replace(
        cfg,
        router=replace(cfg.router, kind=router_kind),
        jitter=replace(cfg.jitter, kind=jitter_kind),
    )


def cell_config(cfg: SessionConfig, s_idx: int, m_idx: int, label: str) -> SessionConfig:
    """Specialize a template config to one matrix cell, kinds and seed."""
    return replace(method_config(cfg, label), seed=derive_cell_seed(cfg.seed, s_idx, m_idx))


def derive_cell_seed(base_seed: int, session_index: int, method_index: int) -> int:
    seq = np.random.SeedSequence([base_seed, session_index, method_index])
    return int(seq.generate_state(1)[0])


@dataclass
class MatrixResult:
    methods: list[str]
    cells: dict[tuple[int, str], MetricsReport]
    method_mean_ms: dict[str, float]
    method_loss: dict[str, float]
    reductions: dict[tuple[str, str], float]


def run_matrix(
    sessions: Sequence[tuple[Topology, SessionConfig]],
    methods: Sequence[str],
) -> MatrixResult:
    """Run every (session, method) cell and tabulate pairwise reductions.

    Each cell gets an rng seed derived from (session seed, session index,
    method index), so results do not depend on execution order. Reductions
    are (base_mean - ours_mean)/base_mean over session-averaged means.
    """
    if not sessions or not methods:
        raise ValidationError("need at least one session and one method")
    check_method_labels(methods)
    cells: dict[tuple[int, str], MetricsReport] = {}
    for s_idx, (topology, cfg) in enumerate(sessions):
        for m_idx, method in enumerate(methods):
            cell_cfg = cell_config(cfg, s_idx, m_idx, method)
            result = run_session(topology, cell_cfg, method=method)
            cells[(s_idx, method)] = result.report
    return summarize_cells(cells, len(sessions), methods)


def summarize_cells(
    cells: dict[tuple[int, str], MetricsReport],
    n_sessions: int,
    methods: Sequence[str],
) -> MatrixResult:
    method_mean = {
        m: float(np.mean([cells[(s, m)].latency_mean_ms for s in range(n_sessions)]))
        for m in methods
    }
    method_loss = {
        m: float(np.mean([cells[(s, m)].loss_rate for s in range(n_sessions)]))
        for m in methods
    }
    reductions = {}
    for base in methods:
        for ours in methods:
            if base != ours and method_mean[base] > 0:
                reductions[(base, ours)] = (method_mean[base] - method_mean[ours]) / method_mean[base]
    return MatrixResult(list(methods), cells, method_mean, method_loss, reductions)
