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

A routed session's events are ordered by (time, kind, push order), with
kind order arrival < feedback < control; arrivals tied on time go by seq.
Packet i is generated at its tick Ts once no event is earlier, so an event at
Ts goes first. A packet's path changes only when the sender adopts a plan, so
packets are generated ahead of time, ARRIVAL_BLOCK at a time on the adopted
path: the lookahead of conservative discrete-event simulation (Chandy & Misra,
IEEE TSE 1979). A block's arrival times, and the times its feedback would
reach the sender if sent on arrival, are computed as arrays, and the block is
merged into the arrivals still in flight with one stable sort by Ta. Only
feedback and control messages wait in a heap. An adoption at tc that changes
the path cuts the packets generated with Ts >= tc, none of which has arrived
yet, and generates them again from the cut on the new path; while a control
message is queued, a block ends at its tick, so nothing it may cut is
generated before it lands. A packet whose
latency rounds away (Ta == Ts) arrives after every event queued for its Ta,
as it would if generated at its tick. While the router picks paths of its own
(UCB1's forced round, until ``follows_plan``), blocks are one packet long.
A session without a router would queue nothing but arrivals, all on one
path, so it is played from its sorted arrival schedule instead:
every Ta is computed at once, and the jitter manager's whole-stream ``play``
takes the arrivals in (Ta, seq) order in one call and writes each packet's
To and fate into seq-indexed columns, from which the records are built at
the end. Either way records and reports equal those of one event queue that
generates packet by packet (``tests/engine_reference.py``), runs are
deterministic and reports are byte-identical for identical (config, topology,
seed).

The session ends at its last arrival, and there the jitter manager flushes
what it still holds: flushed packets count as delivered with To = that end
time. Feedback and control messages still in flight are processed after it,
so plan updates and the control overhead count them, but they can change no
packet's path or playout. ``plan_session`` builds the candidate set and the
router, for the engine and for its oracle. A candidate set of one path,
``direct`` or pruned to one, gets no router: no feedback could change its
pick. Of a router the engine reads ``needs_feedback`` and ``follows_plan``,
calls ``observe`` on each feedback and then ``select`` once ``follows_plan``
holds, and asks ``path_for`` only while it does not.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from heapq import heappop, heappush
from itertools import repeat
from operator import itemgetter
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, ValidationError
from .jitter import JITTER_KINDS, JitterConfig, build_jitter_manager
from .paths import (RelayPath, enumerate_paths, path_latency, prune_topk, required_links,
                    warmup_stats)
from .reports import MetricsReport, build_report
from .routing import ThompsonRouter, Ucb1Router, tau0_from_variance
from .traces import Topology

EV_FEEDBACK, EV_CONTROL = 1, 2  # queued event kinds; an arrival ranks before both

ARRIVAL_BLOCK = 256  # packets generated at once on an adopted plan
_TA = itemgetter(0)

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


def plan_session(
    topology: Topology, cfg: SessionConfig,
) -> tuple[list[RelayPath], list[int], int, ThompsonRouter | Ucb1Router | None]:
    """The session's candidate set: ``(all_paths, topk_ids, initial_path,
    router)``, the router built on the paths kept. ``router`` is None when
    one path is kept, for ``direct`` and for any candidate set pruned to one
    path: no feedback could change its pick, so the session takes none."""
    topology.node(cfg.endpoint)
    topology.node(cfg.user)
    relays = [n.name for n in topology.nodes
              if n.name not in (cfg.endpoint, cfg.user) and n.role != "user"]
    direct = cfg.router.kind == "direct"
    # direct takes path 0, the one without relays, and takes no feedback
    needed = required_links(cfg.endpoint, cfg.user, [] if direct else relays,
                            include_reverse=not direct)
    missing = sorted({link for link in needed if not topology.has_link(*link)})
    if missing:
        raise ConfigurationError(f"missing traces for links: {missing}")
    all_paths = enumerate_paths(cfg.endpoint, cfg.user, relays)
    if direct:
        return all_paths, [0], 0, None
    stats = warmup_stats(all_paths, topology, cfg.warmup_ms, cfg.interval_ms)
    if cfg.router.prune:
        topk_ids = prune_topk(stats, cfg.router.confidence)
    else:
        topk_ids = [s.path_id for s in stats]
    by_id = {s.path_id: s for s in stats}
    initial_path = min(topk_ids, key=lambda pid: (by_id[pid].mean_ms, pid))
    if len(topk_ids) == 1:
        router = None
    elif cfg.router.kind == "via_ucb1":
        router = Ucb1Router(topk_ids, c=cfg.router.c)
    else:
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
        priors = [
            (pid, by_id[pid].mean_ms, tau0_from_variance(by_id[pid].std_ms ** 2))
            for pid in topk_ids
        ]
        router = ThompsonRouter(priors, rng)
    return all_paths, topk_ids, initial_path, router


def run_session(topology: Topology, cfg: SessionConfig, method: str | None = None) -> SessionResult:
    """Simulate one session and report its metrics.

    ``method`` only labels the report; router/jitter kinds come from cfg.
    """
    all_paths, topk_ids, initial_path, router = plan_session(topology, cfg)

    t0 = cfg.warmup_ms
    n = cfg.packet_count
    ticks = t0 + np.arange(n) * cfg.interval_ms
    jm = build_jitter_manager(cfg.jitter, cfg.interval_ms)

    path_changes: list[tuple[float, int, int]] = []
    overhead_sum = 0.0

    if router is None:
        # only arrivals, all on the initial path: the manager plays them in
        # (ta, seq) order, the order the event queue would pop them in, into
        # seq-indexed columns that become the records at the end
        ta_arr = ticks + path_latency(topology, all_paths[initial_path], ticks)
        ts = ticks.tolist()
        ta = ta_arr.tolist()
        to: list[float | None] = [None] * n
        fate = ["in_flight"] * n
        end_time = float(ta_arr.max()) if n else t0
        jm.play(np.argsort(ta_arr, kind="stable").tolist(), ts, ta, to, fate)
        del ta_arr
        for em in jm.flush(end_time):
            to[em.seq] = em.out
            fate[em.seq] = "flushed"
        records = list(map(PacketRecord, range(n), ts, ta, to, repeat(initial_path), fate))
    else:
        direct_fwd = topology.trace(cfg.endpoint, cfg.user)
        direct_rev = topology.trace(cfg.user, cfg.endpoint)
        on_arrival = jm.on_arrival
        transmit = router.needs_feedback == "transmit"

        # plan_path is the last path selected; len(path_changes) numbers the plans
        plan_path = active_path = initial_path
        adopted_version = 0

        heap: list[tuple[float, int, int, int, float]] = []  # feedback and control
        controls: list[float] = []  # the times of the control messages queued
        ctr = 0
        gen_times = ticks.tolist()
        # filled block by block: one list, never resized, so its buffer does
        # not move through a heap that the blocks' small arrays fragment
        records = [None] * n
        gen = 0  # packets generated so far, records[:gen]
        # (ta, record, feedback time if sent at ta) of every generated packet
        # not yet arrived, from pending[pos] on, in (ta, seq) order
        pending: list[tuple[float, PacketRecord, float]] = []
        pos = 0
        end_time = t0
        inf = math.inf
        nxt = gen_times[0] if n else inf  # the tick of packet gen

        while True:
            top = heap[0][0] if heap else inf
            lim = top if top < nxt else nxt
            # arrivals, up to the next queued event or the next tick: a queued
            # event goes after an arrival at its time, but before a packet
            # arriving at its own tick, which it may yet re-route
            while pos < len(pending):
                t, rec, fb_at = pending[pos]
                if t >= lim and (t > nxt or t > top or (t == top and t == rec.ts)):
                    break
                pos += 1
                end_time = t
                emissions, was_dropped = on_arrival(rec, t)
                # the transmit reward, or the e2e reward of a dropped packet: it
                # never plays out, but its lateness at arrival is known and is
                # the signal that lets the scheduler learn a probed path is
                # slow; without it the posterior of a bad path never updates
                # (every probe gets dropped) and exploration is never suppressed
                if was_dropped:
                    rec.fate = "dropped_late"
                if transmit or was_dropped:
                    heappush(heap, (fb_at, EV_FEEDBACK, ctr, rec.path_id, t - rec.ts))
                    ctr += 1
                for em in emissions:
                    erec = records[em.seq]
                    erec.to = out = em.out
                    erec.fate = "delivered"
                    if not transmit:  # e2e: sent at max(out, t), t as no manager emits later
                        heappush(heap, (fb_at, EV_FEEDBACK, ctr, erec.path_id, out - erec.ts))
                        ctr += 1
                if heap:
                    top = heap[0][0]
                    lim = top if top < nxt else nxt
            if heap and top <= nxt:
                t, kind, _, a, b = heappop(heap)
                if kind == EV_FEEDBACK:
                    router.observe(a, b)
                    if router.follows_plan:
                        selected = router.select()
                        if selected != plan_path:
                            delay = direct_fwd.sample(t)
                            overhead_sum += delay
                            path_changes.append((t, plan_path, selected))
                            plan_path = selected
                            heappush(heap, (t + delay, EV_CONTROL, ctr, len(path_changes), selected))
                            heappush(controls, t + delay)
                            ctr += 1
                else:  # EV_CONTROL
                    heappop(controls)
                    if a > adopted_version:
                        adopted_version = a
                        if b != active_path:
                            active_path = b
                            # packets from the tick at t on were generated on
                            # the old path and none has arrived: generate them
                            # again
                            cut = bisect_left(gen_times, t, 0, gen)
                            if cut < gen:
                                pending = [p for p in pending[pos:] if p[1].seq < cut]
                                pos = 0
                                gen = cut
                                nxt = gen_times[gen]
            elif gen < n:
                # the next block on the active path, or one packet at a time
                # while the router picks paths of its own
                if router.follows_plan:
                    path_id = active_path
                    hi = min(gen + ARRIVAL_BLOCK, n)
                    if controls:
                        # ticks from the next control message's on may be cut
                        hi = bisect_left(gen_times, controls[0], gen, hi)
                else:
                    path_id = router.path_for(gen)
                    hi = gen + 1
                times = ticks[gen:hi]
                ta = times + path_latency(topology, all_paths[path_id], times)
                ta_list = ta.tolist()
                block = list(map(PacketRecord, range(gen, hi), gen_times[gen:hi], ta_list,
                                 repeat(None), repeat(path_id), repeat("in_flight")))
                records[gen:hi] = block
                # stable: arrivals tied on ta stay in seq order
                pending = pending[pos:]
                pending.extend(zip(ta_list, block, (ta + direct_rev.at(ta)).tolist()))
                pending.sort(key=_TA)
                pos = 0
                gen = hi
                nxt = gen_times[gen] if gen < n else inf
            else:
                break

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
        method=method or f"{cfg.router.kind}+{cfg.jitter.kind}",
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
