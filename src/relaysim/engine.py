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
path, so every Ta is computed at once instead.

Every session keeps seq-indexed numpy columns, not per-packet objects: the
routed loop writes each block's Ta and path id as it generates the block. A
session whose feedback reads nothing the jitter manager decides, one without
a router or one rewarded at transmit (UCB1's Ta - Ts), is played after its
loop from the final arrival schedule: the manager's whole-stream ``play``
takes the arrivals in (Ta, seq) order in one call and writes each packet's
To and fate code into the columns. A session rewarded end to end (VCRoute)
sends feedback as each packet plays out, so its loop hands every arrival to
the manager's ``on_arrival`` and writes To and fate as they come. The
report's counts and latencies, and the conservation and emission-order
checks, are read off the columns, and ``SessionResult.records`` is built
from them only when it is read. Records and reports equal those of one
event queue that generates packet by packet (``tests/engine_reference.py``),
runs are deterministic and reports are byte-identical for identical
(config, topology, seed).

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
from .jitter import (DELIVERED, DROPPED_LATE, FATES, FLUSHED, IN_FLIGHT, JITTER_KINDS,
                     JitterConfig, _Arrival, build_jitter_manager)
from .paths import (RelayPath, enumerate_paths, path_latency, prune_topk, required_links,
                    warmup_stats)
from .reports import MetricsReport, build_report
from .routing import ThompsonRouter, Ucb1Router, tau0_from_variance
from .traces import Topology

EV_FEEDBACK, EV_CONTROL = 1, 2  # queued event kinds; an arrival ranks before both

ARRIVAL_BLOCK = 256  # packets generated at once on an adopted plan
RECORD_BLOCK = 2048  # records built at once from a session's columns
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
        # chained comparisons: NaN fails them as well as infinity
        if not 0 <= self.c < math.inf:
            raise ValidationError(f"router c must be finite and nonnegative, not {self.c!r}")
        if not 0 < self.confidence < 1:
            raise ValidationError(f"router confidence must be in (0, 1), not {self.confidence!r}")


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
        # a chained comparison: NaN fails it as well as infinity
        if not (0 < self.interval_ms < math.inf and 0 < self.warmup_ms < math.inf):
            raise ValidationError("interval_ms and warmup_ms must be finite and positive")
        if self.loss_threshold is not None and not 0 <= self.loss_threshold <= 1:
            raise ValidationError(
                f"loss_threshold must be null or in [0, 1], not {self.loss_threshold!r}")


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
    """A session's report and its per-packet records.

    ``run_session`` passes ``records=None`` and keeps its records as
    seq-indexed columns ``(ts, ta, to, fate, path_id)``, routed sessions as
    well as feedback-free ones: ``to`` is NaN where no packet played out,
    and ``fate`` holds codes into ``FATES``. The list is built the first
    time ``records`` is read, and the columns are let go then. The CLI and
    ``run_matrix`` read only the report, so they never build it."""

    report: MetricsReport
    records: list[PacketRecord] | None
    _columns: tuple | None = field(default=None, repr=False, compare=False)


def _get_records(result: SessionResult) -> list[PacketRecord]:
    if result._records is None:
        ts, ta, to, fate, path = result._columns
        # a block at a time, so that the lists tolist() makes stay small:
        # whole-column lists raised the peak RSS of a process reading two
        # 20k-packet sessions' records by about 0.8 MB
        records = [None] * len(ts)
        for lo in range(0, len(ts), RECORD_BLOCK):
            hi = lo + RECORD_BLOCK
            outs = to[lo:hi].tolist()
            for i in np.flatnonzero(np.isnan(to[lo:hi])).tolist():
                outs[i] = None  # not played out
            records[lo:hi] = map(PacketRecord, range(lo, lo + len(outs)), ts[lo:hi].tolist(),
                                 ta[lo:hi].tolist(), outs, path[lo:hi].tolist(),
                                 map(FATES.__getitem__, fate[lo:hi].tolist()))
        result._records = records
        result._columns = None
    return result._records


def _set_records(result: SessionResult, records: list[PacketRecord] | None) -> None:
    result._records = records


# a property over the field, set once the dataclass is made: its __init__,
# __eq__ and dataclasses.replace all reach the records through it
SessionResult.records = property(_get_records, _set_records)


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
    # seq-indexed columns: To (NaN until played out) and the fate code
    to = np.full(n, np.nan)
    fate = np.full(n, IN_FLIGHT, np.int8)
    # a transmit reward, ta - ts, reads nothing the manager decides, so such a
    # session, like one without feedback, is played from its final schedule
    play_after = router is None or router.needs_feedback == "transmit"

    if router is None:
        # only arrivals, all on the initial path
        ta = ticks + path_latency(topology, all_paths[initial_path], ticks)
        path = np.full(n, initial_path, np.int32)
    else:
        direct_fwd = topology.trace(cfg.endpoint, cfg.user)
        direct_rev = topology.trace(cfg.user, cfg.endpoint)
        on_arrival = jm.on_arrival
        ta = np.empty(n)
        path = np.empty(n, np.int32)

        # plan_path is the last path selected; len(path_changes) numbers the plans
        plan_path = active_path = initial_path
        adopted_version = 0

        heap: list[tuple[float, int, int, int, float]] = []  # feedback and control
        ctr = 0
        gen_times = ticks.tolist()
        gen = 0  # packets generated so far, ta[:gen] and path[:gen]
        # (ta, seq, feedback time if sent at ta, path id) of every generated
        # packet not yet arrived, from pending[pos] on, in (ta, seq) order
        pending: list[tuple[float, int, float, int]] = []
        pos = 0
        inf = math.inf
        nxt = gen_times[0] if n else inf  # the tick of packet gen

        while True:
            top = heap[0][0] if heap else inf
            # arrivals, up to the next queued event or the next tick: a queued
            # event goes after an arrival at its time, but before a packet
            # arriving at its own tick, which it may yet re-route
            while pos < len(pending):
                t, seq, fb_at, pid = pending[pos]
                ts = gen_times[seq]
                if t > nxt or t > top or (t == top and t == ts):
                    break
                pos += 1
                if play_after:  # the transmit reward; play runs after the loop
                    heappush(heap, (fb_at, EV_FEEDBACK, ctr, pid, t - ts))
                    ctr += 1
                    if fb_at < top:
                        top = fb_at
                    continue
                emissions, was_dropped = on_arrival(_Arrival(seq, ts), t)
                # the e2e reward of a dropped packet: it never plays out, but
                # its lateness at arrival is known and is the signal that lets
                # the scheduler learn a probed path is slow; without it the
                # posterior of a bad path never updates (every probe gets
                # dropped) and exploration is never suppressed
                if was_dropped:
                    fate[seq] = DROPPED_LATE
                    heappush(heap, (fb_at, EV_FEEDBACK, ctr, pid, t - ts))
                    ctr += 1
                for em_seq, out in emissions:
                    to[em_seq] = out
                    fate[em_seq] = DELIVERED
                    # sent at max(out, t), which is t, as no manager emits later
                    heappush(heap, (fb_at, EV_FEEDBACK, ctr, path.item(em_seq), out - gen_times[em_seq]))
                    ctr += 1
                if heap:
                    top = heap[0][0]
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
                            ctr += 1
                else:  # EV_CONTROL
                    if a > adopted_version:
                        adopted_version = a
                        if b != active_path:
                            active_path = b
                            # packets from the tick at t on were generated on
                            # the old path and none has arrived: generate them
                            # again
                            cut = bisect_left(gen_times, t, 0, gen)
                            if cut < gen:
                                pending = [p for p in pending[pos:] if p[1] < cut]
                                pos = 0
                                gen = cut
                                nxt = gen_times[gen]
            elif gen < n:
                # the next block on the active path, or one packet at a time
                # while the router picks paths of its own
                if router.follows_plan:
                    pid = active_path
                    # ticks from the next queued control message's on may be cut
                    tc = min((ev[0] for ev in heap if ev[1] == EV_CONTROL), default=inf)
                    hi = bisect_left(gen_times, tc, gen, min(gen + ARRIVAL_BLOCK, n))
                else:
                    pid = router.path_for(gen)
                    hi = gen + 1
                times = ticks[gen:hi]
                ta[gen:hi] = arrive = times + path_latency(topology, all_paths[pid], times)
                path[gen:hi] = pid
                # stable: arrivals tied on ta stay in seq order
                pending = pending[pos:]
                pending.extend(zip(arrive.tolist(), range(gen, hi),
                                   (arrive + direct_rev.at(arrive)).tolist(), repeat(pid)))
                pending.sort(key=_TA)
                pos = 0
                gen = hi
                nxt = gen_times[gen] if gen < n else inf
            else:
                break

    if play_after:
        # the arrivals in (ta, seq) order, the order the event queue pops them in
        jm.play(np.argsort(ta, kind="stable"), ticks, ta, to, fate)
    # the session ends at its last arrival
    for em in jm.flush(float(ta.max()) if n else t0):
        to[em.seq] = em.out
        fate[em.seq] = FLUSHED
    # the report's counts and latencies, and the packets that break
    # conservation or emission order, read off the columns
    played = fate >= DELIVERED
    latencies = to[played] - ticks[played]
    lost = np.flatnonzero(fate == IN_FLIGHT)
    early = np.flatnonzero(played & (to < ta))
    dropped_late = int(np.count_nonzero(fate == DROPPED_LATE))
    tail_flushed = int(np.count_nonzero(fate == FLUSHED))

    # exceptions, so that python -O keeps both checks
    if len(lost):
        raise RuntimeError(f"{len(lost)} packets neither played out nor dropped, first seq {lost[0]}")
    if len(early):
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
    return SessionResult(report, None, (ticks, ta, to, fate, path))


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
