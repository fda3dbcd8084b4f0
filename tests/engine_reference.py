"""Reference session loop: every session played through one event queue.

This is the session loop written in Python, one packet and one event at a
time, kept as an oracle for ``relaysim.engine.run_session``. It takes
the candidate set and the router from ``plan_session``, as the engine does,
builds the jitter manager the same way, then plays every packet through a
single heap of events sorted by (time, kind, push order), with kind order
arrival < feedback < control. Packet i is generated at its tick as soon as
no queued event is earlier; a queued event at the same time goes first. A
session without a router queues only arrivals, all on the initial path. An
end-to-end feedback is sent at max(playout, arrival) and looked up on the
reverse link at that time, with no assumption on when a manager emits.

The engine's records and ``to_json()`` must equal this loop's exactly.
"""

from __future__ import annotations

from heapq import heappop, heappush

import numpy as np

from relaysim.engine import PacketRecord, SessionConfig, SessionResult, plan_session
from relaysim.jitter import build_jitter_manager
from relaysim.paths import path_latency
from relaysim.reports import build_report
from relaysim.traces import Topology

EV_ARRIVAL, EV_FEEDBACK, EV_CONTROL = 0, 1, 2


def reference_session(topology: Topology, cfg: SessionConfig,
                      method: str | None = None) -> SessionResult:
    """Simulate one session through the event queue; same result type and
    report as ``run_session``."""
    all_paths, topk_ids, initial_path, router = plan_session(topology, cfg)

    t0 = cfg.warmup_ms
    n = cfg.packet_count
    ticks = t0 + np.arange(n) * cfg.interval_ms
    jm = build_jitter_manager(cfg.jitter, cfg.interval_ms)
    feedback = None if router is None else router.needs_feedback

    records: list[PacketRecord] = []
    path_changes: list[tuple[float, int, int]] = []
    overhead_sum = 0.0
    latency: dict[int, np.ndarray] = {}  # path id -> its latency at every tick
    if feedback is not None:
        direct_fwd = topology.trace(cfg.endpoint, cfg.user)
        direct_rev = topology.trace(cfg.user, cfg.endpoint)

    plan_path = active_path = initial_path
    adopted_version = 0

    heap: list[tuple[float, int, int, int, float]] = []
    ctr = 0

    def push(t: float, kind: int, a: int, b: float) -> None:
        nonlocal ctr
        heappush(heap, (t, kind, ctr, a, b))
        ctr += 1

    gen_times = ticks.tolist()
    gen = 0
    end_time = t0

    while gen < n or heap:
        if gen < n and (not heap or gen_times[gen] < heap[0][0]):
            t = gen_times[gen]
            if feedback and not router.follows_plan:
                path_id = router.path_for(gen)
            else:
                path_id = active_path
            lat = latency.get(path_id)
            if lat is None:
                lat = latency[path_id] = path_latency(topology, all_paths[path_id], ticks)
            ta = t + lat.item(gen)
            records.append(PacketRecord(gen, t, ta, None, path_id, "in_flight"))
            push(ta, EV_ARRIVAL, gen, 0.0)
            gen += 1
            continue
        t, kind, _, a, b = heappop(heap)
        if kind == EV_ARRIVAL:
            end_time = t
            rec = records[a]
            emissions, was_dropped = jm.on_arrival(rec, t)
            if was_dropped:
                rec.fate = "dropped_late"
            for em in emissions:
                erec = records[em.seq]
                erec.to = em.out
                erec.fate = "delivered"
            if feedback == "transmit" or (was_dropped and feedback == "e2e"):
                push(t + direct_rev.sample(t), EV_FEEDBACK, rec.path_id, t - rec.ts)
            if feedback == "e2e":
                for em in emissions:
                    erec = records[em.seq]
                    send_at = em.out if em.out > t else t
                    avail = send_at + direct_rev.sample(send_at)
                    push(avail, EV_FEEDBACK, erec.path_id, em.out - erec.ts)
        elif kind == EV_FEEDBACK:
            router.observe(a, b)
            if router.follows_plan:
                selected = router.select()
                if selected != plan_path:
                    delay = direct_fwd.sample(t)
                    overhead_sum += delay
                    path_changes.append((t, plan_path, selected))
                    plan_path = selected
                    push(t + delay, EV_CONTROL, len(path_changes), selected)
        else:  # EV_CONTROL
            if a > adopted_version:
                adopted_version = a
                active_path = b

    for em in jm.flush(end_time):
        erec = records[em.seq]
        erec.to = em.out
        erec.fate = "flushed"

    latencies: list[float] = []
    dropped_late = tail_flushed = 0
    for rec in records:
        if rec.fate == "dropped_late":
            dropped_late += 1
        else:
            assert rec.fate in ("delivered", "flushed"), rec
            assert rec.to >= rec.ta, rec
            tail_flushed += rec.fate == "flushed"
            latencies.append(rec.to - rec.ts)

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
