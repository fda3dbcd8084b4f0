"""Workload topologies, generated from the benchmark's seed.

The geometry copies the acceptance-test scenarios (heterogeneous relays,
bursty direct link) so that editing a test cannot change a workload. Link
samples come from the library's own sampler, with each link's substream
keyed like ``generate_synthetic`` keys it.
"""

from __future__ import annotations

import zlib

import numpy as np

from relaysim import LatencyTrace, Node, Topology
from relaysim.traces import synth_link_samples

WARMUP_MS = 60_000.0
INTERVAL_MS = 10.0
TAIL_MS = 20_000.0

HETERO_RELAYS = ("r0", "r1", "r2", "r3")


def session_duration_ms(packets: int) -> float:
    """Trace length that covers warmup, every packet, and a drain tail."""
    return WARMUP_MS + packets * INTERVAL_MS + TAIL_MS


def _link(src: str, dst: str, mean: float, std: float, seed: int, duration_ms: float,
          step_ms: float, regime: str = "stationary-gaussian") -> LatencyTrace:
    ts = np.arange(0.0, duration_ms, step_ms)
    rng = np.random.default_rng(
        np.random.SeedSequence([seed, zlib.crc32(f"{src}->{dst}".encode())]))
    return LatencyTrace(src, dst, ts, synth_link_samples(rng, mean, std, ts.size, regime))


def hetero(seed: int, duration_ms: float) -> Topology:
    """Four relays, 17 candidate paths, one cheap detour through r0.

    Direct e0<->u0 runs 300+-30 ms, e0->r0->u0 ~150 ms (75+-7 per link),
    every other link 175+-10 ms; 10 ms trace step.
    """
    links = {("e0", "u0"): (300.0, 30.0), ("u0", "e0"): (300.0, 30.0),
             ("e0", "r0"): (75.0, 7.0), ("r0", "u0"): (75.0, 7.0)}
    for r in HETERO_RELAYS[1:]:
        links[("e0", r)] = (175.0, 10.0)
        links[(r, "u0")] = (175.0, 10.0)
    for a in HETERO_RELAYS:
        for b in HETERO_RELAYS:
            if a != b:
                links[(a, b)] = (175.0, 10.0)
    nodes = ([Node("e0", "endpoint"), Node("u0", "user")]
             + [Node(r, "relay") for r in HETERO_RELAYS])
    traces = {link: _link(*link, mean, std, seed, duration_ms, 10.0)
              for link, (mean, std) in links.items()}
    return Topology(nodes, traces)


def burst_direct(seed: int, duration_ms: float) -> Topology:
    """One e0->u0 link, 150+-30 ms with multiplicative bursts; 100 ms step."""
    trace = _link("e0", "u0", 150.0, 30.0, seed, duration_ms, 100.0,
                  regime="regime-switching-spikes")
    return Topology([Node("e0", "endpoint"), Node("u0", "user")], {("e0", "u0"): trace})
