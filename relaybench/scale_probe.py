"""How one session's throughput changes with its length, and where it goes.

Runs vcr-wm on the relay-hetero geometry at each packet count: untraced
with the collector on and off (alternating, three times each, medians
reported), then once traced with GC accounting, then ``to_json`` on the
report. Prints pkt/s for the first two and, for the traced run, collections
per generation, collector pause, each layer's self time per packet, and the
serialization time and size. It measures; it does not conclude.

Usage, from the repository root:

    python3 relaybench/scale_probe.py --packets 30000,600000
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
from dataclasses import replace

import run as bench

METHOD = "vcr-wm"
SEED = 0
REPEATS = 3


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--packets", default="30000,600000")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(bench.build()))

    import topologies
    from spans import GcMonitor, Tracer, instrument

    from relaysim import IMPLEMENTATION, SessionConfig, engine, method_config

    rows = []
    for packets in (int(p) for p in args.packets.split(",")):
        topo = topologies.hetero(SEED, topologies.session_duration_ms(packets))
        cfg = method_config(SessionConfig("e0", "u0", packet_count=packets, seed=SEED), METHOD)
        cfg = replace(cfg, router=replace(cfg.router, prune=False))
        row = {"packets": packets, "estimator": IMPLEMENTATION}
        rates: dict[str, list[float]] = {"pkt_per_s": [], "pkt_per_s.gc_off": []}
        for _ in range(REPEATS):
            for label, collector in (("pkt_per_s", True), ("pkt_per_s.gc_off", False)):
                gc.collect()
                if not collector:
                    gc.disable()
                try:
                    t0 = time.perf_counter()
                    engine.run_session(topo, cfg)
                    rates[label].append(packets / (time.perf_counter() - t0))
                finally:
                    gc.enable()
        row.update({label: statistics.median(v) for label, v in rates.items()})
        gc.collect()
        tracer = Tracer()
        with instrument(tracer), GcMonitor() as monitor:
            report = engine.run_session(topo, cfg).report
        t0 = time.perf_counter()
        row["json_mb"] = len(report.to_json()) / 1e6
        row["to_json_s"] = time.perf_counter() - t0
        row["gc_collections"] = monitor.collections
        row["gc_pause_s"] = monitor.pause_s
        row["self_us_per_packet"] = {name: 1e6 * s / packets
                                     for name, s in sorted(tracer.self_s.items())}
        rows.append(row)
        print(json.dumps(row), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
