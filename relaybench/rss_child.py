"""Runs one iteration of a library workload alone and prints its peak RSS.

Usage: python3 rss_child.py WORKLOAD SEED OUT_DIR

The benchmark process also holds gate replays and timing state, so peak RSS
is read here instead, in a process that does only what a library user does:
build the topology, run the sessions and write their reports. Prints one
JSON object with the reports' sha256 digests and the peak RSS in MB.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import workloads


def main(argv: list[str]) -> int:
    name, seed, out_dir = argv
    print(json.dumps(workloads.library_rss(name, int(seed), Path(out_dir))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
