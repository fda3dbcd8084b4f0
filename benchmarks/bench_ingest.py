"""Time trace ingest: rows/s through ``ingest_trace``, and ``load_topology`` by worker count.

For each of ``--durations`` seconds, the topology ``relaysim synth`` writes
at that duration (4 relays, 22 links, a row per 10 ms per link) is timed in
four ways:

* ``columnar``: ``ingest_trace`` of one link's file, which takes the
  columnar read;
* ``row-loop``: the same file with one field quoted, which the columnar read
  refuses, so ``ingest_trace`` reads it with the row loop;
* ``load-jN``: ``load_topology`` of the whole manifest at ``jobs=N``, for
  each N of ``--jobs``; a pool's start-up and shut-down are in its time.

Every figure is the fastest of ``--repeats`` calls; ``rows_per_s`` counts the
rows of every file read. The run exits 1 if the row loop's arrays differ from
the columnar read's, or a load's link order or arrays differ from the first
load's.

    PYTHONPATH=src python benchmarks/bench_ingest.py [--durations 130 700] [--jobs 1 2] [--repeats 3]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import sys
import tempfile
import time
from pathlib import Path

from relaysim import cli, ingest_trace, load_topology, traces

LINK_FILE = "traces/e0__u0.csv"


def synth(duration_s: float, out: Path) -> Path:
    """The manifest of a ``relaysim synth`` topology of this duration."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["synth", "--duration-ms", repr(duration_s * 1000.0), "--out", str(out)])
    if code != 0:
        raise SystemExit(f"relaysim synth exited {code}")
    return out / "topology.json"


def quoted_copy(path: Path, out: Path) -> Path:
    """The file with its first data line's source node quoted."""
    text = path.read_text()
    src = text.split("\n", 2)[1].split(",")[1]
    out.write_text(text.replace(f",{src},", f',"{src}",', 1))
    return out


def best_of(repeats: int, fn):
    """(the fastest of ``repeats`` calls in seconds, the last call's result)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def trace_bytes(trace) -> tuple:
    return trace.link, trace.timestamps_ms.tobytes(), trace.latencies_ms.tobytes()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--durations", type=float, nargs="+", default=[130.0, 700.0])
    parser.add_argument("--jobs", type=int, nargs="+", default=[1, 2])
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)

    print(f"{'duration_s':>10} {'case':10} {'files':>5} {'rows':>8} {'best_s':>10} "
          f"{'rows_per_s':>12}")
    failed = []
    with tempfile.TemporaryDirectory() as tmp:
        for duration in args.durations:
            manifest = synth(duration, Path(tmp) / f"d{duration:g}")
            plain = manifest.parent / LINK_FILE
            quoted = quoted_copy(plain, manifest.parent / "quoted.csv")
            if traces._read_columns(plain) is None or traces._read_columns(quoted) is not None:
                failed.append(f"{duration:g} s: the files do not take the paths they time")
            cases = [(case, lambda path=path: {path: ingest_trace(path)})
                     for case, path in (("columnar", plain), ("row-loop", quoted))]
            cases += [(f"load-j{jobs}", lambda jobs=jobs: load_topology(manifest, jobs).traces)
                      for jobs in args.jobs]
            read = {}
            for case, call in cases:
                seconds, loaded = best_of(args.repeats, call)
                read[case] = [trace_bytes(t) for t in loaded.values()]
                rows = sum(map(len, loaded.values()))
                print(f"{duration:10g} {case:10} {len(loaded):5d} {rows:8d} {seconds:10.4g} "
                      f"{rows / seconds:12.0f}")
            if read["row-loop"] != read["columnar"]:
                failed.append(f"{duration:g} s: the row loop's arrays differ "
                              "from the columnar read's")
            for jobs in args.jobs[1:]:
                if read[f"load-j{jobs}"] != read[f"load-j{args.jobs[0]}"]:
                    failed.append(f"{duration:g} s: the load at jobs={jobs} differs "
                                  f"from jobs={args.jobs[0]}")
    for line in failed:
        print(line, file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
