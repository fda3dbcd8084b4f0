"""Time the report writers, and check their bytes against json and csv.

Two reports:

* ``session``: a ``drt-wm`` session's on the burst-direct geometry of
  ``bench_jitter.py`` (``--packets``, seed ``--seed``), as relaybench's
  burst-direct workload writes it;
* ``cdf``: a report built from ``--rows`` distinct latencies, so its CDF
  has that many rows, the size a default 600k-packet session can reach.

For each it prints the CDF's rows and the JSON report's size in bytes
(which holds no CDF), then times ``to_json``, ``write_json``,
``write_cdf_csv``, ``write_json`` then ``write_cdf_csv``
(``json_then_csv``, what ``relaysim run`` and relaybench write per
session) and ``write_summary_csv`` (of the one report), then the reference
writers: ``json.dumps(report.to_dict(), sort_keys=True, indent=2)``
written as text (``ref_json``) and ``csv.writer`` rows behind the same two
header rows (``ref_cdf_csv``), which ``write_cdf_csv`` replaces. Every
figure is the fastest of ``--repeats`` runs, in seconds to four
significant digits, so that a sub-millisecond writer does not print as
zero. The run exits 1 if any written byte differs from the reference's, in
a writer's own column or in ``json_then_csv``.

    PYTHONPATH=src python benchmarks/bench_reports.py [--packets 20000] [--rows 600000] [--repeats 3]
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_jitter import burst_direct, session_config  # noqa: E402
from relaysim import run_session  # noqa: E402
from relaysim.reports import (REPORT_SCHEMA_VERSION, SUMMARY_FIELDS, MetricsReport,  # noqa: E402
                              build_report, write_summary_csv)

COLUMNS = ("to_json", "write_json", "write_cdf_csv", "json_then_csv", "write_summary_csv",
           "ref_json", "ref_cdf_csv")


def session_report(packets: int, seed: int) -> MetricsReport:
    return run_session(burst_direct(seed, packets), session_config("drt-wm", packets, seed)).report


def cdf_report(rows: int, seed: int) -> MetricsReport:
    """A report whose CDF has ``rows`` rows: that many distinct latencies."""
    rng = np.random.default_rng(seed)
    latencies = 100.0 + rng.gamma(4.0, 40.0, rows)
    cfg = session_config("drt-wm", rows, seed)
    return build_report(cfg, method="drt-wm", latencies=latencies, dropped_late=0,
                        tail_flushed=0, path_changes=[], overhead_sum_ms=0.0,
                        candidate_paths=1, topk_paths=[0])


def _reference_json(report: MetricsReport, path: Path) -> Path:
    path.write_text(json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n")
    return path


def _reference_csv(header: list, rows, path: Path) -> Path:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["schema_version", REPORT_SCHEMA_VERSION])
        writer.writerow(header)
        writer.writerows(rows)
    return path


def measure(report: MetricsReport, repeats: int, out: Path) -> tuple[dict, list[str]]:
    """The fastest of ``repeats`` calls of every column, and the names of
    the writers whose bytes differ from the reference's."""
    summary_rows = [[getattr(report, k) for k in SUMMARY_FIELDS]]
    calls = {
        "to_json": lambda r: r.to_json(),
        "write_json": lambda r: r.write_json(out / "report.json"),
        "write_cdf_csv": lambda r: r.write_cdf_csv(out / "cdf.csv"),
        "json_then_csv": lambda r: (r.write_json(out / "pair.json"),
                                    r.write_cdf_csv(out / "pair_cdf.csv")),
        "write_summary_csv": lambda r: write_summary_csv([r], out / "summary.csv"),
        "ref_json": lambda r: _reference_json(r, out / "ref.json"),
        "ref_cdf_csv": lambda r: _reference_csv(["latency_ms", "cumulative_fraction"],
                                                r.cdf, out / "ref_cdf.csv"),
    }
    best = dict.fromkeys(COLUMNS, float("inf"))
    for _ in range(repeats):
        for name in COLUMNS:
            t0 = time.perf_counter()
            calls[name](report)
            best[name] = min(best[name], time.perf_counter() - t0)
    ref_json = (out / "ref.json").read_bytes()
    ref_csv = (out / "ref_cdf.csv").read_bytes()
    ref_summary = _reference_csv(SUMMARY_FIELDS, summary_rows, out / "ref_summary.csv")
    got = {"to_json": [report.to_json().encode()],
           "write_json": [(out / "report.json").read_bytes(), (out / "pair.json").read_bytes()],
           "write_cdf_csv": [(out / "cdf.csv").read_bytes(), (out / "pair_cdf.csv").read_bytes()],
           "write_summary_csv": [(out / "summary.csv").read_bytes()]}
    want = {"to_json": ref_json, "write_json": ref_json, "write_cdf_csv": ref_csv,
            "write_summary_csv": ref_summary.read_bytes()}
    return best, [name for name in want if any(b != want[name] for b in got[name])]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--packets", type=int, default=20000)
    parser.add_argument("--rows", type=int, default=600000)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    reports = {"session": session_report(args.packets, args.seed),
               "cdf": cdf_report(args.rows, args.seed)}
    print(f"{'case':8} {'cdf_rows':>8} {'json_bytes':>10} "
          + " ".join(f"{c + '_s':>12}" for c in COLUMNS))
    failed = []
    with tempfile.TemporaryDirectory() as tmp:
        for case, report in reports.items():
            best, differ = measure(report, args.repeats, Path(tmp))
            json_bytes = (Path(tmp) / "report.json").stat().st_size
            print(f"{case:8} {len(report.cdf):8d} {json_bytes:10d} "
                  + " ".join(f"{best[c]:12.4g}" for c in COLUMNS))
            failed += [f"{case}: {name}" for name in differ]
    for line in failed:
        print(f"differs from the reference writer: {line}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
