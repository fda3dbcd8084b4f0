"""Runs the relaysim command line in this process and records what it cost.

Usage: python3 cli_child.py RESULT.json -- relaysim-args...

``relaysim.cli:main`` is the console-script entry point, so this process is
the ``relaysim`` command. Around it, from the benchmark's side only, the
command's topology load is timed, the report writers' time and the bytes
this process pickles for its worker pool are summed, and every cell's time
inside ``run_session`` is recorded, in the pool's workers too (they are
forked from this process, so they run the wrapped function and append to a
file next to RESULT.json). After the command returns, the peak RSS of this
process and of its largest child are read. All of it goes to RESULT.json.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def main(argv: list[str]) -> int:
    result_path, cli_args = argv[0], argv[argv.index("--") + 1:]
    cells_path = result_path + ".cells"
    costs = {"pickled_bytes": 0, "report_s": 0.0, "load_s": 0.0}

    from multiprocessing.reduction import ForkingPickler

    dumps = ForkingPickler.dumps

    def counting_dumps(obj, protocol=None):
        buf = dumps(obj, protocol)
        costs["pickled_bytes"] += len(buf)
        return buf

    ForkingPickler.dumps = staticmethod(counting_dumps)

    import relaysim.cli as cli
    from relaysim.reports import MetricsReport

    def timing(fn, key="report_s"):
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                costs[key] += time.perf_counter() - t0
        return timed

    run_session = cli.run_session

    def cell_timing(topology, cfg, method=None):
        t0 = time.perf_counter()
        result = run_session(topology, cfg, method=method)
        elapsed = time.perf_counter() - t0
        with open(cells_path, "a") as fh:  # one short append per cell
            fh.write(f"{method}\t{elapsed!r}\n")
        return result

    cli._experiment_topology = timing(cli._experiment_topology, "load_s")
    cli.run_session = cell_timing
    MetricsReport.write_json = timing(MetricsReport.write_json)
    MetricsReport.write_cdf_csv = timing(MetricsReport.write_cdf_csv)
    if hasattr(cli, "write_summary_csv"):
        cli.write_summary_csv = timing(cli.write_summary_csv)

    code = cli.main(cli_args)
    cell_s = {}
    if os.path.exists(cells_path):
        with open(cells_path) as fh:
            for line in fh:
                method, seconds = line.split("\t")
                cell_s[method] = float(seconds)
        os.remove(cells_path)
    costs.update(
        cell_s=cell_s,
        exit_code=code,
        self_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        children_rss_kb=resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    with open(result_path, "w") as fh:
        json.dump(costs, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
