"""Layered relaysim benchmark: end-to-end metrics, or per-layer with --trace 1.

Usage, from the repository root:

    python3 relaybench/run.py --workload relay-hetero --seed 0 --seconds 10 --trace 0

The program is built from the checkout's own sources (``setup.py build``)
into ``.bench_build/relaybench`` and imported from there. Every metric is
printed by name and unit, followed by the correctness gates, the sha256 of
every report, and, as the last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
only when every gate passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_ROOT = ROOT / ".bench_build" / "relaybench"


SOURCES = ("setup.py", "pyproject.toml", "README.md", "src")
SKIP = shutil.ignore_patterns("__pycache__", "*.egg-info")


def _source_files() -> list[Path]:
    files = []
    for name in SOURCES:
        path = ROOT / name
        if path.is_dir():
            files += sorted(p for p in path.rglob("*") if p.is_file() and not any(
                part == "__pycache__" or part.endswith(".egg-info") for part in p.parts))
        elif path.is_file():
            files.append(path)
    return files


def build() -> Path:
    """Build the package once per source state; returns its import root.

    The build runs on a copy of the sources, so it writes nothing into them.
    """
    if not (ROOT / "setup.py").is_file() or not (ROOT / "src" / "relaysim").is_dir():
        raise SystemExit(f"error: no relaysim sources under {ROOT}")
    digest = hashlib.sha256()
    for path in _source_files():
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    target = BUILD_ROOT / f"build-{digest.hexdigest()[:16]}"
    lib = target / "lib"
    if not (lib / "relaysim" / "__init__.py").is_file():
        staging = BUILD_ROOT / f"staging-{os.getpid()}"
        shutil.rmtree(staging, ignore_errors=True)
        staging.mkdir(parents=True)
        for name in SOURCES:
            path = ROOT / name
            if path.is_dir():
                shutil.copytree(path, staging / name, ignore=SKIP)
            elif path.is_file():
                shutil.copy2(path, staging / name)
        proc = subprocess.run(
            [sys.executable, "setup.py", "-q", "build", "--build-base", "build",
             "--build-lib", "lib"],
            cwd=staging, capture_output=True, text=True)
        if proc.returncode != 0:
            raise SystemExit(f"error: build failed\n{proc.stdout}{proc.stderr}")
        try:
            staging.rename(target)
        except OSError:  # another run finished the same build first
            shutil.rmtree(staging, ignore_errors=True)
    return lib


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process, then one table of their metrics."""
    import workloads

    rows, code = {}, 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True)
        print(proc.stdout, end="")
        print(proc.stderr, end="", file=sys.stderr)
        code = code or proc.returncode
        lines = proc.stdout.strip().splitlines()
        if lines:
            rows[name] = json.loads(lines[-1])["metrics"]
    if not rows:
        return code
    print(f"{'metric':32s}" + "".join(f"{name:>16s}" for name in rows) + "  unit")
    for metric, first in next(iter(rows.values())).items():
        print(f"{metric:32s}" + "".join(f"{row[metric]['value']:16.6g}" for row in rows.values())
              + f"  {first['unit']}")
    return code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="relay-hetero, burst-direct, matrix-cli, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    lib = build()
    sys.path.insert(0, str(lib))
    if args.workload == "all":
        return run_all(args)
    work = BUILD_ROOT / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    # children (the relaysim command and its workers) import the same build
    # and keep their temporary files inside the checkout
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(lib), os.environ.get("PYTHONPATH")) if p)
    os.environ["TMPDIR"] = str(work)

    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {workloads.WORKLOADS}")
    run = workloads.Run(seconds=args.seconds, work=work)
    try:
        workloads.run_workload(args.workload, args.seed, run, bool(args.trace))
    except Exception:  # noqa: BLE001  report the failure, still print a result
        traceback.print_exc()
        run.fail(["workload raised; see the traceback above"])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"relaybench {args.workload} seed={args.seed} trace={args.trace}")
    for note in run.notes:
        print(f"  {note}")
    if args.trace:
        print("per-layer metrics (unit; the end-to-end metric it should move):")
        for name, (unit, moves) in workloads.LAYER.items():
            value = run.metrics.get(name, float("nan"))
            print(f"  {name:32s} {value:16.6g} {unit:6s} {moves}")
        metrics = {name: {"value": run.metrics.get(name, 0.0), "unit": unit}
                   for name, (unit, _) in workloads.LAYER.items()}
    else:
        print("end-to-end metrics:")
        values = {**run.metrics, **run.fidelity}
        for name, unit in workloads.E2E_UNITS.items():
            print(f"  {name:20s} {values.get(name, float('nan')):16.6g} {unit}")
        gated = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
        metrics = {m["name"]: {"value": run.metrics.get(m["name"], 0.0), "unit": m["unit"]}
                   for m in gated}
    print("report sha256:")
    for name, digest in sorted(run.digests.items()):
        print(f"  {digest}  {name}")
    print(f"gates: {run.attempted} sessions, {run.failed} failed")
    for failure in run.failures:
        print(f"  FAIL {failure}")
    correct = not run.failures and bool(run.metrics)
    print(json.dumps({"correct": correct, "attempted": max(run.attempted, 1),
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
