"""Run tests against ``_estimator.c`` built with AddressSanitizer and UBSan.

gcc compiles ``src/relaysim/_estimator.c`` into a temporary directory with
``-fsanitize=address,undefined -fno-sanitize-recover=undefined
-ffp-contract=off -g``, next to a copy of the package's Python files, so
the in-place build under ``src/`` is never written. A child process then
imports ``relaysim`` from that copy and runs pytest, with ``libasan`` and
``libubsan`` preloaded (found with ``gcc -print-file-name``), leak
detection off (``ASAN_OPTIONS=detect_leaks=0``: the interpreter keeps
memory to its exit) and ``PYTHONMALLOC=malloc``, so every Python object is
a heap block that AddressSanitizer watches. The child's output, the
sanitizers' reports included, is printed. The run exits 1 on any sanitizer
report or failing test, else 0.

Usage, from the repository root:

    python benchmarks/sanitize.py [pytest arguments]

Without arguments it runs ``tests/test_estimator.py``,
``tests/test_jitter.py``, ``tests/test_generated_streams.py``,
``tests/test_engine.py`` and ``relaybench/test_harness.py``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import sysconfig
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "relaysim"
DEFAULT_TESTS = ["tests/test_estimator.py", "tests/test_jitter.py",
                 "tests/test_generated_streams.py", "tests/test_engine.py",
                 "relaybench/test_harness.py"]
FLAGS = ["-fsanitize=address,undefined", "-fno-sanitize-recover=undefined", "-ffp-contract=off",
         "-g", "-O1", "-fno-omit-frame-pointer"]
# what AddressSanitizer and UBSan print when they find something
REPORTS = ("ERROR: AddressSanitizer", "runtime error:", "ERROR: UndefinedBehaviorSanitizer")

# imports relaysim from the sanitized copy before any test can put src/ first
CHILD = """
import sys
import relaysim._estimator as built
if not built.__file__.startswith(sys.argv[1]):
    sys.exit(f"relaysim._estimator was imported from {built.__file__}")
import pytest
sys.exit(pytest.main(sys.argv[2:]))
"""


def build(target: Path) -> None:
    """The package's Python files and a sanitized ``_estimator`` in ``target/relaysim``."""
    package = target / "relaysim"
    shutil.copytree(PACKAGE, package,
                    ignore=shutil.ignore_patterns("*.so", "*.c", "__pycache__"))
    module = package / ("_estimator" + sysconfig.get_config_var("EXT_SUFFIX"))
    subprocess.run(["gcc", "-shared", "-fPIC", *FLAGS, f"-I{sysconfig.get_paths()['include']}",
                    str(PACKAGE / "_estimator.c"), "-o", str(module)], check=True)


def runtime(name: str) -> str:
    path = subprocess.run(["gcc", f"-print-file-name={name}"], capture_output=True, text=True,
                          check=True).stdout.strip()
    if not os.path.isabs(path):
        raise SystemExit(f"error: gcc has no {name}")
    return path


def reported(output: str) -> bool:
    return any(marker in output for marker in REPORTS)


def main(argv: list[str] | None = None) -> int:
    tests = list(DEFAULT_TESTS if not argv else argv)
    with tempfile.TemporaryDirectory() as temp:
        build(Path(temp))
        env = {**os.environ,
               "LD_PRELOAD": f"{runtime('libasan.so')}:{runtime('libubsan.so')}",
               "ASAN_OPTIONS": "detect_leaks=0",
               "UBSAN_OPTIONS": "print_stacktrace=1",
               "PYTHONMALLOC": "malloc",
               "PYTHONPATH": temp}
        # pytest captures at the sys level, so a report written to file
        # descriptor 2 by a test that aborts is not held and lost
        proc = subprocess.run(
            [sys.executable, "-c", CHILD, temp, "-q", "--capture=sys", "-p", "no:cacheprovider",
             "--noconftest", *tests], cwd=ROOT, env=env, capture_output=True, text=True)
    output = proc.stdout + proc.stderr
    print(output, end="")
    if reported(output):
        print("sanitizer report found", file=sys.stderr)
        return 1
    return 1 if proc.returncode else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
