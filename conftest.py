"""Builds the compiled estimator in place before any test imports relaysim.

The tests import ``relaysim`` from ``src/`` (``PYTHONPATH=src``), and its
estimator is a C extension, so a clean checkout has none until
``setup.py build_ext --inplace`` compiles it next to its source. That runs
once per session, when the module is missing or older than its C source.
"""

import subprocess
import sys
import sysconfig
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent
SOURCE = ROOT / "src" / "relaysim" / "_estimator.c"


def pytest_configure(config):
    built = SOURCE.with_name("_estimator" + sysconfig.get_config_var("EXT_SUFFIX"))
    if built.is_file() and built.stat().st_mtime >= SOURCE.stat().st_mtime:
        return
    with tempfile.TemporaryDirectory() as temp:
        proc = subprocess.run(
            [sys.executable, "setup.py", "-q", "build_ext", "--inplace", "--build-temp", temp],
            cwd=ROOT, capture_output=True, text=True)
    if proc.returncode:
        raise pytest.UsageError(f"building relaysim._estimator failed:\n{proc.stdout}{proc.stderr}")
