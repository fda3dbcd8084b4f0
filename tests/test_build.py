"""The source build that relaybench/run.py runs: same files, same command."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_setup_py_build_is_pure_python(tmp_path):
    for name in ("setup.py", "pyproject.toml", "README.md"):
        shutil.copy2(ROOT / name, tmp_path / name)
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    proc = subprocess.run(
        [sys.executable, "setup.py", "-q", "build", "--build-base", "build",
         "--build-lib", "lib"],
        cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lib = tmp_path / "lib"
    assert (lib / "relaysim" / "estimator.py").is_file()
    # Python sources only: no extension module, no generated C, no .so
    assert {p.suffix for p in lib.rglob("*") if p.is_file()} == {".py"}
