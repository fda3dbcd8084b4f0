"""The source build that relaybench/run.py runs: same files, same command."""

import os
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_setup_py_build_compiles_the_one_estimator(tmp_path):
    for name in ("setup.py", "pyproject.toml", "README.md"):
        shutil.copy2(ROOT / name, tmp_path / name)
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info", "*.so"))
    proc = subprocess.run(
        [sys.executable, "setup.py", "-q", "build", "--build-base", "build",
         "--build-lib", "lib"],
        cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lib = tmp_path / "lib"
    files = [p for p in lib.rglob("*") if p.is_file()]
    # the Python sources and one extension module: no C source, no object file
    modules = [p.name for p in files if p.suffix != ".py"]
    assert len(modules) == 1 and modules[0].startswith("_estimator.")
    assert (lib / "relaysim" / modules[0]).is_file()
    assert {p.suffix for p in files} == {".py", ".so"}
    assert (lib / "relaysim" / "estimator.py").is_file()

    probe = ("import relaysim.estimator as e, relaysim._estimator as c; "
             "assert e.JitterEstimator is c.JitterEstimator; "
             "assert e.TransitEstimator is c.TransitEstimator; "
             "print(e.IMPLEMENTATION, c.__file__)")
    proc = subprocess.run([sys.executable, "-c", probe], cwd=tmp_path, capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(lib)})
    assert proc.returncode == 0, proc.stderr
    implementation, path = proc.stdout.split()
    assert implementation == "compiled" and Path(path).parent == lib / "relaysim"


def test_estimator_source_is_warning_free():
    # the flags setup.py builds with, plus every common warning as an error,
    # against the running Python's headers
    include = sysconfig.get_paths()["include"]
    proc = subprocess.run(
        ["gcc", "-fsyntax-only", "-Wall", "-Werror", "-ffp-contract=off", f"-I{include}",
         str(ROOT / "src" / "relaysim" / "_estimator.c")],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
