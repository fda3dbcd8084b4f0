"""Metadata lives in pyproject.toml. This file declares the compiled
estimator and stays for ``setup.py build``, which ``relaybench/run.py``
builds the package with."""

from setuptools import Extension, setup

setup(ext_modules=[Extension(
    "relaysim._estimator", ["src/relaysim/_estimator.c"],
    # Python's float arithmetic one operation at a time: no fused multiply-add
    extra_compile_args=["-ffp-contract=off"],
)])
