"""Metadata lives in pyproject.toml; this file stays for ``setup.py build``,
which ``relaybench/run.py`` builds the package with."""

from setuptools import setup

setup()
