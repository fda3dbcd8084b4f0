"""Build the optional compiled estimator kernel.

The package works without it (a pure-Python twin is selected at import time),
so a missing Cython downgrades to a source-only install instead of aborting.
Only the ImportError is caught: with Cython present, a failure to cythonize or
compile the kernel still aborts the build.
"""

from setuptools import setup

try:
    from Cython.Build import cythonize

    ext_modules = cythonize(
        ["src/relaysim/_estimator_cy.pyx"],
        compiler_directives={"language_level": "3"},
    )
except ImportError:
    ext_modules = []

setup(ext_modules=ext_modules)
