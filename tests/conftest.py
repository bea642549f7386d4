"""Shared fixtures.

``one_blas_thread`` runs a test with numpy's bundled OpenBLAS at one thread, as
``bench/run.py`` pins it, and restores the count afterwards.  The quadratic's
block kernel walks its matrix in panels only at one thread, and a gemv's bits
at large dims depend on the thread count, so a test of either needs the pin
while tier-1 itself runs unpinned.  ``at_blas_threads`` runs Python source in
a fresh interpreter whose OpenBLAS starts at a given thread count.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from asgdsim.objectives import _openblas_function

TESTS = Path(__file__).resolve().parent


@pytest.fixture
def one_blas_thread():
    get, set_ = _openblas_function("get_num_threads"), _openblas_function("set_num_threads")
    if get is None or set_ is None:
        pytest.skip("numpy's OpenBLAS exposes no thread-count functions")
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


@pytest.fixture
def at_blas_threads():
    """``run(threads, source)``: run ``source`` with ``src`` and ``tests`` on the path
    under ``OPENBLAS_NUM_THREADS=threads``; skip where OpenBLAS does not start that
    many (it caps the count at the processor count)."""
    def run(threads, source):
        prelude = ("import sys\n"
                   "from asgdsim.objectives import _openblas_function\n"
                   "get = _openblas_function('get_num_threads')\n"
                   f"if get is None or get() != {threads}:\n"
                   "    sys.exit(77)\n")
        env = os.environ | {"OPENBLAS_NUM_THREADS": str(threads), "OMP_NUM_THREADS": str(threads),
                            "PYTHONPATH": os.pathsep.join([str(TESTS.parent / "src"), str(TESTS)])}
        done = subprocess.run([sys.executable, "-c", prelude + source], capture_output=True,
                              text=True, timeout=600, env=env)
        if done.returncode == 77:
            pytest.skip(f"OpenBLAS does not start {threads} threads here")
        assert done.returncode == 0, done.stdout + done.stderr

    return run
