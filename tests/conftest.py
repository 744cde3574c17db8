"""Test-session setup: BLAS and OpenMP run one thread unless the environment
says otherwise. Their threads spin-wait for a busy core, so beside any other
process a multi-threaded eigensolve can run many times slower. The variables
are read once, when numpy loads, so this must run before anything imports it."""

import os
import sys

assert "numpy" not in sys.modules, "numpy was imported before tests/conftest.py"
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
