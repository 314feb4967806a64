"""Test-session set-up.

numpy's BLAS would otherwise start one spinning worker thread per core for
the 4x4 products the tests make, which costs more CPU than the work
itself; one thread, as the benchmark uses, keeps CPU time close to wall
time.  This must run before numpy is first imported, and a value set in the
environment still wins.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

# pyproject's pythonpath puts src/ on this process's path; the tests that
# start a fresh interpreter need it on theirs too
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
