import os

# One BLAS thread, set before numpy is first imported.  The package forks
# only from a process with one OS thread, and an unpinned OpenBLAS starts
# its own threads at import, so without this no fork test would fork.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import pytest  # noqa: E402


@pytest.fixture(autouse=True)
def no_leaked_child_processes():
    """Fail any test that leaves a child process running or unreaped."""
    yield
    if not hasattr(os, "WNOHANG"):
        return
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"test left an unreaped child process (waitpid gave pid {pid})")
