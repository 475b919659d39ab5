import os

# One BLAS thread, set before numpy is first imported.  The package forks
# only from a process with one OS thread, and an unpinned OpenBLAS starts
# its own threads at import, so without this no fork test would fork.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import types  # noqa: E402
from collections import Counter  # noqa: E402

import pytest  # noqa: E402


class _Proxy(types.SimpleNamespace):
    """Stands in for a module: the given attributes replaced, the rest forwarded."""

    def __init__(self, target, **replaced):
        super().__init__(**replaced)
        object.__setattr__(self, "_target", target)

    def __getattr__(self, name):
        return getattr(object.__getattribute__(self, "_target"), name)


@pytest.fixture
def lapack_calls(monkeypatch):
    """Count the LAPACK drivers ``nuds.linalg`` reaches: eigh, eigvals, lu_factor.

    Only calls made through ``nuds.linalg``'s own ``np`` and ``scipy``
    names are counted, so numpy calls made by a test itself are not.
    """
    from nuds import linalg

    counts = Counter()

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    np_linalg, sp_linalg = linalg.np.linalg, linalg.scipy.linalg
    np_proxy = _Proxy(
        np_linalg, eigh=counted(np_linalg, "eigh"), eigvals=counted(np_linalg, "eigvals")
    )
    sp_proxy = _Proxy(sp_linalg, lu_factor=counted(sp_linalg, "lu_factor"))
    monkeypatch.setattr(linalg, "np", _Proxy(linalg.np, linalg=np_proxy))
    monkeypatch.setattr(linalg, "scipy", _Proxy(linalg.scipy, linalg=sp_proxy))
    return counts


@pytest.fixture
def forks(monkeypatch):
    """Report two usable CPUs and record (pid, exit code) of every child."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    real_fork, real_waitpid, children = os.fork, os.waitpid, []

    def recording_fork():
        pid = real_fork()
        if pid:
            children.append([pid, None])
        return pid

    def recording_waitpid(pid, options):
        got, status = real_waitpid(pid, options)
        for child in children:
            if got and child[0] == got:
                child[1] = os.waitstatus_to_exitcode(status)
        return got, status

    monkeypatch.setattr(os, "fork", recording_fork)
    monkeypatch.setattr(os, "waitpid", recording_waitpid)
    return children


@pytest.fixture
def child_cannot_pickle(monkeypatch):
    """Make ``pickle.dumps`` fail in a forked child only; this process pickles as before."""
    import pickle

    parent, real_dumps = os.getpid(), pickle.dumps

    def dumps(*args, **kwargs):
        if os.getpid() != parent:
            raise MemoryError("the child could not pickle its share")
        return real_dumps(*args, **kwargs)

    monkeypatch.setattr(pickle, "dumps", dumps)


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
