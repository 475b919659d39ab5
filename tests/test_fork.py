"""The package's one fork helper: when it forks, where the child runs, and whose bytes return."""

import os
import threading

import pytest

from nuds import _fork
from nuds._fork import Child

FLOOR = 10


@pytest.fixture
def two_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


@pytest.fixture
def affinity_calls(monkeypatch):
    """Record each sched_setaffinity call; a job run in a child can return them."""
    calls = []
    monkeypatch.setattr(
        os, "sched_setaffinity", lambda pid, cpus: calls.append((pid, cpus)), raising=False
    )
    return calls


def _run(job, size=FLOOR):
    """Start a child for ``job`` and collect it: (whether it forked, the job's bytes)."""
    with Child() as child:
        child.start(job, size, FLOOR)
        forked = child.pid is not None
        return forked, child.collect()


def _no_fork():
    raise AssertionError("os.fork called")


def test_probe_reads_threads_and_cpu_of_this_process():
    if not os.path.exists("/proc/self/stat"):
        pytest.skip("no /proc on this system")
    threads, cpu = _fork._probe()
    assert threads >= 1
    assert cpu in os.sched_getaffinity(0)


def test_probe_parses_a_command_name_with_spaces_and_parentheses(tmp_path, monkeypatch):
    # Fields 3 to 52 after a command name "a) (b"; field n holds the value n.
    stat = "4242 (a) (b) " + " ".join(str(n) for n in range(3, 53)) + "\n"
    path = tmp_path / "stat"
    path.write_text(stat)
    monkeypatch.setattr(_fork, "_STAT", str(path))
    assert _fork._probe() == (20, 39)


def test_no_fork_where_proc_cannot_be_read(tmp_path, monkeypatch, two_cpus):
    # The Python thread count misses threads that native libraries start,
    # so where /proc/self/stat cannot be read no child starts.
    monkeypatch.setattr(_fork, "_STAT", str(tmp_path / "missing"))
    monkeypatch.setattr(threading, "active_count", lambda: 1)
    monkeypatch.setattr(os, "fork", _no_fork)
    assert _fork._probe() == (None, None)
    assert _run(lambda: b"x") == (False, b"x")


@pytest.mark.parametrize("threads", [2, 5])
def test_no_fork_in_a_multithreaded_process(monkeypatch, two_cpus, threads):
    monkeypatch.setattr(_fork, "_probe", lambda: (threads, 0))
    monkeypatch.setattr(os, "fork", _no_fork)
    assert _run(lambda: b"x") == (False, b"x")


def test_no_fork_below_the_floor(monkeypatch, two_cpus):
    monkeypatch.setattr(_fork, "_probe", lambda: (1, 0))
    monkeypatch.setattr(os, "fork", _no_fork)
    assert _run(lambda: b"x", size=FLOOR - 1) == (False, b"x")


def test_no_fork_and_no_placement_on_one_cpu(monkeypatch, affinity_calls):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
    monkeypatch.setattr(_fork, "_probe", lambda: (1, 3))
    monkeypatch.setattr(os, "fork", _no_fork)
    assert _run(lambda: b"x") == (False, b"x")
    assert affinity_calls == []


def test_single_threaded_process_forks_and_gets_the_bytes(monkeypatch, two_cpus):
    monkeypatch.setattr(_fork, "_probe", lambda: (1, 0))
    assert _run(lambda: b"payload" * 1000) == (True, b"payload" * 1000)


def test_child_asks_for_the_allowed_cpus_minus_the_parents(monkeypatch, affinity_calls):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 5}, raising=False)
    monkeypatch.setattr(_fork, "_probe", lambda: (1, 2))
    forked, data = _run(lambda: repr(affinity_calls).encode())
    assert forked and data == b"[(0, {0, 1, 5})]"
    assert affinity_calls == []  # this process is never moved


def test_refused_placement_is_ignored(monkeypatch, two_cpus):
    def refuse(pid, cpus):
        raise OSError(22, "Invalid argument")

    monkeypatch.setattr(os, "sched_setaffinity", refuse, raising=False)
    monkeypatch.setattr(_fork, "_probe", lambda: (1, 0))
    assert _run(lambda: b"same bytes") == (True, b"same bytes")


def test_job_failing_in_the_child_gives_the_bytes_of_the_job_run_here(monkeypatch, two_cpus):
    monkeypatch.setattr(_fork, "_probe", lambda: (1, 0))
    parent = os.getpid()

    def job():
        if os.getpid() != parent:
            raise RuntimeError("the job failed in the child")
        return b"from this process"

    assert _run(job) == (True, b"from this process")


def test_job_failing_everywhere_raises_here(monkeypatch, two_cpus):
    monkeypatch.setattr(_fork, "_probe", lambda: (1, 0))
    runs = []

    def job():
        runs.append(os.getpid())  # only this process's own run is seen here
        raise RuntimeError("the job failed")

    with pytest.raises(RuntimeError, match="the job failed"):
        _run(job)
    assert runs == [os.getpid()]
