"""One job, run by a forked child while this process does other work, or else here.

Two jobs in the package split between this process and a child:
decoding a large config, where the child also computes the spectral
radius for ``recover`` and ``check`` (``cli``), and formatting a large
CSV (``dynamics``).  Both fork through :class:`Child`, the package's only
call to ``os.fork``, and take the job's bytes from :meth:`Child.collect`.

A child is started only where it can pay: the caller's share of work
must reach its floor, at least two CPUs must be usable, and this process
must be seen to have one OS thread, because a fork copies only the
thread that calls it and any lock another thread held stays locked in
the child (Python 3.12 warns about such forks).  The child asks to run on the
usable CPUs other than the one this process last ran on, so that the
two halves of the work do not share a CPU.
"""

from __future__ import annotations

import os
import signal
from collections.abc import Callable
from typing import BinaryIO, NoReturn

_STAT = "/proc/self/stat"


def _probe() -> tuple[int | None, int | None]:
    """This process's OS thread count and the CPU it last ran on.

    Both come from one read of ``/proc/self/stat`` (fields 20 and 39).
    Where that cannot be read, both are None: the interpreter's own count
    of Python threads misses the threads that native libraries such as
    OpenBLAS start, so it cannot show that a fork is safe.
    """
    try:
        with open(_STAT, "rb") as fh:
            stat = fh.read()
        # The command name (field 2) sits in parentheses and may hold
        # spaces; field 3 is the first after its closing parenthesis.
        fields = stat[stat.rindex(b")") + 1 :].split()
        return int(fields[20 - 3]), int(fields[39 - 3])
    except (OSError, ValueError, IndexError):
        return None, None


class Child:
    """One job, run by at most one forked child that pipes its bytes back.

    Used as a context manager: leaving the block, on any exception
    included, closes the pipe and kills and reaps a child still running.
    """

    def __init__(self) -> None:
        self.pid: int | None = None
        self._pipe: BinaryIO | None = None

    def __enter__(self) -> Child:
        return self

    def __exit__(self, *exc) -> None:
        if self._pipe is not None:
            self._pipe.close()
        if self.pid is not None:
            pid, self.pid = self.pid, None
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)

    def start(self, job: Callable[[], bytes], size: int, floor: int) -> None:
        """Keep ``job`` for :meth:`collect`, and fork a child that runs it where a child pays.

        ``size`` is the work the child would take over and ``floor`` the
        least that pays for a fork, both in the caller's unit.  No child
        starts below the floor, on fewer than two usable CPUs, in a
        process not known to have exactly one OS thread, or when the
        system refuses the pipe or the fork.  The child runs on a copy of
        this process's memory, so ``job`` may read anything set up before
        the call, and leaves this process's copy as it was.
        """
        self._job = job
        if size < floor or not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
            return
        cpus = os.sched_getaffinity(0)
        threads, cpu = _probe()
        if len(cpus) < 2 or threads != 1:
            return
        try:
            read_fd, write_fd = os.pipe()
        except OSError:
            return
        self._pipe = open(read_fd, "rb")
        try:
            self.pid = os.fork()
        except OSError:
            os.close(write_fd)
            return
        if self.pid == 0:
            _serve(job, self._pipe, write_fd, cpus - {cpu})
        os.close(write_fd)

    def collect(self) -> bytes:
        """The job's bytes: the child's where it exited 0, else ``job()``'s, run here."""
        if self.pid is not None:
            data = self._pipe.read()
            _, status = os.waitpid(self.pid, 0)
            self.pid = None
            if os.waitstatus_to_exitcode(status) == 0:
                return data
        return self._job()


def _serve(
    job: Callable[[], bytes], read_end: BinaryIO, write_fd: int, cpus: set[int]
) -> NoReturn:
    """The child's whole run: move off the parent's CPU, run the job, write, exit.

    It writes only once the job has returned, so it never waits on a
    full pipe while the parent is still busy.  A refused CPU placement
    is ignored.  The child leaves by ``os._exit``, status 0 once every
    byte is written and 1 on any exception.
    """
    status = 1
    try:
        read_end.close()
        try:
            os.sched_setaffinity(0, cpus)
        except OSError:
            pass
        data = job()
        with open(write_fd, "wb") as pipe:
            pipe.write(data)
        status = 0
    finally:
        os._exit(status)
