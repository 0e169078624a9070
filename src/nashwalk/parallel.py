"""The one trial sweep: order-stable trial parallelism.

Every experiment is a sweep of i.i.d. trials, and :func:`map_ordered` is the
only code that runs one: it checks the trial count, hands trial i the job
``(*job, i)`` and returns the results in trial order.  Every trial derives its
randomness from its index, so distributing the trials over processes cannot
change any result — only the wall time.  NASHWALK_THREADS sets the worker
count when no explicit count is given; unset or empty it means 1, and any
other value that is not an integer of at least 1 is an error.

The wall-clock budget is a scope: inside ``with time_budget(seconds)``,
:func:`check_deadline` raises TimeBudgetExceeded once the budget is spent.
A sweep checks it before every trial and after the last (serial) or as
every result arrives (parallel, after which the pending trials are
cancelled), so a sweep whose last trial overruns fails on either path; the
sink analysis checks it every round and a walk every 1024 steps.  A pool
hands the deadline to each worker when it starts, so trials running in
workers stop too, whatever the start method.

Each trial allocates and frees the same few buffers (about 1 MiB for an
exhaustive n=15 trial).  By default glibc maps blocks of that size afresh
and unmaps them on free, so every trial faults its pages back in;
:func:`keep_freed_pages` stops that, once per process: the CLI calls it
before it dispatches, and a pool runs it in every worker.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import time
from contextvars import ContextVar

from .errors import EmptyTrialCount, NashwalkError, TimeBudgetExceeded

ENV_THREADS = "NASHWALK_THREADS"

# the time.monotonic() value past which check_deadline raises, or None
_DEADLINE: ContextVar[float | None] = ContextVar("nashwalk_deadline", default=None)

# glibc's mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def keep_freed_pages() -> None:
    """Keep freed memory mapped for reuse: serve blocks below 32 MiB from
    the heap and never trim it, through glibc's ``mallopt``.  A no-op where
    the C library has no ``mallopt``."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, -1)


def resolve_workers(n_workers: int | None = None) -> int:
    """`n_workers` (at least 1) when given, else NASHWALK_THREADS, else 1.

    Raises NashwalkError when NASHWALK_THREADS is set, non-empty and not an
    integer of at least 1.
    """
    if n_workers is not None:
        return max(1, int(n_workers))
    env = os.environ.get(ENV_THREADS, "")
    if not env:
        return 1
    try:
        workers = int(env)
    except ValueError:
        workers = 0
    if workers < 1:
        raise NashwalkError(f"{ENV_THREADS} must be an integer of at least 1, got {env!r}")
    return workers


@contextlib.contextmanager
def time_budget(seconds: float | None):
    """A scope in which :func:`check_deadline` raises once `seconds` have
    passed (None: no budget); the enclosing budget holds again on exit."""
    token = _DEADLINE.set(None if seconds is None else time.monotonic() + seconds)
    try:
        yield
    finally:
        _DEADLINE.reset(token)


def check_deadline() -> None:
    """Raise TimeBudgetExceeded once the current :func:`time_budget` is spent."""
    deadline = _DEADLINE.get()
    if deadline is not None and time.monotonic() > deadline:
        raise TimeBudgetExceeded("wall-clock budget exhausted")


def _start_worker(until: float | None) -> None:
    """A pool worker's setup: keep freed pages mapped and adopt the parent's
    deadline, which a forkserver or spawned worker would not inherit
    (time.monotonic() is one clock for every process on the host)."""
    keep_freed_pages()
    _DEADLINE.set(until)


def map_ordered(fn, job: tuple, trials: int, n_workers: int | None = None) -> list:
    """``[fn((*job, i)) for i in range(trials)]``, optionally across processes.

    Raises EmptyTrialCount when `trials` is below 1.
    """
    if trials < 1:
        raise EmptyTrialCount(f"trials must be >= 1, got {trials}")
    jobs = [(*job, i) for i in range(trials)]
    # a pool forks all its workers up front, so never ask for more than jobs
    workers = min(resolve_workers(n_workers), len(jobs))
    results = []
    if workers <= 1:
        for job in jobs:
            check_deadline()
            results.append(fn(job))
        check_deadline()
        return results
    # imported here, so serial runs never load multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    check_deadline()
    chunk = max(1, len(jobs) // (workers * 4))
    with ProcessPoolExecutor(
        max_workers=workers, initializer=_start_worker, initargs=(_DEADLINE.get(),)
    ) as ex:
        try:
            for result in ex.map(fn, jobs, chunksize=chunk):
                check_deadline()
                results.append(result)
        except BaseException:
            ex.shutdown(wait=True, cancel_futures=True)
            raise
    return results
