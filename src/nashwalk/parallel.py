"""The one trial sweep: order-stable trial parallelism.

Every experiment is a sweep of i.i.d. trials, and :func:`map_ordered` is the
only code that runs one: it checks the trial count, hands trial i the job
``(*job, i)`` and returns the results in trial order.  Every trial derives its
randomness from its index, so distributing the trials over processes cannot
change any result — only the wall time.  NASHWALK_THREADS sets the worker
count when no explicit count is given; unset or empty it means 1, and any
other value that is not an integer of at least 1 is an error.  A wall-clock
deadline is checked before every trial and after the last (serial) or as
every result arrives (parallel, after which the pending trials are
cancelled), so a sweep whose last trial overruns fails on either path.
"""

from __future__ import annotations

import os
import time

from .errors import EmptyTrialCount, NashwalkError, TimeBudgetExceeded

ENV_THREADS = "NASHWALK_THREADS"


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


def check_deadline(deadline: float | None) -> None:
    """Raise TimeBudgetExceeded once time.monotonic() has passed `deadline`."""
    if deadline is not None and time.monotonic() > deadline:
        raise TimeBudgetExceeded("wall-clock budget exhausted")


def map_ordered(
    fn, job: tuple, trials: int, n_workers: int | None = None,
    deadline: float | None = None,
) -> list:
    """``[fn((*job, i)) for i in range(trials)]``, optionally across processes.

    Raises EmptyTrialCount when `trials` is below 1.
    """
    if trials < 1:
        raise EmptyTrialCount(f"trials must be >= 1, got {trials}")
    jobs = [(*job, i) for i in range(trials)]
    workers = resolve_workers(n_workers)
    results = []
    if workers <= 1 or len(jobs) <= 1:
        for job in jobs:
            check_deadline(deadline)
            results.append(fn(job))
        check_deadline(deadline)
        return results
    # imported here, so serial runs never load multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    check_deadline(deadline)
    chunk = max(1, len(jobs) // (workers * 4))
    with ProcessPoolExecutor(max_workers=workers) as ex:
        try:
            for result in ex.map(fn, jobs, chunksize=chunk):
                check_deadline(deadline)
                results.append(result)
        except BaseException:
            ex.shutdown(wait=True, cancel_futures=True)
            raise
    return results
