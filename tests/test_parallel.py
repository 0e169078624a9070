"""Tests for the one trial sweep, :func:`nashwalk.parallel.map_ordered`."""

from __future__ import annotations

import concurrent.futures
import ctypes
import multiprocessing
import os
import subprocess
import sys
import time

import pytest

import nashwalk.experiments
import nashwalk.parallel
import nashwalk.percolation
import nashwalk.walkers
from nashwalk.errors import EmptyTrialCount, TimeBudgetExceeded
from nashwalk.experiments import (
    absorption_trend,
    percolation_audit,
    pne_count_stats,
    walk_length_quantiles,
)
from nashwalk.medium import MediumParams
from nashwalk.parallel import check_deadline, map_ordered, resolve_workers, time_budget
from nashwalk.percolation import check_lemma_finally
from nashwalk.walkers import Policy, WalkConfig, run_trials


def _echo(args):
    return args


@pytest.mark.parametrize("workers", [1, 2])
def test_map_ordered_hands_trial_i_the_job_and_i(workers):
    got = map_ordered(_echo, ("job", 7), 9, n_workers=workers)
    assert got == [("job", 7, i) for i in range(9)]


def _slow(args):
    time.sleep(0.05)
    return args[-1]


@pytest.mark.parametrize("workers", [1, 2])
def test_a_last_trial_past_the_deadline_raises(workers):
    # One trial takes the serial path at either worker count, and its result
    # arrives after the deadline: the serial path, like the pooled one, must
    # check the deadline after the last result.
    with time_budget(0.01), pytest.raises(TimeBudgetExceeded):
        map_ordered(_slow, (), 1, n_workers=workers)


def _spin(args):
    # spins until the deadline passes or, without one, for 10 s
    give_up = time.monotonic() + 10
    while time.monotonic() < give_up:
        check_deadline()


@pytest.fixture
def spawned_workers():
    # spawned workers share no memory with the parent, as under forkserver
    # (Python's default start method on Linux from 3.14): a deadline that
    # only fork would hand down never reaches them
    before = multiprocessing.get_start_method(allow_none=True)
    multiprocessing.set_start_method("spawn", force=True)
    yield
    multiprocessing.set_start_method(before, force=True)


def test_the_budget_reaches_every_pool_worker(spawned_workers):
    # each trial spins until its worker sees the deadline pass, so the sweep
    # ends early only if the pool hands the deadline to its workers; a
    # worker that never sees it returns after 10 s, and only then does the
    # parent's own check raise
    start = time.monotonic()
    with time_budget(0.2), pytest.raises(TimeBudgetExceeded):
        map_ordered(_spin, (), 2, n_workers=2)
    assert time.monotonic() - start < 5


def test_a_budget_restores_the_enclosing_one():
    with time_budget(-1):  # already spent
        with time_budget(None):
            check_deadline()  # no budget in here
        with pytest.raises(TimeBudgetExceeded):
            check_deadline()  # the spent budget holds again
        with pytest.raises(ValueError), time_budget(100):
            raise ValueError
        with pytest.raises(TimeBudgetExceeded):
            check_deadline()  # ... also after an exception
    check_deadline()  # and outside, none


@pytest.mark.parametrize("workers, trials, pool", [
    (5000, 2, [2]), (2, 9, [2]), (3, 3, [3]), (5000, 1, []),
])
def test_the_pool_never_outnumbers_the_trials(workers, trials, pool, monkeypatch):
    # A pool forks all max_workers processes up front, so a worker count
    # above the trial count would start idle processes.  The stand-in pool
    # records max_workers and maps serially: no process is started.
    sizes = []

    class SerialPool:
        def __init__(self, max_workers=None, initializer=None, initargs=()):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs, chunksize=1):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    got = map_ordered(_echo, ("job",), trials, n_workers=workers)
    assert got == [("job", i) for i in range(trials)]
    assert sizes == pool


SWEEPS = {
    "walk_length_quantiles": lambda t: walk_length_quantiles(5, [0.5], t, ["brd"], seed=1),
    "absorption_trend": lambda t: absorption_trend([5], 0.5, "brd", t, seed=1),
    "pne_count_stats": lambda t: pne_count_stats(5, 0.5, t, seed=1),
    "percolation_audit": lambda t: percolation_audit(5, 0.5, t, seed=1),
    "check_lemma_finally": lambda t: check_lemma_finally(5, 0.5, t, seed=1),
    "run_trials": lambda t: run_trials(
        MediumParams(5, 0.5, 1), Policy.brd(), WalkConfig(walk_seed=1), t
    ),
}


@pytest.mark.parametrize("trials", [0, -1])
@pytest.mark.parametrize("sweep", sorted(SWEEPS))
def test_every_sweep_needs_a_trial(sweep, trials):
    with pytest.raises(EmptyTrialCount, match=f"trials must be >= 1, got {trials}$"):
        SWEEPS[sweep](trials)


SWEEP_MODULES = {
    "walk_length_quantiles": nashwalk.experiments,
    "absorption_trend": nashwalk.experiments,
    "pne_count_stats": nashwalk.experiments,
    "percolation_audit": nashwalk.experiments,
    "check_lemma_finally": nashwalk.percolation,
    "run_trials": nashwalk.walkers,
}


@pytest.mark.parametrize("sweep", sorted(SWEEPS))
def test_every_sweep_takes_its_worker_count_from_the_environment(sweep, monkeypatch):
    # A library caller that names no worker count gets NASHWALK_THREADS.  The
    # spy records the count map_ordered would resolve and runs serially.
    seen = []

    def spy(fn, job, trials, n_workers=None):
        seen.append(resolve_workers(n_workers))
        return map_ordered(fn, job, trials, 1)

    monkeypatch.setattr(SWEEP_MODULES[sweep], "map_ordered", spy)
    monkeypatch.setenv("NASHWALK_THREADS", "2")
    SWEEPS[sweep](3)
    assert seen and set(seen) == {2}


def _has_mallopt() -> bool:
    try:
        ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    return True


FAULTS_PER_TRIAL = """
import resource, sys
from nashwalk.cli import main
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
code = main(["pne-stats", "--n", "15", "--alpha", "0.5", "--trials", "30",
             "--threads", "1", "--out", sys.argv[1]])
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
print(code, faults / 30)
"""


@pytest.mark.skipif(not _has_mallopt(), reason="the C library has no mallopt")
def test_a_sweep_keeps_its_freed_pages_mapped(tmp_path):
    # Each n=15 trial allocates and frees about 1 MiB.  With glibc's default
    # thresholds those blocks are mapped afresh and faulted in on every
    # trial (about 229 minor faults per trial); the CLI keeps them mapped,
    # so after the first trial the pages are reused.
    src = os.path.dirname(os.path.dirname(nashwalk.parallel.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", FAULTS_PER_TRIAL, str(tmp_path / "out.json")],
        env=env, capture_output=True, text=True, check=True,
    )
    code, per_trial = done.stdout.split()
    assert code == "0"
    assert float(per_trial) < 20
