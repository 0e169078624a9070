"""Tests for the one trial sweep, :func:`nashwalk.parallel.map_ordered`."""

from __future__ import annotations

import pytest

from nashwalk.errors import EmptyTrialCount
from nashwalk.experiments import absorption_trend, pne_count_stats, walk_length_quantiles
from nashwalk.medium import MediumParams
from nashwalk.parallel import map_ordered
from nashwalk.percolation import run_coupling_trials
from nashwalk.walkers import Policy, WalkConfig, run_trials


def _echo(args):
    return args


@pytest.mark.parametrize("workers", [1, 2])
def test_map_ordered_hands_trial_i_the_job_and_i(workers):
    got = map_ordered(_echo, ("job", 7), 9, n_workers=workers)
    assert got == [("job", 7, i) for i in range(9)]


SWEEPS = {
    "walk_length_quantiles": lambda t: walk_length_quantiles(5, [0.5], t, ["brd"], seed=1),
    "absorption_trend": lambda t: absorption_trend([5], 0.5, "brd", t, seed=1),
    "pne_count_stats": lambda t: pne_count_stats(5, 0.5, t, seed=1),
    "run_coupling_trials": lambda t: run_coupling_trials(5, 0.5, t, seed=1),
    "run_trials": lambda t: run_trials(
        MediumParams(5, 0.5, 1), Policy.brd(), WalkConfig(walk_seed=1), t
    ),
}


@pytest.mark.parametrize("trials", [0, -1])
@pytest.mark.parametrize("sweep", sorted(SWEEPS))
def test_every_sweep_needs_a_trial(sweep, trials):
    with pytest.raises(EmptyTrialCount, match=f"trials must be >= 1, got {trials}$"):
        SWEEPS[sweep](trials)
