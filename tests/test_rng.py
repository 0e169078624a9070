"""Tests for the keyed counter-based hash primitives."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

import nashwalk.percolation as percolation
from nashwalk.medium import MODE_EXHAUSTIVE, MODE_LAZY, MediumParams, build_medium, trial_medium
from nashwalk.rng import (
    MASK64, TAG_MEDIUM, TAG_PERC, TAG_STEP, TAG_WALK, fold, lane_constants, mix64,
    mix64_lanes, mix64_np, threshold, trial_seed, unit_interval,
)
from nashwalk.walkers import (
    Policy, WalkConfig, sample_categorical, step_distribution, walk_trial,
)


def reference_mix(x: int) -> int:
    """Independent SplitMix64 step, written out long-hand."""
    z = (x + 0x9E3779B97F4A7C15) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def test_mix64_known_answers():
    # First outputs of the reference SplitMix64 stream seeded with 0 and 1.
    assert mix64(0) == 0xE220A8397B1DCDAF
    assert mix64(1) == 0x910A2DEC89025CC1


@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_mix64_matches_reference(x):
    assert mix64(x) == reference_mix(x)


@given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=62))
def test_mix64_lanes_matches_scalar(words):
    _, low, golden = lane_constants(len(words))
    packed = sum(w << (128 * i) for i, w in enumerate(words))
    mixed = mix64_lanes(packed, golden, low)
    # whole 128-bit lanes, so a carry or a stray bit in a lane's high half shows
    assert [(mixed >> (128 * i)) & ((1 << 128) - 1) for i in range(len(words))] == [
        reference_mix(w) for w in words
    ]


def test_mix64_stays_in_64_bits():
    for x in (0, 1, 2**63, 2**64 - 1, 0xDEADBEEF):
        assert 0 <= mix64(x) <= MASK64


def test_fold_is_order_sensitive():
    assert fold(7, 1, 2) != fold(7, 2, 1)
    assert fold(7, 1) != fold(8, 1)
    assert fold(7, 1, 0) != fold(7, 1)


@given(
    st.integers(min_value=0, max_value=2**64 - 1),
    st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=3),
    st.integers(min_value=0, max_value=2**64 - 1),
)
def test_fold_extends_a_prefix_with_one_pass(seed, words, last):
    # Walks hoist fold(walk_seed, TAG_STEP) out of the step loop and draw
    # step t from mix64(key ^ (t - 1)); that is this prefix property.
    assert fold(seed, *words, last) == mix64(fold(seed, *words) ^ last)


def test_mix64_np_agrees_with_scalar_vectorised():
    xs = np.array([0, 1, 2**63, 2**64 - 1, 12345], dtype=np.uint64)
    out = mix64_np(xs)
    assert out.dtype == np.uint64
    assert [int(v) for v in out] == [mix64(int(v)) for v in xs]


def test_mix64_np_in_place_and_with_scratch():
    xs = np.array([0, 1, 2**63, 2**64 - 1, 12345], dtype=np.uint64)
    expect = [mix64(int(v)) for v in xs]
    kept = xs.copy()
    mix64_np(xs, tmp=np.empty_like(xs))
    assert np.array_equal(xs, kept)  # the input is left alone by default
    assert mix64_np(xs, out=xs) is xs
    assert [int(v) for v in xs] == expect


def test_unit_interval_bounds():
    assert unit_interval(0) == 0.0
    assert 0.0 <= unit_interval(2**64 - 1) < 1.0
    h = 0xABCDEF0123456789
    assert unit_interval(h) == (h >> 11) * 2.0**-53


def test_threshold_exact_dyadics():
    assert threshold(0.0) == 0
    assert threshold(0.25) == 2**62
    assert threshold(0.5) == 2**63
    assert threshold(1.0) == 2**64


@given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_threshold_monotone(p):
    t = threshold(p)
    assert 0 <= t <= 2**64
    if p < 1.0:
        assert threshold(p) <= threshold(min(1.0, p + 0.01))


@pytest.mark.parametrize("trial", [0, 1, 2**32])
@pytest.mark.parametrize("seed", [0, 2**63, 2**64 - 1])
def test_per_trial_seeds_equal_the_long_hand_fold(monkeypatch, seed, trial):
    # Trial seeds come from a cached prefix fold(seed, tag) and one mix
    # pass; every consumer must still see fold(seed, tag, trial) long hand,
    # and every step t of the trial's walk fold(walk seed, "step", t).
    for tag in (TAG_MEDIUM, TAG_WALK, TAG_PERC):
        assert trial_seed(seed, tag, trial) == fold(seed, tag, trial)
    n, alpha, steps = 6, 0.0, 40
    walk_seed = fold(seed, TAG_WALK, trial)
    # a lazy srw walk steps to its cap or a PNE; an exhaustive brd trial
    # walks the lazy twin first
    for mode, policy in ((MODE_LAZY, Policy.srw()), (MODE_EXHAUSTIVE, Policy.brd())):
        params = MediumParams(n, alpha, seed, mode)
        medium = trial_medium(params, trial)
        assert medium.params.seed == fold(seed, TAG_MEDIUM, trial)
        config = WalkConfig(seed, steps, record_path=True)
        (record,) = walk_trial(params, (policy,), config, trial)
        oracle = build_medium(n, alpha, fold(seed, TAG_MEDIUM, trial), mode)
        path = [0]
        for t in range(record.steps_taken):
            u = unit_interval(fold(walk_seed, TAG_STEP, t))
            path.append(sample_categorical(step_distribution(policy, oracle, path[-1]), u))
        assert record.path == path
    seen = []
    sample = percolation.sample_percolation

    def spy(n, beta, perc_seed):
        seen.append(perc_seed)
        return sample(n, beta, perc_seed)

    monkeypatch.setattr(percolation, "sample_percolation", spy)
    percolation.coupling_trial((MediumParams(n, alpha, seed), trial))
    assert seen == [fold(seed, TAG_PERC, trial)]
