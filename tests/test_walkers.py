"""Tests for walk policies, trajectory simulation, and batch runners."""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import nashwalk.sinks as sinks
import nashwalk.walkers as walkers
from nashwalk.cli import main
from nashwalk.errors import EmptyTrialCount, NonCanonicalEdge, PneInSample, StepCapZero
from nashwalk.experiments import (
    WALK_CSV_COLUMNS,
    WALK_SCHEMA_VERSION,
    records_to_jsonl,
    rows_to_csv,
    walk_fields,
)
from nashwalk.medium import (
    MODE_EXHAUSTIVE, MODE_LAZY, MediumParams, build_medium, neighbor_partition, trial_medium,
)
from nashwalk.rng import TAG_WALK, fold, unit_interval
from nashwalk.sinks import VertexClass, is_pne, sink_components
from nashwalk.walkers import (
    TERMINAL_ABSORBED,
    TERMINAL_IN_TRAP,
    TERMINAL_STEP_CAP,
    TERMINAL_UNKNOWN,
    Policy,
    WalkConfig,
    parse_policy,
    run_trials,
    run_walk,
    sample_categorical,
    step_distribution,
    verify_assumption,
    walk_trial,
)

from conftest import eager_probe_walk


# ---------------------------------------------------------------------------
# policies


def test_policy_constructors_and_labels():
    assert Policy.brd().label() == "brd"
    assert Policy.srw().label() == "srw"
    assert Policy.lambda_walk(0.25).label() == "lambda:0.25"
    assert Policy.brd().brd_like
    assert Policy.lambda_walk(1.0).brd_like
    assert not Policy.lambda_walk(0.5).brd_like
    assert not Policy.srw().brd_like


def test_policy_validation():
    with pytest.raises(ValueError):
        Policy.lambda_walk(0.0)
    with pytest.raises(ValueError):
        Policy.lambda_walk(1.5)
    with pytest.raises(ValueError):
        Policy("bogus")


def test_parse_policy_roundtrip():
    for p in (Policy.brd(), Policy.srw(), Policy.lambda_walk(0.3)):
        assert parse_policy(p.label()) == p
    with pytest.raises(ValueError):
        parse_policy("walk:fast")


# ---------------------------------------------------------------------------
# one-step distributions


def test_brd_uniform_over_out_edges(gamma2_medium):
    dist = dict(step_distribution(Policy.brd(), gamma2_medium, 3))
    assert dist == {2: 0.5, 1: 0.5}


def test_pne_is_absorbing_for_every_policy(gamma2_medium):
    for policy in (Policy.brd(), Policy.srw(), Policy.lambda_walk(0.5)):
        assert step_distribution(policy, gamma2_medium, 0) == [(0, 1.0)]


def test_srw_uniform_over_all_neighbors(escape_cube_medium):
    # Vertex 3 has one out-edge, one in-edge, and one tie edge; the simple
    # random walk treats them alike.
    dist = dict(step_distribution(Policy.srw(), escape_cube_medium, 3))
    assert dist == {2: pytest.approx(1 / 3), 1: pytest.approx(1 / 3), 7: pytest.approx(1 / 3)}


def test_lambda_walk_skips_ties(escape_cube_medium):
    dist = dict(step_distribution(Policy.lambda_walk(0.5), escape_cube_medium, 3))
    assert set(dist) == {2, 1}
    assert dist[2] == pytest.approx(0.5)
    assert dist[1] == pytest.approx(0.5)


def test_lambda_walk_weights(escape_cube_medium):
    # Vertex 0: out-neighbors {1}, in-neighbors {2, 4}.  With lam = 0.5 each
    # edge carries equal weight 1/3.
    dist = dict(step_distribution(Policy.lambda_walk(0.5), escape_cube_medium, 0))
    assert dist == {1: pytest.approx(1 / 3), 2: pytest.approx(1 / 3), 4: pytest.approx(1 / 3)}


def test_lambda_one_equals_brd():
    med = build_medium(6, 0.4, 616)
    for v in range(1 << 6):
        got = step_distribution(Policy.lambda_walk(1.0), med, v)
        want = step_distribution(Policy.brd(), med, v)
        assert got == want


def test_distributions_are_normalized():
    med = build_medium(5, 0.5, 51)
    for policy in (Policy.brd(), Policy.srw(), Policy.lambda_walk(0.7)):
        for v in range(32):
            dist = step_distribution(policy, med, v)
            assert sum(p for _, p in dist) == pytest.approx(1.0)
            assert all(p > 0 for _, p in dist)


def test_sample_categorical_extremes():
    dist = [(10, 0.2), (11, 0.3), (12, 0.5)]
    assert sample_categorical(dist, 0.0) == 10
    assert sample_categorical(dist, 0.9999) == 12
    # monotone in u
    picks = [sample_categorical(dist, u) for u in np.linspace(0, 0.999, 200)]
    assert picks == sorted(picks)


STEP_POLICIES = (
    Policy.brd(), Policy.srw(), *(Policy.lambda_walk(lam) for lam in (0.25, 0.5, 0.7, 1.0))
)


@settings(max_examples=400, deadline=None)
@given(data=st.data(), n=st.integers(min_value=1, max_value=62),
       policy=st.sampled_from(STEP_POLICIES))
def test_step_draws_equal_sample_categorical_at_every_boundary(data, n, policy):
    # Oracle: sample_categorical over _distribution, the step law as a
    # list.  The walk engine's draw bisects cached running sums instead; it
    # must pick the same neighbor at each running sum, one ulp either side
    # of it, and at the extremes of unit_interval.  An exact srw walk reads
    # no row, so srw is also drawn with empty masks.
    srw = policy.kind == "srw"
    v = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    axis = st.integers(min_value=0, max_value=n - 1)
    out_axes = data.draw(st.sets(axis, min_size=0 if srw else 1))
    in_axes = data.draw(st.sets(axis)) - out_axes
    out_bits = sum(1 << a for a in out_axes)
    in_bits = sum(1 << a for a in in_axes)
    dist = walkers._distribution(policy, n, v, out_bits, in_bits)
    draw_step = walkers._step_sampler(policy.kind, policy.lam, n)
    us = {0.0, 1.0 - 2.0**-53}
    acc = 0.0
    for _, p in dist:
        acc += p
        us.update((math.nextafter(acc, -math.inf), acc, math.nextafter(acc, math.inf)))
    for u in sorted(us):
        assert draw_step(v, out_bits, in_bits, u) == sample_categorical(dist, u), u


def exponential_race_step(dist, exponentials):
    """Pick argmin_i exponentials[i] / p_i -- the classic race construction.

    Distributionally identical to categorical sampling when the exponentials
    are i.i.d. rate-1 draws: an independent cross-check of the sampler the
    walkers actually use.
    """
    best = None
    best_val = math.inf
    for (w, p), e in zip(dist, exponentials):
        val = e / p
        if val < best_val:
            best_val = val
            best = w
    return best


def test_exponential_race_picks_smallest_scaled_clock():
    dist = [(0, 0.2), (1, 0.3), (2, 0.5)]
    assert exponential_race_step(dist, [1.0, 1.0, 1.0]) == 2
    assert exponential_race_step(dist, [0.01, 10.0, 10.0]) == 0


def test_race_and_inversion_sample_the_same_law():
    # Two different samplers, one target distribution: total variation
    # between their empirical frequencies stays small at 1e5 draws.
    dist = [(0, 0.2), (1, 0.3), (2, 0.5)]
    draws = 100_000
    counts_cat = np.zeros(3)
    counts_race = np.zeros(3)
    rng = np.random.default_rng(7)
    for i in range(draws):
        counts_cat[sample_categorical(dist, unit_interval(fold(123, i)))] += 1
        counts_race[exponential_race_step(dist, list(rng.exponential(size=3)))] += 1
    tv = 0.5 * np.abs(counts_cat / draws - counts_race / draws).sum()
    assert tv < 0.02
    for k, p in dist:
        assert abs(counts_cat[k] / draws - p) < 0.01


# ---------------------------------------------------------------------------
# assumption checking


def test_verify_assumption_srw(cyclic2_medium):
    chk = verify_assumption(Policy.srw(), cyclic2_medium, range(4))
    assert chk.min_out_edge_prob == pytest.approx(0.5)
    assert chk.satisfied  # 1/2 >= 1 * 2**-1


def test_verify_assumption_lambda(escape_cube_medium):
    chk = verify_assumption(Policy.lambda_walk(0.5), escape_cube_medium, [0])
    assert chk.min_out_edge_prob == pytest.approx(1 / 3)
    assert chk.satisfied  # 1/3 >= 1 * 3**-1
    strict = verify_assumption(
        Policy.lambda_walk(0.5), escape_cube_medium, [0], kappa1=1.01
    )
    assert not strict.satisfied


def test_verify_assumption_rejects_pne(escape_cube_medium):
    with pytest.raises(PneInSample):
        verify_assumption(Policy.brd(), escape_cube_medium, [0, 7])


# ---------------------------------------------------------------------------
# single walks


def test_walk_from_pne_is_trivial(gamma2_medium):
    analysis = sink_components(gamma2_medium)
    rec = run_walk(gamma2_medium, Policy.brd(), WalkConfig(walk_seed=1, start=0), sinks=analysis)
    assert rec.tau == 0
    assert rec.xi is None
    assert rec.steps_taken == 0
    assert rec.terminal == TERMINAL_ABSORBED


def test_brd_walks_into_the_trap(cyclic2_medium):
    analysis = sink_components(cyclic2_medium)
    rec = run_walk(cyclic2_medium, Policy.brd(), WalkConfig(walk_seed=5), sinks=analysis)
    assert rec.xi == 0
    assert rec.tau is None
    assert rec.terminal == TERMINAL_IN_TRAP


def test_brd_never_leaves_the_bottom_face(escape_cube_medium):
    analysis = sink_components(escape_cube_medium)
    rec = run_walk(escape_cube_medium, Policy.brd(), WalkConfig(walk_seed=0, start=0), sinks=analysis)
    assert rec.terminal == TERMINAL_IN_TRAP
    assert rec.xi == 0
    assert rec.tau is None
    assert rec.steps_taken == 0


def test_lambda_walk_escapes_the_trap(escape_cube_medium):
    analysis = sink_components(escape_cube_medium)
    cfg = WalkConfig(walk_seed=0, start=0, record_path=True)
    rec = run_walk(escape_cube_medium, Policy.lambda_walk(0.5), cfg, sinks=analysis)
    assert rec.terminal == TERMINAL_ABSORBED
    assert rec.xi == 0          # starts inside the trap
    assert rec.tau is not None and rec.tau > 0
    assert rec.path[rec.tau] == 7
    assert rec.path[0] == 0


def test_recorded_path_replays_consistently():
    med = build_medium(8, 0.5, 2718)
    analysis = sink_components(med)
    cfg = WalkConfig(walk_seed=99, record_path=True)
    rec = run_walk(med, Policy.brd(), cfg, sinks=analysis)
    assert len(rec.path) == rec.steps_taken + 1
    for t in range(rec.steps_taken):
        here, there = rec.path[t], rec.path[t + 1]
        assert there in neighbor_partition(med, here).out
    if rec.tau is not None:
        assert is_pne(med, rec.path[rec.tau])
        assert all(not is_pne(med, v) for v in rec.path[: rec.tau])
    first_trapped = next(
        (i for i, v in enumerate(rec.path) if analysis.trap_mask[v]), None
    )
    assert rec.xi == first_trapped


def test_walks_are_deterministic():
    med = build_medium(7, 0.6, 31415)
    analysis = sink_components(med)
    cfg = WalkConfig(walk_seed=4, record_path=True)
    a = run_walk(med, Policy.srw(), cfg, sinks=analysis)
    b = run_walk(med, Policy.srw(), cfg, sinks=analysis)
    assert a == b


def test_step_cap_zero_rejected(gamma2_medium):
    with pytest.raises(StepCapZero):
        run_walk(
            gamma2_medium,
            Policy.brd(),
            WalkConfig(walk_seed=0, max_steps=0),
            sinks=sink_components(gamma2_medium),
        )


@pytest.mark.parametrize("lazy", [False, True], ids=["exact", "lazy"])
def test_start_outside_the_cube_is_rejected(lazy):
    med = build_medium(4, 0.5, 0)
    sa = None if lazy else sink_components(med)
    for start in (-1, 16, 1 << 40):
        cfg = WalkConfig(walk_seed=0, start=start)
        with pytest.raises(NonCanonicalEdge):
            run_walk(med, Policy.brd(), cfg, sinks=sa)
    cfg = WalkConfig(walk_seed=0, start=15)
    assert run_walk(med, Policy.brd(), cfg, sinks=sa).start == 15


@pytest.mark.parametrize("lazy", [False, True], ids=["exact", "lazy"])
def test_start_vertex_is_read_as_an_index(lazy):
    # a numpy integer start is recorded as an int, so the record serializes;
    # a non-integer start is rejected alike in both detection modes
    med = build_medium(6, 0.5, 1)
    sa = None if lazy else sink_components(med)
    want = run_walk(med, Policy.brd(), WalkConfig(walk_seed=0, start=5), sinks=sa)
    for start in (np.uint64(5), np.int8(5)):
        rec = run_walk(med, Policy.brd(), WalkConfig(walk_seed=0, start=start), sinks=sa)
        assert type(rec.start) is int and rec == want
        assert records_to_jsonl([rec]) == records_to_jsonl([want])
    for start in (1.0, np.float64(5.0), "5", None):
        with pytest.raises(NonCanonicalEdge, match="is not an integer"):
            run_walk(med, Policy.brd(), WalkConfig(walk_seed=0, start=start), sinks=sa)


@pytest.mark.parametrize("policy", ["brd", "lambda:0.5", "srw"])
def test_an_exact_walk_reads_one_row_per_step(policy):
    # the PNE test and the step law share one row read per visited vertex;
    # the srw law ignores the row, so an exact srw walk reads none
    policy = parse_policy(policy)
    for i in range(20):
        med = build_medium(8, 0.5, fold(77, i))
        analysis = sink_components(med)
        reads, row = [], med.row
        med.row = lambda v: reads.append(v) or row(v)
        rec = run_walk(med, policy, WalkConfig(walk_seed=i, max_steps=300), sinks=analysis)
        assert len(reads) == (0 if policy.kind == "srw" else rec.steps_taken + 1)


def test_lazy_detection_matches_exact():
    # without a sink analysis, run_walk detects traps lazily
    for i in range(40):
        med = build_medium(8, 0.8, fold(4242, i))
        cfg = WalkConfig(walk_seed=i)
        exact = run_walk(med, Policy.brd(), cfg, sinks=sink_components(med))
        lazy = run_walk(med, Policy.brd(), cfg)
        assert (exact.tau, exact.xi, exact.terminal) == (lazy.tau, lazy.xi, lazy.terminal)


@pytest.mark.parametrize("n", [3, 5, 8, 10])
@pytest.mark.parametrize("alpha", [0.0, 0.3, 0.9])
def test_walk_trial_agrees_across_storage_modes(n, alpha):
    # walk_trial picks exact detection on an exhaustive medium and lazy probes
    # on its lazy twin, which has the same edges.  A brd-like walk stops at
    # its trap only once a lazy probe has found it, so its exact path is a
    # prefix of the lazy one; other policies never stop at a trap.
    policies = tuple(map(parse_policy, ("brd", "lambda:1", "srw", "lambda:0.5")))
    for seed in (0, 2**64 - 1, 9090):
        exhaustive = MediumParams(n, alpha, seed)
        lazy = replace(exhaustive, mode=MODE_LAZY)
        cfg = WalkConfig(walk_seed=seed, max_steps=20000, record_path=True)
        for trial in range(15):
            pairs = zip(
                walk_trial(exhaustive, policies, cfg, trial),
                walk_trial(lazy, policies, cfg, trial),
            )
            for policy, (ex, lz) in zip(policies, pairs):
                assert ex.tau == lz.tau
                if policy.brd_like:
                    assert (ex.xi, ex.terminal) == (lz.xi, lz.terminal)
                    assert lz.path[: len(ex.path)] == ex.path
                else:
                    assert (ex.path, ex.terminal) == (lz.path, lz.terminal)


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=12),
    alpha=st.sampled_from([0.0, 0.0, 0.3, 0.9]),  # traps are common at alpha = 0
    policies=st.sampled_from([
        ("brd",), ("lambda:1",), ("brd", "lambda:1"), ("srw",), ("lambda:0.25",),
        ("lambda:0.5",), ("lambda:0.9",), ("srw", "lambda:0.5", "brd"),
    ]),
    max_steps=st.integers(min_value=1, max_value=2000),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    trial=st.integers(min_value=0, max_value=1000),
    trap_start=st.integers(min_value=-50, max_value=50),  # < 0: start at 0
    budget=st.sampled_from([None, None, None, None, 3, 5]),
    stop_at_trap=st.booleans(),
)
def test_deferred_probes_and_lazy_first_trials_give_the_eager_records(
    n, alpha, policies, max_steps, seed, trial, trap_start, budget, stop_at_trap
):
    # A lazy walk's probes share one memo; a brd-like walk without a sink
    # analysis probes third visits and its cap, not first revisits, and an
    # exhaustive brd-like trial walks its lazy twin first.  None of it may
    # change a field of any record, against the eager rule without a memo.
    # A starved closure budget (3 or 5) turns probes UNKNOWN, which only
    # the cap settles.
    params = MediumParams(n, alpha, seed)
    policies = tuple(map(parse_policy, policies))
    exhaustive = trial_medium(params, trial)
    lazy = trial_medium(replace(params, mode=MODE_LAZY), trial)
    analysis = sink_components(exhaustive)
    start = 0
    if trap_start >= 0 and analysis.traps:
        start = analysis.traps[trap_start % len(analysis.traps)][-1]
    cfg = WalkConfig(
        walk_seed=seed, max_steps=max_steps, start=start, record_path=True,
        stop_at_trap=stop_at_trap,
    )
    with pytest.MonkeyPatch.context() as patch:
        if budget is not None:
            patch.setattr(walkers, "classify_vertex", partial(sinks.classify_vertex, budget=budget))
        for policy in policies:
            want = eager_probe_walk(lazy, policy, cfg, trial, budget)
            assert run_walk(lazy, policy, cfg, trial=trial) == want
    trial_cfg = replace(cfg, walk_seed=fold(seed, TAG_WALK, trial))
    assert walk_trial(params, policies, cfg, trial) == [
        run_walk(exhaustive, policy, trial_cfg, sinks=analysis, trial=trial)
        for policy in policies
    ]


@pytest.mark.parametrize("budget", [None, 3])
def test_deferred_probes_on_trap_heavy_media(monkeypatch, budget):
    # n = 8 media at alpha = 0 often hold traps: every brd walk from 0 and
    # from a trap member, run without a sink analysis, gives the eager
    # record, whatever the cap
    if budget is not None:
        monkeypatch.setattr(walkers, "classify_vertex", partial(sinks.classify_vertex, budget=budget))
    terminals = set()
    for i in range(30):
        med = build_medium(8, 0.0, fold(2525, i))
        starts = [0] + [members[-1] for members in sink_components(med).traps]
        for start in starts:
            for max_steps in (1, 2, 9, 40, 300, 2000):
                cfg = WalkConfig(walk_seed=i, max_steps=max_steps, start=start, record_path=True)
                want = eager_probe_walk(med, Policy.brd(), cfg, budget=budget)
                assert run_walk(med, Policy.brd(), cfg) == want
                terminals.add(want.terminal)
    # a starved probe never closes over a trap, so every trapped walk caps
    found = TERMINAL_IN_TRAP if budget is None else TERMINAL_UNKNOWN
    assert terminals == {TERMINAL_ABSORBED, TERMINAL_STEP_CAP, found}


@pytest.mark.parametrize("budget", [None, 5])
def test_eager_probes_wait_for_the_cap_once_a_trap_is_found(monkeypatch, budget):
    # A walk that can leave a trap stops probing once it has xi; its later
    # first revisits are probed at the cap, in order until one overruns.
    # These are the first six n = 6, alpha = 0.3 media (seeds fold(2727, i))
    # with a 4-cycle trap, which a budget of 5 still closes over: such a
    # walk finds its trap, leaves it, and caps on an UNKNOWN revisit.
    if budget is not None:
        monkeypatch.setattr(walkers, "classify_vertex", partial(sinks.classify_vertex, budget=budget))
    seen = set()
    for i in (193, 289, 549, 572, 842, 1236):
        med = build_medium(6, 0.3, fold(2727, i))
        starts = [0] + [members[-1] for members in sink_components(med).traps]
        for start, policy, stop_at_trap, max_steps in itertools.product(
            starts, ("srw", "lambda:0.5", "lambda:0.9"), (False, True), (40, 2000)
        ):
            policy = parse_policy(policy)
            cfg = WalkConfig(
                walk_seed=i, max_steps=max_steps, start=start, record_path=True,
                stop_at_trap=stop_at_trap,
            )
            want = eager_probe_walk(med, policy, cfg, budget=budget)
            assert run_walk(med, policy, cfg) == want
            seen.add((want.xi is not None, want.terminal))
    assert {(True, TERMINAL_IN_TRAP), (True, TERMINAL_STEP_CAP)} <= seen
    assert budget is None or (True, TERMINAL_UNKNOWN) in seen


@pytest.mark.parametrize(
    "n, alpha, trials, analysed", [(12, 0.9, 200, 0), (12, 0.5, 200, 39), (8, 0.0, 100, 88)]
)
def test_exhaustive_brd_trials_analyse_only_what_a_lazy_walk_leaves_open(
    monkeypatch, n, alpha, trials, analysed
):
    # An exhaustive brd trial builds its table and sink analysis exactly
    # when its lazy twin's walk revisits a vertex or reaches its cap.  At
    # theorem's alpha = 0.9 no walk does; at alpha = 0 most fall back.
    calls = []
    original = walkers.sink_components
    monkeypatch.setattr(walkers, "sink_components", lambda m: calls.append(m) or original(m))
    params = MediumParams(n, alpha, 7)
    cfg = WalkConfig(walk_seed=7, stop_at_trap=True)
    for trial in range(trials):
        before = len(calls)
        walk_trial(params, (Policy.brd(),), cfg, trial)
        twin = trial_medium(replace(params, mode=MODE_LAZY), trial)
        lazy_cfg = replace(cfg, walk_seed=fold(7, TAG_WALK, trial), record_path=True)
        rec = run_walk(twin, Policy.brd(), lazy_cfg)
        left_open = rec.terminal != TERMINAL_ABSORBED or len(set(rec.path)) < len(rec.path)
        assert len(calls) - before == left_open
    assert len(calls) == analysed


def decision(record) -> str:
    """How figure1 and theorem read a record: which of tau and xi came first."""
    if record.tau is not None and (record.xi is None or record.tau < record.xi):
        return "success"
    return "excluded" if record.xi is None else "failure"


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=10),
    alpha=st.sampled_from([0.0, 0.3, 0.9]),
    policy=st.sampled_from(["brd", "srw", "lambda:0.5"]),
    mode=st.sampled_from([MODE_EXHAUSTIVE, MODE_LAZY]),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    trial=st.integers(min_value=0, max_value=1000),
)
def test_a_walk_stopped_at_its_trap_is_decided_like_the_full_walk(
    n, alpha, policy, mode, seed, trial
):
    # figure1 and theorem stop every walk at its first known trap visit.
    # The stopped walk is a prefix of the full one, and it is a success, a
    # failure or undecided exactly when the full walk is.
    params = MediumParams(n, alpha, seed, mode)
    policies = (parse_policy(policy),)
    cfg = WalkConfig(walk_seed=seed, max_steps=2000, record_path=True)
    (full,) = walk_trial(params, policies, cfg, trial)
    (stopped,) = walk_trial(params, policies, replace(cfg, stop_at_trap=True), trial)
    assert decision(stopped) == decision(full)
    assert full.path[: len(stopped.path)] == stopped.path
    assert (stopped.tau, stopped.xi) == (full.tau, full.xi) or (
        stopped.tau is None and stopped.xi == full.xi
        and stopped.terminal == TERMINAL_IN_TRAP
    )
    if full.xi is None or policies[0].brd_like:
        assert stopped == full


@pytest.mark.parametrize("mode", [MODE_EXHAUSTIVE, MODE_LAZY])
@pytest.mark.parametrize("policy", ["srw", "lambda:0.5"])
def test_trap_first_walks_stop_and_are_decided_alike(policy, mode):
    # theorem's alpha = 0 srw cell: about two walks in five visit a trap
    # before any PNE, so the stop cuts many of these walks short
    params = MediumParams(8, 0.0, 1, mode)
    policies = (parse_policy(policy),)
    cfg = WalkConfig(walk_seed=1, max_steps=4000)
    cut = 0
    for trial in range(30):
        (full,) = walk_trial(params, policies, cfg, trial)
        (stopped,) = walk_trial(params, policies, replace(cfg, stop_at_trap=True), trial)
        assert decision(stopped) == decision(full)
        cut += stopped.steps_taken < full.steps_taken
    assert cut >= 5


def test_lazy_walks_do_not_depend_on_the_row_memo():
    # a memo emptied every 32 rows must give the records a full memo gives
    emptied = 0
    for i in range(4):
        seed = fold(515, i)
        for policy in (Policy.brd(), Policy.srw(), Policy.lambda_walk(0.7)):
            cfg = WalkConfig(walk_seed=i, max_steps=2000, record_path=True)
            full = build_medium(11, 0.5, seed, mode=MODE_LAZY)
            small = build_medium(11, 0.5, seed, mode=MODE_LAZY)
            small._row_cap = 32
            assert run_walk(small, policy, cfg) == run_walk(full, policy, cfg)
            emptied += len(full._rows) > 32
    assert emptied  # the small memo really was emptied mid-walk


def test_lazy_walk_never_reprobes_a_found_trap(monkeypatch, tmp_path):
    # A walk's probes share one memo, which keeps each verdict, every member
    # of a trap found and every vertex seen to reach a PNE.  So no vertex is
    # probed twice in a walk, and no member of a trap found is probed at
    # all.  The digest was recorded while every first revisit was still
    # probed and every IN_TRAP verdict ran a second closure.
    walks = []  # per walk: ("probe", v) and ("trap", members) events
    closures = []
    run, classify, closure = walkers.run_walk, walkers.classify_vertex, sinks.forward_closure

    def traced_run(*args, **kwargs):
        walks.append([])
        return run(*args, **kwargs)

    def traced_classify(medium, v, *args, known, **kwargs):
        before = len(closures)
        verdict = classify(medium, v, *args, known=known, **kwargs)
        if len(closures) > before:
            walks[-1].append(("probe", v))
            if verdict == VertexClass.IN_TRAP:
                walks[-1].append(("trap", {u for u, c in known.items() if c == verdict}))
        return verdict

    monkeypatch.setattr(walkers, "run_walk", traced_run)
    monkeypatch.setattr(walkers, "classify_vertex", traced_classify)
    monkeypatch.setattr(sinks, "forward_closure", lambda *a, **k: closures.append(a) or closure(*a, **k))
    monkeypatch.delenv("NASHWALK_THREADS", raising=False)
    out = tmp_path / "walk.csv"
    argv = "walk --n 8 --alpha 0.0 --mode lazy --policy lambda:0.5 --trials 6 --seed 13"
    assert main(argv.split() + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "fdd1b60f60eef69fbcc9c5ee98a0ffb408ffa32ad4105871132d2e68f9d5f3f2"
    )
    assert len(walks) == 6
    for events in walks:
        probed, trapped = set(), set()
        for kind, x in events:
            if kind == "probe":
                assert x not in probed and x not in trapped
                probed.add(x)
            else:
                trapped |= x
    probes = sum(kind == "probe" for events in walks for kind, _ in events)
    traps = sum(kind == "trap" for events in walks for kind, _ in events)
    assert len(closures) == probes
    assert (probes, traps) == (153, 3)


def test_lazy_probes_stop_at_the_first_pne(monkeypatch, tmp_path):
    # nwbench's lazy-n8 workload.  A brd walk probes third visits only, and
    # each probe stops at its first PNE, or at a vertex an earlier probe of
    # the walk saw reach one, since the budget covers the cube.  The digest
    # and the 49,840 visited vertices were recorded while every first
    # revisit was probed and every probe explored its whole closure.
    visited = []
    original = sinks.forward_closure

    def counted(*args, **kwargs):
        result = original(*args, **kwargs)
        visited.append(len(result.visited))
        return result

    monkeypatch.setattr(sinks, "forward_closure", counted)
    monkeypatch.delenv("NASHWALK_THREADS", raising=False)
    out = tmp_path / "walk.csv"
    argv = "walk --n 8 --alpha 0.5 --mode lazy --max-steps 1000 --trials 700 --seed 300"
    assert main(argv.split() + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "1de3a7900d1625d2e56fa49bc5976919f13537e05526f196b576256336cb4272"
    )
    assert len(visited) == 41
    assert sum(visited) <= 49_840 // 5


@pytest.mark.parametrize("policy", [Policy.brd(), Policy.lambda_walk(0.5)])
def test_lazy_detection_from_a_start_inside_a_trap(policy, escape_cube_medium, cyclic2_medium):
    # Index 0 is never a revisit, so lazy detection finds the start's trap
    # only on a later revisit; xi must still come out as index 0.  Random
    # n=8 media at alpha 0 are the ones that often hold a trap.
    cases = [(m, sink_components(m), 0) for m in (cyclic2_medium, escape_cube_medium)]
    for i in range(60):
        med = build_medium(8, 0.0, fold(4242, i))
        analysis = sink_components(med)
        cases += [(med, analysis, members[-1]) for members in analysis.traps]
    assert len(cases) >= 10
    for med, analysis, start in cases:
        assert analysis.trap_mask[start]
        for walk_seed in range(4):
            cfg = WalkConfig(walk_seed=walk_seed, start=start, max_steps=400, record_path=True)
            exact = run_walk(med, policy, cfg, sinks=analysis)
            lazy = run_walk(med, policy, cfg)
            assert exact.xi == 0
            assert (lazy.tau, lazy.xi, lazy.terminal) == (exact.tau, 0, exact.terminal)
            if policy.brd_like:
                assert exact.terminal == TERMINAL_IN_TRAP and exact.steps_taken == 0
            else:  # detection does not steer a walk that keeps moving in a trap
                assert lazy.path == exact.path


def test_lazy_detection_with_starved_budget(monkeypatch, cyclic2_medium):
    # a probe whose closure budget is too small to settle anything
    monkeypatch.setattr(walkers, "classify_vertex", partial(sinks.classify_vertex, budget=3))
    cfg = WalkConfig(walk_seed=3, max_steps=20)
    rec = run_walk(cyclic2_medium, Policy.brd(), cfg)
    assert rec.terminal == TERMINAL_UNKNOWN
    assert rec.xi is None
    assert rec.steps_taken == 20


# ---------------------------------------------------------------------------
# batch runs


def test_run_trials_shape_and_determinism():
    params = MediumParams(n_players=6, alpha=0.5, seed=60)
    cfg = WalkConfig(walk_seed=1)
    records = run_trials(params, Policy.brd(), cfg, trials=20)
    assert [r.trial for r in records] == list(range(20))
    assert all(r.n == 6 and r.alpha == 0.5 for r in records)
    again = run_trials(params, Policy.brd(), cfg, trials=20)
    assert records == again


def test_run_trials_parallel_matches_serial():
    params = MediumParams(n_players=6, alpha=0.5, seed=61)
    cfg = WalkConfig(walk_seed=2)
    serial = run_trials(params, Policy.srw(), cfg, trials=12, n_workers=1)
    parallel = run_trials(params, Policy.srw(), cfg, trials=12, n_workers=3)
    assert serial == parallel


def test_run_trials_validation():
    params = MediumParams(n_players=5, alpha=0.5, seed=1)
    with pytest.raises(EmptyTrialCount):
        run_trials(params, Policy.brd(), WalkConfig(walk_seed=0), trials=0)
    # lazy params need no detection setting (the step cap only keeps it short)
    lazy_params = MediumParams(n_players=30, alpha=0.5, seed=1, mode=MODE_LAZY)
    cfg = WalkConfig(walk_seed=0, max_steps=100)
    (record,) = run_trials(lazy_params, Policy.brd(), cfg, trials=1)
    assert record.n == 30 and record.trial == 0


def test_lazy_mode_trials_run_without_full_analysis():
    lazy_params = MediumParams(n_players=10, alpha=0.5, seed=9, mode=MODE_LAZY)
    cfg = WalkConfig(walk_seed=5, max_steps=500)
    records = run_trials(lazy_params, Policy.brd(), cfg, trials=5)
    assert len(records) == 5
    assert all(r.terminal in (TERMINAL_ABSORBED, TERMINAL_IN_TRAP, TERMINAL_STEP_CAP, TERMINAL_UNKNOWN) for r in records)


# ---------------------------------------------------------------------------
# output formats


def test_records_to_csv_has_schema_echo():
    params = MediumParams(n_players=5, alpha=0.5, seed=77)
    records = run_trials(params, Policy.brd(), WalkConfig(walk_seed=7), trials=4)
    text = rows_to_csv(WALK_CSV_COLUMNS, records, {"n": 5, "alpha": 0.5},
                       WALK_SCHEMA_VERSION, walk_fields(WALK_CSV_COLUMNS))
    lines = text.strip().split("\n")
    assert lines[0].startswith("# {")
    echo = json.loads(lines[0][2:])
    assert echo["schema_version"] == 1
    assert echo["n"] == 5
    assert lines[1].split(",")[0] == "trial"
    assert len(lines) == 2 + len(records)


def test_records_to_jsonl():
    params = MediumParams(n_players=5, alpha=0.5, seed=78)
    records = run_trials(params, Policy.srw(), WalkConfig(walk_seed=8), trials=3)
    lines = records_to_jsonl(records).strip().split("\n")
    assert len(lines) == 3
    for line, rec in zip(lines, records):
        row = json.loads(line)
        assert row["schema_version"] == 1
        assert row["policy"] == "srw"
        assert row["terminal"] == rec.terminal
