"""Tests for walk policies, trajectory simulation, and batch runners."""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import replace

import numpy as np
import pytest

import nashwalk.sinks as sinks
import nashwalk.walkers as walkers
from nashwalk.cli import main
from nashwalk.errors import (
    EmptyTrialCount,
    MissingSinkAnalysis,
    NonCanonicalEdge,
    PneInSample,
    StepCapZero,
)
from nashwalk.medium import MODE_LAZY, MediumParams, build_medium
from nashwalk.rng import fold, unit_interval
from nashwalk.sinks import is_pne, sink_components
from nashwalk.walkers import (
    DETECT_EXACT,
    DETECT_LAZY,
    DETECT_OFF,
    TERMINAL_ABSORBED,
    TERMINAL_IN_TRAP,
    TERMINAL_STEP_CAP,
    TERMINAL_UNKNOWN,
    Policy,
    WalkConfig,
    parse_policy,
    records_to_csv,
    records_to_jsonl,
    run_trials,
    run_walk,
    sample_categorical,
    step_distribution,
    verify_assumption,
)


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
        assert there in med.neighbor_partition(here).out
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


def test_exact_detection_requires_analysis(cyclic2_medium):
    with pytest.raises(MissingSinkAnalysis):
        run_walk(cyclic2_medium, Policy.brd(), WalkConfig(walk_seed=0))


def test_detection_off_runs_to_the_cap(cyclic2_medium):
    cfg = WalkConfig(walk_seed=8, max_steps=50, trap_detection=DETECT_OFF)
    rec = run_walk(cyclic2_medium, Policy.brd(), cfg)
    assert rec.terminal == TERMINAL_STEP_CAP
    assert rec.xi is None and rec.tau is None
    assert rec.steps_taken == 50


@pytest.mark.parametrize("detection", [DETECT_EXACT, DETECT_LAZY, DETECT_OFF])
def test_start_outside_the_cube_is_rejected(detection):
    med = build_medium(4, 0.5, 0)
    sa = sink_components(med)
    for start in (-1, 16, 1 << 40):
        cfg = WalkConfig(walk_seed=0, trap_detection=detection, start=start)
        with pytest.raises(NonCanonicalEdge):
            run_walk(med, Policy.brd(), cfg, sinks=sa)
    cfg = WalkConfig(walk_seed=0, trap_detection=detection, start=15)
    assert run_walk(med, Policy.brd(), cfg, sinks=sa).start == 15


def test_lazy_detection_matches_exact():
    for i in range(40):
        med = build_medium(8, 0.8, fold(4242, i))
        analysis = sink_components(med)
        exact = run_walk(
            med, Policy.brd(), WalkConfig(walk_seed=i, trap_detection=DETECT_EXACT), sinks=analysis
        )
        lazy = run_walk(med, Policy.brd(), WalkConfig(walk_seed=i, trap_detection=DETECT_LAZY))
        assert (exact.tau, exact.xi, exact.terminal) == (lazy.tau, lazy.xi, lazy.terminal)


def test_lazy_walks_do_not_depend_on_the_row_memo():
    # a memo emptied every 32 rows must give the records a full memo gives
    emptied = 0
    for i in range(4):
        seed = fold(515, i)
        for policy in (Policy.brd(), Policy.srw(), Policy.lambda_walk(0.7)):
            cfg = WalkConfig(
                walk_seed=i, max_steps=2000, trap_detection=DETECT_LAZY, record_path=True
            )
            full = build_medium(11, 0.5, seed, mode=MODE_LAZY)
            small = build_medium(11, 0.5, seed, mode=MODE_LAZY)
            small._row_cap = 32
            assert run_walk(small, policy, cfg) == run_walk(full, policy, cfg)
            emptied += len(full._rows) > 32
    assert emptied  # the small memo really was emptied mid-walk


def test_lazy_walk_never_reprobes_a_found_trap(monkeypatch, tmp_path):
    # Once an IN_TRAP probe has closed over a trap, probing any member would
    # find the same closure, so no member is probed again in that walk.  The
    # digest was recorded while every first revisit was still probed.
    walks = []  # per walk: ("probe", v) and ("trap", members) events
    for name in ("run_walk", "classify_vertex", "forward_closure"):
        original = getattr(walkers, name)

        def traced(medium, v, *args, _name=name, _original=original, **kwargs):
            if _name == "run_walk":
                walks.append([])
            result = _original(medium, v, *args, **kwargs)
            if _name == "classify_vertex":
                walks[-1].append(("probe", v))
            elif _name == "forward_closure":
                walks[-1].append(("trap", result.visited))
            return result

        monkeypatch.setattr(walkers, name, traced)
    monkeypatch.delenv("NASHWALK_THREADS", raising=False)
    out = tmp_path / "walk.csv"
    argv = "walk --n 8 --alpha 0.0 --mode lazy --policy lambda:0.5 --trials 6 --seed 13"
    assert main(argv.split() + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "fdd1b60f60eef69fbcc9c5ee98a0ffb408ffa32ad4105871132d2e68f9d5f3f2"
    )
    assert len(walks) == 6
    for events in walks:
        known = set()
        for kind, x in events:
            if kind == "probe":
                assert x not in known
            else:
                known |= x
    probes = sum(kind == "probe" for events in walks for kind, _ in events)
    traps = sum(kind == "trap" for events in walks for kind, _ in events)
    assert (probes, traps) == (310, 3)  # every first revisit probed: 1071, 764


def test_lazy_probes_stop_at_the_first_pne(monkeypatch, tmp_path):
    # nwbench's lazy-n8 workload: 246 of its 250 closures are TRANSIENT
    # probes, which stop at their first PNE since the budget covers the cube.
    # The digest and the 49,840 visited vertices were recorded while every
    # probe still explored its whole closure.
    visited = []
    original = sinks.forward_closure

    def counted(*args, **kwargs):
        result = original(*args, **kwargs)
        visited.append(len(result.visited))
        return result

    monkeypatch.setattr(sinks, "forward_closure", counted)
    monkeypatch.setattr(walkers, "forward_closure", counted)
    monkeypatch.delenv("NASHWALK_THREADS", raising=False)
    out = tmp_path / "walk.csv"
    argv = "walk --n 8 --alpha 0.5 --mode lazy --max-steps 1000 --trials 700 --seed 300"
    assert main(argv.split() + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "1de3a7900d1625d2e56fa49bc5976919f13537e05526f196b576256336cb4272"
    )
    assert len(visited) == 250
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
            lazy = run_walk(med, policy, replace(cfg, trap_detection=DETECT_LAZY))
            assert exact.xi == 0
            assert (lazy.tau, lazy.xi, lazy.terminal) == (exact.tau, 0, exact.terminal)
            if policy.brd_like:
                assert exact.terminal == TERMINAL_IN_TRAP and exact.steps_taken == 0
            else:  # detection does not steer a walk that keeps moving in a trap
                assert lazy.path == exact.path


def test_lazy_detection_with_starved_budget(cyclic2_medium):
    cfg = WalkConfig(
        walk_seed=3, max_steps=20, trap_detection=DETECT_LAZY, lazy_budget=3
    )
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


def test_run_trials_fixed_medium_still_varies_walks():
    params = MediumParams(n_players=6, alpha=0.5, seed=62)
    cfg = WalkConfig(walk_seed=3)
    records = run_trials(params, Policy.srw(), cfg, trials=10, fresh_medium_per_trial=False)
    lengths = {r.steps_taken for r in records}
    assert len(lengths) > 1  # same medium, different step randomness


def test_run_trials_validation():
    params = MediumParams(n_players=5, alpha=0.5, seed=1)
    with pytest.raises(EmptyTrialCount):
        run_trials(params, Policy.brd(), WalkConfig(walk_seed=0), trials=0)
    lazy_params = MediumParams(n_players=30, alpha=0.5, seed=1, mode=MODE_LAZY)
    with pytest.raises(MissingSinkAnalysis):
        run_trials(lazy_params, Policy.brd(), WalkConfig(walk_seed=0), trials=1)


def test_lazy_mode_trials_run_without_full_analysis():
    lazy_params = MediumParams(n_players=10, alpha=0.5, seed=9, mode=MODE_LAZY)
    cfg = WalkConfig(walk_seed=5, trap_detection=DETECT_LAZY, max_steps=500)
    records = run_trials(lazy_params, Policy.brd(), cfg, trials=5)
    assert len(records) == 5
    assert all(r.terminal in (TERMINAL_ABSORBED, TERMINAL_IN_TRAP, TERMINAL_STEP_CAP, TERMINAL_UNKNOWN) for r in records)


# ---------------------------------------------------------------------------
# output formats


def test_records_to_csv_has_schema_echo():
    params = MediumParams(n_players=5, alpha=0.5, seed=77)
    records = run_trials(params, Policy.brd(), WalkConfig(walk_seed=7), trials=4)
    text = records_to_csv(records, config_echo={"n": 5, "alpha": 0.5})
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
