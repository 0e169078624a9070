"""Tests for the multi-trial statistics harness."""

from __future__ import annotations

import json
import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, strategies as st

import nashwalk.experiments as experiments
from nashwalk.errors import EmptyTrialCount, NoConditionedTrials, TimeBudgetExceeded
from nashwalk.cli import main
from nashwalk.experiments import (
    WALK_CSV_COLUMNS,
    WALK_SCHEMA_VERSION,
    QuantileRow,
    TrendRow,
    _walk_trial,
    absorption_trend,
    lower_quantile,
    percolation_audit,
    pne_count_stats,
    report_to_json,
    rows_to_csv,
    walk_fields,
    walk_length_quantiles,
)
from nashwalk.medium import MediumParams, build_medium
from nashwalk.parallel import time_budget
from nashwalk.rng import fold, TAG_MEDIUM, TAG_WALK
from nashwalk.sinks import expected_pne_count, sink_components
from nashwalk.walkers import (
    TERMINAL_ABSORBED,
    TERMINAL_IN_TRAP,
    TERMINAL_STEP_CAP,
    TERMINAL_UNKNOWN,
    WalkConfig,
    WalkRecord,
    parse_policy,
    run_trials,
    run_walk,
)


# ---------------------------------------------------------------------------
# quantile convention


def test_lower_quantile_pinned():
    vals = [10, 20, 30, 40]
    assert lower_quantile(vals, 0.05) == 10
    assert lower_quantile(vals, 0.5) == 20
    assert lower_quantile(vals, 0.75) == 30
    assert lower_quantile(vals, 0.95) == 40
    assert lower_quantile([7], 0.5) == 7


@given(
    st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=60),
    st.sampled_from([0.05, 0.25, 0.5, 0.75, 0.95]),
)
def test_lower_quantile_is_the_lower_order_statistic(vals, q):
    vals = sorted(vals)
    got = lower_quantile(vals, q)
    k = max(1, math.ceil(q * len(vals)))
    # smallest value whose rank reaches k
    assert got == vals[k - 1]
    assert sum(1 for v in vals if v <= got) >= k


# ---------------------------------------------------------------------------
# walk-length quantiles


def test_walk_length_quantiles_shape_and_order():
    rows = walk_length_quantiles(5, [0.3, 0.6], 40, ["brd", "srw"], seed=2)
    assert len(rows) == 4
    for row in rows:
        assert row.trials_total == 40
        assert 0 < row.trials_conditioned <= 40
        assert row.q05 <= row.q25 <= row.q50 <= row.q75 <= row.q95


def test_walk_length_quantiles_deterministic():
    a = walk_length_quantiles(5, [0.5], 30, ["brd"], seed=3)
    b = walk_length_quantiles(5, [0.5], 30, ["brd"], seed=3)
    assert a == b


def test_walk_length_quantiles_policies_are_paired():
    # Both policies see the same per-trial media and walk seeds; the BRD
    # column cannot silently drift onto a different sample of games.
    rows = walk_length_quantiles(5, [0.5], 25, ["brd", "srw"], seed=4)
    assert {r.policy for r in rows} == {"brd", "srw"}
    assert len({r.trials_total for r in rows}) == 1


@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
def test_experiment_trials_match_run_trials(seed):
    # figure1/theorem trials and `walk` trials derive trial i the same way:
    # medium fold(seed, "medium", i), walk seed fold(seed, "walk", i).
    n, alpha, trials, max_steps = 6, 0.5, 12, 500
    labels = ("brd", "srw", "lambda:0.7")
    policies = tuple(parse_policy(label) for label in labels)
    params = MediumParams(n, alpha, seed)
    config = WalkConfig(seed, max_steps)
    paired = [_walk_trial((params, policies, config, i)) for i in range(trials)]
    for k, policy in enumerate(policies):
        single = run_trials(params, policy, config, trials)
        for i, record in enumerate(single):
            medium = build_medium(n, alpha, fold(seed, TAG_MEDIUM, i))
            cfg = WalkConfig(fold(seed, TAG_WALK, i), max_steps)
            oracle = run_walk(medium, policy, cfg, sinks=sink_components(medium))
            want = (oracle.tau, oracle.xi, oracle.terminal)
            assert (record.tau, record.xi, record.terminal) == want
            got = paired[i][k]
            assert (got.trial, got.policy, got.tau, got.xi, got.terminal) == (
                i, labels[k], *want
            )


def test_walk_length_quantiles_no_conditioned_trials():
    # Seed chosen so the single trial's 2-player game is one directed cycle:
    # best-response play never finds an equilibrium there.
    with pytest.raises(NoConditionedTrials):
        walk_length_quantiles(2, [0.0], 1, ["brd"], seed=35)


def test_a_repeated_policy_gets_its_own_column():
    # Each policy's records are its column of the trial results, so a policy
    # listed twice reports the single-policy row twice, never a merged count.
    single = walk_length_quantiles(6, [0.5], 5, ["brd"], seed=0)
    twice = walk_length_quantiles(6, [0.5], 5, ["brd", "brd"], seed=0)
    assert twice == single * 2
    assert all(r.trials_conditioned <= r.trials_total for r in twice)


def test_walk_length_quantiles_needs_trials():
    with pytest.raises(EmptyTrialCount):
        walk_length_quantiles(5, [0.5], 0, ["brd"], seed=1)


# ---------------------------------------------------------------------------
# absorption trend


def test_absorption_trend_rows():
    # TrendRow.trials counts the decided trials alone, so the undecided ones
    # make up the rest of the 200 requested.  Without a cap brd decides
    # every trial here; a two-step cap leaves 49 and 107 undecided.
    for max_steps, excluded in ((None, [0, 0]), (2, [49, 107])):
        rows = absorption_trend([4, 6], 0.5, "brd", 200, seed=6, max_steps=max_steps)
        assert [r.n for r in rows] == [4, 6]
        assert [r.excluded_step_cap for r in rows] == excluded
        for row in rows:
            assert row.trials + row.excluded_step_cap == 200
            assert 0 <= row.successes <= row.trials
            assert row.p_hat == row.successes / row.trials
            want_se = math.sqrt(row.p_hat * (1 - row.p_hat) / row.trials)
            assert row.standard_error == pytest.approx(want_se)


def test_absorption_trend_deterministic():
    a = absorption_trend([5], 0.7, "srw", 50, seed=7)
    b = absorption_trend([5], 0.7, "srw", 50, seed=7)
    assert a == b


def test_absorption_trend_counts_a_trap_first_walk_as_a_failure():
    # srw keeps stepping after it enters a trap, so a walk that visits a trap
    # before any PNE reaches the step cap with xi set and tau None: a
    # failure, not an undecided trial.  At alpha 0, n 6, 22 of these 60
    # walks start in a trap; once they count, srw's row equals brd's.
    job = (MediumParams(6, 0.0, 1), (parse_policy("srw"),), WalkConfig(1, 2000))
    records = [_walk_trial((*job, i))[0] for i in range(60)]
    trap_first = [r for r in records if r.tau is None and r.xi is not None]
    assert len(trap_first) == 22
    assert {r.terminal for r in trap_first} == {TERMINAL_STEP_CAP}
    (srw,) = absorption_trend([6], 0.0, "srw", 60, seed=1, max_steps=2000)
    assert (srw.trials, srw.successes, srw.excluded_step_cap) == (60, 38, 0)
    (brd,) = absorption_trend([6], 0.0, "brd", 60, seed=1, max_steps=2000)
    assert (brd.trials, brd.successes, brd.p_hat) == (srw.trials, srw.successes, srw.p_hat)


def test_absorption_trend_decides_each_trial_by_the_first_of_tau_and_xi(monkeypatch):
    # success: tau observed, and xi not or later; failure: xi observed, and
    # tau not or later; neither observed: undecided, hence excluded
    outcomes = [
        (5, None, TERMINAL_ABSORBED),
        (9, 4, TERMINAL_ABSORBED),
        (4, 9, TERMINAL_ABSORBED),
        (None, 3, TERMINAL_STEP_CAP),
        (None, 3, TERMINAL_IN_TRAP),
        (None, None, TERMINAL_STEP_CAP),
        (None, None, TERMINAL_UNKNOWN),
    ]

    def fake_trial(args):
        *_, trial = args
        tau, xi, terminal = outcomes[trial]
        return [WalkRecord(trial, "srw", 6, 0.5, 0, tau, xi, 0, terminal)]

    monkeypatch.setattr(experiments, "_walk_trial", fake_trial)
    (row,) = absorption_trend([6], 0.5, "srw", len(outcomes), seed=0, n_workers=1)
    assert (row.trials, row.successes, row.excluded_step_cap) == (5, 2, 2)
    assert row.p_hat == pytest.approx(2 / 5)


def test_absorption_trend_all_trials_censored():
    # One trial, one allowed step: the walk is cut off before reaching
    # anything, leaving no usable outcomes.
    with pytest.raises(NoConditionedTrials):
        absorption_trend([6], 0.3, "brd", 1, seed=0, max_steps=1)


# ---------------------------------------------------------------------------
# equilibrium-count statistics


def test_pne_count_stats_matches_direct_recount():
    rep = pne_count_stats(6, 0.5, 50, seed=314)
    direct = [
        sink_components(build_medium(6, 0.5, fold(314, TAG_MEDIUM, i))).pne_count
        for i in range(50)
    ]
    assert rep.samples == 50
    assert rep.mean == pytest.approx(np.mean(direct))
    assert rep.variance == pytest.approx(np.var(direct, ddof=1))
    assert rep.prob_zero == pytest.approx(np.mean([c == 0 for c in direct]))
    assert rep.expected_mean == pytest.approx(expected_pne_count(6, 0.5))


def test_pne_count_stats_standardization():
    rep = pne_count_stats(7, 0.4, 200, seed=9)
    mu = expected_pne_count(7, 0.4)
    sigma = (1 + 0.4) ** (7 / 2)
    assert rep.standardized_mean == pytest.approx((rep.mean - mu) / sigma)
    assert rep.standardized_variance == pytest.approx(rep.variance / sigma**2)


def test_pne_count_stats_deadline():
    with time_budget(-1), pytest.raises(TimeBudgetExceeded):
        pne_count_stats(6, 0.5, 10, seed=1)


# ---------------------------------------------------------------------------
# percolation audit


def test_percolation_audit_report():
    rep = percolation_audit(6, 0.5, 60, seed=10)
    assert rep["identity_ok"] == 60
    assert rep["expected_open_fraction"] == pytest.approx(0.25)
    assert abs(rep["pooled_open_fraction"] - 0.25) < 0.03
    assert rep["fragment_expected"] == pytest.approx(1.5**6)
    assert 0.0 <= rep["lemma_mismatch_frequency"] <= 1.0
    assert rep == percolation_audit(6, 0.5, 60, seed=10)


# ---------------------------------------------------------------------------
# output formats


def test_rows_to_csv_shape():
    rows = walk_length_quantiles(5, [0.5], 10, ["brd"], seed=11)
    columns = tuple(f.name for f in fields(QuantileRow))
    text = rows_to_csv(columns, rows, echo={"trials": 10})
    lines = text.strip().split("\n")
    assert lines[0].startswith("# {")
    echo = json.loads(lines[0][2:])
    assert echo["schema_version"] == 1 and echo["trials"] == 10
    assert lines[1] == ",".join(columns)
    assert len(lines) == 2 + len(rows)


@pytest.mark.parametrize(
    "argv, row_type",
    [
        (["figure1", "--n", "5", "--alpha", "0.5", "--trials", "4"], QuantileRow),
        (["theorem", "--n", "4", "--n", "5", "--alpha", "0.5", "--trials", "4"], TrendRow),
    ],
    ids=["figure1", "theorem"],
)
def test_report_csv_header_is_the_row_dataclass_fields(argv, row_type, tmp_path, capsys):
    out = tmp_path / "report.csv"
    assert main(argv + ["--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[1].split(",") == [f.name for f in fields(row_type)]
    assert main(argv + ["--format", "json"]) == 0
    for row in json.loads(capsys.readouterr().out)["rows"]:
        assert list(row) == sorted(f.name for f in fields(row_type))


def test_walk_csv_writes_none_cells_as_empty_fields():
    record = WalkRecord(trial=3, policy="srw", n=5, alpha=0.5, start=0, tau=None,
                        xi=None, steps_taken=40, terminal="step_cap")
    text = rows_to_csv(WALK_CSV_COLUMNS, [record], {}, WALK_SCHEMA_VERSION,
                       walk_fields(WALK_CSV_COLUMNS))
    assert text.splitlines()[1:] == [
        "trial,policy,n,alpha,tau,xi,steps,terminal",
        "3,srw,5,0.5,,,40,step_cap",
    ]


def test_report_to_json_is_sorted_and_terminated():
    text = report_to_json({"b": 1, "a": {"d": 2, "c": 3}})
    assert text.endswith("\n")
    parsed = json.loads(text)
    assert parsed == {"b": 1, "a": {"d": 2, "c": 3}}
    assert text.index('"a"') < text.index('"b"')
