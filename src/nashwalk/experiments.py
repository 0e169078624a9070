"""Experiment statistics: the paper's reports, aggregated over fresh media.

Walk experiments run each trial through :func:`nashwalk.walkers.walk_trial`
with one base seed for both the medium and the walk, so trial i's medium seed
is fold(base_seed, "medium", i) and its walk seed fold(base_seed, "walk", i),
and a report is a pure function of the command line.  Every experiment hands
:func:`nashwalk.parallel.map_ordered` a worker, one job and the trial count;
that sweep gives trial i the job ``(*job, i)`` and returns the results in
trial order, so trials may be distributed over processes without changing a
byte of output.  A walk trial returns its records in policy order, so
figure1 reads policy k's records as column k of the results.

This module also holds every output writer.  :func:`rows_to_csv` is the one
CSV writer, for report rows and walk records alike; a report's columns are
its row dataclass's fields, and both walk formats read a record through
:func:`walk_fields`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from .errors import NoConditionedTrials
from .medium import MediumParams, edge_count, trial_medium
from .parallel import map_ordered
from .percolation import coupling_trial
from .sinks import enumerate_pnes, expected_pne_count
from .walkers import WalkConfig, WalkRecord, parse_policy, walk_trial

SCHEMA_VERSION = 1

QUANTILES = (0.05, 0.25, 0.5, 0.75, 0.95)


def lower_quantile(sorted_vals: list, q: float):
    """1-based order statistic at ceil(q * m) — the lower empirical quantile."""
    m = len(sorted_vals)
    idx = max(1, math.ceil(q * m))
    return sorted_vals[idx - 1]


@dataclass(frozen=True)
class QuantileRow:
    policy: str
    n: int
    alpha: float
    trials_total: int
    trials_conditioned: int
    q05: int
    q25: int
    q50: int
    q75: int
    q95: int


@dataclass(frozen=True)
class TrendRow:
    n: int
    alpha: float
    policy: str
    trials: int  # decided trials (tau or xi observed)
    successes: int  # tau finite and before any trap visit
    p_hat: float
    standard_error: float
    excluded_step_cap: int


@dataclass(frozen=True)
class PneCountReport:
    n: int
    alpha: float
    samples: int
    mean: float
    variance: float
    expected_mean: float
    standardized_mean: float
    standardized_variance: float
    prob_zero: float


# -- workers (top level so they pickle) --------------------------------------


def _walk_trial(args):
    return walk_trial(*args)


def _pne_trial(args):
    return len(enumerate_pnes(trial_medium(*args)))


# -- experiments --------------------------------------------------------------


def _pne_first(record: WalkRecord) -> bool:
    """The walk reached a PNE before any trap visit."""
    return record.tau is not None and (record.xi is None or record.tau < record.xi)


def walk_length_quantiles(
    n: int,
    alphas: list[float],
    trials: int,
    policies: list[str],
    seed: int,
    max_steps: int | None = None,
    n_workers: int | None = None,
) -> list[QuantileRow]:
    """Empirical tau quantiles per (policy, alpha), conditioned on reaching a
    PNE without previously visiting any trap vertex.

    The same per-trial medium and step stream serve all policies of a cell,
    making the policy comparison paired.
    """
    rows: list[QuantileRow] = []
    parsed = tuple(parse_policy(label) for label in policies)
    config = WalkConfig(seed, max_steps, stop_at_trap=True)
    for alpha in alphas:
        job = (MediumParams(n, alpha, seed), parsed, config)
        results = map_ordered(_walk_trial, job, trials, n_workers)
        # a trial's records come in policy order: policy k's are column k
        for label, records in zip(policies, zip(*results)):
            taus = sorted(r.tau for r in records if _pne_first(r))
            if not taus:
                raise NoConditionedTrials(
                    f"no conditioned trials for policy={label} alpha={alpha}"
                )
            q = [lower_quantile(taus, p) for p in QUANTILES]
            rows.append(QuantileRow(label, n, alpha, trials, len(taus), *q))
    return rows


def absorption_trend(
    n_list: list[int],
    alpha: float,
    policy: str,
    trials: int,
    seed: int,
    max_steps: int | None = None,
    n_workers: int | None = None,
) -> list[TrendRow]:
    """P(reach a PNE before any trap visit) across dimensions.

    A trial is a success when tau is observed and xi is not, or tau < xi; a
    failure when xi is observed and tau is not, or xi < tau (a walk that
    visits a trap first fails even if it then steps to the cap).  A trial
    that observed neither is undecided: it is left out of both numerator
    and denominator and counted in `excluded_step_cap`.
    """
    rows: list[TrendRow] = []
    parsed = (parse_policy(policy),)
    config = WalkConfig(seed, max_steps, stop_at_trap=True)
    for n in n_list:
        job = (MediumParams(n, alpha, seed), parsed, config)
        results = map_ordered(_walk_trial, job, trials, n_workers)
        successes = 0
        excluded = 0
        for (r,) in results:
            if _pne_first(r):
                successes += 1
            elif r.xi is None:  # tau is None too: neither was observed
                excluded += 1
        counted = trials - excluded
        if counted == 0:
            raise NoConditionedTrials(f"all trials hit the step cap at n={n}")
        p_hat = successes / counted
        se = math.sqrt(p_hat * (1.0 - p_hat) / counted)
        rows.append(TrendRow(n, alpha, policy, counted, successes, p_hat, se, excluded))
    return rows


def pne_count_stats(
    n: int,
    alpha: float,
    samples: int,
    seed: int,
    n_workers: int | None = None,
) -> PneCountReport:
    """PNE-count distribution over fresh media, with CLT-normalized moments."""
    job = (MediumParams(n, alpha, seed),)
    counts = np.array(map_ordered(_pne_trial, job, samples, n_workers), dtype=np.float64)
    mu = expected_pne_count(n, alpha)
    sigma = float((1.0 + alpha) ** (n / 2.0))
    standardized = (counts - mu) / sigma
    return PneCountReport(
        n=n,
        alpha=alpha,
        samples=samples,
        mean=float(counts.mean()),
        variance=float(counts.var(ddof=1)) if samples > 1 else 0.0,
        expected_mean=mu,
        standardized_mean=float(standardized.mean()),
        standardized_variance=float(standardized.var(ddof=1)) if samples > 1 else 0.0,
        prob_zero=float(np.count_nonzero(counts == 0) / samples),
    )


def percolation_audit(
    n: int,
    alpha: float,
    trials: int,
    seed: int,
    n_workers: int | None = None,
) -> dict:
    """Coupling identity, marginal preservation, and fragment statistics over
    fresh media and fresh initial percolations."""
    params = MediumParams(n, alpha, seed)
    results = map_ordered(coupling_trial, (params,), trials, n_workers)
    beta = params.beta
    return {
        "n": n,
        "alpha": alpha,
        "beta": beta,
        "seed": seed,
        "trials": trials,
        "identity_ok": sum(r.identity_holds for r in results),
        "pooled_open_fraction": sum(r.open_edges for r in results)
        / (trials * edge_count(n)),
        "expected_open_fraction": beta,
        "fragment_mean": sum(r.fragment_size for r in results) / trials,
        "fragment_expected": (2.0 * (1.0 - beta)) ** n,
        "lemma_mismatch_frequency": sum(r.lemma_mismatch for r in results) / trials,
    }


# -- output -------------------------------------------------------------------

# Reports carry SCHEMA_VERSION; walk records carry their own version, which a
# report schema change leaves alone.
WALK_SCHEMA_VERSION = 1

WALK_CSV_COLUMNS = ("trial", "policy", "n", "alpha", "tau", "xi", "steps", "terminal")

WALK_JSON_FIELDS = WALK_CSV_COLUMNS + ("start",)


def walk_fields(names: tuple):
    """The one accessor of both walk formats: a getter of a WalkRecord's
    values under the written names `names`, in order.  The record's
    `steps_taken` is written as `steps`."""
    return attrgetter(*("steps_taken" if name == "steps" else name for name in names))


def rows_to_csv(
    columns: tuple, rows, echo: dict, schema_version: int = SCHEMA_VERSION, read=None
) -> str:
    """CSV with a single leading '#' comment carrying schema + config echo.

    A row's cells are `read(row)` (default: its attributes named `columns`),
    in column order; a None cell is written as an empty field.
    """
    read = read or attrgetter(*columns)
    head = {"schema_version": schema_version, **echo}
    lines = ["# " + json.dumps(head, sort_keys=True), ",".join(columns)]
    for row in rows:
        lines.append(",".join(["" if x is None else str(x) for x in read(row)]))
    return "\n".join(lines) + "\n"


def records_to_jsonl(records: list[WalkRecord]) -> str:
    """One JSON object per walk record, each carrying the walk schema version."""
    read = walk_fields(WALK_JSON_FIELDS)
    lines = [
        json.dumps(
            dict(zip(WALK_JSON_FIELDS, read(r)), schema_version=WALK_SCHEMA_VERSION),
            sort_keys=True,
        )
        for r in records
    ]
    return "\n".join(lines) + "\n"


def report_to_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"
