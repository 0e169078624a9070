"""Experiment statistics: the paper's reports, aggregated over fresh media.

Walk experiments run each trial through :func:`nashwalk.walkers.walk_trial`
with one base seed for both the medium and the walk, so trial i's medium seed
is fold(base_seed, "medium", i) and its walk seed fold(base_seed, "walk", i),
and a report is a pure function of the command line.  Trials may be
distributed over processes without changing a byte of output.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyTrialCount, NoConditionedTrials
from .medium import MediumParams, build_medium, edge_count
from .parallel import map_ordered
from .percolation import run_coupling_trials
from .rng import TAG_MEDIUM, fold
from .walkers import WalkConfig, parse_policy, walk_trial

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
    trials: int  # counted trials (step-cap runs excluded)
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
    n, alpha, seed, trial = args
    medium = build_medium(n, alpha, fold(seed, TAG_MEDIUM, trial))
    out_deg, _, _ = medium.degrees()
    return int(np.count_nonzero(out_deg == 0))


# -- experiments --------------------------------------------------------------


def walk_length_quantiles(
    n: int,
    alphas: list[float],
    trials: int,
    policies: list[str],
    seed: int,
    max_steps: int | None = None,
    n_workers: int | None = None,
    deadline: float | None = None,
) -> list[QuantileRow]:
    """Empirical tau quantiles per (policy, alpha), conditioned on reaching a
    PNE without previously visiting any trap vertex.

    The same per-trial medium and step stream serve all policies of a cell,
    making the policy comparison paired.
    """
    if trials < 1:
        raise EmptyTrialCount(f"trials must be >= 1, got {trials}")
    rows: list[QuantileRow] = []
    parsed = tuple(parse_policy(label) for label in policies)
    config = WalkConfig(seed, max_steps)
    for alpha in alphas:
        jobs = [(MediumParams(n, alpha, seed), parsed, config, i) for i in range(trials)]
        results = map_ordered(_walk_trial, jobs, n_workers, deadline)
        for label in policies:
            taus = sorted(
                r.tau
                for records in results
                for lbl, r in zip(policies, records)
                if lbl == label and r.tau is not None and (r.xi is None or r.tau < r.xi)
            )
            if not taus:
                raise NoConditionedTrials(
                    f"no conditioned trials for policy={label} alpha={alpha}"
                )
            q = [lower_quantile(taus, p) for p in QUANTILES]
            rows.append(
                QuantileRow(
                    policy=label,
                    n=n,
                    alpha=alpha,
                    trials_total=trials,
                    trials_conditioned=len(taus),
                    q05=q[0],
                    q25=q[1],
                    q50=q[2],
                    q75=q[3],
                    q95=q[4],
                )
            )
    return rows


def absorption_trend(
    n_list: list[int],
    alpha: float,
    policy: str,
    trials: int,
    seed: int,
    max_steps: int | None = None,
    n_workers: int | None = None,
    deadline: float | None = None,
) -> list[TrendRow]:
    """P(reach a PNE before any trap visit) across dimensions.

    Step-cap and unresolved runs are excluded from both numerator and
    denominator and reported separately.
    """
    if trials < 1:
        raise EmptyTrialCount(f"trials must be >= 1, got {trials}")
    rows: list[TrendRow] = []
    parsed = (parse_policy(policy),)
    config = WalkConfig(seed, max_steps)
    for n in n_list:
        jobs = [(MediumParams(n, alpha, seed), parsed, config, i) for i in range(trials)]
        results = map_ordered(_walk_trial, jobs, n_workers, deadline)
        successes = 0
        excluded = 0
        for (r,) in results:
            if r.terminal in ("step_cap", "unknown"):
                excluded += 1
            elif r.tau is not None and (r.xi is None or r.tau < r.xi):
                successes += 1
        counted = trials - excluded
        if counted == 0:
            raise NoConditionedTrials(f"all trials hit the step cap at n={n}")
        p_hat = successes / counted
        se = math.sqrt(p_hat * (1.0 - p_hat) / counted)
        rows.append(
            TrendRow(
                n=n,
                alpha=alpha,
                policy=policy,
                trials=counted,
                successes=successes,
                p_hat=p_hat,
                standard_error=se,
                excluded_step_cap=excluded,
            )
        )
    return rows


def pne_count_stats(
    n: int,
    alpha: float,
    samples: int,
    seed: int,
    n_workers: int | None = None,
    deadline: float | None = None,
) -> PneCountReport:
    """PNE-count distribution over fresh media, with CLT-normalized moments."""
    if samples < 1:
        raise EmptyTrialCount(f"samples must be >= 1, got {samples}")
    jobs = [(n, alpha, seed, i) for i in range(samples)]
    counts = np.array(map_ordered(_pne_trial, jobs, n_workers, deadline), dtype=np.float64)
    mu = float((1.0 + alpha) ** n)
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
    deadline: float | None = None,
) -> dict:
    """Coupling identity, marginal preservation, and fragment statistics over
    fresh media and fresh initial percolations."""
    results = run_coupling_trials(n, alpha, trials, seed, n_workers, deadline)
    beta = (1.0 - alpha) / 2.0
    return {
        "schema_version": SCHEMA_VERSION,
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


def rows_to_csv(columns: tuple, rows: list, echo: dict) -> str:
    """CSV with a single leading '#' comment carrying schema + config echo."""
    head = {"schema_version": SCHEMA_VERSION}
    head.update(echo)
    lines = ["# " + json.dumps(head, sort_keys=True), ",".join(columns)]
    for row in rows:
        lines.append(",".join(str(getattr(row, c)) for c in columns))
    return "\n".join(lines) + "\n"


QUANTILE_COLUMNS = (
    "policy",
    "n",
    "alpha",
    "trials_total",
    "trials_conditioned",
    "q05",
    "q25",
    "q50",
    "q75",
    "q95",
)

TREND_COLUMNS = (
    "n",
    "alpha",
    "policy",
    "trials",
    "successes",
    "p_hat",
    "standard_error",
    "excluded_step_cap",
)


def report_to_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"
