"""Walk policies on oriented media and the walk engine every experiment runs.

Three policies move a token along the cube:

* ``brd`` — best-response dynamics: a uniformly random *outgoing* oriented
  edge each step.  Traps are absorbing for brd.
* ``srw`` — simple random walk: any of the n neighbors with probability 1/n,
  traversing tie and inward edges freely.
* ``lambda:<v>`` — biased walk: each out-edge gets weight v, each in-edge
  weight (1 - v), normalized; tie edges are never traversed.  lambda = 1 is
  behaviorally identical to brd.

Every policy is absorbed at PNEs.  Walks start at vertex 0 unless configured
otherwise and draw each step from a counter-based stream keyed by
(walk_seed, step), so trajectories replay exactly.  Records carry tau (first
PNE visit index) and xi (first trap-vertex visit index) when known.

:func:`walk_trial` derives trial i (medium, sink analysis, walk seed) and
walks every policy on it; ``run_trials`` and every walk experiment map it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import (
    EmptyTrialCount,
    MissingSinkAnalysis,
    NonCanonicalEdge,
    PneInSample,
    StepCapZero,
)
from .medium import MODE_EXHAUSTIVE, Medium, MediumParams, Vertex, build_medium, neighbors
from .parallel import map_ordered
from .rng import TAG_MEDIUM, TAG_STEP, TAG_WALK, fold, mix64, unit_interval
from .sinks import SinkAnalysis, VertexClass, classify_vertex, forward_closure, sink_components

POLICY_BRD = "brd"
POLICY_SRW = "srw"
POLICY_LAMBDA = "lambda"

DETECT_EXACT = "exact"
DETECT_LAZY = "lazy"
DETECT_OFF = "off"

TERMINAL_ABSORBED = "absorbed_pne"
TERMINAL_IN_TRAP = "inside_trap"
TERMINAL_STEP_CAP = "step_cap"
TERMINAL_UNKNOWN = "unknown"

WALK_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class Policy:
    kind: str
    lam: float | None = None

    def __post_init__(self):
        if self.kind not in (POLICY_BRD, POLICY_SRW, POLICY_LAMBDA):
            raise ValueError(f"unknown policy kind {self.kind!r}")
        if self.kind == POLICY_LAMBDA:
            if self.lam is None or not (0.0 < self.lam <= 1.0):
                raise ValueError("lambda policy needs lam in (0, 1]")

    @classmethod
    def brd(cls) -> "Policy":
        return cls(POLICY_BRD)

    @classmethod
    def srw(cls) -> "Policy":
        return cls(POLICY_SRW)

    @classmethod
    def lambda_walk(cls, lam: float) -> "Policy":
        return cls(POLICY_LAMBDA, lam)

    @property
    def brd_like(self) -> bool:
        """True when the policy can never leave a trap (pure out-edge moves)."""
        return self.kind == POLICY_BRD or (
            self.kind == POLICY_LAMBDA and self.lam == 1.0
        )

    def label(self) -> str:
        if self.kind == POLICY_LAMBDA:
            return f"lambda:{self.lam:g}"
        return self.kind


def parse_policy(text: str) -> Policy:
    t = text.strip().lower()
    if t == POLICY_BRD:
        return Policy.brd()
    if t == POLICY_SRW:
        return Policy.srw()
    if t.startswith("lambda:"):
        return Policy.lambda_walk(float(t.split(":", 1)[1]))
    raise ValueError(f"cannot parse policy {text!r}")


@dataclass(frozen=True)
class WalkConfig:
    walk_seed: int
    max_steps: int | None = None  # default 1000 * n^2, resolved at run time
    trap_detection: str = DETECT_EXACT
    lazy_budget: int | None = None
    start: Vertex = 0
    record_path: bool = False


@dataclass
class WalkRecord:
    trial: int
    policy: str
    n: int
    alpha: float
    start: Vertex
    tau: int | None
    xi: int | None
    steps_taken: int
    terminal: str
    path: list[int] | None = None


@dataclass(frozen=True)
class AssumptionCheck:
    kappa1: float
    kappa2: float
    min_out_edge_prob: float
    satisfied: bool


def step_distribution(
    policy: Policy, medium: Medium, v: Vertex
) -> list[tuple[Vertex, float]]:
    """Next-step law at v, as (vertex, probability) pairs in sampling order.

    PNEs are absorbing for every policy: the distribution is a point mass at v.
    Zero-probability moves are omitted.
    """
    out_bits, in_bits = medium.row(v)
    if not out_bits:
        return [(v, 1.0)]
    return _distribution(policy, medium.n_players, v, out_bits, in_bits)


def _distribution(policy, n, v, out_bits, in_bits):
    if policy.kind == POLICY_BRD:
        p = 1.0 / out_bits.bit_count()
        return [(w, p) for w in neighbors(v, out_bits)]
    if policy.kind == POLICY_SRW:
        p = 1.0 / n
        return [(v ^ (1 << axis), p) for axis in range(n)]
    lam = policy.lam
    z = lam * out_bits.bit_count() + (1.0 - lam) * in_bits.bit_count()
    dist = [(w, lam / z) for w in neighbors(v, out_bits)]
    if lam < 1.0:
        dist.extend((w, (1.0 - lam) / z) for w in neighbors(v, in_bits))
    return dist


def sample_categorical(dist: list[tuple[Vertex, float]], u: float) -> Vertex:
    acc = 0.0
    for w, p in dist:
        acc += p
        if u < acc:
            return w
    return dist[-1][0]


def verify_assumption(
    policy: Policy,
    medium: Medium,
    vertices,
    kappa1: float = 1.0,
    kappa2: float = 1.0,
) -> AssumptionCheck:
    """Check that every out-edge at the sampled vertices has step probability
    at least kappa1 * n^(-kappa2)."""
    n = medium.n_players
    floor_prob = kappa1 * n ** (-kappa2)
    min_p = math.inf
    for v in vertices:
        out_bits, in_bits = medium.row(v)
        if not out_bits:
            raise PneInSample(f"vertex {v} is a PNE; out-edge probabilities undefined")
        dist = dict(_distribution(policy, n, v, out_bits, in_bits))
        for w in neighbors(v, out_bits):
            min_p = min(min_p, dist.get(w, 0.0))
    return AssumptionCheck(
        kappa1=kappa1,
        kappa2=kappa2,
        min_out_edge_prob=min_p,
        satisfied=bool(min_p >= floor_prob),
    )


def run_walk(
    medium: Medium,
    policy: Policy,
    config: WalkConfig,
    sinks: SinkAnalysis | None = None,
    trial: int = 0,
) -> WalkRecord:
    """Simulate one trajectory and record (tau, xi, steps, terminal).

    tau is the first index at a PNE, xi the first index at a trap vertex (when
    detection allows knowing it).  Brd-like walks stop on confirmed trap entry;
    other policies keep moving and may leave the trap.
    """
    n = medium.n_players
    max_steps = 1000 * n * n if config.max_steps is None else config.max_steps
    if max_steps < 1:
        raise StepCapZero(f"max_steps must be >= 1, got {max_steps}")
    detection = config.trap_detection
    if detection == DETECT_EXACT and sinks is None:
        raise MissingSinkAnalysis("exact trap detection needs a SinkAnalysis")
    if detection not in (DETECT_EXACT, DETECT_LAZY, DETECT_OFF):
        raise ValueError(f"unknown trap_detection {detection!r}")

    pne_mask = sinks.pne_mask if sinks is not None else None
    trap_mask = sinks.trap_mask if detection == DETECT_EXACT else None
    lazy_budget = config.lazy_budget  # None: the closures' own default

    v = config.start
    if not 0 <= v < 1 << n:
        raise NonCanonicalEdge(f"start vertex {v} outside the {n}-cube")
    path = [v]
    tau: int | None = None
    xi: int | None = None
    brd_like = policy.brd_like
    # the srw step law does not depend on the row, so srw steps read none
    needs_row = policy.kind != POLICY_SRW

    first_seen: set[int] = set()
    classified: set[int] = set()
    lazy_trap_union: set[int] = set()
    budget_blind = False  # a lazy closure test overran its budget

    def at_pne(u: Vertex) -> bool:
        if pne_mask is not None:
            return bool(pne_mask[u])
        return not medium.row(u)[0]

    def in_trap(u: Vertex) -> bool:
        if trap_mask is not None:
            return bool(trap_mask[u])
        return u in lazy_trap_union

    def lazy_probe(u: Vertex) -> None:
        """On revisiting u, test whether u sits inside a closed PNE-free set."""
        nonlocal xi, budget_blind
        classified.add(u)
        verdict = classify_vertex(medium, u, lazy_budget)
        if verdict == VertexClass.UNKNOWN:
            budget_blind = True
        elif verdict == VertexClass.IN_TRAP:
            members = forward_closure(medium, u, lazy_budget).visited
            lazy_trap_union.update(members)
            # the trap is strongly connected and closed: probing any member
            # finds this same closure, so none of them is probed again
            classified.update(members)
            if xi is None:
                xi = next(i for i, x in enumerate(path) if x in members)

    # step t + 1 draws fold(walk_seed, TAG_STEP, t); the first two of its
    # three mix passes do not depend on t
    step_key = fold(config.walk_seed, TAG_STEP)
    for t in range(max_steps + 1):
        # v = path[t]; index 0 is the start, which is never a revisit
        if at_pne(v):
            tau = t
            terminal = TERMINAL_ABSORBED
            break
        if detection == DETECT_LAZY:
            if v not in first_seen:
                first_seen.add(v)
            elif v not in classified:
                lazy_probe(v)
        if in_trap(v):
            if xi is None:
                xi = t
            if brd_like:
                terminal = TERMINAL_IN_TRAP
                break
        if t == max_steps:
            terminal = TERMINAL_UNKNOWN if budget_blind else TERMINAL_STEP_CAP
            break
        out_bits, in_bits = medium.row(v) if needs_row else (0, 0)
        dist = _distribution(policy, n, v, out_bits, in_bits)
        v = sample_categorical(dist, unit_interval(mix64(step_key ^ t)))
        path.append(v)

    return WalkRecord(
        trial=trial,
        policy=policy.label(),
        n=n,
        alpha=medium.params.alpha,
        start=config.start,
        tau=tau,
        xi=xi,
        steps_taken=t,
        terminal=terminal,
        path=path if config.record_path else None,
    )


def walk_trial(
    params: MediumParams, policies: tuple[Policy, ...], config: WalkConfig, trial: int,
    fresh: bool = True,
) -> list[WalkRecord]:
    """One record per policy, all walked on trial `trial`'s medium (seeded
    fold(params.seed, "medium", trial), or params.seed when not `fresh`) with
    one step stream, fold(config.walk_seed, "walk", trial), so they are paired.
    The sink analysis runs only under exact detection."""
    medium_seed = fold(params.seed, TAG_MEDIUM, trial) if fresh else params.seed
    medium = build_medium(params.n_players, params.alpha, medium_seed, params.mode)
    sinks = sink_components(medium) if config.trap_detection == DETECT_EXACT else None
    cfg = replace(config, walk_seed=fold(config.walk_seed, TAG_WALK, trial))
    return [run_walk(medium, policy, cfg, sinks=sinks, trial=trial) for policy in policies]


def _trial_worker(args) -> WalkRecord:
    return walk_trial(*args)[0]


def run_trials(
    params: MediumParams,
    policy: Policy,
    config: WalkConfig,
    trials: int,
    fresh_medium_per_trial: bool = True,
    n_workers: int = 1,
    deadline: float | None = None,
) -> list[WalkRecord]:
    """Run independent trials; trial i derives its own medium and walk seeds.

    Results are ordered by trial index regardless of worker count, and every
    per-trial quantity is a pure function of (base seeds, i), so reruns are
    bit-identical.  `deadline` (a time.monotonic() value) is checked before
    every trial.
    """
    if trials < 1:
        raise EmptyTrialCount(f"trials must be >= 1, got {trials}")
    if params.mode != MODE_EXHAUSTIVE and config.trap_detection == DETECT_EXACT:
        raise MissingSinkAnalysis(
            "exact trap detection requires exhaustive media; use lazy or off"
        )
    jobs = [
        (params, (policy,), config, trial, fresh_medium_per_trial)
        for trial in range(trials)
    ]
    return map_ordered(_trial_worker, jobs, n_workers, deadline)


# -- serialization -----------------------------------------------------------

WALK_CSV_COLUMNS = ("trial", "policy", "n", "alpha", "tau", "xi", "steps", "terminal")


def _cell(x) -> str:
    return "" if x is None else str(x)


def records_to_csv(records: list[WalkRecord], config_echo: dict | None = None) -> str:
    """CSV with one leading '#' comment line carrying schema + config echo."""
    import json

    echo = {"schema_version": WALK_SCHEMA_VERSION}
    echo.update(config_echo or {})
    lines = ["# " + json.dumps(echo, sort_keys=True)]
    lines.append(",".join(WALK_CSV_COLUMNS))
    for r in records:
        lines.append(
            ",".join(
                (
                    str(r.trial),
                    r.policy,
                    str(r.n),
                    str(r.alpha),
                    _cell(r.tau),
                    _cell(r.xi),
                    str(r.steps_taken),
                    r.terminal,
                )
            )
        )
    return "\n".join(lines) + "\n"


def records_to_jsonl(records: list[WalkRecord]) -> str:
    import json

    lines = []
    for r in records:
        lines.append(
            json.dumps(
                {
                    "schema_version": WALK_SCHEMA_VERSION,
                    "trial": r.trial,
                    "policy": r.policy,
                    "n": r.n,
                    "alpha": r.alpha,
                    "start": r.start,
                    "tau": r.tau,
                    "xi": r.xi,
                    "steps": r.steps_taken,
                    "terminal": r.terminal,
                },
                sort_keys=True,
            )
        )
    return "\n".join(lines) + "\n"
