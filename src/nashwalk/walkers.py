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
PNE visit index) and xi (first trap-vertex visit index) when known; they are
written as CSV or JSON lines by :mod:`nashwalk.experiments`.

Trap detection follows from what a walk is given: :func:`run_walk` reads
traps off a :class:`SinkAnalysis` when it has one, and otherwise probes each
first revisit outside the traps found so far with a closure on the medium's
rows, of the closures' default budget.  Either way a step reads the current
vertex's row once, for its PNE test and its step law, except in an exact srw
walk, whose law ignores the row and which tests PNEs on the analysis's mask.
:func:`walk_trial` derives trial i (medium, walk seed, and the sink analysis
exactly when the medium is exhaustive) and walks every policy on it;
``run_trials`` and every walk experiment sweep it with
:func:`nashwalk.parallel.map_ordered`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import NonCanonicalEdge, PneInSample, StepCapZero
from .medium import (
    MODE_EXHAUSTIVE,
    Medium,
    MediumParams,
    Vertex,
    as_index,
    neighbors,
    trial_medium,
)
from .parallel import check_deadline, map_ordered
from .rng import TAG_STEP, TAG_WALK, fold, mix64, unit_interval
from .sinks import SinkAnalysis, VertexClass, classify_vertex, forward_closure, sink_components

POLICY_BRD = "brd"
POLICY_SRW = "srw"
POLICY_LAMBDA = "lambda"

TERMINAL_ABSORBED = "absorbed_pne"
TERMINAL_IN_TRAP = "inside_trap"
TERMINAL_STEP_CAP = "step_cap"
TERMINAL_UNKNOWN = "unknown"


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
    start: Vertex = 0
    record_path: bool = False
    # stop every walk at its first known trap visit, as brd-like walks stop;
    # for reports that read only which of tau and xi comes first
    stop_at_trap: bool = False


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

    tau is the first index at a PNE, xi the first index at a trap vertex.
    Each step reads the current vertex's row once, for the PNE test and the
    step law; an exact srw walk, whose law ignores the row, reads none and
    tests PNEs on `sinks.pne_mask`.  Given `sinks`, traps are read off its
    trap_mask.  Without it a vertex is probed on its second visit, with a
    closure of the default budget, unless it lies in a trap found already.
    Brd-like walks stop on confirmed trap entry, and so does every walk
    under ``config.stop_at_trap``; other walks keep moving and may leave
    the trap.  The time budget (:func:`nashwalk.parallel.time_budget`) is
    checked every 1024 steps.
    """
    n = medium.n_players
    max_steps = 1000 * n * n if config.max_steps is None else config.max_steps
    if max_steps < 1:
        raise StepCapZero(f"max_steps must be >= 1, got {max_steps}")
    v = as_index(config.start, NonCanonicalEdge, "start vertex")
    if not 0 <= v < 1 << n:
        raise NonCanonicalEdge(f"start vertex {v} outside the {n}-cube")
    trap_mask = None if sinks is None else sinks.trap_mask
    pne_mask = None if sinks is None or policy.kind != POLICY_SRW else sinks.pne_mask
    stop_in_trap = policy.brd_like or config.stop_at_trap

    path = [v]
    xi: int | None = None
    out_bits = in_bits = 0  # an exact srw walk keeps these: it reads no row
    visits: dict[int, int] = {}
    trap_members: set[int] = set()  # the members of every trap found
    budget_blind = False  # a lazy probe overran its budget

    # step t + 1 draws fold(walk_seed, TAG_STEP, t); the first two of its
    # three mix passes do not depend on t
    step_key = fold(config.walk_seed, TAG_STEP)
    for t in range(max_steps + 1):
        if not t & 1023:
            check_deadline()
        # v = path[t]; index 0 is the start, which is never a second visit
        if pne_mask is None:
            out_bits, in_bits = medium.row(v)
            at_pne = not out_bits
        else:
            at_pne = pne_mask[v]
        if at_pne:
            terminal = TERMINAL_ABSORBED
            break
        if trap_mask is not None:
            trapped = trap_mask[v]
        else:
            visits[v] = count = visits.get(v, 0) + 1
            if count == 2 and v not in trap_members:
                # a first revisit: does v sit inside a closed PNE-free set?
                verdict = classify_vertex(medium, v)
                if verdict == VertexClass.UNKNOWN:
                    budget_blind = True
                elif verdict == VertexClass.IN_TRAP:
                    members = forward_closure(medium, v).visited
                    # the trap is strongly connected and closed: probing any
                    # member finds this same closure, so none is probed again
                    trap_members.update(members)
                    if xi is None:
                        xi = next(i for i, x in enumerate(path) if x in members)
            trapped = v in trap_members
        if trapped:
            if xi is None:
                xi = t
            if stop_in_trap:
                terminal = TERMINAL_IN_TRAP
                break
        if t == max_steps:
            terminal = TERMINAL_UNKNOWN if budget_blind else TERMINAL_STEP_CAP
            break
        dist = _distribution(policy, n, v, out_bits, in_bits)
        v = sample_categorical(dist, unit_interval(mix64(step_key ^ t)))
        path.append(v)

    return WalkRecord(
        trial=trial,
        policy=policy.label(),
        n=n,
        alpha=medium.params.alpha,
        start=path[0],
        tau=t if terminal == TERMINAL_ABSORBED else None,
        xi=xi,
        steps_taken=t,
        terminal=terminal,
        path=path if config.record_path else None,
    )


def walk_trial(
    params: MediumParams, policies: tuple[Policy, ...], config: WalkConfig, trial: int
) -> list[WalkRecord]:
    """One record per policy, in policy order, all walked on trial `trial`'s
    medium (:func:`trial_medium`) with one step stream,
    fold(config.walk_seed, "walk", trial), so they are paired.
    An exhaustive medium gets its sink analysis and exact trap detection; a
    lazy one gets lazy probes."""
    medium = trial_medium(params, trial)
    sinks = sink_components(medium) if params.mode == MODE_EXHAUSTIVE else None
    cfg = replace(config, walk_seed=fold(config.walk_seed, TAG_WALK, trial))
    return [run_walk(medium, policy, cfg, sinks=sinks, trial=trial) for policy in policies]


def _trial_worker(args) -> WalkRecord:
    return walk_trial(*args)[0]


def run_trials(
    params: MediumParams,
    policy: Policy,
    config: WalkConfig,
    trials: int,
    n_workers: int | None = None,
) -> list[WalkRecord]:
    """Run independent trials; trial i derives its own medium and walk seeds.

    `n_workers` None means NASHWALK_THREADS, as in every other sweep.
    Results are ordered by trial index regardless of worker count, and every
    per-trial quantity is a pure function of (base seeds, i), so reruns are
    bit-identical.
    """
    job = (params, (policy,), config)
    return map_ordered(_trial_worker, job, trials, n_workers)
