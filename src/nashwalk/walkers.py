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
traps off a :class:`SinkAnalysis` when it has one, and otherwise probes
revisits with a closure on the medium's rows, of the closures' default
budget, through one memo per walk that keeps what every probe learned
(:func:`classify_vertex`).  A walk that can leave a trap probes each first
revisit until it finds one.  A brd-like walk cannot, so a trap it enters
holds it: it probes only a vertex's third visit and its cap, and one
IN_TRAP verdict places the first revisit the eager rule would have stopped
at.  Both settle the cap by probing the first revisits in order until one
says UNKNOWN: its search visited the whole budget without meeting a PNE or
closing.  Either way a step reads the current vertex's row once, for its
PNE test and its step law, except in an exact srw walk, whose law ignores
the row and which tests PNEs on the analysis's mask.  A step's law depends
on the row only through v's out- and in-degree, so a walk draws its step by
bisecting the running sums :func:`sample_categorical` would form, cached per
(policy, n, out-degree, in-degree), and maps the index found to its neighbor;
:func:`step_distribution` and :func:`sample_categorical` stay as the oracle.
:func:`walk_trial` derives trial i (medium, walk seed, and the sink analysis
when the medium is exhaustive) and walks every policy on it.  An exhaustive
trial whose policies are all brd-like first walks the lazy twin without
probes, and builds the table and its analysis only when a walk revisits a
vertex or reaches its cap.  ``run_trials`` and every walk experiment sweep
:func:`walk_trial` with :func:`nashwalk.parallel.map_ordered`.

A sweep's trials share what does not depend on the trial, derived once per
process (each pool worker fills its own caches): the seed prefixes
fold(seed, "medium") and fold(seed, "walk") (:func:`~nashwalk.rng.trial_seed`),
the media's per-(n, alpha) constants and the step sampler per (policy, n),
keyed by the policy's fields.  A trial pays one mix pass per seed, its
medium and, per walk, the step key fold(walk_seed, "step"); it copies no
config, and its walks take its walk seed as an argument.  A step pays a row
read and one mix pass, turned into its uniform draw in line.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_right
from dataclasses import dataclass

from .errors import NonCanonicalEdge, PneInSample, StepCapZero
from .medium import (
    EXHAUSTIVE_CAP,
    MODE_EXHAUSTIVE,
    MODE_LAZY,
    Medium,
    MediumParams,
    Vertex,
    as_index,
    neighbors,
    trial_medium,
)
from .parallel import check_deadline, map_ordered
from .rng import TAG_STEP, TAG_WALK, fold, mix64, trial_seed
from .sinks import SinkAnalysis, VertexClass, classify_vertex, sink_components

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


def _running_sums(policy: Policy, n: int, k_out: int, k_in: int) -> tuple[float, ...]:
    """The running sums :func:`sample_categorical` forms over
    :func:`_distribution`'s probabilities at a vertex with `k_out` out-edges
    and `k_in` in-edges, added in the same order.  The probabilities depend
    on the row only through those two counts."""
    acc = 0.0
    sums = []
    for _, p in _distribution(policy, n, 0, (1 << k_out) - 1, ((1 << k_in) - 1) << k_out):
        acc += p
        sums.append(acc)
    return tuple(sums)


@functools.lru_cache(maxsize=256)
def _step_sampler(kind: str, lam: float | None, n: int):
    """The step draw of ``Policy(kind, lam)`` on the n-cube,
    ``draw(v, out_bits, in_bits, u)``, equal to
    ``sample_categorical(_distribution(policy, n, v, out_bits, in_bits), u)``.
    It is cached by the policy's fields: a frozen Policy would run its
    generated ``__hash__`` on every lookup.
    It bisects the law's running sums, cached per (out, in) degree pair, for
    the first one above u (capped at the last entry), and maps that entry's
    index to its neighbor in :func:`_distribution`'s order: axis order for
    srw, else the out-neighbors and then the in-neighbors, each in axis
    order."""
    laws: dict[tuple[int, int], tuple[float, ...]] = {}
    srw = kind == POLICY_SRW

    def draw(v: Vertex, out_bits: int, in_bits: int, u: float) -> Vertex:
        k_out = out_bits.bit_count()
        key = (k_out, in_bits.bit_count())
        sums = laws.get(key)
        if sums is None:
            sums = laws[key] = _running_sums(Policy(kind, lam), n, *key)
        j = bisect_right(sums, u)
        if j == len(sums):
            j -= 1
        if srw:
            return v ^ (1 << j)
        bits = out_bits
        if j >= k_out:
            bits, j = in_bits, j - k_out
        for _ in range(j):
            bits &= bits - 1  # drop the lowest neighbor
        return v ^ (bits & -bits)

    return draw


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
    walk_seed: int | None = None,
) -> WalkRecord:
    """Simulate one trajectory and record (tau, xi, steps, terminal).

    tau is the first index at a PNE, xi the first index at a trap vertex.
    Each step reads the current vertex's row once, for the PNE test and the
    step law; an exact srw walk, whose law ignores the row, reads none and
    tests PNEs on `sinks.pne_mask`.  Given `sinks`, traps are read off its
    trap_mask.  Without it, traps are found by closure probes of the default
    budget (:func:`classify_vertex`), and the walk stops at the first
    revisit whose probe says IN_TRAP.  The probes of one walk share a memo
    of verdicts, so no vertex is probed twice: it also holds every member
    of a trap found and, when the budget covers the cube, every vertex a
    probe saw reach a PNE.

    * A walk that is not brd-like probes each first revisit until one says
      IN_TRAP.  After that the probes could change only the terminal at the
      cap, so they wait for it.
    * A brd-like walk never leaves a trap, so it queues its first revisits
      unprobed.  A vertex's third visit, or the vertex at the cap, is probed
      alone: IN_TRAP cuts the walk back to the first queued revisit inside
      that trap, and any other verdict clears every queued vertex of being
      in a trap.

    At the cap, the first revisits are probed in order until one says
    UNKNOWN, which makes the terminal ``unknown``.  A probe says that only
    when its search visits the whole budget without popping a PNE, so a
    revisit that reaches a PNE early is TRANSIENT at any n.  A walk absorbed
    at a PNE drops what it has queued unprobed.

    Both rules give the same record.  Brd-like walks stop on confirmed trap
    entry, and so does every walk under ``config.stop_at_trap``; other walks
    keep moving and may leave the trap.  The time budget
    (:func:`nashwalk.parallel.time_budget`) is checked every 1024 steps.
    `walk_seed`, when given, stands in for ``config.walk_seed``, so
    :func:`walk_trial` passes each trial's seed without copying the config.
    """
    return _walk(medium, policy, config, sinks, trial, walk_seed)


def _walk(
    medium: Medium,
    policy: Policy,
    config: WalkConfig,
    sinks: SinkAnalysis | None,
    trial: int,
    walk_seed: int | None,
    first_pass: bool = False,
) -> WalkRecord | None:
    """:func:`run_walk`'s engine, stepping on `walk_seed` (None: the
    config's).  With `first_pass`, a brd-like walk without `sinks` probes
    nothing and gives up, returning None, at its first revisit or at its
    cap: only an absorbed walk is decided without a probe.
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
    deferred = sinks is None and policy.brd_like
    nth = 3 if deferred else 2  # a lazy walk probes a vertex on its nth visit

    path = [v]
    xi: int | None = None
    out_bits = in_bits = 0  # an exact srw walk keeps these: it reads no row
    visits: dict[int, int] = {}
    revisits: list[int] = []  # the indices of first revisits
    known: dict[int, VertexClass] = {}  # the probes' memo (classify_vertex)

    # step t + 1 draws u = unit_interval(fold(walk_seed, TAG_STEP, t)); the
    # first two of its three mix passes do not depend on t
    step_key = fold(config.walk_seed if walk_seed is None else walk_seed, TAG_STEP)
    draw = _step_sampler(policy.kind, policy.lam, n)
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
            if first_pass and (count == 2 or t == max_steps):
                return None
            if count == 2:
                revisits.append(t)
            # until the walk knows a trap; a brd-like walk also at its cap
            probe = xi is None and (count == nth or deferred and t == max_steps and revisits)
            trapped = False
            if probe and classify_vertex(medium, v, known=known) == VertexClass.IN_TRAP:
                # every IN_TRAP entry of `known` is this trap's, as the walk
                # had found no trap before.  A brd-like walk entered it and
                # never left, so its first revisit there is where a probe of
                # every first revisit stops, and the walk is cut back to it;
                # for other walks that revisit is t, and nothing is cut.
                members = {x for x, c in known.items() if c == VertexClass.IN_TRAP}
                cut = next((i for i in revisits if path[i] in members), None)
                if cut is not None:
                    del path[cut + 1 :]
                    t, trapped = cut, True
                    xi = next(i for i, x in enumerate(path) if x in members)
        if trapped:
            if xi is None:
                xi = t
            if stop_in_trap:
                terminal = TERMINAL_IN_TRAP
                break
        if t == max_steps:
            # in order, until one says UNKNOWN; through the memo, so an eager
            # walk probes here only the revisits it made after xi
            verdicts = (classify_vertex(medium, path[i], known=known) for i in revisits)
            blind = VertexClass.UNKNOWN in verdicts
            terminal = TERMINAL_UNKNOWN if blind else TERMINAL_STEP_CAP
            break
        v = draw(v, out_bits, in_bits, (mix64(step_key ^ t) >> 11) * 2.0**-53)
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

    A lazy medium gets lazy probes (:func:`run_walk` without `sinks`).  An
    exhaustive medium gets exact trap detection, but when every policy is
    brd-like the trial first walks the medium's lazy twin, which has the
    same edges, without probes: a walk absorbed before its first revisit
    never met a trap, so when every walk is, those records are final and no
    table is built.  Otherwise the trial runs exactly: the table, its sink
    analysis, and every walk again on it.
    """
    walk_seed = trial_seed(config.walk_seed, TAG_WALK, trial)
    exhaustive = params.mode == MODE_EXHAUSTIVE
    # past the exhaustive cap the lazy twin would build; the table raises
    lazy_first = exhaustive and params.n_players <= EXHAUSTIVE_CAP
    if lazy_first and all(policy.brd_like for policy in policies):
        twin = trial_medium(params, trial, MODE_LAZY)
        records = [
            _walk(twin, policy, config, None, trial, walk_seed, first_pass=True)
            for policy in policies
        ]
        if all(records):  # no walk gave up
            return records
    medium = trial_medium(params, trial)
    sinks = sink_components(medium) if exhaustive else None
    return [run_walk(medium, policy, config, sinks, trial, walk_seed) for policy in policies]


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
