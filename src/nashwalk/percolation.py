"""Bond percolation on the cube and its coupling to oriented media.

An oriented medium with tie mass alpha induces, through a growth recursion,
a bond percolation with open probability beta = (1 - alpha) / 2: starting from
the set {0}, each round adds every outside vertex with an oriented edge into
the current set, while the percolation status of each set-to-boundary edge is
overwritten by that edge's "points inward" indicator — a fresh beta coin.  The
recursion's fixpoint is, deterministically, both the open component of vertex
0 in the final percolation and the set of vertices with an oriented path to 0.
Every run re-checks that identity; the run itself is the oracle.  The
recursion runs in layered rounds: each round finds its boundary edges with a
few numpy operations on the frontier, reads each of them once through
``Medium.orientation_seen_from`` and writes the round's statuses straight into
the final percolation.  The open component of 0 is read off component labels
of the final percolation, found by hook-and-shortcut label propagation in
numpy (each label ends as its component's smallest vertex), and the same
labels give the trial's largest component.  That labelling shares no code
with the growth recursion or with the backward spread of
:func:`reverse_accessible_from_zero`, so the identity compares three
independent derivations, each a per-vertex bool mask: the identity and the
lemma mismatch compare masks, and :class:`CouplingAudit` lists a set only
when it is read.  :func:`connected_component`, a plain Python BFS over open
edges, and scipy's ``connected_components`` stay in the tests as
independent oracles for the labels.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

from .errors import (
    AxisOutOfRange,
    BetaOutOfRange,
    DimensionTooLarge,
    IncompleteTable,
    NonCanonicalEdge,
    SeedCollision,
)
from .medium import (
    DOWN,
    EXHAUSTIVE_CAP,
    FORMAT_VERSION,
    MODE_EXHAUSTIVE,
    Medium,
    MediumParams,
    Vertex,
    as_index,
    axis_view,
    dump_edges,
    edge_block,
    edge_count,
    edge_hashes,
    edge_index,
    load_edges,
    trial_medium,
)
from .parallel import map_ordered
from .rng import MASK64, TAG_PERC, fold, threshold
from .sinks import backward_reach, reaching

PERC_MAGIC = b"NWPERC\x00\x00"  # 8-byte field, name NUL-padded


@dataclass
class PercolationGraph:
    """Open/closed state for every cube edge, axis-major like Medium tables."""

    n: int
    open_edges: np.ndarray  # bool, length n * 2^(n-1)
    beta: float | None = None
    seed: int | None = None

    def __post_init__(self):
        arr = np.ascontiguousarray(self.open_edges, dtype=bool)
        if arr.shape != (edge_count(self.n),):
            raise IncompleteTable(
                f"open-edge array must have {edge_count(self.n)} entries"
            )
        self.open_edges = arr

    def __eq__(self, other):
        # the generated __eq__ would compare the arrays elementwise
        if not isinstance(other, PercolationGraph):
            return NotImplemented
        return (self.n, self.beta, self.seed) == (other.n, other.beta, other.seed) and (
            np.array_equal(self.open_edges, other.open_edges)
        )

    def _check_vertex(self, v: Vertex) -> None:
        if not 0 <= v < 1 << self.n:
            raise NonCanonicalEdge(f"vertex {v} outside the {self.n}-cube")

    def is_open(self, base: Vertex, axis: int) -> bool:
        """Whether the axis-`axis` edge at `base` is open; `base` may be
        either endpoint, and numpy integers read like ints."""
        axis = as_index(axis, AxisOutOfRange, "axis")
        if not 0 <= axis < self.n:
            raise AxisOutOfRange(f"axis {axis} outside [0, {self.n})")
        base = as_index(base, NonCanonicalEdge, "vertex")
        self._check_vertex(base)
        return bool(self.open_edges[edge_index(base, axis, self.n)])

    def open_neighbors(self, v: Vertex) -> list[Vertex]:
        """v's neighbors across open edges, as ints, in ascending axis order."""
        v = as_index(v, NonCanonicalEdge, "vertex")
        self._check_vertex(v)
        n = self.n
        return [
            v ^ (1 << axis) for axis in range(n) if self.open_edges[edge_index(v, axis, n)]
        ]

    # -- serialization ----------------------------------------------------

    def header(self) -> dict:
        return {
            "n": self.n,
            "beta": self.beta,
            "seed": self.seed,
            "format_version": FORMAT_VERSION,
        }

    def dump_bytes(self) -> bytes:
        """Binary dump: header plus 1-bit open flags in file order
        (:func:`~nashwalk.medium.dump_edges`)."""
        return dump_edges(PERC_MAGIC, self.header(), self.open_edges, self.n, 1)

    @classmethod
    def load_bytes(cls, data: bytes) -> "PercolationGraph":
        header, open_edges = load_edges(data, PERC_MAGIC, {
            "n": int, "beta": (int, float, type(None)), "seed": (int, type(None)),
        }, 1, lambda header: _check_dimension(header["n"]))
        beta = header["beta"]
        if beta is not None and not (0.0 <= beta <= 1.0):
            raise BetaOutOfRange(f"beta must be in [0, 1], got {beta}")
        return cls(
            header["n"], open_edges, None if beta is None else float(beta), header["seed"]
        )


def _check_dimension(n: int) -> int:
    """`n`, once an exhaustive percolation on the n-cube is allowed."""
    if not (1 <= n <= EXHAUSTIVE_CAP):
        raise DimensionTooLarge(f"percolation needs 1 <= n <= {EXHAUSTIVE_CAP}")
    return n


def sample_percolation(n: int, beta: float, seed: int) -> PercolationGraph:
    """i.i.d. bond percolation: each edge open with probability beta.

    Edge coins come from the stream fold(seed, "perc", base, axis), disjoint
    from medium orientation streams; for a fixed seed the open set is monotone
    nondecreasing in beta (shared uniforms, moving threshold).
    """
    if not (0.0 < beta < 1.0):
        raise BetaOutOfRange(f"beta must be in (0, 1), got {beta}")
    _check_dimension(n)
    seed &= MASK64
    t = np.uint64(threshold(beta))
    open_edges = np.empty(edge_count(n), dtype=bool)
    for axis, h in enumerate(edge_hashes(fold(seed, TAG_PERC), n)):
        np.less(h, t, out=edge_block(open_edges, axis, n))
    return PercolationGraph(n, open_edges, beta, seed)


# -- components --------------------------------------------------------------


def _component_labels(perc: PercolationGraph) -> np.ndarray:
    """Per vertex, the smallest vertex of its open component.

    Hook and shortcut (Shiloach & Vishkin, J. Algorithms 1982) on the
    open-edge list: each round hooks the label of every edge's one endpoint
    to the other's label when that is smaller, both ways, then jumps every
    label to its label's label until that changes nothing.  A label is
    always a vertex of the same component, no larger than the vertex; when a
    round changes nothing, both endpoints of every open edge carry the same
    label, which is then the component's smallest vertex.
    """
    n = perc.n
    vertices = np.arange(1 << n)
    srcs = []
    dsts = []
    for axis in range(n):
        block = edge_block(perc.open_edges, axis, n).ravel()
        open_bases = np.compress(block, axis_view(vertices, axis)[:, 0, :])
        srcs.append(open_bases)
        dsts.append(open_bases | (1 << axis))
    src = np.concatenate(srcs)
    dst = np.concatenate(dsts)
    labels = vertices.astype(np.int32)  # narrow labels halve the gathers' traffic
    while True:
        before = labels.copy()
        np.minimum.at(labels, labels[dst], labels[src])
        np.minimum.at(labels, labels[src], labels[dst])
        while True:
            jumped = labels[labels]
            if np.array_equal(jumped, labels):
                break
            labels = jumped
        if np.array_equal(labels, before):
            return labels


def connected_component(perc: PercolationGraph, v: Vertex) -> set[int]:
    """Open-edge component of v."""
    seen = {v}
    queue = [v]
    while queue:
        u = queue.pop()
        for w in perc.open_neighbors(u):
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return seen


@dataclass(frozen=True)
class FragmentStats:
    n: int
    largest_component_size: int
    largest_component_min_vertex: int
    fragment_size: int  # 2^n minus the largest component


def largest_component(perc: PercolationGraph) -> np.ndarray:
    """Vertices of the largest open component, ties broken by smallest vertex."""
    return np.flatnonzero(_largest(_component_labels(perc)))


def _largest(labels: np.ndarray) -> np.ndarray:
    """Per-vertex bool mask of the largest component of
    :func:`_component_labels` output; a label is its component's smallest
    vertex, so the first maximum of the sizes breaks ties by smallest
    vertex."""
    return labels == np.argmax(np.bincount(labels))


def fragment_stats(perc: PercolationGraph) -> FragmentStats:
    comp = largest_component(perc)
    return FragmentStats(
        n=perc.n,
        largest_component_size=len(comp),
        largest_component_min_vertex=int(comp[0]),
        fragment_size=(1 << perc.n) - len(comp),
    )


# -- reverse accessibility and the coupling ----------------------------------


def reverse_accessible_from_zero(medium: Medium) -> set[int]:
    """Vertices with an oriented (best-response) path into vertex 0; a lazy
    medium may have any n up to 62."""
    if medium.mode == MODE_EXHAUSTIVE:
        return set(np.flatnonzero(_reverse_accessible(medium)).tolist())
    return reaching(medium, 0)


def _reverse_accessible(medium: Medium) -> np.ndarray:
    """:func:`reverse_accessible_from_zero` as a per-vertex bool mask; a
    lazy medium has no table for :func:`backward_reach`."""
    mask = np.zeros(1 << medium.n_players, dtype=bool)
    if medium.mode == MODE_EXHAUSTIVE:
        mask[0] = True
        return backward_reach(medium, mask)
    mask[list(reaching(medium, 0))] = True
    return mask


@dataclass(frozen=True, eq=False)
class CouplingAudit:
    """One coupling run's three vertex sets, each a per-vertex bool mask;
    the frozensets of Python ints are read off them when asked for."""

    q_final_mask: np.ndarray = field(repr=False)
    component_of_zero_mask: np.ndarray = field(repr=False)
    reverse_accessible_mask: np.ndarray = field(repr=False)
    rounds_to_fixpoint: int
    identity_holds: bool
    # per vertex, the smallest vertex of its open component in the final
    # percolation, so callers need not label it again
    final_labels: np.ndarray = field(repr=False, compare=False)

    def __eq__(self, other):
        # the generated __eq__ would compare the masks elementwise
        if not isinstance(other, CouplingAudit):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
                   for f in fields(self) if f.compare)

    @property
    def q_final(self) -> frozenset:
        return frozenset(np.flatnonzero(self.q_final_mask).tolist())

    @property
    def component_of_zero(self) -> frozenset:
        return frozenset(np.flatnonzero(self.component_of_zero_mask).tolist())

    @property
    def reverse_accessible(self) -> frozenset:
        return frozenset(np.flatnonzero(self.reverse_accessible_mask).tolist())


def _grow(medium: Medium, open_edges: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """The growth recursion of :func:`coupling_run`: (final open edges,
    grown set as a per-vertex bool mask, rounds to the fixpoint)."""
    n = medium.n_players
    bits = 1 << np.arange(n)
    seen_from = medium.orientation_seen_from
    grown = np.zeros(1 << n, dtype=bool)
    grown[0] = True
    assigned = np.zeros(open_edges.size, dtype=bool)
    final_open = open_edges.copy()
    frontier = np.zeros(1, dtype=np.intp)
    rounds = 0
    while frontier.size:
        rounds += 1
        # the round's boundary edges as (vertex inside, axis); row-major
        # over an ascending frontier, so in (vertex, axis) order
        rows, axes = np.nonzero(~grown[frontier[:, None] ^ bits])
        inside = frontier[rows]
        inward = np.fromiter(
            map(seen_from, inside.tolist(), axes.tolist()), np.int8, count=inside.size
        ) == DOWN  # oriented into the set
        edges = edge_index(inside, axes, n)
        assert not assigned[edges].any()  # set-once: a boundary edge settles
        assigned[edges] = True
        final_open[edges] = inward
        joined = np.zeros(1 << n, dtype=bool)
        joined[(inside ^ bits[axes])[inward]] = True
        frontier = np.flatnonzero(joined)
        grown |= joined
    return final_open, grown, rounds


def coupling_run(
    medium: Medium, initial: PercolationGraph
) -> tuple[PercolationGraph, CouplingAudit]:
    """Grow the reverse-accessible set of 0, overwriting boundary edges.

    Each round assigns every edge between the current set and its complement
    (once — assignments are idempotent, asserted) the indicator "oriented into
    the set member", then admits outside endpoints of the open ones.  The
    round's boundary edges come in (vertex, axis) order from numpy operations
    on the ascending frontier; each costs one ``medium.orientation_seen_from``
    read, and the round writes its assignments into the final percolation
    before the next round starts.  Returns the final percolation and an audit
    of the set identity, which must hold on every run; the audit keeps the
    final percolation's component labels, from which the open component of 0
    is read.
    """
    n = medium.n_players
    if initial.n != n:
        raise IncompleteTable(f"percolation is on n={initial.n}, medium on n={n}")
    if initial.seed is not None and initial.seed == medium.params.seed:
        raise SeedCollision(
            "medium and initial percolation share a seed; use distinct streams"
        )
    final_open, grown, rounds = _grow(medium, initial.open_edges)
    final = PercolationGraph(n, final_open, initial.beta, None)
    labels = _component_labels(final)
    comp_zero = labels == 0
    rev = _reverse_accessible(medium)
    audit = CouplingAudit(
        q_final_mask=grown,
        component_of_zero_mask=comp_zero,
        reverse_accessible_mask=rev,
        rounds_to_fixpoint=rounds,
        identity_holds=np.array_equal(grown, comp_zero) and np.array_equal(grown, rev),
        final_labels=labels,
    )
    return final, audit


class CouplingTrial(NamedTuple):
    identity_holds: bool
    open_edges: int  # open edges of the final percolation
    fragment_size: int  # 2^n minus the largest final component
    lemma_mismatch: bool  # largest final component != reverse-accessible set


def coupling_trial(args) -> CouplingTrial:
    """Trial `trial` of a coupling experiment seeded ``params.seed``: a fresh
    medium and initial percolation from (seed, trial) and one coupling run,
    whose labels of the final percolation give the largest component too.
    Top level so it pickles for worker processes."""
    params, trial = args
    n = params.n_players
    medium = trial_medium(params, trial)
    initial = sample_percolation(n, params.beta, fold(params.seed, TAG_PERC, trial))
    final, audit = coupling_run(medium, initial)
    big = _largest(audit.final_labels)
    return CouplingTrial(
        identity_holds=audit.identity_holds,
        open_edges=int(np.count_nonzero(final.open_edges)),
        fragment_size=(1 << n) - int(np.count_nonzero(big)),
        lemma_mismatch=not np.array_equal(big, audit.reverse_accessible_mask),
    )


def check_lemma_finally(n: int, alpha: float, trials: int, seed: int) -> dict:
    """Frequency of {largest open component != reverse-accessible set} over
    fresh (medium, percolation, coupling) trials."""
    params = MediumParams(n, alpha, seed)
    results = map_ordered(coupling_trial, (params,), trials)
    assert all(r.identity_holds for r in results)
    beta = params.beta
    mismatches = sum(r.lemma_mismatch for r in results)
    return {
        "n": n,
        "alpha": alpha,
        "beta": beta,
        "seed": seed,
        "trials": trials,
        "mismatches": mismatches,
        "mismatch_frequency": mismatches / trials,
    }
