"""Pure equilibria, traps, and absorbing structure of a medium.

A vertex is a pure Nash equilibrium (PNE) exactly when it has no outgoing
oriented edge.  A trap is a sink strongly-connected component of the oriented
graph with at least two vertices; tie edges are not traversable.  The cube is
bipartite, so oriented cycles have even length >= 4 and a sink SCC can never
have size 2 or 3 — that is asserted, not filtered.

Traps are closed and hold no PNE, so every trap lies in the set of vertices
that cannot reach a PNE, and that set is itself closed under out-edges.
:func:`sink_components` therefore finds the vertices that reach a PNE first,
on packed bitsets, and searches for sink SCCs only on the closed remainder
(the reachability-then-SCC pruning of Fleischer, Hendrickson & Pinar, "On
identifying strongly connected components in parallel", 2000).  Typical
media leave a small remainder or none.  The search is numpy label
propagation with pointer jumping on the remainder's edge list
(:func:`_sink_sccs`), so the package needs numpy alone; one scipy SCC over
the whole oriented graph stays in the tests as the oracle.

Bitsets.  A per-vertex bool array packs into little-endian uint64 words,
vertex v at bit ``v % 64`` of word ``v // 64`` (one word, zero-padded, for
n < 6).  Crossing axis ``i < 6`` swaps bits within each word: a shift by
``2^i`` under a constant mask.  Crossing axis ``i >= 6`` swaps whole words,
and the word array viewed through :func:`axis_view` along ``i - 6`` lines
each word up with its partner.  The bitsets come from
:meth:`Medium.out_mask`, one decode of the orientation table per analysis:
the PNEs (no out-bit on any axis), the backward spread and the remainder's
out-edges, which the trap search needs, are all read from them.  The PNEs
stay a mask; :attr:`SinkAnalysis.pnes` lists them only when read.

Without a whole-cube analysis, :func:`classify_vertex` answers which
obstacle a vertex can meet by one budgeted DFS of its forward closure
(:func:`forward_closure`): the search stops at its first PNE, at its
budget, or when a PNE-free closure is exhausted.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import AlphaOutOfRange
from .medium import Medium, Vertex, axis_view, default_closure_budget, neighbors
from .parallel import check_deadline


@dataclass
class SinkAnalysis:
    """Full absorbing-structure decomposition of an exhaustive medium: the
    PNEs as a per-vertex bool mask, which their list and count are read off,
    and the traps, each trap's members ascending and the traps ordered by
    first member."""

    n_players: int
    alpha: float
    seed: int
    traps: list[list[int]]
    pne_mask: np.ndarray
    trap_mask: np.ndarray  # the same facts as traps, so equality skips it

    def __eq__(self, other):
        # the generated __eq__ would compare the masks elementwise
        if not isinstance(other, SinkAnalysis):
            return NotImplemented
        return (self.n_players, self.alpha, self.seed, self.traps) == (
            other.n_players, other.alpha, other.seed, other.traps
        ) and np.array_equal(self.pne_mask, other.pne_mask)

    @property
    def pnes(self) -> list[int]:
        """The PNEs ascending, as Python ints."""
        return np.flatnonzero(self.pne_mask).tolist()

    @property
    def pne_count(self) -> int:
        return int(np.count_nonzero(self.pne_mask))

    def to_json(self) -> str:
        payload = {
            "n_players": self.n_players,
            "alpha": self.alpha,
            "seed": self.seed,
            "pne_count": self.pne_count,
            "pnes": self.pnes,
            "traps": self.traps,
        }
        return json.dumps(payload, sort_keys=True)


def is_pne(medium: Medium, v: Vertex) -> bool:
    """True iff every incident edge is a tie or points into v."""
    return not medium.row(v)[0]


def enumerate_pnes(medium: Medium) -> list[int]:
    """All PNE vertices, ascending (exhaustive mode only)."""
    out_deg, _, _ = medium.degrees()
    return np.flatnonzero(out_deg == 0).tolist()


def expected_pne_count(n: int, alpha: float) -> float:
    """Mean number of PNEs: (1 + alpha)^n.

    A vertex is a PNE when each of its n edges is a tie or points into it,
    which happens with probability ((1 + alpha)/2)^n since edges are
    independent; summing over the 2^n vertices gives the mean.
    """
    if not (0.0 <= alpha < 1.0):
        raise AlphaOutOfRange(f"alpha must be in [0, 1), got {alpha}")
    return (1.0 + alpha) ** n


# Bits of a word whose in-word axis bit (axes 0-5) is clear.
_LOW_HALVES = np.array(
    [0x5555555555555555, 0x3333333333333333, 0x0F0F0F0F0F0F0F0F,
     0x00FF00FF00FF00FF, 0x0000FFFF0000FFFF, 0x00000000FFFFFFFF],
    dtype=np.uint64,
)
_SHIFTS = tuple(np.uint64(1 << axis) for axis in range(6))


def _pack(bits: np.ndarray) -> np.ndarray:
    """Little-endian uint64 words of a per-vertex bool array, zero-padded."""
    packed = np.packbits(bits, bitorder="little")
    if packed.size % 8:
        packed = np.concatenate([packed, np.zeros(8 - packed.size % 8, np.uint8)])
    return packed.view("<u8")


def _unpack(words: np.ndarray, size: int) -> np.ndarray:
    """Inverse of :func:`_pack`: the first `size` bits as a bool array."""
    return np.unpackbits(words.view(np.uint8), count=size, bitorder="little").view(bool)


def _out_words(medium: Medium) -> np.ndarray:
    """(n, words) bitsets: bit v of row i set when v's axis-i edge points
    out of v (:meth:`Medium.out_mask`, packed)."""
    n = medium.n_players
    buf = np.empty(1 << n, dtype=bool)
    return np.stack([_pack(medium.out_mask(axis, buf)) for axis in range(n)])


def _reach_back(out_words: np.ndarray, seed: np.ndarray) -> np.ndarray:
    """Every vertex with an oriented path into `seed`.

    One round sweeps the axes in order, adding each vertex whose axis edge
    points out of it into an already reached partner; rounds repeat until
    one adds nothing.  Updates within a round are seen by later axes, so the
    round count is at most one more than the longest shortest path to the
    seed.  The word-axis views and the scratch words are made once, so a
    round allocates nothing; the time budget is checked before every round
    (:func:`~nashwalk.parallel.check_deadline`).
    """
    reach = seed.copy()
    before, a, b = np.empty_like(reach), np.empty_like(reach), np.empty_like(reach)
    half = b[: reach.size // 2]  # the word-axis scratch; `b` is free by then
    in_word = []
    across = []
    for axis, out in enumerate(out_words):
        if axis < 6:
            in_word.append((out, _LOW_HALVES[axis], _SHIFTS[axis]))
        else:
            r, o = axis_view(reach, axis - 6), axis_view(out, axis - 6)
            h = half.reshape(r.shape[0], r.shape[2])
            across.append((r[:, 0, :], r[:, 1, :], o[:, 0, :], o[:, 1, :], h))
    while True:
        check_deadline()
        np.copyto(before, reach)
        for out, low, shift in in_word:
            np.bitwise_and(reach, low, out=a)
            a <<= shift
            np.right_shift(reach, shift, out=b)
            b &= low
            a |= b
            a &= out
            reach |= a
        for r0, r1, o0, o1, h in across:
            np.bitwise_and(r1, o0, out=h)
            r0 |= h
            np.bitwise_and(r0, o1, out=h)
            r1 |= h
        before ^= reach
        if not before.any():
            return reach


def backward_reach(medium: Medium, targets: np.ndarray) -> np.ndarray:
    """Per-vertex bool mask of every vertex with an oriented path into the
    vertices set in the per-vertex bool mask `targets` (those included),
    spread on packed out-edge bitsets as in :func:`sink_components`."""
    reach = _reach_back(_out_words(medium), _pack(targets))
    return _unpack(reach, 1 << medium.n_players)


def _remainder_edges(
    out_words: np.ndarray, rest: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Out-edges of the vertices `rest` (ascending) as local (src, dst)
    indices into `rest`, axis by axis, read from the packed out-edge bitsets
    in one pass over every axis.  Asserts that `rest` is closed: every
    out-neighbour has a local index."""
    n, k = len(out_words), rest.size
    local = np.full(1 << n, -1, dtype=np.int64)
    local[rest] = np.arange(k)
    # row i: bit `rest` of axis i's bitset, read byte-wise
    shift = (rest & 7).astype(np.uint8)
    bits = (np.take(out_words.view(np.uint8), rest >> 3, axis=1) >> shift & 1).view(bool)
    counts = np.count_nonzero(bits, axis=1)
    axes = np.arange(n)
    src = np.flatnonzero(bits) - np.repeat(axes * k, counts)
    dst = local[rest[src] ^ np.repeat(1 << axes, counts)]
    assert (dst >= 0).all(), "the vertices reaching no PNE are not closed"
    return src, dst


def _settle(op: np.ufunc, vals: np.ndarray, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Pointer-jumping fixpoint: each round folds every edge's `dst` value
    into its `src` (``op.at``), then jumps every pointer once
    (``vals = op(vals, vals[vals])``), until a round changes nothing.

    Each value is a vertex index that the caller's invariant keeps valid
    under both steps; the jump only speeds the spread.  The time budget is
    checked before every round.
    """
    while True:
        check_deadline()
        before = vals.copy()
        op.at(vals, src, vals[dst])
        vals = op(vals, vals[vals])
        if np.array_equal(vals, before):
            return vals


def _sink_sccs(src: np.ndarray, dst: np.ndarray, size: int) -> np.ndarray:
    """Per vertex of the graph src -> dst on `size` vertices, the id of the
    sink SCC that holds it, or -1; an SCC's id is its smallest member.

    Three fixpoints of :func:`_settle` on the edge list:

    - ``m[u]``, the smallest vertex u reaches (a jump stays in u's forward
      closure, since ``m[u]`` lies in it);
    - ``mx[u]``, the largest ``m`` over u's forward closure (``mx[u]`` is
      itself a vertex of that closure, so the jump is valid too);
    - ``p[u]``, the smallest vertex of u's class (the vertices sharing
      ``m[u]``) that reaches u along edges inside the class.

    A vertex s with ``m[s] == s == mx[s]`` is a root: everything s reaches
    has ``m == s``, so reaches s back, and s's forward closure is a sink SCC
    with smallest member s.  Every sink SCC has such a root.  A vertex u is
    in root ``m[u]``'s SCC exactly when that root reaches u, i.e. when
    ``p[u] == m[u]``; only edges inside root classes matter for that.
    """
    ids = np.arange(size, dtype=np.int32)  # narrow values halve the gathers' traffic
    m = _settle(np.minimum, ids.copy(), src, dst)
    mx = _settle(np.maximum, m.copy(), src, dst)
    root = (m == ids) & (mx == ids)
    inner = (m[src] == m[dst]) & root[m[src]]
    p = _settle(np.minimum, ids.copy(), dst[inner], src[inner])
    return np.where(root[m] & (p == m), m, -1)


def sink_components(medium: Medium) -> SinkAnalysis:
    """Find the PNEs and the traps (sink SCCs of size >= 4) of the medium.

    Packed per-axis out-edge bitsets are built once, and the PNEs are the
    vertices with no bit set on any axis.  The same bitsets then spread that
    set backwards along oriented edges until it stops growing: the result is
    every vertex that can reach a PNE.  The rest is closed under out-edges
    and holds every trap, so the sink SCCs are searched on the rest's
    out-edges alone (:func:`_sink_sccs`), read from the same bitsets.  The
    rest holds no PNE, so no such sink is a single vertex; sizes 2 and 3 are
    impossible (bipartiteness) and asserted absent.

    The number of spread rounds is bounded by the longest shortest path to
    a PNE, so random media settle in a handful, while crafted snake-like
    tables stay correct but cost more rounds; the trap search's pointer
    jumping keeps its rounds few even along a snake.  The time budget
    (:func:`nashwalk.parallel.time_budget`) is checked before every round of
    both, and raises TimeBudgetExceeded once spent.
    """
    n = medium.n_players
    size = 1 << n
    out_words = _out_words(medium)
    # no out-bit on any axis; `~` also sets the padding bits below 64
    # vertices, which the unpacking drops
    pne_mask = _unpack(~np.bitwise_or.reduce(out_words, axis=0), size)

    rest = np.flatnonzero(~_unpack(_reach_back(out_words, _pack(pne_mask)), size))
    trap_mask = np.zeros(size, dtype=bool)
    traps: list[list[int]] = []
    if rest.size:
        sink = _sink_sccs(*_remainder_edges(out_words, rest), rest.size)
        in_trap = np.flatnonzero(sink >= 0)
        ids = sink[in_trap]
        counts = np.bincount(ids)
        sizes = counts[counts > 0]  # ascending by id
        assert (sizes >= 4).all(), (
            f"sink SCCs of size {sizes[sizes < 4].tolist()} violate bipartiteness"
        )
        trap_mask[rest[in_trap]] = True
        # ids are smallest members and `rest` ascends, so sorting by id
        # orders the traps by first member, members ascending
        members = rest[in_trap[np.argsort(ids, kind="stable")]]
        traps = [t.tolist() for t in np.split(members, np.cumsum(sizes)[:-1])]

    return SinkAnalysis(
        n_players=n,
        alpha=medium.params.alpha,
        seed=medium.params.seed,
        traps=traps,
        pne_mask=pne_mask,
        trap_mask=trap_mask,
    )


CLOSED = "closed"
BUDGET_EXCEEDED = "budget_exceeded"
PNE_REACHED = "pne_reached"


@dataclass
class ClosureResult:
    """Outcome of a budgeted forward closure.

    status is PNE_REACHED when the search stopped at a PNE or at a vertex
    known to reach one, BUDGET_EXCEEDED when it stopped at the budget
    (``visited`` is then partial in both cases), and CLOSED when
    ``visited`` is the whole forward closure, which then holds no PNE.
    """

    status: str  # CLOSED, BUDGET_EXCEEDED or PNE_REACHED
    visited: set[int]


def forward_closure(
    medium: Medium,
    v: Vertex,
    budget: int | None = None,
    *,
    known: dict[int, VertexClass] | None = None,
) -> ClosureResult:
    """DFS along oriented out-edges from v, capped at `budget` visited vertices.

    Works in either storage mode; the default budget is 2^min(n, 16).  The
    search stops at the first vertex it pops that is a PNE (PNE_REACHED),
    when it would visit more than `budget` vertices (BUDGET_EXCEEDED), or
    when it has exhausted a PNE-free closure (CLOSED).  When the budget
    covers the whole cube, it also stops at a vertex the memo `known`
    (:func:`classify_vertex`) marks TRANSIENT, and marks the DFS tree path
    from v to where it stopped TRANSIENT, since every vertex on it reaches
    a PNE.  A smaller budget neither reads nor writes `known`: a mark could
    then stop a search that would overrun without it, and turn an UNKNOWN
    verdict into TRANSIENT.
    """
    if budget is None:
        budget = default_closure_budget(medium.n_players)
    if known is None or budget < 1 << medium.n_players:
        known = {}
    parent = {v: None}
    queue = [v]
    while queue:
        u = queue.pop()
        if known.get(u) == VertexClass.TRANSIENT or not (out_bits := medium.row(u)[0]):
            # u is a PNE or reaches one, and so does its tree path from v
            while (u := parent[u]) is not None:
                known[u] = VertexClass.TRANSIENT
            return ClosureResult(PNE_REACHED, set(parent))
        for w in neighbors(u, out_bits):
            if w not in parent:
                if len(parent) >= budget:
                    return ClosureResult(BUDGET_EXCEEDED, set(parent))
                parent[w] = u
                queue.append(w)
    return ClosureResult(CLOSED, set(parent))


class VertexClass(str, Enum):
    PNE = "pne"
    IN_TRAP = "in_trap"
    DOOMED = "doomed"
    TRANSIENT = "transient"
    UNKNOWN = "unknown"


def classify_vertex(
    medium: Medium,
    v: Vertex,
    budget: int | None = None,
    *,
    known: dict[int, VertexClass] | None = None,
) -> VertexClass:
    """Classify v by its forward closure, without a global decomposition.

    Pne: no out-edge.  InTrap: closed, PNE-free closure whose every member
    reaches v (so the closure is strongly connected).  Doomed: closed, PNE-free
    closure not strongly connected to v — best-response play from v must end in
    a trap.  Transient: closure contains a PNE.  Unknown: budget exceeded.

    One reachable PNE settles Transient (traps are closed and PNE-free), so
    the search stops at the first PNE it pops (:func:`forward_closure`),
    under any budget.  Unknown therefore means that the search visited
    `budget` vertices without popping a PNE, not that the closure holds
    none.

    `known` is the caller's memo of verdicts under this same budget.  A
    vertex it holds is answered from it without a probe (v is checked
    first), and a probe stores what it learns there: v's verdict, IN_TRAP
    for every member of an IN_TRAP closure (each member's closure is the
    same trap), and, when the budget covers the cube, TRANSIENT for the DFS
    path that led to a PNE.  No verdict changes.
    """
    if is_pne(medium, v):
        return VertexClass.PNE
    known = {} if known is None else known
    if v not in known:
        closure = forward_closure(medium, v, budget, known=known)
        if closure.status == BUDGET_EXCEEDED:
            known[v] = VertexClass.UNKNOWN
        elif closure.status == PNE_REACHED:
            known[v] = VertexClass.TRANSIENT
        else:
            members = closure.visited
            assert len(members) >= 2  # a non-PNE vertex has at least one out-neighbor
            # Does every member reach v?  Paths from members cannot leave a
            # closed set, so searching in-edges inside the closure is exact.
            if len(reaching(medium, v, members)) == len(members):
                known.update(dict.fromkeys(members, VertexClass.IN_TRAP))
            else:
                known[v] = VertexClass.DOOMED
    return known[v]


def reaching(medium: Medium, v: Vertex, within: set[int] | None = None) -> set[int]:
    """Every vertex with an oriented path into v, v included: a DFS along
    in-edges (``row(u)[1]``), in either storage mode.  With `within`, the
    search enters only members of `within` (v is always in the result)."""
    seen = {v}
    queue = [v]
    while queue:
        u = queue.pop()
        for w in neighbors(u, medium.row(u)[1]):
            if w not in seen and (within is None or w in within):
                seen.add(w)
                queue.append(w)
    return seen


def m_beta(alpha: float) -> int:
    """Largest m with (1 - beta)^m >= 1/2, for beta = (1 - alpha)/2.

    Computed as floor(1 / -log2(1 - beta)); values within one ulp of an
    integer resolve upward to that integer.
    """
    if not (0.0 <= alpha < 1.0):
        raise AlphaOutOfRange(f"alpha must be in [0, 1), got {alpha}")
    beta = (1.0 - alpha) / 2.0
    r = 1.0 / (-math.log2(1.0 - beta))
    nearest = round(r)
    if nearest >= 1 and abs(r - nearest) <= math.ulp(r):
        return int(nearest)
    return int(math.floor(r))
