"""Pure equilibria, traps, and absorbing structure of a medium.

A vertex is a pure Nash equilibrium (PNE) exactly when it has no outgoing
oriented edge.  A trap is a sink strongly-connected component of the oriented
graph with at least two vertices; tie edges are not traversable.  The cube is
bipartite, so oriented cycles have even length >= 4 and a sink SCC can never
have size 2 or 3 — that is asserted, not filtered.

Traps are closed and hold no PNE, so every trap lies in the set of vertices
that cannot reach a PNE, and that set is itself closed under out-edges.
:func:`sink_components` therefore finds the vertices that reach a PNE first,
on packed bitsets, and searches for sink SCCs only on the closed remainder.
Both steps follow Fleischer, Hendrickson & Pinar ("On identifying strongly
connected components in parallel", 2000): the pruning by reachability, and
the forward-backward search itself (:func:`_trap_search`).  The search needs
only a forward and a backward reach from one vertex, on Python vertex sets
for a small remainder and on the packed bitsets for a large one, so the
package needs numpy alone; one scipy SCC over the whole oriented graph stays
in the tests as the oracle.

Bitsets.  A per-vertex bool array packs into little-endian uint64 words,
vertex v at bit ``v % 64`` of word ``v // 64`` (one word, zero-padded, for
n < 6).  Crossing axis ``i < 6`` moves bits within each word: a shift by
``2^i``.  Crossing axis ``i >= 6`` moves whole words, by ``2^(i-6)``.  The
out-edges are decoded from the orientation table once per analysis, into
each axis's row split by the axis bit: the out-bits of the vertices below
their partners and of those above (:func:`_split_rows`).  The PNEs (no
out-bit on any axis), the backward spread and the trap search's backward
reaches all read these rows; every operation of a round is then a shift or a
plain slice of contiguous words under one half, and a reach stops early
once every vertex is reached (:func:`_reach_back`).  The PNEs stay a mask;
:attr:`SinkAnalysis.pnes` lists them only when read.

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
_FULL = np.uint64(0xFFFFFFFFFFFFFFFF)


def _pack(bits: np.ndarray) -> np.ndarray:
    """Little-endian uint64 words of a per-vertex bool array, zero-padded."""
    packed = np.packbits(bits, bitorder="little")
    if packed.size % 8:
        packed = np.concatenate([packed, np.zeros(8 - packed.size % 8, np.uint8)])
    return packed.view("<u8")


def _unpack(words: np.ndarray, size: int) -> np.ndarray:
    """Inverse of :func:`_pack`: the first `size` bits as a bool array."""
    return np.unpackbits(words.view(np.uint8), count=size, bitorder="little").view(bool)


def _split_rows(medium: Medium, reverse: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi): (n, words) bitsets of the out-edges, split by the axis bit.

    Bit v of ``lo[i]`` is set when v's bit i is clear and v's axis-i edge
    points out of v, bit v of ``hi[i]`` when v's bit i is set and it does,
    so ``lo | hi`` is the packed :meth:`Medium.out_mask` row.  Axes < 6 mask
    the row with ``_LOW_HALVES``; axes >= 6 zero the other half's words
    through :func:`axis_view`.  With `reverse` they are the rows of the
    reversed graph, whose out-edges are the in-edges.
    """
    n = medium.n_players
    buf = np.empty(1 << n, dtype=bool)
    lo = np.empty((n, _pack(buf).size), dtype=np.uint64)
    hi = np.empty_like(lo)
    for axis in range(n):
        row = _pack(medium.out_mask(axis, buf, reverse))
        if axis < 6:
            np.bitwise_and(row, _LOW_HALVES[axis], out=lo[axis])
        else:
            lo[axis] = row
            axis_view(lo[axis], axis - 6)[:, 1, :] = 0
        np.bitwise_xor(row, lo[axis], out=hi[axis])
    return lo, hi


def _reach_back(lo: np.ndarray, hi: np.ndarray, seed: np.ndarray) -> np.ndarray:
    """Every vertex with an oriented path into `seed` (packed words), on the
    split rows `lo`, `hi` of :func:`_split_rows`.

    One round sweeps the axes in order, adding each vertex whose axis edge
    points out of it into an already reached partner: in-word axes by a
    shift of the reach under ``lo`` or ``hi``, word axes by plain contiguous
    slices at the word distance, where the zeroed halves of ``lo`` and
    ``hi`` blank the words a slice pairs with a non-partner.  Rounds repeat
    until one adds nothing or, from 64 vertices on, until every vertex is
    reached.  Updates within a round are seen by later axes, so the round
    count is at most one more than the longest shortest path to the seed,
    and a reach that fills the cube needs no confirming round.  The slices
    and scratch words are made once, so a round allocates nothing; the time
    budget is checked before every round
    (:func:`~nashwalk.parallel.check_deadline`).  On the rows of the
    reversed graph it is the forward reach.
    """
    reach = seed.copy()
    before, a = np.empty_like(reach), np.empty_like(reach)
    in_word = [(_SHIFTS[i], lo[i], hi[i]) for i in range(min(len(lo), 6))]
    across = []
    for axis in range(6, len(lo)):
        d = 1 << (axis - 6)
        across.append((reach[:-d], reach[d:], lo[axis, :-d], hi[axis, d:], a[:-d]))
    can_fill = len(lo) >= 6  # below that the padding bits never fill
    while True:
        check_deadline()
        np.copyto(before, reach)
        for shift, low, high in in_word:
            np.right_shift(reach, shift, out=a)
            a &= low
            reach |= a
            np.left_shift(reach, shift, out=a)
            a &= high
            reach |= a
        for r0, r1, low, high, t in across:
            np.bitwise_and(r1, low, out=t)
            r0 |= t
            np.bitwise_and(r0, high, out=t)
            r1 |= t
        if can_fill and np.bitwise_and.reduce(reach) == _FULL:
            return reach
        before ^= reach
        if not before.any():
            return reach


def backward_reach(medium: Medium, targets: np.ndarray) -> np.ndarray:
    """Per-vertex bool mask of every vertex with an oriented path into the
    vertices set in the per-vertex bool mask `targets` (those included),
    spread on the split rows as in :func:`sink_components`."""
    reach = _reach_back(*_split_rows(medium), _pack(targets))
    return _unpack(reach, 1 << medium.n_players)


def _on_sets(count: int, n: int) -> bool:
    """Whether the trap search runs on Python vertex sets (True) or on
    packed words (False) for a remainder of `count` vertices of the n-cube.

    A set search reads a row per vertex of the remainder, about 15 us each;
    a word search costs a few passes over all 2^n bits per iteration, about
    2 ms at n = 12-15 (CPU medians on a 2-core Xeon).  ``count^2 <= 2^n``
    puts the switch near 2^(n/2) vertices, so the small remainders of random
    media (at most 126 vertices seen at n = 12-20, α = 0.7-0.9) stay on sets,
    where words took 20-170 times longer, and whole-cube remainders (α = 0,
    no PNE) run on words, where sets took 30-45 times longer at n = 12-14."""
    return count * count <= 1 << n


def _trap_search(
    medium: Medium, rows: tuple[np.ndarray, np.ndarray], rest_mask: np.ndarray
) -> list[list[int]]:
    """The sink SCCs of the vertices set in `rest_mask`, which must be closed
    under out-edges and hold no PNE, members ascending, ordered by first
    member.  `rows` are the medium's split rows (:func:`_split_rows`).

    A forward-backward search (Fleischer, Hendrickson & Pinar, 2000): take
    p = min(rest), its forward closure F and the vertices B of the rest that
    reach p.  While F is not within B, move p to min(F - B), whose closure
    is strictly smaller.  Then F is a sink SCC: it is recorded, and B, every
    vertex that reaches it, leaves the rest, which stays closed.  The two
    reaches run on vertex sets (:func:`forward_closure`, :func:`reaching`)
    or on packed words (:func:`_reach_back` on the rows and on those of the
    reversed graph), as :func:`_on_sets` picks.  The rest is checked to be
    closed first, and the time budget before every iteration.
    """
    n = medium.n_players
    rest = set(np.flatnonzero(rest_mask).tolist())
    if _on_sets(len(rest), n):
        closed = all(w in rest for u in rest for w in neighbors(u, medium.row(u)[0]))

        def reaches(p: int) -> tuple[set[int], set[int]]:
            return forward_closure(medium, p, 1 << n).visited, reaching(medium, p, within=rest)
    else:
        rest_words, inward = _pack(rest_mask), _split_rows(medium, reverse=True)
        closed = np.array_equal(_reach_back(*inward, rest_words), rest_words)

        def reaches(p: int) -> tuple[set[int], set[int]]:
            seed = np.zeros_like(rest_words)
            seed[p >> 6] = np.uint64(1 << (p & 63))
            # forward on the rows of the reversed graph, backward on the rows
            f, b = (_unpack(_reach_back(*r, seed) & rest_words, 1 << n) for r in (inward, rows))
            return set(np.flatnonzero(f).tolist()), set(np.flatnonzero(b).tolist())
    assert closed, "the vertices reaching no PNE are not closed"
    traps: list[list[int]] = []
    f = b = set()
    while rest:
        check_deadline()
        # F - B is empty at the start and after a trap: p = min(rest) then
        f, b = reaches(p := min(f - b or rest))
        if f <= b:  # everything p reaches reaches p back
            assert len(f) >= 4, f"a sink SCC of size {len(f)} violates bipartiteness"
            traps.append(sorted(f))
            rest -= b
    return sorted(traps)


def sink_components(medium: Medium) -> SinkAnalysis:
    """Find the PNEs and the traps (sink SCCs of size >= 4) of the medium.

    The out-edges are split into packed bitset rows once
    (:func:`_split_rows`), and the PNEs are the vertices with no bit set on
    any axis.  The same rows then spread that set backwards along oriented
    edges until it stops growing: the result is every vertex that can reach
    a PNE.  The rest is closed under out-edges and holds every trap, and
    the forward-backward search finds its sink SCCs (:func:`_trap_search`).
    The rest holds no PNE, so no such sink is a single vertex; sizes 2 and
    3 are impossible (bipartiteness) and asserted absent.

    The number of spread rounds is bounded by the longest shortest path to
    a PNE, so random media settle in a handful, while crafted snake-like
    tables stay correct but cost more rounds.  The time budget
    (:func:`nashwalk.parallel.time_budget`) is checked before every round
    and every search iteration, and raises TimeBudgetExceeded once spent.
    """
    n = medium.n_players
    size = 1 << n
    lo, hi = rows = _split_rows(medium)
    pne_words = ~(np.bitwise_or.reduce(lo, axis=0) | np.bitwise_or.reduce(hi, axis=0))
    if n < 6:
        pne_words &= np.uint64((1 << size) - 1)  # `~` set the padding bits
    pne_mask = _unpack(pne_words, size)

    rest_mask = ~_unpack(_reach_back(*rows, pne_words), size)
    traps = _trap_search(medium, rows, rest_mask)
    trap_mask = np.zeros(size, dtype=bool)
    if traps:
        trap_mask[np.concatenate(traps)] = True

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
