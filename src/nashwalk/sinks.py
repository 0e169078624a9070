"""Pure equilibria, traps, and absorbing structure of a medium.

A vertex is a pure Nash equilibrium (PNE) exactly when it has no outgoing
oriented edge.  A trap is a sink strongly-connected component of the oriented
graph with at least two vertices; tie edges are not traversable.  The cube is
bipartite, so oriented cycles have even length >= 4 and a sink SCC can never
have size 2 or 3 — that is asserted, not filtered.

Traps are closed and hold no PNE, so every trap lies in the set of vertices
that cannot reach a PNE, and that set is itself closed under out-edges.
:func:`sink_components` therefore finds the vertices that reach a PNE first,
on packed bitsets, and runs the SCC only on the closed remainder (the
reachability-then-SCC pruning of Fleischer, Hendrickson & Pinar, "On
identifying strongly connected components in parallel", 2000).  Typical
media leave a small remainder or none.

Bitsets.  A per-vertex bool array packs into little-endian uint64 words,
vertex v at bit ``v % 64`` of word ``v // 64`` (one word, zero-padded, for
n < 6).  Crossing axis ``i < 6`` swaps bits within each word: a shift by
``2^i`` under a constant mask.  Crossing axis ``i >= 6`` swaps whole words,
and the word array viewed through :func:`axis_view` along ``i - 6`` lines
each word up with its partner.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .errors import AlphaOutOfRange
from .medium import DOWN, UP, Medium, Vertex, axis_view, default_closure_budget, neighbors


@dataclass
class SinkAnalysis:
    """Full absorbing-structure decomposition of an exhaustive medium.

    ``scc_id`` (component index per vertex) is computed on first access by
    one SCC over the whole oriented graph; nothing on the hot path reads it.
    """

    n_players: int
    alpha: float
    seed: int
    pnes: list[int]
    traps: list[list[int]]
    pne_mask: np.ndarray  # bool per vertex
    trap_mask: np.ndarray  # bool per vertex
    medium: Medium = field(repr=False, compare=False)

    @functools.cached_property
    def scc_id(self) -> np.ndarray:
        return _whole_graph_scc(self.medium)[0]

    @property
    def pne_count(self) -> int:
        return len(self.pnes)

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
    return [int(v) for v in np.nonzero(out_deg == 0)[0]]


def expected_pne_count(n: int, alpha: float) -> float:
    """Mean number of PNEs: (1 + alpha)^n.

    A vertex is a PNE when each of its n edges is a tie or points into it,
    which happens with probability ((1 + alpha)/2)^n since edges are
    independent; summing over the 2^n vertices gives the mean.
    """
    if not (0.0 <= alpha < 1.0):
        raise AlphaOutOfRange(f"alpha must be in [0, 1), got {alpha}")
    return (1.0 + alpha) ** n


def _sink_sccs(
    src: np.ndarray, dst: np.ndarray, size: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(labels, comp_sizes, is_sink) of scipy's SCC of the graph src -> dst
    on `size` vertices; a component is a sink when no edge leaves it."""
    graph = csr_matrix(
        (np.ones(src.size, dtype=np.int8), (src, dst)), shape=(size, size)
    )
    n_comp, labels = connected_components(graph, directed=True, connection="strong")
    comp_sizes = np.bincount(labels, minlength=n_comp)
    is_sink = np.ones(n_comp, dtype=bool)
    is_sink[labels[src[labels[src] != labels[dst]]]] = False
    return labels, comp_sizes, is_sink


def _whole_graph_scc(medium: Medium) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(scc_id, pne_mask, trap_mask) from one SCC over every oriented edge of
    the cube.  Backs the lazy ``SinkAnalysis.scc_id``, and is the tests'
    oracle for :func:`sink_components`."""
    src, dst = medium.oriented_edge_arrays()
    labels, comp_sizes, is_sink = _sink_sccs(src, dst, 1 << medium.n_players)
    pne_comp = is_sink & (comp_sizes == 1)
    trap_comp = is_sink & (comp_sizes >= 2)
    return labels, pne_comp[labels], trap_comp[labels]


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
    out of v."""
    n = medium.n_players
    buf = np.empty(1 << n, dtype=bool)
    rows = []
    for axis in range(n):
        block = medium.axis_block(axis)
        view = axis_view(buf, axis)
        np.equal(block, UP, out=view[:, 0, :])
        np.equal(block, DOWN, out=view[:, 1, :])
        rows.append(_pack(buf))
    return np.stack(rows)


def _reach_back(out_words: np.ndarray, seed: np.ndarray) -> tuple[np.ndarray, int]:
    """Every vertex with an oriented path into `seed`, and the round count.

    One round sweeps the axes in order, adding each vertex whose axis edge
    points out of it into an already reached partner; rounds repeat until
    one adds nothing.  Updates within a round are seen by later axes, so the
    round count is at most one more than the longest shortest path to the
    seed.
    """
    reach = seed.copy()
    rounds = 0
    while True:
        before = reach.copy()
        for axis, out in enumerate(out_words):
            if axis < 6:
                low, shift = _LOW_HALVES[axis], _SHIFTS[axis]
                partner = ((reach & low) << shift) | ((reach >> shift) & low)
                reach |= partner & out
            else:
                r = axis_view(reach, axis - 6)
                o = axis_view(out, axis - 6)
                r[:, 0, :] |= r[:, 1, :] & o[:, 0, :]
                r[:, 1, :] |= r[:, 0, :] & o[:, 1, :]
        rounds += 1
        if np.array_equal(before, reach):
            return reach, rounds


def backward_reach(medium: Medium, targets: np.ndarray) -> np.ndarray:
    """Per-vertex bool mask of every vertex with an oriented path into the
    vertices set in the per-vertex bool mask `targets` (those included),
    spread on packed out-edge bitsets as in :func:`sink_components`."""
    reach, _ = _reach_back(_out_words(medium), _pack(targets))
    return _unpack(reach, 1 << medium.n_players)


def _remainder_edges(medium: Medium, rest: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Out-edges of the vertices `rest` (ascending) as local (src, dst)
    indices into `rest`, read from the table axis by axis.  Asserts that
    `rest` is closed: every out-neighbour has a local index."""
    n = medium.n_players
    local = np.full(1 << n, -1, dtype=np.int64)
    local[rest] = np.arange(rest.size)
    srcs: list[np.ndarray] = []
    dsts: list[np.ndarray] = []
    for axis in range(n):
        bit = 1 << axis
        # squeeze_bit(v, axis): v's edge's position in the axis block
        codes = medium.axis_block(axis).ravel()[
            (rest & (bit - 1)) | ((rest >> (axis + 1)) << axis)
        ]
        upper = (rest & bit) != 0
        out = np.where(upper, codes == DOWN, codes == UP)
        src = np.flatnonzero(out)
        srcs.append(src)
        dsts.append(local[rest[src] ^ bit])
    src, dst = np.concatenate(srcs), np.concatenate(dsts)
    assert (dst >= 0).all(), "the vertices reaching no PNE are not closed"
    return src, dst


def sink_components(medium: Medium) -> SinkAnalysis:
    """Find the PNEs and the traps (sink SCCs of size >= 4) of the medium.

    The PNEs are the out-degree-0 vertices of ``degrees()``.  Packed per-axis
    out-edge bitsets then spread that set backwards along oriented edges
    until it stops growing: the result is every vertex that can reach a
    PNE.  The rest is closed under out-edges and holds every trap, so
    scipy's SCC runs on the rest's out-edges alone, and its sink components
    are the traps.  The rest holds no PNE, so no such sink is a single
    vertex; sizes 2 and 3 are impossible (bipartiteness) and asserted
    absent.

    The number of rounds is bounded by the longest shortest path to a PNE,
    so random media settle in a handful, while crafted snake-like tables
    stay correct but cost more rounds.
    """
    n = medium.n_players
    size = 1 << n
    out_deg, _, _ = medium.degrees()
    pne_mask = out_deg == 0
    out_words = _out_words(medium)
    # Cross-check: no out-bit on any axis is exactly out-degree 0.
    no_out = ~np.bitwise_or.reduce(out_words, axis=0)
    assert np.array_equal(_unpack(no_out, size), pne_mask)

    reach, _ = _reach_back(out_words, _pack(pne_mask))
    rest = np.flatnonzero(~_unpack(reach, size))
    trap_mask = np.zeros(size, dtype=bool)
    traps: list[list[int]] = []
    if rest.size:
        labels, comp_sizes, is_sink = _sink_sccs(
            *_remainder_edges(medium, rest), rest.size
        )
        bad = np.nonzero(is_sink & (comp_sizes < 4))[0]
        assert bad.size == 0, (
            f"sink SCCs of size {comp_sizes[bad].tolist()} violate bipartiteness"
        )
        in_trap = np.flatnonzero(is_sink[labels])
        trap_mask[rest[in_trap]] = True
        # members ascend within a trap since `rest` ascends
        order = np.argsort(labels[in_trap], kind="stable")
        members = rest[in_trap[order]]
        ends = np.cumsum(comp_sizes[is_sink])[:-1]
        traps = sorted((t.tolist() for t in np.split(members, ends)), key=lambda t: t[0])

    return SinkAnalysis(
        n_players=n,
        alpha=medium.params.alpha,
        seed=medium.params.seed,
        pnes=np.flatnonzero(pne_mask).tolist(),
        traps=traps,
        pne_mask=pne_mask,
        trap_mask=trap_mask,
        medium=medium,
    )


CLOSED = "closed"
BUDGET_EXCEEDED = "budget_exceeded"
PNE_REACHED = "pne_reached"


@dataclass
class ClosureResult:
    """Outcome of a budgeted forward closure.

    status is CLOSED when ``visited`` is the whole forward closure,
    BUDGET_EXCEEDED when the search stopped at the budget (``visited`` is
    then a partial set), and PNE_REACHED when a ``stop_at_pne`` search
    stopped at its first PNE (``visited`` is partial, ``contains_pne`` True).
    """

    status: str  # CLOSED, BUDGET_EXCEEDED or PNE_REACHED
    visited: set[int]
    contains_pne: bool


def forward_closure(
    medium: Medium, v: Vertex, budget: int | None = None, *, stop_at_pne: bool = False
) -> ClosureResult:
    """DFS along oriented out-edges from v, capped at `budget` visited vertices.

    Works in either storage mode; the default budget is 2^min(n, 16).  With
    `stop_at_pne`, a search whose budget covers the whole cube (so it can
    never overrun) stops at the first PNE it pops and reports PNE_REACHED;
    with a smaller budget the flag changes nothing, since a closure that
    would overrun must still say so.
    """
    if budget is None:
        budget = default_closure_budget(medium.n_players)
    stop_at_pne = stop_at_pne and budget >= 1 << medium.n_players
    visited = {v}
    queue = [v]
    contains_pne = False
    exceeded = False
    while queue:
        u = queue.pop()
        out_bits = medium.row(u)[0]
        if not out_bits:
            if stop_at_pne:
                return ClosureResult(PNE_REACHED, visited, True)
            contains_pne = True
            continue
        for w in neighbors(u, out_bits):
            if w not in visited:
                if len(visited) >= budget:
                    exceeded = True
                    queue.clear()
                    break
                visited.add(w)
                queue.append(w)
    status = BUDGET_EXCEEDED if exceeded else CLOSED
    return ClosureResult(status, visited, contains_pne)


class VertexClass(str, Enum):
    PNE = "pne"
    IN_TRAP = "in_trap"
    DOOMED = "doomed"
    TRANSIENT = "transient"
    UNKNOWN = "unknown"


def classify_vertex(medium: Medium, v: Vertex, budget: int | None = None) -> VertexClass:
    """Classify v by its forward closure, without a global decomposition.

    Pne: no out-edge.  InTrap: closed, PNE-free closure whose every member
    reaches v (so the closure is strongly connected).  Doomed: closed, PNE-free
    closure not strongly connected to v — best-response play from v must end in
    a trap.  Transient: closure contains a PNE.  Unknown: budget exceeded.

    One reachable PNE settles Transient (traps are closed and PNE-free), so
    when the budget covers the whole cube the closure stops at its first
    PNE.  A smaller budget explores in full, so a closure that overruns it
    stays Unknown even when a PNE lies inside.
    """
    if is_pne(medium, v):
        return VertexClass.PNE
    closure = forward_closure(medium, v, budget, stop_at_pne=True)
    if closure.status == BUDGET_EXCEEDED:
        return VertexClass.UNKNOWN
    if closure.contains_pne:
        return VertexClass.TRANSIENT
    members = closure.visited
    assert len(members) >= 2  # a non-PNE vertex has at least one out-neighbor
    # Does every member reach v?  Walk in-edges from v inside the closure;
    # paths from members cannot leave a closed set, so this is exact.
    seen = {v}
    queue = [v]
    while queue:
        u = queue.pop()
        for w in neighbors(u, medium.row(u)[1]):
            if w in members and w not in seen:
                seen.add(w)
                queue.append(w)
    if len(seen) == len(members):
        assert not closure.contains_pne
        return VertexClass.IN_TRAP
    return VertexClass.DOOMED


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
