"""Pure equilibria, traps, and absorbing structure of a medium.

A vertex is a pure Nash equilibrium (PNE) exactly when it has no outgoing
oriented edge.  A trap is a sink strongly-connected component of the oriented
graph with at least two vertices; tie edges are not traversable.  The cube is
bipartite, so oriented cycles have even length >= 4 and a sink SCC can never
have size 2 or 3 — that is asserted, not filtered.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .errors import AlphaOutOfRange
from .medium import Medium, Vertex


@dataclass
class SinkAnalysis:
    """Full absorbing-structure decomposition of an exhaustive medium."""

    n_players: int
    alpha: float
    seed: int
    pnes: list[int]
    traps: list[list[int]]
    scc_id: np.ndarray  # component index per vertex
    pne_mask: np.ndarray  # bool per vertex
    trap_mask: np.ndarray  # bool per vertex

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
    return not medium.neighbor_partition(v).out


def enumerate_pnes(medium: Medium) -> list[int]:
    """All PNE vertices, ascending (exhaustive mode only)."""
    out_deg, _, _ = medium.degrees()
    return [int(v) for v in np.nonzero(out_deg == 0)[0]]


def expected_pne_count(n: int, alpha: float) -> float:
    """Mean number of PNEs: (1 + alpha)^n.

    Each vertex is a PNE with probability ((1 + alpha)/2)^n independently of
    nothing else needing to hold, and there are 2^n vertices.
    """
    if not (0.0 <= alpha < 1.0):
        raise AlphaOutOfRange(f"alpha must be in [0, 1), got {alpha}")
    return (1.0 + alpha) ** n


def sink_components(medium: Medium) -> SinkAnalysis:
    """Decompose the oriented graph into SCCs and classify the sinks.

    Sink SCCs of size 1 are exactly the PNEs; sink SCCs of size >= 4 are the
    traps.  Sizes 2 and 3 are impossible (bipartiteness) and asserted absent.
    """
    n = medium.n_players
    size = 1 << n
    src, dst = medium.oriented_edge_arrays()
    graph = csr_matrix(
        (np.ones(len(src), dtype=np.int8), (src, dst)), shape=(size, size)
    )
    n_comp, labels = connected_components(graph, directed=True, connection="strong")

    comp_sizes = np.bincount(labels, minlength=n_comp)
    is_sink = np.ones(n_comp, dtype=bool)
    cross = labels[src] != labels[dst]
    is_sink[labels[src[cross]]] = False

    pne_comp = is_sink & (comp_sizes == 1)
    trap_comp = is_sink & (comp_sizes >= 2)
    bad = np.nonzero(trap_comp & (comp_sizes < 4))[0]
    assert bad.size == 0, (
        f"sink SCCs of size {comp_sizes[bad].tolist()} violate bipartiteness"
    )

    pne_mask = pne_comp[labels]
    trap_mask = trap_comp[labels]

    # Cross-check: singleton sinks must be exactly the out-degree-0 vertices.
    out_deg, _, _ = medium.degrees()
    assert np.array_equal(pne_mask, out_deg == 0)

    traps: list[list[int]] = []
    for comp in np.nonzero(trap_comp)[0]:
        traps.append(np.nonzero(labels == comp)[0].tolist())
    traps.sort(key=lambda t: t[0])

    return SinkAnalysis(
        n_players=n,
        alpha=medium.params.alpha,
        seed=medium.params.seed,
        pnes=np.nonzero(pne_mask)[0].tolist(),
        traps=traps,
        scc_id=labels,
        pne_mask=pne_mask,
        trap_mask=trap_mask,
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

    Works in either storage mode.  Default budget is 2^min(n, 16).  With
    `stop_at_pne`, a search whose budget covers the whole cube (so it can
    never overrun) stops at the first PNE it pops and reports PNE_REACHED;
    with a smaller budget the flag changes nothing, since a closure that
    would overrun must still say so.
    """
    if budget is None:
        budget = 1 << min(medium.n_players, 16)
    stop_at_pne = stop_at_pne and budget >= 1 << medium.n_players
    visited = {v}
    queue = [v]
    contains_pne = False
    exceeded = False
    while queue:
        u = queue.pop()
        out = medium.neighbor_partition(u).out
        if not out:
            if stop_at_pne:
                return ClosureResult(PNE_REACHED, visited, True)
            contains_pne = True
            continue
        for w in out:
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
        for w in medium.neighbor_partition(u).inward:
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
