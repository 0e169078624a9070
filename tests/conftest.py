"""Shared fixtures: small hand-built games and orientation tables.

The two-player examples are small enough to verify by hand; the escape
cube is a three-player table built so that best-response walkers get
stuck in the bottom face while mixed walkers can climb out of it.
:func:`whole_graph_scc` is the SCC oracle for ``sinks.sink_components``;
scipy is a test dependency only.  :func:`eager_probe_walk` is the oracle for
``run_walk``'s lazy trap detection: it probes every first revisit.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from nashwalk.medium import DOWN, TIE, UP, Medium, PayoffGame, medium_from_payoffs
from nashwalk.rng import TAG_STEP, fold, mix64, unit_interval
from nashwalk.sinks import VertexClass, classify_vertex, forward_closure
from nashwalk.walkers import (
    TERMINAL_ABSORBED,
    TERMINAL_IN_TRAP,
    TERMINAL_STEP_CAP,
    TERMINAL_UNKNOWN,
    Policy,
    WalkConfig,
    WalkRecord,
    sample_categorical,
    step_distribution,
)

# Payoffs for a 2-player game whose best-response digraph points every
# edge toward vertex 0 (the unique pure equilibrium).
GAMMA2_PAYOFFS = np.array(
    [
        [0.322, 0.214, 0.469, 0.202],
        [0.412, 0.878, 0.233, 0.311],
    ]
)

# Matching-pennies payoffs: the four vertices form one directed cycle,
# so there is no pure equilibrium and the whole square is a trap.
CYCLIC2_PAYOFFS = np.array(
    [
        [0.0, 1.0, 1.0, 0.0],
        [1.0, 0.0, 0.0, 1.0],
    ]
)


@pytest.fixture
def gamma2_game() -> PayoffGame:
    return PayoffGame(2, GAMMA2_PAYOFFS.copy())


@pytest.fixture
def gamma2_medium(gamma2_game) -> Medium:
    return medium_from_payoffs(gamma2_game)


@pytest.fixture
def cyclic2_medium() -> Medium:
    return medium_from_payoffs(PayoffGame(2, CYCLIC2_PAYOFFS.copy()))


def make_all_tie(n: int) -> Medium:
    """Medium whose edges are all ties: every vertex is a sink."""
    table = np.zeros(n << (n - 1), dtype=np.int8)
    return Medium.from_orientation_table(n, table)


@pytest.fixture
def all_tie_medium() -> Medium:
    return make_all_tie(3)


@pytest.fixture
def escape_cube_medium() -> Medium:
    """3-cube: bottom face is a 4-cycle trap, top face drains into a PNE at 7.

    Axis-2 edges point down into the trap except 3-7, which is a tie.  A
    pure best-response walk started at 0 never leaves the bottom face; a
    walk that may also traverse in-edges can climb to vertex 7.
    """
    table = np.array(
        [
            UP, DOWN, UP, UP,        # axis 0: 0->1, 3->2, 4->5, 6->7
            DOWN, UP, UP, UP,        # axis 1: 2->0, 1->3, 4->6, 5->7
            DOWN, DOWN, DOWN, TIE,   # axis 2: 4->0, 5->1, 6->2, 3-7 tie
        ],
        dtype=np.int8,
    )
    return Medium.from_orientation_table(3, table)


def cube_from_edges(n: int, edges) -> Medium:
    """The n-cube with the oriented edges `edges`, (u, w) pairs one bit
    apart, every other edge a tie."""
    table = np.zeros(n << (n - 1), dtype=np.int8)
    half = 1 << (n - 1)
    for u, w in edges:
        axis = (u ^ w).bit_length() - 1
        base = min(u, w)
        squeezed = (base & ((1 << axis) - 1)) | ((base >> (axis + 1)) << axis)
        table[axis * half + squeezed] = UP if u == base else DOWN
    return Medium.from_orientation_table(n, table)


def snake_cube(n: int, loop: int = 0) -> Medium:
    """Gray-code Hamiltonian path g(0) -> g(1) -> ... -> g(2^n - 1), all
    other edges ties: one PNE at the end, 2^n - 1 steps from the start.

    With `loop` (a power of two, 4 <= loop <= 2^n), the end also points back
    to g(2^n - loop), one bit away, so the last `loop` vertices form the only
    trap, every other vertex is doomed to reach it, and there is no PNE.
    """
    last = (1 << n) - 1
    steps = [(i, i + 1) for i in range(last)]
    if loop:
        steps.append((last, last + 1 - loop))
    return cube_from_edges(n, [(i ^ (i >> 1), j ^ (j >> 1)) for i, j in steps])


def whole_graph_scc(medium: Medium) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(labels, pne_mask, trap_mask) from one scipy SCC over every oriented
    edge of the cube: the component index of each vertex, and whether that
    component is a sink of size 1 (a PNE) or of size >= 2 (a trap)."""
    src, dst = medium.oriented_edge_arrays()
    size = 1 << medium.n_players
    graph = csr_matrix(
        (np.ones(src.size, dtype=np.int8), (src, dst)), shape=(size, size)
    )
    n_comp, labels = connected_components(graph, directed=True, connection="strong")
    comp_sizes = np.bincount(labels, minlength=n_comp)
    is_sink = np.ones(n_comp, dtype=bool)
    is_sink[labels[src[labels[src] != labels[dst]]]] = False
    pne_comp = is_sink & (comp_sizes == 1)
    trap_comp = is_sink & (comp_sizes >= 2)
    return labels, pne_comp[labels], trap_comp[labels]


def eager_probe_walk(
    medium: Medium, policy: Policy, config: WalkConfig, trial: int = 0, budget: int | None = None
) -> WalkRecord:
    """Oracle for ``run_walk`` without a sink analysis: the eager rule, which
    probes every first revisit outside the traps found so far with a closure
    of `budget` (the default when None), whatever the policy."""
    n = medium.n_players
    max_steps = 1000 * n * n if config.max_steps is None else config.max_steps
    v = config.start
    path = [v]
    xi = None
    visits: dict[int, int] = {}
    trap_members: set[int] = set()
    budget_blind = False
    step_key = fold(config.walk_seed, TAG_STEP)
    for t in range(max_steps + 1):
        out_bits, in_bits = medium.row(v)
        if not out_bits:
            terminal = TERMINAL_ABSORBED
            break
        visits[v] = count = visits.get(v, 0) + 1
        if count == 2 and v not in trap_members:
            verdict = classify_vertex(medium, v, budget)
            if verdict == VertexClass.UNKNOWN:
                budget_blind = True
            elif verdict == VertexClass.IN_TRAP:
                members = forward_closure(medium, v).visited
                trap_members.update(members)
                if xi is None:
                    xi = next(i for i, x in enumerate(path) if x in members)
        if v in trap_members:
            if xi is None:
                xi = t
            if policy.brd_like or config.stop_at_trap:
                terminal = TERMINAL_IN_TRAP
                break
        if t == max_steps:
            terminal = TERMINAL_UNKNOWN if budget_blind else TERMINAL_STEP_CAP
            break
        dist = step_distribution(policy, medium, v)
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
