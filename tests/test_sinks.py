"""Tests for equilibrium enumeration, sink components, and vertex classification."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from nashwalk.errors import AlphaOutOfRange, TimeBudgetExceeded
from nashwalk.medium import (
    DOWN, MODE_EXHAUSTIVE, MODE_LAZY, TIE, UP, Medium, build_medium, neighbors,
)
from nashwalk.parallel import time_budget
from nashwalk.rng import fold, TAG_MEDIUM
from nashwalk.sinks import (
    _out_words, _pack, _reach_back, _remainder_edges, _sink_sccs,
)
from nashwalk.sinks import (
    BUDGET_EXCEEDED,
    CLOSED,
    PNE_REACHED,
    VertexClass,
    backward_reach,
    classify_vertex,
    enumerate_pnes,
    expected_pne_count,
    forward_closure,
    is_pne,
    m_beta,
    sink_components,
)

from conftest import make_all_tie, snake_cube, whole_graph_scc


def doomed_cube() -> Medium:
    """3-cube with all four vertex classes present.

    Bottom face is a 4-cycle trap; 7 is the unique PNE; 4 can only fall
    into the trap (doomed); 5 and 6 can still reach the PNE (transient).
    """
    table = np.array(
        [
            UP, DOWN, DOWN, UP,      # axis 0: 0->1, 3->2, 5->4, 6->7
            DOWN, UP, DOWN, UP,      # axis 1: 2->0, 1->3, 6->4, 5->7
            DOWN, DOWN, DOWN, TIE,   # axis 2: 4->0, 5->1, 6->2, 3-7 tie
        ],
        dtype=np.int8,
    )
    return Medium.from_orientation_table(3, table)


# ---------------------------------------------------------------------------
# PNEs


def test_is_pne_gamma2(gamma2_medium):
    assert is_pne(gamma2_medium, 0)
    for v in (1, 2, 3):
        assert not is_pne(gamma2_medium, v)


def test_enumerate_pnes_gamma2(gamma2_medium):
    assert enumerate_pnes(gamma2_medium) == [0]


def test_all_tie_everything_is_pne():
    med = make_all_tie(4)
    analysis = sink_components(med)
    assert analysis.pnes == list(range(16))
    assert analysis.traps == []
    assert analysis.pne_mask.all()
    assert not analysis.trap_mask.any()


def test_pnes_match_payoff_inequalities(gamma2_game, gamma2_medium):
    # A vertex is a PNE iff no player can strictly improve by flipping.
    payoffs = gamma2_game.payoffs
    for v in range(4):
        improvable = any(payoffs[i, v ^ (1 << i)] > payoffs[i, v] for i in range(2))
        assert is_pne(gamma2_medium, v) == (not improvable)


def test_expected_pne_count_values():
    assert expected_pne_count(4, 0.0) == 1.0
    assert expected_pne_count(15, 0.5) == 437.893890380859375  # 1.5 ** 15
    assert expected_pne_count(2, 0.9) == pytest.approx(1.9**2)
    with pytest.raises(AlphaOutOfRange):
        expected_pne_count(4, -0.01)
    with pytest.raises(AlphaOutOfRange):
        expected_pne_count(4, 1.0)


def test_empirical_pne_count_tracks_expectation():
    n, alpha, runs = 8, 0.5, 400
    counts = []
    for i in range(runs):
        med = build_medium(n, alpha, fold(200, TAG_MEDIUM, i))
        counts.append(sink_components(med).pne_count)
    mean = sum(counts) / runs
    expected = expected_pne_count(n, alpha)
    se = np.std(counts, ddof=1) / math.sqrt(runs)
    assert abs(mean - expected) < 4 * se


# ---------------------------------------------------------------------------
# sink components and traps


def test_cyclic_square_is_one_trap(cyclic2_medium):
    analysis = sink_components(cyclic2_medium)
    assert analysis.pnes == []
    assert analysis.traps == [[0, 1, 2, 3]]
    assert analysis.trap_mask.all()


def test_traps_never_smaller_than_four():
    for i in range(50):
        med = build_medium(6, 0.7, fold(808, TAG_MEDIUM, i))
        for trap in sink_components(med).traps:
            assert len(trap) >= 4


def test_trap_mask_matches_trap_lists():
    med = build_medium(8, 0.8, 4321)
    analysis = sink_components(med)
    union = sorted(v for trap in analysis.traps for v in trap)
    assert union == sorted(np.flatnonzero(analysis.trap_mask).tolist())
    # Traps are reported sorted by their smallest member.
    mins = [t[0] for t in analysis.traps]
    assert mins == sorted(mins)


def closure_sets(medium: Medium):
    """Forward-reachable set for every vertex, by plain BFS."""
    size = 1 << medium.n_players
    outs = [medium.neighbor_partition(v).out for v in range(size)]
    sets = []
    for v in range(size):
        seen = {v}
        stack = [v]
        while stack:
            u = stack.pop()
            for w in outs[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        sets.append(seen)
    return sets


def oracle_sink_structure(medium: Medium):
    """Sink components computed from scratch via mutual reachability."""
    size = 1 << medium.n_players
    closures = closure_sets(medium)
    pnes = [v for v in range(size) if len(medium.neighbor_partition(v).out) == 0]
    pne_set = set(pnes)
    trap_vertices = set()
    for v in range(size):
        if v in pne_set:
            continue
        c = closures[v]
        if c & pne_set:
            continue
        if all(v in closures[u] for u in c):
            trap_vertices.add(v)
    groups = {}
    for v in trap_vertices:
        groups.setdefault(frozenset(closures[v]), []).append(v)
    traps = sorted((sorted(g) for g in groups.values()), key=lambda t: t[0])
    return pnes, traps


@pytest.mark.parametrize("alpha,seed", [(0.5, 11), (0.8, 12), (0.8, 13), (0.95, 14)])
def test_sink_components_match_reachability_oracle(alpha, seed):
    med = build_medium(8, alpha, seed)
    analysis = sink_components(med)
    pnes, traps = oracle_sink_structure(med)
    assert analysis.pnes == pnes
    assert analysis.traps == traps


def check_against_scc_oracle(med: Medium):
    """sink_components agrees with one SCC over the whole oriented graph."""
    analysis = sink_components(med)
    labels, pne_mask, trap_mask = whole_graph_scc(med)
    assert np.array_equal(analysis.pne_mask, pne_mask)
    # the PNEs read off the packed bitsets are the out-degree-0 vertices
    assert np.array_equal(analysis.pne_mask, med.degrees()[0] == 0)
    assert np.array_equal(analysis.trap_mask, trap_mask)
    assert analysis.pnes == np.flatnonzero(pne_mask).tolist()
    groups = {}
    for v in np.flatnonzero(trap_mask).tolist():
        groups.setdefault(int(labels[v]), []).append(v)
    assert analysis.traps == sorted(groups.values(), key=lambda t: t[0])
    return analysis


def random_table(n: int, weights, seed: int) -> Medium:
    rng = np.random.default_rng(seed)
    return Medium.from_orientation_table(n, rng.choice(3, n << (n - 1), p=weights))


# Derandomized so the example set, and with it the run time, stays fixed.
@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    st.sampled_from(range(1, 11)),
    st.one_of(
        st.tuples(st.just("hashed"), st.sampled_from((0.0, 0.1, 0.3, 0.5, 0.9))),
        st.tuples(st.just("table"), st.sampled_from(
            ((1 / 3, 1 / 3, 1 / 3), (0.0, 0.5, 0.5), (0.6, 0.2, 0.2), (0.1, 0.8, 0.1))
        )),
    ),
    st.integers(min_value=0, max_value=2**64 - 1),
)
def test_sink_components_match_whole_graph_scc(n, source, seed):
    kind, param = source
    if kind == "hashed":
        med = build_medium(n, param, seed)
    else:
        med = random_table(n, param, seed)
    check_against_scc_oracle(med)
    if n <= 6:
        # the oracle's labels group exactly the mutually reachable vertices
        labels = whole_graph_scc(med)[0]
        closures = closure_sets(med)
        for u in range(1 << n):
            for w in closures[u]:
                same = u in closures[w]
                assert (labels[u] == labels[w]) == same


def test_no_pne_cube_leaves_the_whole_cube_to_the_scc():
    # n=8, alpha=0, seed 0 has no PNE: nothing reaches one, so the
    # remainder the SCC runs on is the whole cube.
    med = build_medium(8, 0.0, 0)
    assert enumerate_pnes(med) == []
    reach, rounds = _reach_back(_out_words(med), _pack(np.zeros(256, dtype=bool)))
    assert not reach.any() and rounds == 1
    # with every vertex left, local indices are vertices: the remainder's
    # edges read from the bitsets are the whole cube's oriented edges
    src, dst = _remainder_edges(_out_words(med), np.arange(256))
    want_src, want_dst = med.oriented_edge_arrays()
    assert len(src) == len(want_src)
    assert set(zip(src.tolist(), dst.tolist())) == set(zip(want_src.tolist(), want_dst.tolist()))
    analysis = check_against_scc_oracle(med)
    assert analysis.pnes == [] and analysis.traps
    assert analysis.trap_mask.sum() == sum(map(len, analysis.traps))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_cubes_below_64_vertices_fit_one_word(n):
    for i in range(40):
        alpha = (0.0, 0.3, 0.8)[i % 3]
        med = build_medium(n, alpha, fold(606, TAG_MEDIUM, i))
        assert _out_words(med).shape == (n, 1)
        check_against_scc_oracle(med)
        check_against_scc_oracle(random_table(n, (1 / 3, 1 / 3, 1 / 3), i))


@pytest.mark.parametrize("n", [3, 6, 9])
def test_snake_needs_many_rounds_and_still_matches(n):
    med = snake_cube(n)
    last = (1 << n) - 1
    pne = last ^ (last >> 1)  # g(2^n - 1)
    assert enumerate_pnes(med) == [pne]
    reach, rounds = _reach_back(_out_words(med), _pack(np.arange(1 << n) == pne))
    assert rounds > (1 << n) // 4  # a random medium settles in under ten
    analysis = check_against_scc_oracle(med)
    assert analysis.pnes == [pne] and analysis.traps == []


@pytest.mark.parametrize("n,seed", [(11, 1), (12, 2), (13, 2)])
def test_no_pne_whole_cube_media_match_the_oracle(n, seed):
    # alpha=0 media with no PNE: the trap search runs on the whole cube,
    # which holds one trap and a few vertices doomed to fall into it
    med = build_medium(n, 0.0, seed)
    analysis = check_against_scc_oracle(med)
    assert analysis.pnes == [] and len(analysis.traps) == 1
    assert 0 < len(analysis.traps[0]) < 1 << n


@pytest.mark.parametrize("n,loop", [(3, 4), (3, 8), (6, 4), (6, 64), (9, 4), (9, 16), (9, 512)])
def test_snake_into_a_trap_matches_the_oracle(n, loop):
    # every vertex reaches the trap only along the snake, so the trap
    # search's minima travel the whole path
    analysis = check_against_scc_oracle(snake_cube(n, loop))
    last = 1 << n
    assert analysis.pnes == []
    assert analysis.traps == [sorted(i ^ (i >> 1) for i in range(last - loop, last))]


def test_the_trap_search_is_a_sink_scc_search():
    # 0 <-> 1 -> 2 <-> 3 and 4 -> 5 <-> 6: {2, 3} and {5, 6} are the sink
    # SCCs with smallest members 2 and 5; 0, 1 and 4 reach them
    src = np.array([0, 1, 1, 2, 3, 4, 5, 6])
    dst = np.array([1, 0, 2, 3, 2, 5, 6, 5])
    assert _sink_sccs(src, dst, 7).tolist() == [-1, -1, 2, 2, -1, 5, 5]


def test_an_exceeded_deadline_stops_the_sink_analysis():
    # the snake takes seconds at n=16 and a minute at n=18: the deadline is
    # checked between reach rounds, not only once the analysis is done
    with time_budget(-1), pytest.raises(TimeBudgetExceeded):
        sink_components(snake_cube(12))


def reverse_bfs(medium: Medium, targets: np.ndarray) -> np.ndarray:
    """Every vertex with an oriented path into `targets`, by plain BFS over
    in-edges (``row(v)[1]``)."""
    seen = targets.copy()
    queue = np.flatnonzero(targets).tolist()
    while queue:
        u = queue.pop()
        for w in neighbors(u, medium.row(u)[1]):
            if not seen[w]:
                seen[w] = True
                queue.append(w)
    return seen


# Derandomized so the example set, and with it the run time, stays fixed.
# n < 6 packs into one padded word, n = 6 fills one word, n > 6 crosses
# words through axis views.
@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    st.sampled_from(range(1, 11)),
    st.one_of(
        st.tuples(st.just("hashed"), st.sampled_from((0.0, 0.5, 0.9))),
        st.tuples(st.just("table"), st.sampled_from(
            ((1 / 3, 1 / 3, 1 / 3), (0.0, 0.5, 0.5), (0.1, 0.8, 0.1))
        )),
    ),
    st.integers(min_value=0, max_value=2**64 - 1),
    st.sampled_from((0.0, 0.001, 0.05, 0.5)),
)
def test_backward_reach_matches_reverse_bfs(n, source, seed, density):
    kind, param = source
    if kind == "hashed":
        med = build_medium(n, param, seed)
    else:
        med = random_table(n, param, seed)
    targets = np.random.default_rng(seed).random(1 << n) < density
    assert np.array_equal(backward_reach(med, targets), reverse_bfs(med, targets))


def test_fixture_sink_structures(cyclic2_medium, gamma2_medium, escape_cube_medium):
    cyclic = check_against_scc_oracle(cyclic2_medium)
    assert (cyclic.pnes, cyclic.traps) == ([], [[0, 1, 2, 3]])
    gamma = check_against_scc_oracle(gamma2_medium)
    assert (gamma.pnes, gamma.traps) == ([0], [])
    assert not gamma.trap_mask.any()
    escape = check_against_scc_oracle(escape_cube_medium)
    assert (escape.pnes, escape.traps) == ([7], [[0, 1, 2, 3]])
    assert escape.trap_mask.tolist() == [True] * 4 + [False] * 4


def test_analysis_serializes_to_sorted_json(cyclic2_medium):
    analysis = sink_components(cyclic2_medium)
    payload = json.loads(analysis.to_json())
    assert payload["pne_count"] == 0
    assert payload["traps"] == [[0, 1, 2, 3]]
    assert list(payload) == sorted(payload)


def test_analyses_compare_by_their_sinks():
    # The generated __eq__ used to compare the per-vertex masks elementwise
    # and raise ValueError; the masks hold the same facts as pnes and traps.
    med = build_medium(8, 0.5, 4)
    assert sink_components(med) == sink_components(build_medium(8, 0.5, 4))
    assert sink_components(med) != sink_components(build_medium(8, 0.5, 5))
    table = np.zeros(4, dtype=np.int8)
    table[0] = UP  # 0 -> 1: vertex 0 stops being a PNE
    one_fewer = sink_components(Medium.from_orientation_table(2, table))
    all_tie = sink_components(make_all_tie(2))
    assert all_tie.pne_count == one_fewer.pne_count + 1
    assert all_tie != one_fewer


# ---------------------------------------------------------------------------
# forward closure and classification


def test_forward_closure_gamma2(gamma2_medium):
    res = forward_closure(gamma2_medium, 3)
    assert res.status == CLOSED
    assert res.visited == {0, 1, 2, 3}
    assert res.contains_pne


def test_forward_closure_budget(cyclic2_medium):
    tight = forward_closure(cyclic2_medium, 0, budget=3)
    assert tight.status == BUDGET_EXCEEDED
    done = forward_closure(cyclic2_medium, 0, budget=4)
    assert done.status == CLOSED
    assert done.visited == {0, 1, 2, 3}
    assert not done.contains_pne


def test_classify_vertex_all_classes():
    med = doomed_cube()
    got = {v: classify_vertex(med, v) for v in range(8)}
    assert got[7] == VertexClass.PNE
    for v in (0, 1, 2, 3):
        assert got[v] == VertexClass.IN_TRAP
    assert got[4] == VertexClass.DOOMED
    assert got[5] == VertexClass.TRANSIENT
    assert got[6] == VertexClass.TRANSIENT


def test_classify_vertex_unknown_under_tiny_budget(cyclic2_medium):
    assert classify_vertex(cyclic2_medium, 0, budget=3) == VertexClass.UNKNOWN


def oracle_classify(medium: Medium, closures, pne_set, v):
    if len(medium.neighbor_partition(v).out) == 0:
        return VertexClass.PNE
    c = closures[v]
    if c & pne_set:
        return VertexClass.TRANSIENT
    if all(v in closures[u] for u in c):
        return VertexClass.IN_TRAP
    return VertexClass.DOOMED


@pytest.mark.parametrize("seed", [21, 22, 23])
def test_classify_vertex_matches_oracle(seed):
    med = build_medium(7, 0.8, seed)
    closures = closure_sets(med)
    pne_set = set(enumerate_pnes(med))
    for v in range(1 << 7):
        assert classify_vertex(med, v) == oracle_classify(med, closures, pne_set, v)



# Derandomized: one n=9, alpha=0 exhaustive example can cost seconds (full
# closures from most vertices), so a fixed example set keeps the time steady.
@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.integers(min_value=1, max_value=9),
    st.sampled_from((0.0, 0.3, 0.8)),
    st.integers(min_value=0, max_value=2**64 - 1),
    st.sampled_from((MODE_EXHAUSTIVE, MODE_LAZY)),
)
def test_early_pne_exit_keeps_every_verdict(n, alpha, seed, mode):
    # A probe whose budget covers the cube stops at its first PNE; one
    # budget short of the cube it explores in full and may say UNKNOWN.
    med = build_medium(n, alpha, seed, mode)
    closures = closure_sets(med)
    pne_set = {v for v in range(1 << n) if not med.neighbor_partition(v).out}
    short = (1 << n) - 1
    for v in range(1 << n):
        want = oracle_classify(med, closures, pne_set, v)
        assert classify_vertex(med, v) == want
        assert classify_vertex(med, v, short) in (want, VertexClass.UNKNOWN)

        full = forward_closure(med, v)
        assert full.status == CLOSED
        assert full.visited == closures[v]
        assert full.contains_pne == bool(closures[v] & pne_set)

        early = forward_closure(med, v, stop_at_pne=True)
        if full.contains_pne:
            assert early.status == PNE_REACHED and early.contains_pne
            assert early.visited & pne_set and early.visited <= closures[v]
        else:
            assert early == full
        # below the cube the flag changes nothing: full closure or overrun
        capped = forward_closure(med, v, short, stop_at_pne=True)
        if len(closures[v]) <= short:
            assert capped == full
        else:
            assert capped.status == BUDGET_EXCEEDED


# ---------------------------------------------------------------------------
# survival horizon


def test_m_beta_pinned_values():
    assert m_beta(0.0) == 1
    assert m_beta(0.5) == 2
    assert m_beta(0.9) == 13


@given(st.floats(min_value=0.01, max_value=0.97))
def test_m_beta_is_the_largest_half_life_exponent(alpha):
    beta = (1 - alpha) / 2
    exact = 1.0 / -math.log2(1 - beta)
    assume(abs(exact - round(exact)) > 1e-9)  # stay away from knife edges
    m = m_beta(alpha)
    assert m == math.floor(exact)
    assert (1 - beta) ** m >= 0.5 > (1 - beta) ** (m + 1)
