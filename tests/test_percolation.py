"""Tests for bond percolation sampling and the growth coupling."""

from __future__ import annotations

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, connected_components

from nashwalk.errors import (
    AxisOutOfRange,
    BetaOutOfRange,
    DimensionTooLarge,
    EmptyTrialCount,
    IncompleteTable,
    NonCanonicalEdge,
    SeedCollision,
)
from nashwalk.medium import (
    DOWN, MODE_LAZY, Medium, MediumParams, build_medium, edge_index, neighbor_partition,
    squeeze_bit, trial_medium,
)
from nashwalk.percolation import (
    PercolationGraph,
    _component_labels,
    check_lemma_finally,
    connected_component,
    coupling_run,
    coupling_trial,
    fragment_stats,
    largest_component,
    reverse_accessible_from_zero,
    sample_percolation,
)
from nashwalk.rng import fold, threshold, TAG_MEDIUM, TAG_PERC

from conftest import make_all_tie


# ---------------------------------------------------------------------------
# sampling


def test_sampling_is_deterministic():
    a = sample_percolation(8, 0.3, 42)
    b = sample_percolation(8, 0.3, 42)
    c = sample_percolation(8, 0.3, 43)
    assert np.array_equal(a.open_edges, b.open_edges)
    assert not np.array_equal(a.open_edges, c.open_edges)
    assert a.beta == 0.3 and a.seed == 42


@given(
    st.integers(1, 10),
    st.sampled_from((0.05, 0.25, 0.5, 0.75)),
    st.one_of(st.sampled_from((0, 2**64 - 1)), st.integers(0, 2**64 - 1)),
)
def test_sampling_matches_scalar_fold(n, beta, seed):
    # Long-hand oracle for the vectorized hashing: edge (base, axis) is open
    # iff the scalar fold(seed, "perc", base, axis) falls below beta's threshold.
    open_edges = sample_percolation(n, beta, seed).open_edges
    t = threshold(beta)
    for axis in range(n):
        for base in range(1 << n):
            if not base >> axis & 1:
                expect = fold(seed, TAG_PERC, base, axis) < t
                assert open_edges[edge_index(base, axis, n)] == expect, (base, axis)


def test_sampling_marginal():
    total = opened = 0
    for i in range(500):
        g = sample_percolation(9, 0.3, fold(5, TAG_PERC, i))
        opened += int(g.open_edges.sum())
        total += g.open_edges.size
    se = math.sqrt(0.3 * 0.7 / total)
    assert abs(opened / total - 0.3) < 3 * se


def test_open_sets_nest_as_beta_grows():
    # Same seed, larger beta: strictly more edges can only open, never close.
    lo = sample_percolation(8, 0.2, 77)
    hi = sample_percolation(8, 0.6, 77)
    assert (hi.open_edges | lo.open_edges).sum() == hi.open_edges.sum()
    assert (lo.open_edges & ~hi.open_edges).sum() == 0


def test_sampling_validation():
    with pytest.raises(BetaOutOfRange):
        sample_percolation(4, 0.0, 1)
    with pytest.raises(BetaOutOfRange):
        sample_percolation(4, 1.0, 1)
    with pytest.raises(DimensionTooLarge):
        sample_percolation(25, 0.5, 1)


def test_percolations_compare_by_value():
    # The generated __eq__ used to compare the open-edge arrays elementwise
    # and raise ValueError.
    a = sample_percolation(6, 0.3, 1)
    assert a == sample_percolation(6, 0.3, 1)
    assert a != sample_percolation(6, 0.3, 2)
    assert a != sample_percolation(6, 0.4, 1)
    flipped = a.open_edges.copy()
    flipped[5] = not flipped[5]
    assert a != PercolationGraph(6, flipped, a.beta, a.seed)
    assert a != PercolationGraph(6, a.open_edges, a.beta, None)


def test_vertex_and_axis_are_checked():
    # A vertex outside the cube used to read another axis's edge (is_open)
    # or raise a bare IndexError (connected_component).
    g = sample_percolation(4, 0.5, 3)
    for v in (-1, 16, 1 << 40):
        with pytest.raises(NonCanonicalEdge, match=f"vertex {v} outside"):
            g.is_open(v, 0)
        with pytest.raises(NonCanonicalEdge, match=f"vertex {v} outside"):
            connected_component(g, v)
    with pytest.raises(NonCanonicalEdge, match="is not an integer"):
        connected_component(g, 1.0)
    for axis in (-1, 4):
        with pytest.raises(AxisOutOfRange):
            g.is_open(0, axis)
    # either endpoint names the same edge
    for v in range(16):
        for axis in range(4):
            assert g.is_open(v, axis) == g.is_open(v ^ (1 << axis), axis)


# ---------------------------------------------------------------------------
# components


def union_find_components(g: PercolationGraph):
    """Independent component labelling via union-find."""
    parent = list(range(1 << g.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for v in range(1 << g.n):
        for axis in range(g.n):
            if (v >> axis) & 1:
                continue
            if g.is_open(v, axis):
                a, b = find(v), find(v | (1 << axis))
                if a != b:
                    parent[a] = b
    groups = {}
    for v in range(1 << g.n):
        groups.setdefault(find(v), set()).add(v)
    return list(groups.values())


def test_connected_component_matches_union_find():
    g = sample_percolation(6, 0.4, 123)
    groups = union_find_components(g)
    by_vertex = {v: grp for grp in groups for v in grp}
    for v in (0, 17, 40, 63):
        assert connected_component(g, v) == by_vertex[v]
    # a numpy integer start reads like an int: every member is a Python int
    # (the start itself used to stay a numpy integer in the set)
    g = sample_percolation(6, 0.5, 3)
    for cast in (np.int64, np.uint64):
        component = connected_component(g, cast(5))
        assert component == connected_component(g, 5)
        assert {type(w) for w in component} == {int}


def open_edge_list(g: PercolationGraph) -> tuple[np.ndarray, np.ndarray]:
    """(src, dst) of every open edge, src the endpoint with the axis bit
    clear; an axis's table block lists its bases in ascending order."""
    vertices = np.arange(1 << g.n)
    half = 1 << (g.n - 1)
    srcs, dsts = [], []
    for axis in range(g.n):
        bases = vertices[(vertices >> axis) & 1 == 0]
        src = bases[g.open_edges[axis * half : (axis + 1) * half]]
        srcs.append(src)
        dsts.append(src | (1 << axis))
    return np.concatenate(srcs), np.concatenate(dsts)


# Derandomized so the example set, and with it the run time, stays fixed.
@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    st.integers(1, 12),
    st.sampled_from((0.02, 0.1, 0.25, 0.5, 0.9)),
    st.integers(0, 2**64 - 1),
)
def test_component_labels_match_scipy(n, beta, seed):
    g = sample_percolation(n, beta, seed)
    size = 1 << n
    src, dst = open_edge_list(g)
    graph = csr_matrix((np.ones(src.size, dtype=np.int8), (src, dst)), shape=(size, size))
    count, want = connected_components(graph, directed=False)
    smallest = np.full(count, size)
    np.minimum.at(smallest, want, np.arange(size))
    # the same partition, each label its component's smallest vertex
    assert np.array_equal(_component_labels(g), smallest[want])


def test_coupling_trial_reads_the_largest_component_off_the_audit_labels():
    # the lemma mismatch compares masks; the sets it used to compare agree,
    # in both storage modes, on trials with a mismatch (alpha 0.9) and
    # without one (alpha 0)
    n, seed = 8, 11
    mismatches = []
    for mode, alpha in itertools.product(("exhaustive", MODE_LAZY), (0.0, 0.5, 0.9)):
        params = MediumParams(n, alpha, seed, mode)
        for trial in range(6):
            got = coupling_trial((params, trial))
            medium = trial_medium(params, trial)
            initial = sample_percolation(n, (1.0 - alpha) / 2.0, fold(seed, TAG_PERC, trial))
            final, audit = coupling_run(medium, initial)
            assert np.array_equal(audit.final_labels, _component_labels(final))
            big = largest_component(final)
            assert got.fragment_size == (1 << n) - big.size
            assert got.lemma_mismatch == (frozenset(big.tolist()) != audit.reverse_accessible)
            mismatches.append(got.lemma_mismatch)
    assert any(mismatches) and not all(mismatches)


def test_largest_component_tie_breaks_to_smallest_vertex():
    # Two open edges, 0-1 and 2-3: two size-2 components, report the one
    # containing vertex 0.
    open_edges = np.array([True, True, False, False])
    g = PercolationGraph(2, open_edges)
    assert sorted(largest_component(g).tolist()) == [0, 1]
    stats = fragment_stats(g)
    assert stats.largest_component_size == 2
    assert stats.largest_component_min_vertex == 0
    assert stats.fragment_size == 2


def test_fragment_stats_fully_open():
    g = PercolationGraph(3, np.ones(12, dtype=bool))
    stats = fragment_stats(g)
    assert stats.largest_component_size == 8
    assert stats.fragment_size == 0


def test_open_edge_array_length_is_checked():
    with pytest.raises(IncompleteTable):
        PercolationGraph(3, np.ones(11, dtype=bool))


# ---------------------------------------------------------------------------
# reverse accessibility


def forward_reaches_zero(medium):
    """Vertices with an oriented path to 0, by per-vertex forward search."""
    out = {}
    size = 1 << medium.n_players
    result = set()
    for v in range(size):
        seen = {v}
        stack = [v]
        hit = False
        while stack:
            u = stack.pop()
            if u == 0:
                hit = True
                break
            for w in neighbor_partition(medium, u).out:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if hit:
            result.add(v)
    return result


def scipy_reverse_bfs(medium):
    """Vertices with an oriented path to 0, by scipy's BFS from 0 on the
    reversed oriented graph."""
    src, dst = medium.oriented_edge_arrays()
    size = 1 << medium.n_players
    rev = csr_matrix((np.ones(len(src), dtype=np.int8), (dst, src)), shape=(size, size))
    return set(breadth_first_order(rev, 0, return_predecessors=False).tolist())


@given(
    n=st.integers(min_value=1, max_value=10),
    alpha=st.sampled_from((0.0, 0.3, 0.6, 0.9)),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
)
def test_reverse_accessible_matches_scipy_bfs(n, alpha, seed):
    med = build_medium(n, alpha, seed)
    want = scipy_reverse_bfs(med)
    assert reverse_accessible_from_zero(med) == want
    assert reverse_accessible_from_zero(build_medium(n, alpha, seed, mode=MODE_LAZY)) == want


@pytest.mark.parametrize("alpha,seed", [(0.3, 3), (0.6, 4)])
def test_reverse_accessible_matches_forward_search(alpha, seed):
    med = build_medium(7, alpha, seed)
    assert reverse_accessible_from_zero(med) == forward_reaches_zero(med)


def test_reverse_accessible_all_ties():
    assert reverse_accessible_from_zero(make_all_tie(4)) == {0}


def test_reverse_accessible_lazy_agrees_with_exhaustive():
    ex = build_medium(6, 0.4, 2025)
    lz = build_medium(6, 0.4, 2025, mode="lazy")
    assert reverse_accessible_from_zero(ex) == reverse_accessible_from_zero(lz)


# ---------------------------------------------------------------------------
# the coupling


def test_coupling_identity_on_fixtures(gamma2_medium, cyclic2_medium):
    for med, expect in ((gamma2_medium, {0, 1, 2, 3}), (cyclic2_medium, {0, 1, 2, 3})):
        initial = sample_percolation(2, 0.25, 1001)
        final, audit = coupling_run(med, initial)
        assert audit.identity_holds
        assert audit.q_final == frozenset(expect)
        assert final.n == 2


def test_coupling_identity_all_ties():
    med = make_all_tie(4)
    initial = sample_percolation(4, 0.25, 55)
    final, audit = coupling_run(med, initial)
    assert audit.identity_holds
    assert audit.q_final == frozenset({0})
    assert audit.rounds_to_fixpoint <= 1


def test_coupling_identity_random_media():
    for i in range(50):
        med = build_medium(7, 0.5, fold(606, TAG_MEDIUM, i))
        initial = sample_percolation(7, 0.25, fold(606, TAG_PERC, i))
        final, audit = coupling_run(med, initial)
        assert audit.identity_holds
        assert audit.q_final == audit.reverse_accessible
        assert set(connected_component(final, 0)) == set(audit.q_final)


def test_coupling_audits_compare_by_their_sets():
    # the generated __eq__ would compare the masks elementwise and raise
    initial = sample_percolation(7, 0.25, 4)
    audit = coupling_run(build_medium(7, 0.5, 3), initial)[1]
    assert audit == coupling_run(build_medium(7, 0.5, 3, mode=MODE_LAZY), initial)[1]
    assert audit != coupling_run(build_medium(7, 0.5, 5), initial)[1]
    assert audit != replace(audit, rounds_to_fixpoint=audit.rounds_to_fixpoint + 1)


def long_hand_coupling(medium, initial):
    """The growth recursion edge by edge, with numpy set-once bookkeeping and
    a BFS for the open component of 0: (final_open, q_final, rounds,
    component_of_zero)."""
    n = medium.n_players
    half = 1 << (n - 1)
    final_open = initial.open_edges.copy()
    updated = np.zeros(final_open.size, dtype=bool)
    in_set = np.zeros(1 << n, dtype=bool)
    in_set[0] = True
    frontier = [0]
    rounds = 0
    while frontier:
        rounds += 1
        joined = []
        for u in frontier:
            for axis in range(n):
                w = u ^ (1 << axis)
                if in_set[w]:
                    continue
                eid = axis * half + squeeze_bit(u, axis)
                assert not updated[eid]
                opens = medium.orientation_seen_from(u, axis) == DOWN
                final_open[eid] = opens
                updated[eid] = True
                if opens:
                    joined.append(w)
        joined = sorted(set(joined))
        for w in joined:
            in_set[w] = True
        frontier = joined
    q_final = {int(v) for v in np.nonzero(in_set)[0]}
    final = PercolationGraph(n, final_open, initial.beta, None)
    return final_open, q_final, rounds, connected_component(final, 0)


@settings(deadline=None)  # the n=12 examples take about 0.3 s each
@given(
    st.integers(min_value=1, max_value=9),
    st.sampled_from((0.0, 0.3, 0.5, 0.9)),
    st.integers(min_value=0, max_value=2**64 - 1),
    st.booleans(),
)
# the perc-n12 workload's size, and alpha 0 (many rounds, a large q_final)
@example(12, 0.5, 21, False)
@example(12, 0.5, 2**64 - 1, True)
@example(10, 0.0, 7, False)
def test_coupling_run_matches_long_hand_oracle(n, alpha, seed, lazy):
    medium = build_medium(n, alpha, seed, mode=MODE_LAZY if lazy else "exhaustive")
    initial = sample_percolation(n, (1.0 - alpha) / 2.0, seed ^ 1)
    final, audit = coupling_run(medium, initial)
    final_open, q_final, rounds, comp_zero = long_hand_coupling(medium, initial)
    assert np.array_equal(final.open_edges, final_open)
    assert audit.q_final == q_final
    assert audit.rounds_to_fixpoint == rounds
    assert audit.component_of_zero == comp_zero
    assert audit.reverse_accessible == q_final
    for got in (audit.q_final, audit.component_of_zero, audit.reverse_accessible):
        assert type(got) is frozenset and all(type(v) is int for v in got)
    assert audit.identity_holds


def edges_touching(vertices, n):
    """Cube edges with at least one endpoint in `vertices`."""
    return len({(min(v, v ^ (1 << a)), a) for v in vertices for a in range(n)})


@pytest.mark.parametrize("n,alpha,seed,mode", [
    (6, 0.5, 12, "exhaustive"), (9, 0.3, 12, "exhaustive"), (10, 0.9, 13, "exhaustive"),
    (6, 0.5, 12, MODE_LAZY), (12, 0.5, 21, "exhaustive"), (12, 0.5, 21, MODE_LAZY),
])
def test_coupling_reads_each_assigned_edge_once(monkeypatch, n, alpha, seed, mode):
    # One Medium.orientation_seen_from call per edge touching the grown set:
    # every such edge is on the boundary exactly once.
    calls = []
    read = Medium.orientation_seen_from

    def counted(medium, v, axis):
        calls.append((v, axis))
        return read(medium, v, axis)

    monkeypatch.setattr(Medium, "orientation_seen_from", counted)
    medium = build_medium(n, alpha, seed, mode=mode)
    _, audit = coupling_run(medium, sample_percolation(n, (1.0 - alpha) / 2.0, seed + 1))
    assert len(audit.q_final) > 1
    assert len(calls) == edges_touching(audit.q_final, n)
    assert len({(min(v, v ^ (1 << a)), a) for v, a in calls}) == len(calls)


def test_coupling_preserves_open_marginal():
    # Overwritten statuses are fresh beta coins, so the final graph keeps
    # the i.i.d. open probability.
    beta = 0.25
    opened = total = 0
    for i in range(200):
        med = build_medium(7, 0.5, fold(909, TAG_MEDIUM, i))
        initial = sample_percolation(7, beta, fold(909, TAG_PERC, i))
        final, _ = coupling_run(med, initial)
        opened += int(final.open_edges.sum())
        total += final.open_edges.size
    se = math.sqrt(beta * (1 - beta) / total)
    assert abs(opened / total - beta) < 3 * se


def test_coupling_rejects_seed_reuse():
    med = build_medium(5, 0.5, 321)
    with pytest.raises(SeedCollision):
        coupling_run(med, sample_percolation(5, 0.25, 321))


def test_coupling_rejects_size_mismatch():
    med = build_medium(5, 0.5, 1)
    with pytest.raises(IncompleteTable):
        coupling_run(med, sample_percolation(4, 0.25, 2))


# ---------------------------------------------------------------------------
# serialization


@pytest.mark.parametrize("n", range(1, 10))
def test_percolation_roundtrip(n):
    # n <= 3 leaves the last payload byte with padding bits
    g = sample_percolation(n, 0.35, 888)
    blob = g.dump_bytes()
    back = PercolationGraph.load_bytes(blob)
    assert back.n == n
    assert back.beta == pytest.approx(0.35)
    assert back.seed == 888
    assert np.array_equal(back.open_edges, g.open_edges)
    assert back.dump_bytes() == blob


def test_percolation_load_rejects_garbage():
    g = sample_percolation(4, 0.5, 3)
    blob = g.dump_bytes()
    with pytest.raises(IncompleteTable):
        PercolationGraph.load_bytes(b"BADMAGIC" + blob[8:])
    with pytest.raises(IncompleteTable):
        PercolationGraph.load_bytes(blob[:12])


# ---------------------------------------------------------------------------
# lemma check harness


def test_check_lemma_finally_reports():
    report = check_lemma_finally(6, 0.5, 30, seed=5)
    assert report["trials"] == 30
    assert 0.0 <= report["mismatch_frequency"] <= 1.0
    assert report["beta"] == pytest.approx(0.25)
    assert report == check_lemma_finally(6, 0.5, 30, seed=5)
    # the CLI's JSON writer is the one place a schema version is added
    assert "schema_version" not in report


def test_lemma_mismatches_fade_with_dimension():
    small = check_lemma_finally(4, 0.5, 60, seed=5)
    big = check_lemma_finally(10, 0.5, 60, seed=5)
    assert big["mismatch_frequency"] < small["mismatch_frequency"]


def test_check_lemma_finally_needs_trials():
    with pytest.raises(EmptyTrialCount):
        check_lemma_finally(4, 0.5, 0, seed=1)
