"""Tests for oriented-hypercube construction and payoff-derived media."""

from __future__ import annotations

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, strategies as st

from nashwalk.errors import (
    AlphaOutOfRange,
    AxisOutOfRange,
    DimensionTooLarge,
    ExhaustiveModeRequired,
    IncompleteTable,
    NonCanonicalEdge,
)
from nashwalk.medium import (
    DOWN,
    MODE_LAZY,
    TIE,
    UP,
    EdgeRef,
    Medium,
    PayoffGame,
    PayoffSpec,
    _tie_up_thresholds,
    axis_view,
    build_medium,
    edge_count,
    edge_hashes,
    edge_index,
    medium_from_payoffs,
    neighbor_partition,
    orientation,
    sample_payoff_game,
    squeeze_bit,
)
from nashwalk.percolation import sample_percolation
from nashwalk.rng import fold, mix64, TAG_MEDIUM
from nashwalk.sinks import classify_vertex
from nashwalk.walkers import Policy, verify_assumption

from conftest import CYCLIC2_PAYOFFS, GAMMA2_PAYOFFS, make_all_tie


# ---------------------------------------------------------------------------
# hand-checked orientations


def test_gamma2_every_edge_points_to_origin(gamma2_medium):
    # Both players strictly prefer action 0 given any opponent action, so
    # all four edges orient toward their canonical base.
    for base, axis in [(0, 0), (2, 0), (0, 1), (1, 1)]:
        assert orientation(gamma2_medium, EdgeRef(base, axis)) == DOWN


def test_gamma2_orientation_seen_from(gamma2_medium):
    # Edge 0-1 points into vertex 0, i.e. out of vertex 1.
    assert gamma2_medium.orientation_seen_from(0, 0) == DOWN
    assert gamma2_medium.orientation_seen_from(1, 0) == UP


def test_gamma2_neighbor_partition(gamma2_medium):
    p3 = neighbor_partition(gamma2_medium, 3)
    assert p3.out == [2, 1]
    assert p3.inward == [] and p3.tie == []
    p0 = neighbor_partition(gamma2_medium, 0)
    assert p0.out == [] and sorted(p0.inward) == [1, 2]


def test_cyclic2_is_a_rotation(cyclic2_medium):
    assert cyclic2_medium.require_table().tolist() == [UP, DOWN, DOWN, UP]


def test_constant_payoffs_give_all_ties():
    payoffs = np.full((2, 4), 0.5)
    med = medium_from_payoffs(PayoffGame(2, payoffs))
    assert (med.require_table() == TIE).all()


def test_all_tie_partition():
    med = make_all_tie(3)
    for v in range(8):
        part = neighbor_partition(med, v)
        assert part.out == [] and part.inward == []
        assert sorted(part.tie) == sorted(v ^ (1 << a) for a in range(3))


# ---------------------------------------------------------------------------
# random construction: marginals, purity, modes


def test_alpha_zero_never_ties():
    for i in range(200):
        med = build_medium(2, 0.0, fold(31, TAG_MEDIUM, i))
        assert (med.require_table() != TIE).all()


def test_pooled_edge_marginals():
    # Exact i.i.d. edge law: across many media the pooled tie and up
    # fractions should sit within 3 standard errors of alpha and beta.
    n, alpha, runs = 10, 0.35, 1000
    tie = up = total = 0
    for i in range(runs):
        table = build_medium(n, alpha, fold(555, TAG_MEDIUM, i)).require_table()
        tie += int((table == TIE).sum())
        up += int((table == UP).sum())
        total += table.size
    beta = (1 - alpha) / 2
    assert abs(tie / total - alpha) < 3 * math.sqrt(alpha * (1 - alpha) / total)
    assert abs(up / total - beta) < 3 * math.sqrt(beta * (1 - beta) / total)


def test_two_fixed_edges_look_independent():
    # Joint frequency of (UP, UP) on two distinct edges should be close to
    # the product of the marginals.
    hits = 0
    runs = 1000
    for i in range(runs):
        med = build_medium(4, 0.5, fold(77, TAG_MEDIUM, i))
        if orientation(med, EdgeRef(0, 0)) == UP and orientation(med, EdgeRef(1, 1)) == UP:
            hits += 1
    p = 0.25 * 0.25
    assert abs(hits / runs - p) < 3 * math.sqrt(p * (1 - p) / runs)


def test_same_seed_same_medium_different_seed_differs():
    a = build_medium(8, 0.5, 1234).require_table()
    b = build_medium(8, 0.5, 1234).require_table()
    c = build_medium(8, 0.5, 1235).require_table()
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("alpha", [0.0, 0.3, 0.8])
def test_lazy_matches_exhaustive(alpha):
    n, seed = 6, 2024
    ex = build_medium(n, alpha, seed)
    lz = build_medium(n, alpha, seed, mode=MODE_LAZY)
    for axis in range(n):
        for base in range(1 << n):
            if not base >> axis & 1:
                ref = EdgeRef(base, axis)
                assert orientation(ex, ref) == orientation(lz, ref)


@given(
    n=st.integers(min_value=1, max_value=9),
    alpha=st.sampled_from((0.0, 0.2, 0.5, 0.9)),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
)
def test_lazy_partition_matches_exhaustive_twin(n, alpha, seed):
    ex = build_medium(n, alpha, seed)
    lz = build_medium(n, alpha, seed, mode=MODE_LAZY)
    for v in range(1 << n):
        want = neighbor_partition(ex, v)
        assert neighbor_partition(lz, v) == want  # row hashed
        part = neighbor_partition(lz, v)  # row read back from the memo
        assert part == want
        part.out.append(-1)  # the caller owns the lists, not the memo
    for v in range(1 << n):
        assert neighbor_partition(lz, v) == neighbor_partition(ex, v)


def test_lazy_row_memo_is_bounded():
    n = 20
    lz = build_medium(n, 0.5, 0, mode=MODE_LAZY)
    # 69,906 distinct rows, read from vertex 0 on: more than the memo may hold
    for v in range(0, 1 << n, 15):
        lz.row(v)
    assert 0 < len(lz._rows) <= 1 << 16
    assert 0 not in lz._rows  # the first rows read were dropped
    ex = build_medium(n, 0.5, 0)
    for v in (0, 1, 12345, (1 << n) - 1, *list(lz._rows)[:50]):
        assert neighbor_partition(lz, v) == neighbor_partition(ex, v)


def test_degrees_sum_to_dimension():
    med = build_medium(7, 0.4, 99)
    out_deg, in_deg, tie_deg = med.degrees()
    total = out_deg.astype(int) + in_deg + tie_deg
    assert (total == 7).all()
    # Every oriented edge contributes one out- and one in-degree.
    assert int(out_deg.sum()) == int(in_deg.sum())
    src, dst = med.oriented_edge_arrays()
    assert len(src) == int(out_deg.sum())
    assert np.array_equal(np.bincount(src, minlength=1 << 7), out_deg)
    assert np.array_equal(np.bincount(dst, minlength=1 << 7), in_deg)


@given(
    st.integers(1, 10),
    st.sampled_from((0.0, 0.5, 0.9)),
    st.one_of(st.sampled_from((0, 2**64 - 1)), st.integers(0, 2**64 - 1)),
)
def test_table_matches_scalar_fold(n, alpha, seed):
    # Long-hand oracle for the vectorized hashing: every entry is the code
    # of the scalar fold(seed, base, axis) against the Tie / Up thresholds.
    t_tie, t_up = _tie_up_thresholds(alpha)
    table = build_medium(n, alpha, seed).require_table()
    for axis in range(n):
        for base in range(1 << n):
            if not base >> axis & 1:
                h = fold(seed, base, axis)
                code = TIE if h < t_tie else UP if h < t_up else DOWN
                assert table[edge_index(base, axis, n)] == code, (base, axis)


@st.composite
def media_up_to_9(draw):
    """Hashed, payoff-derived or arbitrary-table media with n <= 9."""
    n = draw(st.integers(min_value=1, max_value=9))
    seed = draw(st.integers(min_value=0, max_value=2**64 - 1))
    kind = draw(st.sampled_from(("hashed", "payoff", "table")))
    if kind == "hashed":
        alpha = draw(st.sampled_from((0.0, 0.2, 0.5, 0.9)))
        return build_medium(n, alpha, seed)
    if kind == "payoff":
        return medium_from_payoffs(
            sample_payoff_game(n, PayoffSpec("discrete_uniform", k=3), seed)
        )
    codes = np.random.default_rng(seed).integers(0, 3, size=edge_count(n))
    return Medium.from_orientation_table(n, codes)


def check_views_against_rows(med):
    # Independent oracle: scalar per-vertex neighbor_partition reads.
    n = med.n_players
    out_deg, in_deg, tie_deg = med.degrees()
    edges = set()
    for v in range(1 << n):
        part = neighbor_partition(med, v)
        assert (len(part.out), len(part.inward), len(part.tie)) == (
            out_deg[v], in_deg[v], tie_deg[v]
        )
        edges.update((v, w) for w in part.out)
    src, dst = med.oriented_edge_arrays()
    assert src.dtype == dst.dtype == np.int64
    assert len(src) == len(edges)
    assert set(zip(src.tolist(), dst.tolist())) == edges
    buf = np.empty(1 << n, dtype=bool)
    for axis in range(n):
        assert med.out_mask(axis, buf) is buf
        want = [bool(med.row(v)[0] >> axis & 1) for v in range(1 << n)]
        assert buf.tolist() == want, axis


@given(media_up_to_9())
def test_vectorized_views_match_per_vertex_oracle(med):
    check_views_against_rows(med)


@pytest.mark.parametrize("n", range(1, 10))
@pytest.mark.parametrize("code", (TIE, UP, DOWN))
def test_degrees_of_constant_tables(n, code):
    # All edges Up: v's out-edges are its clear bits, its in-edges its set bits.
    med = Medium.from_orientation_table(n, np.full(edge_count(n), code))
    check_views_against_rows(med)
    ones = np.array([v.bit_count() for v in range(1 << n)])
    out_deg, in_deg, tie_deg = med.degrees()
    assert out_deg.dtype == in_deg.dtype == tie_deg.dtype == np.int16
    zero = np.zeros_like(ones)
    expect = {
        TIE: (zero, zero, zero + n), UP: (n - ones, ones, zero), DOWN: (ones, n - ones, zero),
    }[code]
    for got, want in zip((out_deg, in_deg, tie_deg), expect):
        assert np.array_equal(got, want)


def prefilled_empty(fill: bool):
    """A stand-in for ``np.empty`` whose arrays start full: True for bool
    arrays, and every byte 0xFF (or 0 when `fill` is False) for others."""
    empty = np.empty

    def prefilled(*args, **kwargs):
        a = empty(*args, **kwargs)
        if a.dtype == bool:
            a[...] = fill
        else:
            a.view(np.uint8)[...] = 0xFF if fill else 0
        return a

    return prefilled


@pytest.mark.parametrize("fill", [True, False])
@pytest.mark.parametrize("n", range(1, 10))
def test_kernels_overwrite_every_element_of_their_buffers(n, fill, monkeypatch):
    # Axes below 3 are written through transposed views; a position they
    # missed would keep the buffer's old contents.  out_mask is handed a
    # prefilled buffer, and degrees and edge_hashes allocate theirs with a
    # prefilling np.empty.  The oracles are the per-vertex rows and the
    # scalar fold.
    seed = fold(n, int(fill))
    med = build_medium(n, 0.5, seed)
    rows = [med.row(v) for v in range(1 << n)]
    buf = np.empty(1 << n, dtype=bool)
    for axis in range(n):
        buf[...] = fill
        assert med.out_mask(axis, buf) is buf
        assert buf.tolist() == [bool(out >> axis & 1) for out, _ in rows], axis
    monkeypatch.setattr(np, "empty", prefilled_empty(fill))
    out_deg, in_deg, tie_deg = med.degrees()
    assert out_deg.tolist() == [out.bit_count() for out, _ in rows]
    assert in_deg.tolist() == [inn.bit_count() for _, inn in rows]
    assert (out_deg + in_deg + tie_deg == n).all()
    vertices = np.arange(1 << n)
    for axis, h in enumerate(edge_hashes(mix64(seed), n)):
        bases = axis_view(vertices, axis)[:, 0, :].ravel().tolist()
        assert h.ravel().tolist() == [fold(seed, b, axis) for b in bases], axis
    assert np.array_equal(build_medium(n, 0.5, seed).require_table(), med.require_table())


def lazy_and_twin(med):
    """A lazy medium with med's n, alpha and seed, and its exhaustive twin.

    A lazy medium's per-edge reads decode its rows, so the twin's table,
    which is hashed without rows, is the oracle for both."""
    n, alpha, seed = med.n_players, med.params.alpha, med.params.seed
    return build_medium(n, alpha, seed, mode=MODE_LAZY), build_medium(n, alpha, seed)


@given(media_up_to_9(), st.booleans())
def test_orientation_seen_from_matches_neighbor_partition(med, lazy):
    # Oracle: neighbor_partition's out / inward / tie lists, per vertex, of
    # the medium itself or, for a lazy medium, of its exhaustive twin.
    n = med.n_players
    oracle = med
    if lazy:
        med, oracle = lazy_and_twin(med)
    for v in range(1 << n):
        part = neighbor_partition(oracle, v)
        expect = {w: UP for w in part.out}
        expect.update((w, DOWN) for w in part.inward)
        expect.update((w, TIE) for w in part.tie)
        for axis in range(n):
            assert med.orientation_seen_from(v, axis) == expect[v ^ (1 << axis)]


@given(media_up_to_9(), st.booleans(), st.booleans())
def test_rows_match_per_edge_oracle(med, lazy, cap_one):
    # Oracle: an exhaustive medium's per-edge reads orientation /
    # orientation_seen_from, which do not go through rows: the medium's own
    # or, for a lazy medium (whose per-edge reads are row decodes, checked
    # here too), its exhaustive twin's.  Both modes, every row queried
    # twice, and with a one-row memo emptied before almost every store.
    n = med.n_players
    oracle = med
    if lazy:
        med, oracle = lazy_and_twin(med)
    if cap_one:
        med._row_cap = 1
    for v in range(1 << n):
        out_bits = in_bits = 0
        for axis in range(n):
            bit = 1 << axis
            code = orientation(oracle, EdgeRef(v & ~bit, axis))
            seen = oracle.orientation_seen_from(v, axis)
            assert med.orientation_seen_from(v, axis) == seen
            if code == TIE:
                assert seen == TIE
            elif (code == UP) == (not v & bit):
                assert seen == UP
                out_bits |= bit
            else:
                assert seen == DOWN
                in_bits |= bit
        assert med.row(v) == (out_bits, in_bits)
        assert med.row(v) == (out_bits, in_bits)
        assert len(med._rows) <= (1 if cap_one else 1 << min(n, 16))
    with pytest.raises(NonCanonicalEdge):
        med.row(1 << n)
    with pytest.raises(NonCanonicalEdge):
        med.row(-1)


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_numpy_vertices_read_like_ints_in_both_modes(seed):
    # A lazy medium hashes v against the seed's first pass, which is >= 2^63
    # for seed 2^64 - 1: a numpy vertex must not overflow (int64) or wrap
    # with RuntimeWarnings (uint64) there.  The exhaustive twin is the oracle.
    n = 6
    exhaustive = build_medium(n, 0.5, seed)
    policy = Policy.lambda_walk(0.7)
    movers = [v for v in range(1 << n) if exhaustive.row(v)[0]]
    expect = verify_assumption(policy, exhaustive, movers)
    for cast in (np.int64, np.uint64, int):
        lazy = build_medium(n, 0.5, seed, mode=MODE_LAZY)
        for v in range(1 << n):
            assert lazy.row(cast(v)) == exhaustive.row(v)
            assert classify_vertex(lazy, cast(v)) == classify_vertex(exhaustive, v)
            for axis in range(n):
                seen = exhaustive.orientation_seen_from(v, axis)
                assert lazy.orientation_seen_from(cast(v), axis) == seen
                if not v >> axis & 1:
                    edge = EdgeRef(cast(v), axis)
                    assert orientation(lazy, edge) == orientation(exhaustive, edge)
        for medium in (lazy, build_medium(n, 0.5, seed, mode=MODE_LAZY)):
            array = np.array(movers, dtype=np.int64 if cast is int else cast)
            assert verify_assumption(policy, medium, array) == expect


# t_tie is 0 at alpha 0 and 2^64 - 2^11 at the largest alpha below 1, so the
# lanes' threshold adds run from 2^64 down to 2^11
LANE_ALPHAS = (0.0, 0.5, 0.9, 1.0 - 2.0**-53)


@given(
    n=st.integers(min_value=1, max_value=62),
    alpha=st.sampled_from(LANE_ALPHAS),
    seed=st.one_of(
        st.sampled_from((0, 2**64 - 1)), st.integers(min_value=0, max_value=2**64 - 1)
    ),
    picks=st.lists(st.integers(min_value=0, max_value=2**62 - 1), max_size=6),
)
def test_lazy_rows_match_per_edge_hash_up_to_the_cap(n, alpha, seed, picks):
    # Oracle: long hand, the scalar fold(seed, base, axis) of each of v's
    # edges against the Tie / Up thresholds, one edge at a time.
    assert _tie_up_thresholds(LANE_ALPHAS[-1])[0] == 2**64 - 2**11
    t_tie, t_up = _tie_up_thresholds(alpha)
    med = build_medium(n, alpha, seed, mode=MODE_LAZY)
    for v in (0, (1 << n) - 1, *(p % (1 << n) for p in picks)):
        out_bits = in_bits = 0
        for axis in range(n):
            bit = 1 << axis
            h = fold(seed, v & ~bit, axis)
            if h < t_tie:
                continue
            # an Up edge (t_tie <= h < t_up) points out of its base
            if (h < t_up) == (not v & bit):
                out_bits |= bit
            else:
                in_bits |= bit
        med._rows.clear()
        assert med.row(v) == (out_bits, in_bits), v


@pytest.mark.parametrize("n", [1, 2, 8, 62])
def test_lazy_rows_split_a_hash_equal_to_a_threshold_like_the_scalar_read(monkeypatch, n):
    # A hash equal to t_tie is not a tie and one equal to t_up is Down; a
    # random seed almost never puts a hash on a threshold, so the thresholds
    # are set to two of the row's own edge hashes, fold(seed, base, axis).
    seed, v = 11, (1 << n) - 1
    hashes = sorted(fold(seed, v & ~(1 << axis), axis) for axis in range(n))
    t_tie, t_up = hashes[n // 3], hashes[(2 * n) // 3]
    monkeypatch.setattr("nashwalk.medium._tie_up_thresholds", lambda alpha: (t_tie, t_up))
    for u in (v, 0, 0x5555555555555555 & v):
        med = build_medium(n, 0.5, seed, mode=MODE_LAZY)
        codes = [orientation(med, EdgeRef(u & ~(1 << axis), axis)) for axis in range(n)]
        hashes_u = [fold(seed, u & ~(1 << axis), axis) for axis in range(n)]
        assert codes == [
            TIE if h < t_tie else UP if h < t_up else DOWN for h in hashes_u
        ]
        up_bits = sum(1 << axis for axis, code in enumerate(codes) if code == UP)
        down_bits = sum(1 << axis for axis, code in enumerate(codes) if code == DOWN)
        out_bits = (up_bits & ~u) | (down_bits & u)
        assert med.row(u) == (out_bits, (up_bits | down_bits) ^ out_bits)


@pytest.mark.parametrize("mode", ["exhaustive", MODE_LAZY])
@pytest.mark.parametrize("warm", [False, True])
def test_non_integer_vertices_are_rejected_by_rows(mode, warm):
    # Neither a lazy row (which must not hash 1.5 as vertex 1) nor an
    # exhaustive one (which must not fail on float arithmetic) reads a
    # non-integer, and nothing is memoized for it.  An integral float hashes
    # like its int, so a warm memo must not answer 1.0 with vertex 1's row.
    med = build_medium(6, 0.5, 1, mode=mode)
    if warm:
        for v in range(1 << 6):
            med.row(v)
    for v in (1.5, np.float64(2.5), "3", None, 1.0, np.float64(2.0)):
        with pytest.raises(NonCanonicalEdge, match="is not an integer"):
            med.row(v)
        with pytest.raises(NonCanonicalEdge, match="is not an integer"):
            neighbor_partition(med, v)
    assert len(med._rows) == (1 << 6 if warm else 0)


@pytest.mark.parametrize("mode", ["exhaustive", MODE_LAZY])
@pytest.mark.parametrize("warm", [False, True])
def test_numpy_vertices_give_int_neighbors(mode, warm):
    med = build_medium(6, 0.5, 1, mode=mode)
    for v in range(1 << 6):
        if warm:
            med.row(v)
        for cast in (np.int64, np.uint64):
            part = neighbor_partition(med, cast(v))
            assert part == neighbor_partition(med, v)
            assert all(type(w) is int for side in part for w in side)


@pytest.mark.parametrize("mode", ["exhaustive", MODE_LAZY])
@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_numpy_integer_edge_refs_read_like_ints(mode, seed):
    # A numpy uint64 base against a numpy int64 axis (or the reverse) used to
    # raise numpy's TypeError from the canonical-bit check, and from the
    # squeeze arithmetic of orientation_seen_from and is_open.
    n = 6
    med = build_medium(n, 0.5, seed, mode=mode)
    perc = sample_percolation(n, 0.5, seed)
    casts = (int, np.int64, np.uint64)
    for base in range(1 << n):
        for axis in range(n):
            if base >> axis & 1:
                continue
            top = base | 1 << axis
            expect = orientation(med, EdgeRef(base, axis))
            from_top = med.orientation_seen_from(top, axis)
            is_open = perc.is_open(base, axis)
            for base_cast in casts:
                for axis_cast in casts:
                    cast = (base_cast, axis_cast)
                    edge = EdgeRef(base_cast(base), axis_cast(axis))
                    assert orientation(med, edge) == expect, cast
                    seen = med.orientation_seen_from(base_cast(base), axis_cast(axis))
                    assert seen == expect, cast
                    seen = med.orientation_seen_from(base_cast(top), axis_cast(axis))
                    assert seen == from_top, cast
                    assert perc.is_open(base_cast(base), axis_cast(axis)) == is_open, cast
                    assert perc.is_open(base_cast(top), axis_cast(axis)) == is_open, cast


def test_non_integer_edge_refs_are_rejected(gamma2_medium):
    # every edge of the lazy square is a tie, whose read returns before
    # testing the vertex against the axis bit
    reads = (
        gamma2_medium.orientation_seen_from,
        build_medium(2, 0.999, 3, mode=MODE_LAZY).orientation_seen_from,
        sample_percolation(2, 0.5, 1).is_open,
    )
    for axis in (1.5, 0.0, np.float64(1.0), "0"):
        with pytest.raises(AxisOutOfRange, match="is not an integer"):
            orientation(gamma2_medium, EdgeRef(0, axis))
        for read in reads:
            with pytest.raises(AxisOutOfRange, match="is not an integer"):
                read(0, axis)
    for base in (1.5, 1.0, np.float64(0.0), None):
        with pytest.raises(NonCanonicalEdge, match="is not an integer"):
            orientation(gamma2_medium, EdgeRef(base, 0))
        for read in reads:
            with pytest.raises(NonCanonicalEdge, match="is not an integer"):
                read(base, 0)


def test_table_is_copied_on_wrap():
    table = np.full(edge_count(3), DOWN, dtype=np.int8)
    med = Medium.from_orientation_table(3, table)
    assert med.require_table() is not table
    assert med.row(0) == (0, 0b111)
    table[:] = UP
    assert (med.require_table() == DOWN).all()
    assert med.row(0) == (0, 0b111)
    assert med.row(7) == (0b111, 0)
    with pytest.raises(ValueError):  # nor can writes through the medium
        med.require_table()[0] = UP


def test_partition_agrees_with_degrees():
    med = build_medium(6, 0.6, 5)
    out_deg, in_deg, tie_deg = med.degrees()
    for v in range(1 << 6):
        part = neighbor_partition(med, v)
        assert (len(part.out), len(part.inward), len(part.tie)) == (
            int(out_deg[v]),
            int(in_deg[v]),
            int(tie_deg[v]),
        )


# ---------------------------------------------------------------------------
# edge indexing


@given(st.integers(min_value=1, max_value=10), st.data())
def test_squeeze_expand_roundtrip(n, data):
    axis = data.draw(st.integers(min_value=0, max_value=n - 1))
    base = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    base &= ~(1 << axis)  # canonical form: chosen bit cleared
    packed = squeeze_bit(base, axis)
    # long hand: insert a zero bit at `axis`
    assert (packed & ((1 << axis) - 1)) | ((packed >> axis) << (axis + 1)) == base
    idx = edge_index(base, axis, n)
    assert 0 <= idx < edge_count(n)


@given(st.integers(min_value=1, max_value=24), st.data())
def test_edge_index_is_elementwise_on_int64_arrays(n, data):
    size = data.draw(st.integers(min_value=0, max_value=20))
    vs = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=size, max_size=size))
    axes = data.draw(st.lists(st.integers(0, n - 1), min_size=size, max_size=size))
    got = edge_index(np.array(vs, dtype=np.int64), np.array(axes, dtype=np.int64), n)
    assert got.dtype == np.int64
    assert got.tolist() == [edge_index(v, a, n) for v, a in zip(vs, axes)]


def test_edge_index_is_a_bijection():
    n = 5
    seen = {edge_index(int(b), a, n) for a in range(n) for b in range(1 << n) if not (b >> a) & 1}
    assert seen == set(range(edge_count(n)))


# ---------------------------------------------------------------------------
# payoff sampling


def test_payoff_spec_induced_alpha():
    assert PayoffSpec("continuous_uniform").induced_alpha() == 0.0
    assert PayoffSpec("bernoulli", p=0.3).induced_alpha() == pytest.approx(0.3**2 + 0.7**2)
    assert PayoffSpec("discrete_uniform", k=4).induced_alpha() == pytest.approx(0.25)


@pytest.mark.parametrize("kwargs", [
    {"kind": "bernoulli", "p": 1.5},
    {"kind": "bernoulli", "p": -0.1},
    {"kind": "bernoulli", "p": float("nan")},
    {"kind": "discrete_uniform"},
    {"kind": "discrete_uniform", "k": 0},
    {"kind": "discrete_uniform", "k": 2.5},
    {"kind": "continuous_uniform", "k": -1},
    {"kind": "gaussian"},
], ids=("p-above-1", "p-below-0", "p-nan", "k-missing", "k-zero", "k-float",
        "k-negative", "unknown-kind"))
def test_payoff_spec_rejects_bad_parameters(kwargs):
    # caught where the spec is made: unchecked, p = 1.5 gives alpha 2.5 and
    # the others fail inside the sampler with a non-package error
    with pytest.raises(IncompleteTable):
        PayoffSpec(**kwargs)


def test_sample_payoff_game_shape_and_determinism():
    spec = PayoffSpec("continuous_uniform")
    g1 = sample_payoff_game(5, spec, seed=42)
    g2 = sample_payoff_game(5, spec, seed=42)
    g3 = sample_payoff_game(5, spec, seed=43)
    assert g1.payoffs.shape == (5, 32)
    assert ((g1.payoffs >= 0) & (g1.payoffs < 1)).all()
    assert np.array_equal(g1.payoffs, g2.payoffs)
    assert not np.array_equal(g1.payoffs, g3.payoffs)


def test_sample_payoff_game_bernoulli_support():
    g = sample_payoff_game(4, PayoffSpec("bernoulli", p=0.5), seed=7)
    assert set(np.unique(g.payoffs)) <= {0.0, 1.0}
    g_all = sample_payoff_game(4, PayoffSpec("bernoulli", p=1.0), seed=7)
    assert (g_all.payoffs == 1.0).all()


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
@pytest.mark.parametrize("spec", [
    PayoffSpec("continuous_uniform"),
    PayoffSpec("bernoulli", p=0.3),
    PayoffSpec("discrete_uniform", k=5),
], ids=("continuous", "bernoulli", "discrete"))
def test_payoffs_are_the_family_transform_of_the_scalar_fold(spec, seed):
    # Long hand: payoffs[i, v] transforms fold(seed, "payoff", i, v), one
    # scalar fold per entry, with each family's map written out here.
    tag = int.from_bytes(b"payoff", "little")
    for n in range(1, 7):
        game = sample_payoff_game(n, spec, seed)
        for i in range(n):
            for v in range(1 << n):
                h = fold(seed, tag, i, v)
                if spec.kind == "continuous_uniform":
                    want = (h >> 11) / 2.0**53
                elif spec.kind == "bernoulli":
                    want = 1.0 if h < spec.p * 2.0**64 else 0.0
                else:
                    want = float(h % spec.k)
                assert game.payoffs[i, v] == want, (n, i, v)


def naive_orientation_from_payoffs(game: PayoffGame, base: int, axis: int) -> int:
    """Direct payoff comparison for one edge, bypassing the array path."""
    partner = base | (1 << axis)
    z_base = game.payoffs[axis, base]
    z_partner = game.payoffs[axis, partner]
    if z_base > z_partner:
        return DOWN
    if z_partner > z_base:
        return UP
    return TIE


@pytest.mark.parametrize("spec", [PayoffSpec("discrete_uniform", k=4), PayoffSpec("continuous_uniform")])
def test_medium_from_payoffs_matches_naive_comparison(spec):
    for trial in range(20):
        game = sample_payoff_game(5, spec, seed=fold(303, trial))
        med = medium_from_payoffs(game)
        for axis in range(5):
            for base in range(1 << 5):
                if not base >> axis & 1:
                    got = orientation(med, EdgeRef(base, axis))
                    assert got == naive_orientation_from_payoffs(game, base, axis)


@pytest.mark.parametrize("spec", [
    PayoffSpec("bernoulli", p=1.0),
    PayoffSpec("bernoulli", p=0.0),
    PayoffSpec("discrete_uniform", k=1),
], ids=("bernoulli-p1", "bernoulli-p0", "discrete-k1"))
def test_degenerate_payoff_media_roundtrip(spec):
    # constant payoffs: every edge is a tie and the induced alpha is 1
    med = medium_from_payoffs(sample_payoff_game(3, spec, seed=1))
    assert med.params.alpha == 1.0
    back = Medium.load_bytes(med.dump_bytes())
    assert back.params == med.params
    assert (back.require_table() == TIE).all()


def test_medium_from_payoffs_records_induced_alpha():
    game = sample_payoff_game(4, PayoffSpec("discrete_uniform", k=2), seed=1)
    med = medium_from_payoffs(game)
    assert med.params.alpha == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# validation and serialization


def test_alpha_out_of_range_rejected():
    with pytest.raises(AlphaOutOfRange):
        build_medium(4, -0.1, 0)
    with pytest.raises(AlphaOutOfRange):
        build_medium(4, 1.1, 0)
    with pytest.raises(AlphaOutOfRange):  # only medium files may say alpha = 1
        build_medium(4, 1.0, 0)


def test_dimension_caps():
    with pytest.raises(DimensionTooLarge):
        build_medium(25, 0.5, 0)
    with pytest.raises(DimensionTooLarge):
        build_medium(63, 0.5, 0, mode=MODE_LAZY)


def test_non_canonical_edge_rejected(gamma2_medium):
    with pytest.raises(NonCanonicalEdge):
        orientation(gamma2_medium, EdgeRef(1, 0))  # bit 0 of base is set
    with pytest.raises(AxisOutOfRange):
        orientation(gamma2_medium, EdgeRef(0, 2))


@pytest.mark.parametrize("mode", ["exhaustive", MODE_LAZY])
def test_orientation_seen_from_rejects_bad_arguments(mode):
    med = build_medium(4, 0.5, 3, mode=mode)
    for axis in (-1, -5, 4, 9):
        with pytest.raises(AxisOutOfRange, match=f"axis {axis} outside"):
            med.orientation_seen_from(0, axis)
    for v in (-1, -16, 16, 1 << 40):
        with pytest.raises(NonCanonicalEdge, match=f"vertex {v} outside"):
            med.orientation_seen_from(v, 0)
    # the axis is checked first when both are out of range
    with pytest.raises(AxisOutOfRange):
        med.orientation_seen_from(-1, -1)


def scalar_read_media(n: int):
    """(constructor, medium) for each way to make an exhaustive medium."""
    hashed = build_medium(n, 0.4, 1000 + n)
    codes = np.random.default_rng(n).integers(0, 3, size=edge_count(n))
    game = sample_payoff_game(n, PayoffSpec("discrete_uniform", k=3), n)
    return [
        ("build_medium", hashed),
        ("from_orientation_table", Medium.from_orientation_table(n, codes)),
        ("load_bytes", Medium.load_bytes(hashed.dump_bytes())),
        ("medium_from_payoffs", medium_from_payoffs(game)),
    ]


SCALAR_CASTS = (int, np.int64, np.uint64)


@pytest.mark.parametrize("n", range(1, 9))
def test_scalar_reads_match_a_long_hand_table_read(n):
    # Oracle: each entry read long hand at edge_index of require_table(),
    # then seen from v (an Up edge points out of its base, the endpoint
    # with the axis bit clear).  Every (v, axis) in int, np.int64 and
    # np.uint64, mixed both ways, and a pickled copy, which must read the
    # same and keep its table read-only.
    for name, med in scalar_read_media(n):
        table = med.require_table()
        copy = pickle.loads(pickle.dumps(med))
        for read in (med, copy):
            for v in range(1 << n):
                out_bits = in_bits = 0
                for axis in range(n):
                    bit = 1 << axis
                    code = int(table[edge_index(v & ~bit, axis, n)])
                    seen = code if code == TIE or not v & bit else UP + DOWN - code
                    if seen == UP:
                        out_bits |= bit
                    elif seen == DOWN:
                        in_bits |= bit
                    for v_cast in SCALAR_CASTS:
                        for axis_cast in SCALAR_CASTS:
                            got = read.orientation_seen_from(v_cast(v), axis_cast(axis))
                            assert got == seen, (name, v, axis, v_cast, axis_cast)
                for v_cast in SCALAR_CASTS:
                    assert read.row(v_cast(v)) == (out_bits, in_bits), (name, v, v_cast)
        for read in (med, copy):
            with pytest.raises(ValueError, match="read-only"):
                read.require_table()[0] = TIE
            for axis in (-1, n, np.int64(-1), np.uint64(n)):
                with pytest.raises(AxisOutOfRange, match="outside"):
                    read.orientation_seen_from(0, axis)
            for axis in (0.0, np.float64(0.5)):
                with pytest.raises(AxisOutOfRange, match="is not an integer"):
                    read.orientation_seen_from(0, axis)
            for v in (-1, 1 << n, np.int64(-1), np.uint64(1 << n)):
                with pytest.raises(NonCanonicalEdge, match="outside"):
                    read.orientation_seen_from(v, 0)
                with pytest.raises(NonCanonicalEdge, match="outside"):
                    read.row(v)
            for v in (1.0, np.float64(0.5)):
                with pytest.raises(NonCanonicalEdge, match="is not an integer"):
                    read.orientation_seen_from(v, 0)
                with pytest.raises(NonCanonicalEdge, match="is not an integer"):
                    read.row(v)
    lazy = build_medium(n, 0.4, 1000 + n, mode=MODE_LAZY)
    lazy_copy = pickle.loads(pickle.dumps(lazy))
    hashed = scalar_read_media(n)[0][1]
    assert [lazy_copy.row(v) for v in range(1 << n)] == [hashed.row(v) for v in range(1 << n)]


def test_lazy_medium_has_no_table():
    med = build_medium(30, 0.5, 0, mode=MODE_LAZY)
    with pytest.raises(ExhaustiveModeRequired):
        med.require_table()
    with pytest.raises(ExhaustiveModeRequired):
        build_medium(4, 0.5, 0, mode=MODE_LAZY).out_mask(0, np.empty(16, dtype=bool))
    # but individual edges still resolve
    assert orientation(med, EdgeRef(0, 3)) in (TIE, UP, DOWN)


@pytest.mark.parametrize("n", range(1, 10))
def test_dump_load_roundtrip(n):
    # n = 1 leaves three padding slots in its one payload byte
    med = build_medium(n, 0.3, 404)
    blob = med.dump_bytes()
    back = Medium.load_bytes(blob)
    assert back.n_players == n
    assert back.params.alpha == pytest.approx(0.3)
    assert back.params.seed == 404
    assert np.array_equal(back.require_table(), med.require_table())
    assert back.dump_bytes() == blob


def test_code_3_is_rejected_from_a_file_and_from_a_table():
    # a loaded medium is built by from_orientation_table, the one check of
    # the codes: 3 fits a file's two bits but is no orientation
    n = 3
    blob = Medium.from_orientation_table(n, np.full(edge_count(n), UP)).dump_bytes()
    # the payload is 3 bytes of 4 Up codes each; make entry 0's code 3
    corrupt = blob[:-3] + bytes([blob[-3] | 3]) + blob[-2:]
    with pytest.raises(IncompleteTable, match="codes"):
        Medium.load_bytes(corrupt)
    codes = np.full(edge_count(n), UP)
    codes[5] = 3
    with pytest.raises(IncompleteTable, match="codes"):
        Medium.from_orientation_table(n, codes)


def test_load_rejects_bad_blobs():
    med = build_medium(4, 0.5, 1)
    blob = med.dump_bytes()
    with pytest.raises(IncompleteTable):
        Medium.load_bytes(b"WRONGMAG" + blob[8:])
    with pytest.raises(IncompleteTable):
        Medium.load_bytes(blob[:-3])
