"""Randomly oriented hypercube media.

A medium over n players assigns each edge of the n-cube one of three states:
Tie (unoriented), Up (oriented from the endpoint whose axis bit is 0 toward the
endpoint whose axis bit is 1) or Down (the reverse).  Vertices are n-bit ints,
bit i being player i's action; flipping bit i moves along axis i.  Each edge is
i.i.d.: Tie with probability alpha, each direction with beta = (1 - alpha) / 2.

Orientations are a pure function of (seed, base, axis).  Exhaustive media
materialize the whole table (n * 2^(n-1) entries); lazy media hash on demand
and agree with their exhaustive twin edge-for-edge.  Media can also be derived
from an explicit payoff table: the edge along axis i is oriented toward the
endpoint where player i earns strictly more, Tie on equal payoffs.

Layout.  The table is axis-major: axis i's block holds its 2^(n-1) canonical
edges ordered by base vertex.  A per-vertex array (length 2^n, index = vertex)
reshaped to (2^(n-1-i), 2, 2^i) puts the vertices with bit i clear in
[:, 0, :] and their axis-i partners in [:, 1, :], both in ascending base
order -- exactly the order of axis i's table block reshaped to
(2^(n-1-i), 2^i).  :func:`axis_view` is that reshape of a per-vertex array
and :func:`edge_block` that of a per-edge array (a table, a percolation's
open edges, file positions); every vectorized walk over an axis's edges
(hashing, :meth:`Medium.out_mask`, degrees, edge lists, payoff comparison,
file order, percolation) goes through them, with strided views instead of
index arrays.  On axes 1 and 2 these views have inner runs of 2 or 4
elements, and a ufunc pass over them costs several times a high axis's, so
the per-trial kernels (:func:`edge_hashes`, :meth:`Medium.out_mask`,
:meth:`Medium.degrees`) pass every operand below axis 3 through
:func:`long_inner`, a transpose that puts the long dimension innermost, and
call the ufunc with ``order="C"``.  Edge positions come from
:func:`edge_index` (elementwise on int64 arrays too), so no other module
spells out the table's codes or its index arithmetic.  The buffers these
kernels allocate per trial are reused across trials only when freed memory
stays mapped, which :func:`nashwalk.parallel.keep_freed_pages` arranges.

Hashing.  ``fold(seed, base, axis) = mix64(mix64(mix64(seed) ^ base) ^ axis)``:
the seed's pass is the same for every edge, and ``mix64(h0 ^ v)`` is shared
by every edge whose base is v.  :func:`edge_hashes` hashes that vertex pass
once for all 2^n vertices and then yields each axis's edge hashes in
table-block order; exhaustive builds (key ``mix64(seed)``) and percolations
(key ``fold(seed, "perc")``) both draw from it, at 2^n + n * 2^(n-1) mix
passes instead of n * 2^n.  Lazy rows instead hash one vertex's n edges
side by side (below).

Rows.  Every per-vertex query (``is_pne``, closures, walk steps,
:func:`neighbor_partition`) reads ``row(v)``: two n-bit masks, bit i of
``out_bits`` / ``in_bits`` set when v's axis-i edge points out of / into v
(a tie sets neither).  Rows are memoized per medium in either storage mode,
at most 2^min(n, 16) of them (the default closure budget, so the whole cube
for n <= 16); a full memo is emptied before the next row is stored.  An
exhaustive medium keeps a ``memoryview`` of its read-only table (a view,
not a copy), whose items are Python ints, and n and 2^n as ints.  A row
miss reads v's n entries from the view, at positions it takes from per-axis
masks and offsets cached per n (:func:`_axes`), and the per-edge reads
(:func:`orientation`, ``orientation_seen_from``) read one entry without a row,
seen from the partner through a 3-tuple that swaps Up and Down.  A lazy
medium answers its per-edge reads from ``row(v)`` as well, so the row is
its one hasher: it hashes v's n edges in one Python int of n 128-bit lanes.
Lane i starts as the base of v's axis-i edge, ``h0 ^ (v & ~bit_i)`` (the
seed's pass h0 is computed once per medium, in every lane), and
:func:`~nashwalk.rng.mix64_lanes` mixes every lane at once, the vertex pass
and then, after each lane is xored with its axis, the edge pass.  Adding
``(2^64 - t)`` to every lane carries into a lane's bit 64 exactly when its
hash is >= t; the tie carry and the down carry are packed into bits 64 and
65 of each lane, so one ``to_bytes`` of the sum gives each lane's byte 8,
which two ``translate`` tables read as the row's non-tie and down-edge
masks.  The thresholds are cached per alpha and the lane constants,
threshold adds included, per (n, t_tie, t_up), so a lazy medium costs two
lookups to build.  For any n a row costs two mix passes and one carry read
over one 16n-byte int.
Closure probes and walks revisit the same vertices many times, and with
the memo those revisits read nothing.

Files.  NWMEDIUM (a medium's 2-bit codes) and NWPERC (a percolation's
1-bit open flags) are one codec: :func:`dump_edges` writes a
:mod:`~nashwalk.container` with the caller's JSON header and the per-edge
values in (base ascending, axis ascending) order, :func:`file_positions`
being that permutation of the table layout, packed 8 // width to a byte,
entry k at bits width * (k mod 8 // width).  :func:`load_edges` reverses it
and makes every check the two formats share (header fields,
``format_version``, a 64-bit seed, the exact payload length, clear spare
bits); each format checks only its own fields.  A loaded medium is built by
:meth:`Medium.from_orientation_table`, the one check that codes are 0-2.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .container import check_header, pack_container, unpack_container
from .errors import (
    AlphaOutOfRange,
    AxisOutOfRange,
    DimensionTooLarge,
    ExhaustiveModeRequired,
    IncompleteTable,
    NonCanonicalEdge,
)
from .rng import (
    MASK64, TAG_MEDIUM, fold, lane_constants, mix64, mix64_lanes, mix64_np, threshold,
    trial_seed,
)

Vertex = int

TIE = 0
UP = 1
DOWN = 2

MODE_EXHAUSTIVE = "exhaustive"
MODE_LAZY = "lazy"

EXHAUSTIVE_CAP = 24
LAZY_CAP = 62

# axes below this one are walked through transposed views (see long_inner)
LOW_AXES = 3

MEDIUM_MAGIC = b"NWMEDIUM"
FORMAT_VERSION = 1  # of NWMEDIUM and NWPERC files alike


@dataclass(frozen=True)
class EdgeRef:
    """Canonical edge handle: base vertex with the axis bit clear."""

    base: Vertex
    axis: int


@dataclass(frozen=True)
class MediumParams:
    n_players: int
    alpha: float
    seed: int
    mode: str = MODE_EXHAUSTIVE

    @property
    def beta(self) -> float:
        return (1.0 - self.alpha) / 2.0


class NeighborPartition(NamedTuple):
    out: list[Vertex]
    inward: list[Vertex]
    tie: list[Vertex]


def neighbors(v: Vertex, bits: int) -> list[Vertex]:
    """v's neighbors across the axes set in `bits`, in ascending axis order
    (the decode of a :meth:`Medium.row` mask)."""
    out = []
    while bits:
        bit = bits & -bits
        bits ^= bit
        out.append(v ^ bit)
    return out


def edge_count(n: int) -> int:
    return n << (n - 1)


def squeeze_bit(v: int, axis: int) -> int:
    """Drop bit `axis` from v, closing the gap."""
    low = v & ((1 << axis) - 1)
    return low | ((v >> (axis + 1)) << axis)


def as_index(value, error: type[Exception], what: str) -> int:
    """`value` as a Python int through ``operator.index``, so numpy integers
    read like ints; a non-integer raises `error`."""
    try:
        return operator.index(value)
    except TypeError:
        raise error(f"{what} {value!r} is not an integer") from None


def edge_index(base: Vertex, axis: int, n: int) -> int:
    """Axis-major position of a canonical edge in the in-memory table."""
    return axis * (1 << (n - 1)) + squeeze_bit(base, axis)


def axis_view(per_vertex: np.ndarray, axis: int) -> np.ndarray:
    """View a per-vertex array as (2^(n-1-axis), 2, 2^axis) along `axis`.

    ``[:, 0, :]`` holds the vertices whose bit `axis` is clear -- the
    canonical edge bases, in the order of axis `axis`'s table block -- and
    ``[:, 1, :]`` their partners ``base | 1 << axis`` in the same positions.
    A table block reshaped with ``.reshape(-1, 1 << axis)`` lines up with
    either half elementwise.  No copy is made for a contiguous input.
    """
    return per_vertex.reshape(-1, 2, 1 << axis)


def long_inner(half: np.ndarray, axis: int) -> np.ndarray:
    """A (2^(n-1-axis), 2^axis) view -- an :func:`axis_view` half or an
    :func:`edge_block` -- laid out so a ufunc runs long inner loops.

    A ufunc walks such a view in inner runs of 2^axis elements, which on
    axes 1 and 2 are runs of 2 or 4 that cost several times a high axis's
    pass.  Below axis 3 the view is transposed, so a ufunc called with
    ``order="C"`` runs 2^(n-1-axis) strided elements per inner loop; from
    axis 3 on it is returned as it is.  Every operand of one ufunc call goes
    through it with the same axis, so they stay lined up elementwise.
    """
    return half.T if axis < LOW_AXES else half


def edge_block(per_edge: np.ndarray, axis: int, n: int) -> np.ndarray:
    """View axis `axis`'s block of an axis-major per-edge array (length
    n * 2^(n-1)) as (2^(n-1-axis), 2^axis), lined up elementwise with
    ``axis_view(per_vertex, axis)[:, 0, :]``.  No copy is made for a
    contiguous input."""
    return per_edge.reshape(n, -1)[axis].reshape(-1, 1 << axis)


def default_closure_budget(n: int) -> int:
    """Default closure-probe budget, also the row memo's cap: 2^min(n, 16)."""
    return 1 << min(n, 16)


def edge_hashes(key: int, n: int):
    """Yield, axis by axis, ``mix64(mix64(key ^ base) ^ axis)`` for the
    axis's canonical edges, shaped like ``axis_view(per_vertex, axis)[:, 0, :]``
    (the layout of the axis's table block).

    With ``key = mix64(seed)`` these are ``fold(seed, base, axis)``; with
    ``key = fold(seed, *tags)`` they are ``fold(seed, *tags, base, axis)``.
    The vertex pass ``mix64(key ^ v)`` is one pass over the 2^n vertices,
    shared by all n axes; each axis then costs one pass over its 2^(n-1)
    edges.  One buffer serves every axis, so use each array before asking
    for the next.
    """
    size = 1 << n
    hv = np.arange(size, dtype=np.uint64)
    hv ^= np.uint64(key)
    scratch = np.empty(size, dtype=np.uint64)
    mix64_np(hv, out=hv, tmp=scratch)
    h, tmp = scratch[: size >> 1], scratch[size >> 1 :]
    for axis in range(n):
        bases = axis_view(hv, axis)[:, 0, :]
        out, spare = h.reshape(bases.shape), tmp.reshape(bases.shape)
        np.bitwise_xor(long_inner(bases, axis), np.uint64(axis),
                       out=long_inner(out, axis), order="C")
        yield mix64_np(out, out=out, tmp=spare)


@functools.cache  # one entry per n, at most LAZY_CAP
def _axes(n: int) -> tuple[tuple[int, int, int, int], ...]:
    """Per axis i of the n-cube, (bit, low, above, offset): bit i, the masks
    of the n - 1 bits below and from bit i, and the start of axis i's table
    block.  For a vertex v, ``offset + (v & low | v >> 1 & above)`` is
    ``edge_index(v & ~bit, i, n)``, the position of v's axis-i edge."""
    return tuple(
        (1 << i, (1 << i) - 1, (1 << (n - 1)) - (1 << i), i << (n - 1)) for i in range(n)
    )


@functools.lru_cache(maxsize=256)
def _row_lanes(n: int, t_tie: int, t_up: int) -> tuple[int, ...]:
    """(ONE, LOW, GOLDEN, BASES, AXES, TIE_ADD, UP_ADD, CARRY) for a lazy
    row's n 128-bit lanes: :func:`lane_constants`, the low 64 bits less bit
    i and the integer i in lane i, 2^64 - t for each threshold in every
    lane, and bit 64 of every lane.  Adding 2^64 - t to a lane below 2^64
    carries into its bit 64 exactly when the lane is >= t (both t < 2^64, as
    alpha < 1)."""
    one, low, golden = lane_constants(n)
    bases = low ^ sum(1 << (129 * i) for i in range(n))
    axes = sum(i << (128 * i) for i in range(n))
    return (one, low, golden, bases, axes,
            ((1 << 64) - t_tie) * one, ((1 << 64) - t_up) * one, one << 64)


# a lane's byte 8 holds its tie carry in bit 0 and its down carry in bit 1;
# these read each carry as a binary digit
_NONTIE_DIGITS = bytes.maketrans(b"\x00\x01\x02\x03", b"0101")
_DOWN_DIGITS = bytes.maketrans(b"\x00\x01\x02\x03", b"0011")

# a code seen from the partner of its edge's base: Up and Down swap
_FLIPPED = (TIE, DOWN, UP)


@functools.lru_cache(maxsize=256)
def _tie_up_thresholds(alpha: float) -> tuple[int, int]:
    # [0, t_tie) -> Tie, [t_tie, t_up) -> Up, [t_up, 2^64) -> Down.  The
    # Up/Down split is the exact integer midpoint of the non-tie mass.
    t_tie = threshold(alpha)
    t_up = t_tie + ((1 << 64) - t_tie) // 2
    return t_tie, t_up


def _validate_params(params: MediumParams, sampled: bool = True) -> None:
    """Check mode, alpha and dimension.  A sampled medium needs alpha < 1 to
    orient anything; an explicit table (a file, a payoff game) may record
    alpha = 1 for an all-tie game."""
    if params.mode not in (MODE_EXHAUSTIVE, MODE_LAZY):
        raise ValueError(f"unknown mode {params.mode!r}")
    if not (0.0 <= params.alpha < 1.0 or (not sampled and params.alpha == 1.0)):
        bound = "1)" if sampled else "1]"
        raise AlphaOutOfRange(f"alpha must be in [0, {bound}, got {params.alpha}")
    if params.n_players < 1:
        raise DimensionTooLarge("n_players must be >= 1")
    cap = EXHAUSTIVE_CAP if params.mode == MODE_EXHAUSTIVE else LAZY_CAP
    if params.n_players > cap:
        raise DimensionTooLarge(
            f"n_players={params.n_players} exceeds {params.mode} cap {cap}"
        )


class Medium:
    """Orientation oracle over the n-cube's edges.

    Use :func:`build_medium` / :func:`medium_from_payoffs` /
    :meth:`Medium.from_orientation_table` instead of constructing directly.
    """

    def __init__(self, params: MediumParams, table: np.ndarray | None):
        self.params = params
        self._table = table  # int8, axis-major, or None in lazy mode
        n = params.n_players
        self._n = n
        self._size = 1 << n
        self._rows: dict[int, tuple[int, int]] = {}
        self._row_cap = default_closure_budget(n)
        self._axes = _axes(n)
        if table is None:
            self._codes = None
            self._lanes = _row_lanes(n, *_tie_up_thresholds(params.alpha))
            # fold(seed, base, axis) == mix64(mix64(h0 ^ base) ^ axis); the
            # seed's own pass is the same for every edge, so it is done once,
            # and kept in every lane
            self._h0 = mix64(params.seed) * self._lanes[0]
        else:
            table.flags.writeable = False  # memoized rows must not go stale
            # the scalar reads index this read-only view of the table, whose
            # items are Python ints
            self._codes = memoryview(table)

    def __reduce__(self):
        # a memoryview does not pickle: rebuild the medium from its table
        return type(self), (self.params, self._table)

    # -- construction -----------------------------------------------------

    @classmethod
    def from_orientation_table(
        cls, n: int, table, alpha: float = 0.0, seed: int = 0
    ) -> "Medium":
        """Wrap a copy of an explicit axis-major orientation table (a loaded
        file, tests, fixtures); later changes to `table` do not reach the
        medium.  The one check that every code is 0, 1 or 2."""
        arr = np.array(table, dtype=np.int8)
        if arr.shape != (edge_count(n),):
            raise IncompleteTable(
                f"orientation table must have {edge_count(n)} entries, got {arr.shape}"
            )
        if arr.size and (arr.min() < TIE or arr.max() > DOWN):
            raise IncompleteTable("orientation codes must be 0 (tie), 1 (up) or 2 (down)")
        return cls(MediumParams(n, alpha, seed, MODE_EXHAUSTIVE), arr)

    # -- core queries ------------------------------------------------------

    @property
    def n_players(self) -> int:
        return self.params.n_players

    @property
    def mode(self) -> str:
        return self.params.mode

    def row(self, v: Vertex) -> tuple[int, int]:
        """(out_bits, in_bits) of v: bit i set when v's axis-i edge points
        out of / into v; neither bit for a tie.  Memoized.

        A v that is not an int is read through ``operator.index`` before the
        memo is consulted (a numpy integer reads like an int; a non-integer,
        1.0 included, raises NonCanonicalEdge whether or not vertex 1's row
        is memoized).  On a miss v is range-checked; an exhaustive medium
        then reads v's n table entries, and a lazy one hashes all n edges at
        once in one lane-packed int (see the module docstring)."""
        if type(v) is not int:
            v = as_index(v, NonCanonicalEdge, "vertex")
        row = self._rows.get(v)
        if row is not None:
            return row
        if not 0 <= v < self._size:
            raise NonCanonicalEdge(f"vertex {v} outside the {self._n}-cube")
        codes = self._codes
        if codes is None:
            one, low, golden, bases, axes, tie_add, up_add, carry = self._lanes
            # lane i holds the base of v's axis-i edge, h0 ^ (v & ~bit_i)
            x = self._h0 ^ ((v * one) & bases)
            x = mix64_lanes(mix64_lanes(x, golden, low) ^ axes, golden, low)
            # both carries in each lane's byte 8, read most significant lane
            # first: a lane's byte 8 is its byte 7 from the top
            carries = ((x + tie_add) & carry) | (((x + up_add) & carry) << 1)
            digits = carries.to_bytes(16 * self._n, "big")[7::16]
            nontie = int(digits.translate(_NONTIE_DIGITS), 2)
            down = int(digits.translate(_DOWN_DIGITS), 2)
            # UP runs from the base (bit clear) to the partner (bit set)
            out_bits = ((nontie ^ down) & ~v) | (down & v)
            in_bits = nontie ^ out_bits
        else:
            out_bits = in_bits = 0
            shifted = v >> 1
            for bit, low, above, offset in self._axes:
                code = codes[offset + (v & low | shifted & above)]
                if code != TIE:
                    # an Up edge leaves its base, whose bit is clear
                    if (code == UP) == (not v & bit):
                        out_bits |= bit
                    else:
                        in_bits |= bit
        if len(self._rows) >= self._row_cap:
            self._rows.clear()
        row = self._rows[v] = (out_bits, in_bits)
        return row

    def orientation_seen_from(self, v: Vertex, axis: int) -> int:
        """Edge state relative to v: UP = out of v, DOWN = into v, TIE = tie.

        The coupling's per-edge read: axis and v are checked once, then the
        entry is read straight from the table's view, at the position
        :meth:`row` reads it from, and swapped through a 3-tuple when v is
        the edge's partner.  A lazy medium decodes bit `axis` of :meth:`row`
        instead, so its edges are hashed in one place.  Numpy integers index
        and mask like ints; a non-integer v or axis makes the read raise
        TypeError, and only then are v and axis read through ``operator.index``
        (as in :func:`orientation`) and the read retried, so the Python-int
        path does no extra work.  A non-integer raises NonCanonicalEdge or
        AxisOutOfRange.
        """
        try:
            if not 0 <= axis < self._n:
                raise AxisOutOfRange(f"axis {axis} outside [0, {self._n})")
            if not 0 <= v < self._size:
                raise NonCanonicalEdge(f"vertex {v} outside the {self._n}-cube")
            bit, low, above, offset = self._axes[axis]
            codes = self._codes
            if codes is None:
                out_bits, in_bits = self.row(v)
                return UP if out_bits & bit else DOWN if in_bits & bit else TIE
            code = codes[offset + (v & low | v >> 1 & above)]
            return _FLIPPED[code] if v & bit else code
        except TypeError:
            axis = as_index(axis, AxisOutOfRange, "axis")
            return self.orientation_seen_from(as_index(v, NonCanonicalEdge, "vertex"), axis)

    # -- vectorized views (exhaustive only) --------------------------------

    def require_table(self) -> np.ndarray:
        if self._table is None:
            raise ExhaustiveModeRequired(
                "operation needs an exhaustive orientation table"
            )
        return self._table

    def axis_block(self, axis: int) -> np.ndarray:
        """Orientation codes for axis's canonical edges, shaped to line up
        with ``axis_view(per_vertex, axis)[:, 0, :]``."""
        return edge_block(self.require_table(), axis, self.n_players)

    def out_mask(self, axis: int, out: np.ndarray, reverse: bool = False) -> np.ndarray:
        """Fill the per-vertex bool buffer `out` (length 2^n) with "v's
        axis-`axis` edge points out of v" and return it: an Up edge leaves
        its base, a Down edge its partner, a tie neither.  With `reverse`,
        "points into v" instead, the out-edge of the reversed graph.  Two
        compares of the table block, through :func:`long_inner`."""
        base_code, partner_code = (DOWN, UP) if reverse else (UP, DOWN)
        block = long_inner(self.axis_block(axis), axis)
        view = axis_view(out, axis)
        np.equal(block, base_code, out=long_inner(view[:, 0, :], axis), order="C")
        np.equal(block, partner_code, out=long_inner(view[:, 1, :], axis), order="C")
        return out

    def degrees(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(out_degree, in_degree, tie_degree) int16 arrays over all vertices.

        Per axis, two per-vertex bool buffers are filled by compares of the
        table block: :meth:`out_mask` ("out of v") and its ``reverse`` ("into
        v", where a Down edge points into its base and an Up edge into its
        partner).  Both are added to the counts as contiguous arrays.  The
        counts are int8, which holds any degree of an exhaustive cube
        (n <= 24), and are widened once at the end.
        """
        n = self.n_players
        out_deg = np.zeros(1 << n, dtype=np.int8)
        in_deg = np.zeros(1 << n, dtype=np.int8)
        out_b = np.empty(1 << n, dtype=bool)
        in_b = np.empty(1 << n, dtype=bool)
        for axis in range(n):
            out_deg += self.out_mask(axis, out_b).view(np.int8)
            in_deg += self.out_mask(axis, in_b, reverse=True).view(np.int8)
        out_deg = out_deg.astype(np.int16)
        in_deg = in_deg.astype(np.int16)
        return out_deg, in_deg, n - out_deg - in_deg

    def oriented_edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """All oriented edges as (src, dst) int64 arrays (ties excluded).

        Per axis: the Up edges base -> partner, then the Down edges
        partner -> base, each in ascending base order.
        """
        n = self.n_players
        vertices = np.arange(1 << n, dtype=np.int64)
        srcs: list[np.ndarray] = []
        dsts: list[np.ndarray] = []
        for axis in range(n):
            block = self.axis_block(axis).ravel()
            bases = axis_view(vertices, axis)[:, 0, :]
            # np.compress flattens in C order, like the block
            up_bases = np.compress(block == UP, bases)
            down_bases = np.compress(block == DOWN, bases)
            srcs += (up_bases, down_bases | (1 << axis))
            dsts += (up_bases | (1 << axis), down_bases)
        return np.concatenate(srcs), np.concatenate(dsts)

    # -- serialization ------------------------------------------------------

    def header(self) -> dict:
        return {
            "n_players": self.params.n_players,
            "alpha": self.params.alpha,
            "seed": self.params.seed,
            "mode": self.params.mode,
            "format_version": FORMAT_VERSION,
        }

    def dump_bytes(self) -> bytes:
        """Binary dump: header plus 2-bit codes in file order (:func:`dump_edges`)."""
        return dump_edges(MEDIUM_MAGIC, self.header(), self.require_table(), self.n_players, 2)

    @classmethod
    def load_bytes(cls, data: bytes) -> "Medium":
        header, codes = load_edges(data, MEDIUM_MAGIC, {
            "n_players": int, "alpha": (int, float), "seed": int, "mode": str,
        }, 2, _medium_file_n)
        return cls.from_orientation_table(
            header["n_players"], codes, float(header["alpha"]), header["seed"]
        )


def _medium_file_n(header: dict) -> int:
    """The n of a NWMEDIUM header, once its mode, alpha and n are ones a
    medium file may hold: exhaustive, alpha up to 1, n up to the cap."""
    if header["mode"] != MODE_EXHAUSTIVE:
        raise IncompleteTable(
            f"medium files hold exhaustive tables, header says mode {header['mode']!r}"
        )
    n = header["n_players"]
    _validate_params(MediumParams(n, float(header["alpha"]), header["seed"]), sampled=False)
    return n


def _popcount(a: np.ndarray) -> np.ndarray:
    return np.bitwise_count(a.astype(np.uint64)).astype(np.int64)


def _edge_offsets(n: int) -> np.ndarray:
    """offsets[v] = number of canonical edges with base < v."""
    v = np.arange(1 << n, dtype=np.uint64)
    zeros = n - _popcount(v)
    offsets = np.zeros(1 << n, dtype=np.int64)
    np.cumsum(zeros[:-1], out=offsets[1:])
    return offsets


def file_positions(n: int) -> np.ndarray:
    """Permutation from the axis-major table layout to the serialized
    (base ascending, axis ascending) canonical edge order."""
    pos = np.empty(edge_count(n), dtype=np.int64)
    offsets = _edge_offsets(n)
    for axis in range(n):
        # a base's rank among its own edges is the number of clear bits below
        # `axis`; those bits are the base's position along the view's last dim
        rank = axis - _popcount(np.arange(1 << axis))
        np.add(axis_view(offsets, axis)[:, 0, :], rank, out=edge_block(pos, axis, n))
    return pos


def dump_edges(magic: bytes, header: dict, per_edge: np.ndarray, n: int, width: int) -> bytes:
    """The NWMEDIUM / NWPERC writer: the container with `header`, then the
    n-cube's axis-major `per_edge` values (each below 2^width) in file order,
    packed 8 // width to a byte, entry k at bits width * (k mod 8 // width)
    of byte k // (8 // width); the last byte's spare bits are clear."""
    per_byte = 8 // width
    file_order = np.zeros(-(-edge_count(n) // per_byte) * per_byte, dtype=np.uint8)
    file_order[file_positions(n)] = per_edge
    # Read each byte's run of entries as one little-endian word, entry k at
    # bit 8k.  One product moves entry k to bit 8 * (per_byte - 1) + width * k
    # (no two partial products overlap), so the word's top byte is the
    # packed byte.
    word = np.dtype(f"<u{per_byte}")
    top = 8 * (per_byte - 1)
    spread = sum(1 << (top - (8 - width) * k) for k in range(per_byte))
    words = file_order.view(word)
    words *= word.type(spread)
    words >>= word.type(top)
    return pack_container(magic, header, words.astype(np.uint8).tobytes())


@functools.cache
def _byte_entries(width: int) -> np.ndarray:
    """Per byte value, its 8 // width entries of `width` bits, one per byte
    of a little-endian word: the decode table of :func:`load_edges`."""
    per_byte = 8 // width
    shifts = width * np.arange(per_byte, dtype=np.uint8)
    entries = (np.arange(256, dtype=np.uint8)[:, None] >> shifts) & ((1 << width) - 1)
    table = entries.view(f"<u{per_byte}").ravel()
    table.flags.writeable = False  # shared by every call
    return table


def load_edges(
    data: bytes, magic: bytes, fields: dict, width: int, file_n
) -> tuple[dict, np.ndarray]:
    """The NWMEDIUM / NWPERC reader, inverse of :func:`dump_edges`: the
    header and the per-edge values (uint8, axis-major).

    The header must hold exactly `fields` and ``format_version``, the
    version must be :data:`FORMAT_VERSION` and a non-null ``seed`` (both
    formats carry one) a 64-bit word.  ``file_n(header)`` makes the format's
    own checks and returns n, before anything of payload size is allocated;
    the payload must then hold exactly the n-cube's entries, and the last
    byte's spare bits must be clear.
    """
    header, payload = unpack_container(data, magic)
    check_header(header, {**fields, "format_version": int})
    if header["format_version"] != FORMAT_VERSION:
        name = magic.rstrip(b"\x00").decode()
        raise IncompleteTable(f"unsupported {name} format_version {header['format_version']}")
    seed = header["seed"]
    if seed is not None and not 0 <= seed <= MASK64:
        raise IncompleteTable(f"seed {seed} is not a 64-bit word")
    n = file_n(header)
    count = edge_count(n)
    size = -(-count // (8 // width))
    if len(payload) != size:
        raise IncompleteTable(f"payload is {len(payload)} bytes, {count} entries need {size}")
    file_order = _byte_entries(width)[np.frombuffer(payload, dtype=np.uint8)].view(np.uint8)
    if file_order[count:].any():
        raise IncompleteTable("the last payload byte's spare bits must be clear")
    return header, file_order[file_positions(n)]


def build_medium(
    n_players: int,
    alpha: float,
    seed: int,
    mode: str = MODE_EXHAUSTIVE,
) -> Medium:
    """Sample the i.i.d. edge law: Tie w.p. alpha, Up/Down w.p. (1-alpha)/2 each.

    The orientation of edge (base, axis) is a pure function of
    (seed, base, axis); exhaustive and lazy media with equal params agree on
    every edge.
    """
    params = MediumParams(n_players, alpha, seed & MASK64, mode)
    _validate_params(params)
    if mode == MODE_LAZY:
        return Medium(params, None)
    t_tie, t_up = _tie_up_thresholds(alpha)  # both < 2^64 since alpha < 1
    n = n_players
    table = np.empty(edge_count(n), dtype=np.int8)
    tt, tu = np.uint64(t_tie), np.uint64(t_up)
    for axis, h in enumerate(edge_hashes(mix64(params.seed), n)):
        # TIE = 0, UP = 1, DOWN = 2: the code counts the thresholds h clears
        np.add(h >= tt, h >= tu, out=edge_block(table, axis, n), dtype=np.int8)
    return Medium(params, table)


def trial_medium(params: MediumParams, trial: int, mode: str | None = None) -> Medium:
    """Trial `trial`'s medium of an experiment seeded ``params.seed``: the
    seed is fold(params.seed, "medium", trial) (:func:`~nashwalk.rng.trial_seed`),
    so every trial draws a fresh, independent cube and any trial can be
    rebuilt on its own.  `mode`, when given, stores it in that mode instead
    of ``params.mode``: the same edges, as a lazy twin of a table."""
    return build_medium(
        params.n_players, params.alpha, trial_seed(params.seed, TAG_MEDIUM, trial),
        mode or params.mode,
    )


# -- payoff games ----------------------------------------------------------

DIST_CONTINUOUS_UNIFORM = "continuous_uniform"
DIST_BERNOULLI = "bernoulli"
DIST_DISCRETE_UNIFORM = "discrete_uniform"
DIST_EXPLICIT = "explicit"
_PAYOFF_KINDS = (DIST_CONTINUOUS_UNIFORM, DIST_BERNOULLI, DIST_DISCRETE_UNIFORM, DIST_EXPLICIT)

_PAYOFF_TAG = int.from_bytes(b"payoff", "little")


@dataclass(frozen=True)
class PayoffSpec:
    """A payoff family: one of the four kinds, p in [0, 1] when given (the
    Bernoulli mass, default 1/2) and k at least 1 (discrete_uniform's value
    count, required there); anything else raises IncompleteTable."""

    kind: str
    p: float | None = None
    k: int | None = None

    def __post_init__(self):
        if self.kind not in _PAYOFF_KINDS:
            raise IncompleteTable(f"unknown payoff family {self.kind!r}")
        if self.p is not None and not 0.0 <= self.p <= 1.0:
            raise IncompleteTable(f"p must be in [0, 1], got {self.p}")
        if self.k is not None or self.kind == DIST_DISCRETE_UNIFORM:
            if as_index(self.k, IncompleteTable, "k") < 1:
                raise IncompleteTable(f"k must be an integer of at least 1, got {self.k!r}")

    def induced_alpha(self) -> float:
        """Tie probability of the orientation law this family induces."""
        if self.kind == DIST_CONTINUOUS_UNIFORM:
            return 0.0
        if self.kind == DIST_BERNOULLI:
            p = 0.5 if self.p is None else self.p
            return p * p + (1.0 - p) * (1.0 - p)
        if self.kind == DIST_DISCRETE_UNIFORM:
            return 1.0 / self.k
        return 0.0  # explicit tables carry no generative tie mass


@dataclass(frozen=True, eq=False)
class PayoffGame:
    """n-player binary-action game: payoffs[i][u] is player i's payoff at u."""

    n_players: int
    payoffs: np.ndarray  # shape (n, 2^n), float64
    spec: PayoffSpec = field(default_factory=lambda: PayoffSpec(DIST_EXPLICIT))

    def __post_init__(self):
        arr = np.asarray(self.payoffs, dtype=np.float64)
        n = self.n_players
        if arr.shape != (n, 1 << n):
            raise IncompleteTable(
                f"payoff table must be shape ({n}, {1 << n}), got {arr.shape}"
            )
        if not np.isfinite(arr).all():
            raise IncompleteTable("payoff table contains non-finite entries")
        object.__setattr__(self, "payoffs", arr)


def sample_payoff_game(n_players: int, spec: PayoffSpec, seed: int) -> PayoffGame:
    """Draw an explicit payoff table from one of the supported families."""
    if n_players < 1 or n_players > EXHAUSTIVE_CAP:
        raise DimensionTooLarge(f"payoff games need 1 <= n <= {EXHAUSTIVE_CAP}")
    size = 1 << n_players
    table = np.empty((n_players, size), dtype=np.float64)
    vertices = np.arange(size, dtype=np.uint64)
    for i in range(n_players):
        # fold(seed, tag, i, v) == mix64(fold(seed, tag, i) ^ v)
        h = mix64_np(vertices ^ np.uint64(fold(seed, _PAYOFF_TAG, i)))
        if spec.kind == DIST_CONTINUOUS_UNIFORM:
            table[i] = (h >> np.uint64(11)) * (2.0 ** -53)
        elif spec.kind == DIST_BERNOULLI:
            p = 0.5 if spec.p is None else spec.p
            t = threshold(p)
            if t >= 1 << 64:
                table[i] = 1.0
            else:
                table[i] = (h < np.uint64(t)).astype(np.float64)
        elif spec.kind == DIST_DISCRETE_UNIFORM:
            table[i] = (h % np.uint64(spec.k)).astype(np.float64)
        else:
            raise IncompleteTable(f"cannot sample family {spec.kind!r}")
    return PayoffGame(n_players, table, spec)


def medium_from_payoffs(game: PayoffGame) -> Medium:
    """Orient each edge toward the endpoint its mover strictly prefers.

    Edge (base, axis) compares player `axis`'s payoff at base and at
    base^(1<<axis); equal payoffs give a tie.
    """
    n = game.n_players
    table = np.empty(edge_count(n), dtype=np.int8)
    for axis in range(n):
        view = axis_view(game.payoffs[axis], axis)
        at_base, at_partner = view[:, 0, :], view[:, 1, :]
        codes = edge_block(table, axis, n)
        codes[...] = TIE
        codes[at_partner > at_base] = UP
        codes[at_base > at_partner] = DOWN
    params = MediumParams(n, game.spec.induced_alpha(), 0, MODE_EXHAUSTIVE)
    return Medium(params, table)


# -- per-edge and per-vertex reads -----------------------------------------


def orientation(medium: Medium, edge: EdgeRef) -> int:
    """Orientation code (TIE / UP / DOWN) of a canonical edge.  Numpy
    integers read like Python ints; an axis outside the cube raises
    AxisOutOfRange, a base outside it or with the axis bit set
    NonCanonicalEdge."""
    n = medium.n_players
    axis = as_index(edge.axis, AxisOutOfRange, "axis")
    if not 0 <= axis < n:
        raise AxisOutOfRange(f"axis {axis} outside [0, {n})")
    base = as_index(edge.base, NonCanonicalEdge, "base")
    if not 0 <= base < 1 << n:
        raise NonCanonicalEdge(f"base {base} outside the {n}-cube")
    if base >> axis & 1:
        raise NonCanonicalEdge(f"base {base:#x} has bit {axis} set; not canonical")
    # seen from its canonical base, an edge's state is its own code
    return medium.orientation_seen_from(base, axis)


def neighbor_partition(medium: Medium, v: Vertex) -> NeighborPartition:
    """Split v's n neighbors into (out, inward, tie), ordered by axis: a
    decode of :meth:`Medium.row` into fresh lists of ints, which the caller
    owns (a numpy integer v gives int neighbors too)."""
    v = as_index(v, NonCanonicalEdge, "vertex")
    out_bits, in_bits = medium.row(v)
    tie_bits = ((1 << medium.n_players) - 1) ^ out_bits ^ in_bits
    return NeighborPartition(
        neighbors(v, out_bits), neighbors(v, in_bits), neighbors(v, tie_bits)
    )
