"""Counter-based keyed randomness.

Every random decision in the package is a pure function of a 64-bit seed and
some integer coordinates (edge base/axis, trial index, step index), evaluated
through iterated SplitMix64 finalizer passes.  There is no hidden generator
state, so lazy and exhaustive media agree edge-for-edge, walks replay exactly,
and trials can be computed in any order or process without changing results.

Scalar helpers use plain Python ints masked to 64 bits; :func:`mix64_np` does
the same pass on numpy uint64 arrays, and :func:`fold_lanes` a one-word fold
(two passes) on every 128-bit lane of one Python int; tests pin both against
the scalar pass.
Vectorized callers fold the scalar coordinates with :func:`fold` and absorb
the array word last with one :func:`mix64_np` pass, since
``fold(seed, *words, x) == mix64(fold(seed, *words) ^ x)``.

Trial sweeps use the same prefix property.  Trial i's medium, walk and
percolation seeds are ``fold(seed, tag, i)``: :func:`trial_seed` takes the
prefix ``fold(seed, tag)`` from a bounded cache, so it is computed once per
sweep (and once per pool worker), and each trial pays one mix pass.  A walk
derives its step key ``fold(walk_seed, "step")`` once, and step t + 1 costs
one more pass, ``mix64(key ^ t)``.
"""

from __future__ import annotations

import functools

import numpy as np

MASK64 = (1 << 64) - 1

_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# Domain-separation tags (ASCII, little-endian) so medium edges, percolation
# edges, per-trial seeds and per-step draws never share a hash stream.
TAG_MEDIUM = int.from_bytes(b"medium", "little")
TAG_WALK = int.from_bytes(b"walk", "little")
TAG_PERC = int.from_bytes(b"perc", "little")
TAG_STEP = int.from_bytes(b"step", "little")


def mix64(x: int) -> int:
    """SplitMix64 finalizer (one full avalanche pass) on a 64-bit int."""
    x = (x + _GOLDEN) & MASK64
    x = ((x ^ (x >> 30)) * _MIX1) & MASK64
    x = ((x ^ (x >> 27)) * _MIX2) & MASK64
    return x ^ (x >> 31)


def fold(seed: int, *words: int) -> int:
    """Absorb integer coordinates into a seed, one mix pass per word."""
    h = mix64(seed & MASK64)
    for w in words:
        h = mix64(h ^ (w & MASK64))
    return h


# fold(seed, tag) of the sweeps seen last
_sweep_prefix = functools.lru_cache(maxsize=256)(fold)


def trial_seed(seed: int, tag: int, trial: int) -> int:
    """``fold(seed, tag, trial)``, trial `trial`'s seed of a sweep seeded
    `seed`: one mix pass over the cached prefix ``fold(seed, tag)``."""
    return mix64(_sweep_prefix(seed, tag) ^ (trial & MASK64))


def mix64_np(
    x: np.ndarray, out: np.ndarray | None = None, tmp: np.ndarray | None = None
) -> np.ndarray:
    """mix64 on a uint64 array.  The first add writes `out` (a fresh array
    by default, so the input is never modified; ``out=x`` mixes in place)
    and every later pass works in place on it.  `tmp`, if given, is a
    scratch array of the same shape for the shifted copies."""
    x = np.add(x, np.uint64(_GOLDEN), out=out)
    if tmp is None:
        tmp = np.empty_like(x)
    for shift, mult in ((30, _MIX1), (27, _MIX2)):
        x ^= np.right_shift(x, np.uint64(shift), out=tmp)
        x *= np.uint64(mult)
    x ^= np.right_shift(x, np.uint64(31), out=tmp)
    return x


def lane_constants(lanes: int) -> tuple[int, int, int]:
    """(ONE, LOW, GOLDEN) for `lanes` 128-bit lanes packed in one Python int,
    lane i holding bits 128 i .. 128 i + 127: a 1, the low 64 bits, and
    mix64's additive constant in every lane."""
    one = sum(1 << (128 * i) for i in range(lanes))
    return one, one * MASK64, one * _GOLDEN


def fold_lanes(x: int, words: int, golden: int, low: int) -> int:
    """``fold(x_i, w_i) = mix64(mix64(x_i) ^ w_i)`` in every lane i of a
    lane-packed int at once, lane i of `x` and of `words` holding the 64-bit
    words x_i and w_i (`golden` and `low` from :func:`lane_constants`).

    Both passes are mix64's steps, the xor with `words` between them.  A
    lane's 128 bits hold any 64 x 64-bit product, so a multiply never carries
    into the next lane; each right shift would pull the next lane's low bits
    into the lane's high half, and each product fills it, so both are masked
    back to the low 64 bits.  The shift by 31 between the passes needs no
    mask: the bits it pulls in land in bits 97-127, above the add's carry
    into an empty bit 64, and the mask after the add drops them."""
    x = (x + golden) & low
    x = ((x ^ ((x >> 30) & low)) * _MIX1) & low
    x = ((x ^ ((x >> 27) & low)) * _MIX2) & low
    x = ((x ^ (x >> 31) ^ words) + golden) & low
    x = ((x ^ ((x >> 30) & low)) * _MIX1) & low
    x = ((x ^ ((x >> 27) & low)) * _MIX2) & low
    return x ^ ((x >> 31) & low)


def unit_interval(h: int) -> float:
    """Map a 64-bit hash to [0, 1) using the top 53 bits."""
    return (h >> 11) * (2.0 ** -53)


def threshold(p: float) -> int:
    """Exact floor(p * 2^64) for a binary64 p in [0, 1].

    Multiplying a float by a power of two is exact, so int() truncates the
    true product.
    """
    return int(p * 18446744073709551616.0)  # 2**64
