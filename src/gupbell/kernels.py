"""Counter-based deterministic sampling kernel.

The hot loop of the shot simulator draws one uniform per shot from a
splitmix64-style mixing of (seed, global shot index) and bins it against
three cumulative thresholds.  Shots are processed in chunks of ``CHUNK``;
every uniform depends only on its global index, so counts never depend
on the chunk size.

The uniform of a shot is u = k·2⁻⁵³ with k the top 53 bits of its mixed
word, so u ≥ c holds exactly when k ≥ t = ceil(c·2⁵³).  ``sample_counts``
never forms u: it sets bit 53 of each word in place and compares the
buffer, viewed as float64, with the float64 views of t + 2⁵³.  Every
compared bit pattern, 2⁵³ ≤ k + 2⁵³ < 2⁵⁴ and 2⁵³ ≤ t + 2⁵³ ≤ 2⁵⁴, is a
positive normal double, and positive normal doubles order as their bit
patterns do, so k ≥ t holds exactly when view(k + 2⁵³) ≥ view(t + 2⁵³).
No float arithmetic is done, so neither rounding nor a denormal mode
(DAZ, FTZ) can move a count.
"""

from __future__ import annotations

import math

import numpy as np

from .quantum import frozen

U64 = np.uint64
_GOLDEN = 0x9E3779B97F4A7C15
_M64 = (1 << 64) - 1
_TWO53 = 9007199254740992.0  # 2**53

#: read-only 0-d operands, which every call and thread shares
_MIX1 = frozen(0xBF58476D1CE4E5B9, U64)
_MIX2 = frozen(0x94D049BB133111EB, U64)
_S30 = frozen(30, U64)
_S27 = frozen(27, U64)
_S31 = frozen(31, U64)
_S11 = frozen(11, U64)
_BIT53 = frozen(1 << 53, U64)

# bound once, so that the chunk loop looks up no np.<name>
_array, _add, _multiply = np.array, np.add, np.multiply
_xor, _or, _shift = np.bitwise_xor, np.bitwise_or, np.right_shift
_greater_equal, _count_nonzero = np.greater_equal, np.count_nonzero

#: shots per vectorized chunk; bounds the temporary arrays, not the results.
#: 2¹⁶ shots keep the three uint64 buffers and the bool mask (25 B/shot,
#: ~1.6 MiB per thread) inside one core's 2 MiB L2 cache on a Xeon, where
#: each in-place pass is cheapest; a core with 1 MiB of L2 no longer holds
#: them, and 2¹⁷ overflows even 2 MiB.  The pair threads of
#: shots.estimate_chsh share the GIL, and each of the loop's 17 numpy calls
#: per chunk holds it while it dispatches.  So the loop binds each ufunc
#: once and passes it 0-d arrays, which numpy dispatches in about two
#: thirds of a numpy scalar's time: on a 2-vCPU Xeon, two threads sample 4
#: pairs of 2.5·10⁶ shots in ~14 ms (~15.3 ms with scalar operands), one
#: thread in ~25 ms
CHUNK = 1 << 16


def _steps(n: int) -> np.ndarray:
    """i·golden (mod 2⁶⁴) for i = 0..n-1: the per-index part of a mix input."""
    return np.arange(n, dtype=np.uint64) * U64(_GOLDEN)


def _mix(seed: int, start: int, steps: np.ndarray, z: np.ndarray,
         scratch: np.ndarray) -> np.ndarray:
    """Overwrite z with the 53-bit words k of global indices start, start+1, ...

    The mix input of index i is seed + (i + 1)·golden (mod 2⁶⁴), i.e. the
    per-call constant ``steps`` plus one offset per chunk.  ``scratch``
    has the length of z; both are overwritten in place.
    """
    offset = _array((seed + (start + 1) * _GOLDEN) & _M64, U64)
    _add(steps[:z.size], offset, z)
    _shift(z, _S30, scratch)
    _xor(z, scratch, z)
    _multiply(z, _MIX1, z)
    _shift(z, _S27, scratch)
    _xor(z, scratch, z)
    _multiply(z, _MIX2, z)
    _shift(z, _S31, scratch)
    _xor(z, scratch, z)
    _shift(z, _S11, z)
    return z


def sample_counts(seed: int, base: int, n: int, cumulative) -> np.ndarray:
    """Outcome counts for n shots of a four-outcome distribution.

    ``cumulative`` holds the three inner cumulative probabilities
    (p0, p0+p1, p0+p1+p2), non-decreasing in [0, 1]; the fourth outcome
    takes the rest.  Shot i falls in outcome j when exactly j thresholds
    lie at or below its uniform.  The shots take the stream indices
    base, ..., base + n - 1 of the seed's stream.
    """
    # a float, bool or wrapping seed or index would sample another stream
    for name, value in (("seed", seed), ("base", base), ("n", n)):
        if isinstance(value, bool) or not isinstance(value, int):
            raise TypeError(f"{name} must be an int, got {value!r}")
    c = np.asarray(cumulative, dtype=np.float64)
    if c.shape != (3,) or not 0.0 <= c[0] <= c[1] <= c[2] <= 1.0:
        raise ValueError("cumulative must be three non-decreasing values in "
                         f"[0, 1], got {cumulative!r}")
    if n < 0:
        raise ValueError(f"shot count must be non-negative, got {n}")
    if not 0 <= seed <= _M64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    if base < 0 or base + n > _M64 + 1:
        raise ValueError("stream indices base .. base + n - 1 must lie in "
                         f"[0, 2**64), got base {base} and n {n}")
    # c·2⁵³ only rescales by a power of two, so it is exact.  The 2⁵³ is
    # added, not or-ed: c = 1 gives t = 2⁵³, whose view lies above every
    # word's and counts no shot
    t = np.array([math.ceil(float(x) * _TWO53) for x in c], dtype=np.uint64)
    thresholds = (t + _BIT53).view(np.float64)
    size = min(n, CHUNK)
    steps = _steps(size)
    z = np.empty(size, np.uint64)
    scratch = np.empty(size, np.uint64)
    mask = np.empty(size, np.bool_)
    words = z.view(np.float64)
    # 0-d views of the thresholds, not numpy scalars (see CHUNK)
    t0, t1, t2 = (thresholds[i, ...] for i in range(3))
    above0 = above1 = above2 = 0
    # the buffers and their view are sliced only for the last, partial chunk
    for lo in range(0, n, CHUNK):
        m = n - lo
        if m < size:
            z, scratch, mask, words = z[:m], scratch[:m], mask[:m], words[:m]
        _mix(seed, base + lo, steps, z, scratch)
        _or(z, _BIT53, z)
        _greater_equal(words, t0, mask)
        above0 += _count_nonzero(mask)
        _greater_equal(words, t1, mask)
        above1 += _count_nonzero(mask)
        _greater_equal(words, t2, mask)
        above2 += _count_nonzero(mask)
    return np.array([n - above0, above0 - above1, above1 - above2, above2],
                    dtype=np.int64)
