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

U64 = np.uint64
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = U64(0xBF58476D1CE4E5B9)
_MIX2 = U64(0x94D049BB133111EB)
_S30 = U64(30)
_S27 = U64(27)
_S31 = U64(31)
_S11 = U64(11)
_M64 = (1 << 64) - 1
_TWO53 = 9007199254740992.0  # 2**53
_BIT53 = U64(1 << 53)

#: shots per vectorized chunk; bounds the temporary arrays, not the results.
#: 2¹⁶ shots keep the three uint64 buffers and the bool mask (25 B/shot,
#: ~1.6 MiB per thread) inside one core's 2 MiB L2 cache on a Xeon, where
#: each in-place pass is cheapest.  One thread costs the same per shot at
#: 2¹⁵ as at 2¹⁶ (~36 ms for 4 pairs of 2.5·10⁶ shots), but every numpy
#: call releases and retakes the GIL, and the pair threads of
#: shots.estimate_chsh share it: halving the calls per shot took two
#: threads from 29–32 to 22–26 ms.  A core with 1 MiB of L2 no longer holds
#: a chunk's buffers; 2¹⁷ overflows even 2 MiB
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
    offset = (int(seed) + (int(start) + 1) * _GOLDEN) & _M64
    np.add(steps[:z.size], U64(offset), out=z)
    np.right_shift(z, _S30, out=scratch)
    z ^= scratch
    z *= _MIX1
    np.right_shift(z, _S27, out=scratch)
    z ^= scratch
    z *= _MIX2
    np.right_shift(z, _S31, out=scratch)
    z ^= scratch
    z >>= _S11
    return z


def sample_counts(seed: int, base: int, n: int, cumulative) -> np.ndarray:
    """Outcome counts for n shots of a four-outcome distribution.

    ``cumulative`` holds the three inner cumulative probabilities
    (p0, p0+p1, p0+p1+p2), non-decreasing in [0, 1]; the fourth outcome
    takes the rest.  Shot i falls in outcome j when exactly j thresholds
    lie at or below its uniform.
    """
    c = np.asarray(cumulative, dtype=np.float64)
    if c.shape != (3,) or not 0.0 <= c[0] <= c[1] <= c[2] <= 1.0:
        raise ValueError("cumulative must be three non-decreasing values in "
                         f"[0, 1], got {cumulative!r}")
    if n < 0:
        raise ValueError(f"shot count must be non-negative, got {n}")
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
    above = [0, 0, 0]
    # each call in the loop releases and retakes the GIL (see CHUNK), so
    # the buffers and their view are sliced only for the last, partial chunk
    for lo in range(0, n, CHUNK):
        m = n - lo
        if m < size:
            z, scratch, mask, words = z[:m], scratch[:m], mask[:m], words[:m]
        _mix(seed, base + lo, steps, z, scratch)
        z |= _BIT53
        for i, threshold in enumerate(thresholds):
            np.greater_equal(words, threshold, mask)
            above[i] += np.count_nonzero(mask)
    a0, a1, a2 = above
    return np.array([n - a0, a0 - a1, a1 - a2, a2], dtype=np.int64)
