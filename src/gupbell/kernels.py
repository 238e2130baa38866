"""Counter-based deterministic sampling kernel.

The hot loop of the shot simulator draws one uniform per shot from a
splitmix64-style mixing of (seed, global shot index) and bins it against
three cumulative thresholds.  Shots are processed in chunks of ``CHUNK``;
every uniform depends only on its global index, so counts never depend
on the chunk size.
"""

from __future__ import annotations

import numpy as np

U64 = np.uint64
_GOLDEN = U64(0x9E3779B97F4A7C15)
_MIX1 = U64(0xBF58476D1CE4E5B9)
_MIX2 = U64(0x94D049BB133111EB)
_S30 = U64(30)
_S27 = U64(27)
_S31 = U64(31)
_S11 = U64(11)
_ONE = U64(1)
_INV53 = 1.0 / 9007199254740992.0  # 2**-53

#: shots per vectorized chunk; bounds the temporary arrays, not the results
CHUNK = 1 << 20


def uniform_stream(seed: int, base: int, n: int) -> np.ndarray:
    """Uniforms in [0, 1) for global indices base..base+n-1."""
    idx = np.arange(base, base + n, dtype=np.uint64)
    z = (U64(seed) + (idx + _ONE) * _GOLDEN)
    z = (z ^ (z >> _S30)) * _MIX1
    z = (z ^ (z >> _S27)) * _MIX2
    z = z ^ (z >> _S31)
    return (z >> _S11).astype(np.float64) * _INV53


def sample_counts(seed: int, base: int, n: int, cumulative) -> np.ndarray:
    """Outcome counts for n shots of a four-outcome distribution.

    ``cumulative`` holds the three inner cumulative probabilities
    (p0, p0+p1, p0+p1+p2); the fourth outcome takes the rest.
    """
    c0, c1, c2 = (float(c) for c in cumulative)
    counts = np.zeros(4, dtype=np.int64)
    for lo in range(0, n, CHUNK):
        hi = min(n, lo + CHUNK)
        u = uniform_stream(seed, base + lo, hi - lo)
        outcome = (u >= c0).astype(np.int64)
        outcome += (u >= c1).astype(np.int64)
        outcome += (u >= c2).astype(np.int64)
        counts += np.bincount(outcome, minlength=4)
    return counts
