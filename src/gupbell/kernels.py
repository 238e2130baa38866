"""Counter-based deterministic sampling from a splitmix64 stream.

Stream index i of a seed is the splitmix64-style mix of seed + (i + 1)·golden
(mod 2⁶⁴); its top 53 bits are the word k of that index.  Every draw depends
only on the seed and the indices it reads, never on the order of evaluation.

``draw_counts`` draws the four outcome counts of n shots at once, as one
sample of Multinomial(n, p): three conditional binomials, each by Hörmann's
BTRD (J. Stat. Comput. Simul. 46, 101 (1993)) or, where np < 10, by
inversion.  It reads the uniforms (k + 1)·2⁻⁵³ of the indices base,
base + 1, ..., as many as its rejection loops use, so its cost does not grow
with n.  The accept tests call ``math.log``, ``math.log1p`` and ``math.exp``
from the platform's libm; a libm that rounds one of them differently could
move a count (see the frozen counts in ``tests/test_shots.py``).

``sample_counts`` bins the uniform u = k·2⁻⁵³ of each shot, in chunks of
``CHUNK``, against the integer thresholds t = ceil(c·2⁵³): u ≥ c holds
exactly when k ≥ t, so neither rounding nor a denormal mode can move a
count, and no count depends on the chunk size.  No command calls it; it
remains as the stream's bit-exact form, which the benchmark checks against
its own splitmix64.
"""

from __future__ import annotations

import math

import numpy as np

U64 = np.uint64
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1, _MIX2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
_M64 = (1 << 64) - 1
_TWO53 = 9007199254740992.0  # 2**53

#: shots per vectorized chunk; bounds the temporary arrays (~24 B/shot),
#: not the results
CHUNK = 1 << 16


def _checked(seed: int, base: int, n: int, cumulative) -> np.ndarray:
    """The checks both samplers share; returns ``cumulative`` as float64."""
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
    return c


def _words(seed: int, start: int, n: int) -> np.ndarray:
    """The 53-bit words k of stream indices start, ..., start + n - 1, as
    uint64: ``_word`` of each index, with every operation wrapping mod 2⁶⁴."""
    z = (np.arange(n, dtype=np.uint64) + U64((start + 1) & _M64)) * U64(_GOLDEN)
    z += U64(seed)
    z ^= z >> U64(30)
    z *= U64(_MIX1)
    z ^= z >> U64(27)
    z *= U64(_MIX2)
    z ^= z >> U64(31)
    z >>= U64(11)
    return z


def sample_counts(seed: int, base: int, n: int, cumulative) -> np.ndarray:
    """Outcome counts for n shots of a four-outcome distribution.

    ``cumulative`` holds the three inner cumulative probabilities
    (p0, p0+p1, p0+p1+p2), non-decreasing in [0, 1]; the fourth outcome
    takes the rest.  Shot i falls in outcome j when exactly j thresholds
    lie at or below its uniform.  The shots take the stream indices
    base, ..., base + n - 1 of the seed's stream.
    """
    c = _checked(seed, base, n, cumulative)
    if base < 0 or base + n > _M64 + 1:
        raise ValueError("stream indices base .. base + n - 1 must lie in "
                         f"[0, 2**64), got base {base} and n {n}")
    # c·2⁵³ only rescales by a power of two, so it is exact; c = 1 gives
    # t = 2⁵³, above every word
    t = [U64(math.ceil(x * _TWO53)) for x in c.tolist()]
    above = [0, 0, 0]
    for lo in range(0, n, CHUNK):
        k = _words(seed, base + lo, min(CHUNK, n - lo))
        for j in range(3):
            above[j] += int(np.count_nonzero(k >= t[j]))
    return np.array([n - above[0], above[0] - above[1], above[1] - above[2],
                     above[2]], dtype=np.int64)


# --- counts drawn from Multinomial(n, p) -------------------------------------

def _word(seed: int, index: int) -> int:
    """The 53-bit word k of one stream index, in Python ints: the word that
    ``_words`` forms for that index."""
    z = (seed + (index + 1) * _GOLDEN) & _M64
    z = ((z ^ (z >> 30)) * _MIX1) & _M64
    z = ((z ^ (z >> 27)) * _MIX2) & _M64
    return (z ^ (z >> 31)) >> 11


def _uniforms(seed: int, index: int):
    """The uniforms (k + 1)·2⁻⁵³ in (0, 1] of indices index, index + 1, ...:
    never 0, so a rejection step may take its logarithm."""
    while True:
        yield (_word(seed, index) + 1) / _TWO53
        index += 1


#: fc(k) = ln k! − (k + ½) ln(k + 1) + (k + 1) − ½ ln 2π, the error of
#: Stirling's formula, for k < 10: the doubles nearest their 40-digit values
_FC = (0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
       0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
       0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
       0.00833056343336287)


def _fc(k: int) -> float:
    """Stirling's error fc(k): the table below 10, its series from there."""
    if k < 10:
        return _FC[k]
    x = 1.0 / (k + 1)
    return (1.0 / 12 - (1.0 / 360 - x * x / 1260) * x * x) * x


def _log_ratio(num: int, den: int) -> float:
    """ln(num/den) for positive ints, accurate where the ratio is near 1."""
    return math.log1p((num - den) / den)


def _inversion(n: int, p: float, uniform) -> int:
    """Binomial(n, p) by sequential search of the cdf, for np < 10 and
    p <= 1/2, where P(X = 0) = (1 − p)ⁿ >= e⁻¹⁴."""
    s = p / (1.0 - p)
    a = (n + 1) * s
    # not (1 - p)**n: 1 - p rounds to 1 for p below ~2**-53, and x to 0
    f = math.exp(n * math.log1p(-p))
    u = uniform()
    x = 0
    # round-off can leave u above the whole sum: stop where the terms vanish
    while u > f and x < n and f > 0.0:
        u -= f
        x += 1
        f *= a / x - s
    return x


def _btrd(n: int, p: float, uniform) -> int:
    """Binomial(n, p) by Hörmann's BTRD, for np >= 10 and p <= 1/2.

    Steps 1–5.3 of the paper.  The mode m and the centre c = np + ½ are
    split exactly in ints, p = num/den being a binary fraction, so a
    candidate k is an exact int at every n up to 2⁶², not a float rounded
    to a multiple of its ulp; the final test takes each log ratio near 1
    by ``log1p``.
    """
    num, den = p.as_integer_ratio()
    qnum = den - num  # 1 - p = qnum/den
    q = 1.0 - p
    r = p / q
    nr = (n + 1) * r
    npq = n * p * q
    spq = math.sqrt(npq)
    b = 1.15 + 2.53 * spq
    a = -0.0873 + 0.0248 * b + 0.01 * p
    alpha = (2.83 + 5.1 / b) * spq
    vr = 0.92 - 4.2 / b
    urvr = 0.86 * vr
    m = (n + 1) * num // den
    c_int, c_rest = divmod(2 * n * num + den, 2 * den)
    c_frac = c_rest / (2 * den)
    while True:
        v = uniform()
        if v <= urvr:  # step 1: the quick accept, u read from the same v
            u = v / vr - 0.43
            return c_int + math.floor((2.0 * a / (0.5 - abs(u)) + b) * u + c_frac)
        if v >= vr:  # step 2
            u = uniform() - 0.5
        else:  # step 3
            u = v / vr - 0.93
            u = (-0.5 if u < 0.0 else 0.5) - u
            v = uniform() * vr
        us = 0.5 - abs(u)
        if us <= 0.0:  # u = ±1/2, an end of the hat's range
            continue
        k = c_int + math.floor((2.0 * a / us + b) * u + c_frac)
        if k < 0 or k > n:
            continue
        v *= alpha / (a / (us * us) + b)
        km = abs(k - m)
        if km <= 15:  # step 5.1: f(k)/f(m) by its recursion
            f = 1.0
            for i in range(m + 1, k + 1):
                f *= nr / i - r
            for i in range(k + 1, m + 1):
                v *= nr / i - r
            if v <= f:
                return k
            continue
        v = math.log(v)  # step 5.2: squeeze
        rho = (km / npq) * (((km / 3.0 + 0.625) * km + 1.0 / 6.0) / npq + 0.5)
        t = -km * km / (2.0 * npq)
        if v < t - rho:
            return k
        if v > t + rho:
            continue
        nm, nk = n - m + 1, n - k + 1  # step 5.3: the final test
        h = ((m + 0.5) * _log_ratio((m + 1) * qnum, num * nm)
             + _fc(m) + _fc(n - m))
        if v <= (h + (n + 1) * _log_ratio(nm, nk)
                 + (k + 0.5) * _log_ratio(nk * num, (k + 1) * qnum)
                 - _fc(k) - _fc(n - k)):
            return k


def _binomial(n: int, p: float, uniform) -> int:
    """One draw of Binomial(n, p), reading uniforms from ``uniform()``."""
    if n == 0 or p == 0.0:
        return 0
    if p == 1.0:
        return n
    if p > 0.5:  # 1 - p is exact here
        return n - _binomial(n, 1.0 - p, uniform)
    return _inversion(n, p, uniform) if n * p < 10.0 else _btrd(n, p, uniform)


def draw_counts(seed: int, base: int, n: int, cumulative) -> list:
    """Outcome counts of n shots of a four-outcome distribution, drawn at
    once from Multinomial(n, p).

    ``cumulative`` holds the three inner cumulative probabilities
    (p0, p0+p1, p0+p1+p2), non-decreasing in [0, 1]; the fourth outcome
    takes the rest.  n0 ~ Bin(n, c0), n1 ~ Bin(n − n0, (c1 − c0)/(1 − c0)),
    n2 likewise and n3 the rest, so the four Python ints sum to n.  The
    draws read the uniforms of stream indices base, base + 1, ..., a few
    per binomial.
    """
    c = _checked(seed, base, n, cumulative)
    if not 0 <= base <= _M64:
        raise ValueError(f"base must lie in [0, 2**64), got {base}")
    uniform = _uniforms(seed, base).__next__
    counts, rest, below = [], n, 0.0
    for cj in c.tolist():
        # rest > 0 leaves below < 1: the previous draw had p < 1
        k = _binomial(rest, (cj - below) / (1.0 - below), uniform) if rest else 0
        counts.append(k)
        rest -= k
        below = cj
    return counts + [rest]
