import bisect
import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from dense_oracle import uniform_stream
from gupbell import kernels

_M64 = (1 << 64) - 1


def _words(seed, base, n):
    """Top 53 bits of the splitmix64 mix of indices base..base+n-1, one
    Python integer at a time."""
    out = []
    for i in range(base, base + n):
        z = (seed + (i + 1) * 0x9E3779B97F4A7C15) & _M64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
        out.append((z ^ (z >> 31)) >> 11)
    return out


def _reference_counts(seed, base, n, cumulative):
    """One float uniform and one comparison chain per shot."""
    c0, c1, c2 = cumulative
    counts = [0, 0, 0, 0]
    for k in _words(seed, base, n):
        u = k * 2.0**-53
        counts[0 if u < c0 else 1 if u < c1 else 2 if u < c2 else 3] += 1
    return counts


def _float_counts(seed, base, n, cumulative):
    """Outcome = number of float thresholds at or below the uniform."""
    u = uniform_stream(seed, base, n)
    outcome = sum((u >= c).astype(np.int64) for c in cumulative)
    return np.bincount(outcome, minlength=4)


def _assert_matches_oracles(seed, base, n, cumulative):
    got = kernels.sample_counts(seed, base, n, cumulative)
    assert got.dtype == np.int64
    assert got.tolist() == _reference_counts(seed, base, n, cumulative)
    assert np.array_equal(got, _float_counts(seed, base, n, cumulative))


def _edge_thresholds(seed, base, n):
    """Threshold triples on, just above and just below uniforms that the
    window actually draws, plus 0 and 1 and the extreme thresholds of the
    kernel's float64 encoding of k + 2⁵³ and t + 2⁵³.

    The drawn uniforms are the smallest, median and largest of the window
    and the two nearest 1/2, on either side of k = 2⁵², where the exponent
    field of the view of k + 2⁵³ steps from 2 to 3.  The extremes are
    c = 2⁻⁵³ (t = 1) and c = 1 - 2⁻⁵³ (t = 2⁵³ - 1), and c = 1/2 (t = 2⁵²)
    with one step of t to either side."""
    words = sorted(_words(seed, base, n))
    half = bisect.bisect_left(words, 2**52)
    assert 0 < half < n
    exact = [k * 2.0**-53 for k in (words[0], words[n // 2], words[-1])]
    up = [np.nextafter(x, 1.0) for x in exact]
    down = [np.nextafter(x, -1.0) for x in exact]
    near_half = [
        (np.nextafter(x, -1.0), x, np.nextafter(x, 1.0))
        for x in (words[half - 1] * 2.0**-53, words[half] * 2.0**-53)
    ]
    return [(0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (0.0, 0.5, 1.0),
            tuple(exact), tuple(up), tuple(down),
            (down[0], exact[1], up[2]), (0.0, exact[1], 1.0),
            *near_half, (near_half[0][1], 0.5, near_half[1][1]),
            (2.0**-53,) * 3, (1 - 2.0**-53,) * 3,
            (2.0**-53, 0.5, 1 - 2.0**-53),
            (0.5 - 2.0**-53, 0.5, 0.5 + 2.0**-53)]


def test_uniforms_in_unit_interval():
    u = uniform_stream(42, 0, 10_000)
    assert float(u.min()) >= 0.0
    assert float(u.max()) < 1.0


def test_uniforms_counter_based():
    # the stream is a pure function of the global index, so any window
    # can be regenerated independently
    full = uniform_stream(7, 0, 1000)
    window = uniform_stream(7, 400, 100)
    assert np.array_equal(full[400:500], window)


def test_uniforms_match_reference_words():
    base = 2**40 - 50
    u = uniform_stream(2**64 - 2, base, 100)
    assert u.tolist() == [k * 2.0**-53 for k in _words(2**64 - 2, base, 100)]


def test_numpy_counts_deterministic():
    cumulative = (0.2, 0.5, 0.9)
    a = kernels.sample_counts(3, 0, 50_000, cumulative)
    b = kernels.sample_counts(3, 0, 50_000, cumulative)
    assert np.array_equal(a, b)
    assert a.sum() == 50_000


def test_counts_follow_thresholds():
    counts = kernels.sample_counts(11, 0, 200_000, (0.25, 0.5, 0.75))
    assert np.max(np.abs(counts / 200_000 - 0.25)) < 0.01


@pytest.mark.parametrize("seed, base", [(0, 0), (5, 2**40 - 700),
                                        (2**64 - 2, 2**40 + 12_345)])
def test_counts_exact_at_threshold_edges(seed, base):
    n = 1500
    for cumulative in _edge_thresholds(seed, base, n):
        _assert_matches_oracles(seed, base, n, cumulative)


def test_counts_exact_across_chunk_boundaries(monkeypatch):
    seed, base, n = 17, 2**40 - 300, 1000
    monkeypatch.setattr(kernels, "CHUNK", 256)
    for cumulative in _edge_thresholds(seed, base, n) + [(0.3, 0.6, 0.8)]:
        _assert_matches_oracles(seed, base, n, cumulative)
    assert kernels.sample_counts(seed, base, 0, (0.3, 0.6, 0.8)).tolist() == [0] * 4


def test_chunking_does_not_change_counts(monkeypatch):
    # more than three chunks of 2²⁰ plus an odd remainder, so every chunk
    # size below ends on a partial chunk
    seed, base, n = 9, 2**40 - 123, 3 * (1 << 20) + 4_321
    cumulative = (0.3, 0.6, 0.8)
    default = kernels.sample_counts(seed, base, n, cumulative)
    assert np.array_equal(default, _float_counts(seed, base, n, cumulative))
    for chunk in (1 << 20, 12_345):
        monkeypatch.setattr(kernels, "CHUNK", chunk)
        assert np.array_equal(kernels.sample_counts(seed, base, n, cumulative), default)


@pytest.mark.parametrize("extra", [0, 1, kernels.CHUNK - 1])
def test_counts_exact_around_default_chunk(extra):
    # one full chunk alone, and one full chunk followed by the shortest and
    # the longest partial one, the only chunk that slices the buffers
    seed, base, n = 21, 2**40 - 77, kernels.CHUNK + extra
    cumulative = (0.3, 0.6, 0.8)
    got = kernels.sample_counts(seed, base, n, cumulative)
    assert np.array_equal(got, _float_counts(seed, base, n, cumulative))


_BOUNDARY_WORDS = (0, 1, 2, 2**52 - 2, 2**52 - 1, 2**52, 2**52 + 1,
                   2**53 - 2, 2**53 - 1)


# the default chunk, the former default 2¹⁵, and chunks shorter than n
@pytest.mark.parametrize("chunk", [kernels.CHUNK, 1 << 15, 4])
def test_binning_exact_at_encoding_boundaries(monkeypatch, chunk):
    # words the stream is unlikely to draw: both ends of [0, 2⁵³) and each
    # side of 2⁵², where the exponent field of the float64 view of k + 2⁵³
    # steps from 2 to 3.  Each threshold t lies on a word or one step to
    # either side, so c = t·2⁻⁵³ is exact and u ≥ c means k ≥ t
    words = np.array(_BOUNDARY_WORDS, dtype=np.uint64)

    def fixed_words(seed, start, steps, z, scratch):
        z[:] = words[start:start + z.size]
        return z

    monkeypatch.setattr(kernels, "_mix", fixed_words)
    monkeypatch.setattr(kernels, "CHUNK", chunk)
    n = len(_BOUNDARY_WORDS)
    targets = sorted({t for k in _BOUNDARY_WORDS for t in (k - 1, k, k + 1)
                      if 0 <= t <= 2**53})
    assert targets[-1] == 2**53
    for t in targets:
        c = t * 2.0**-53
        above = sum(k >= t for k in _BOUNDARY_WORDS)
        got = kernels.sample_counts(0, 0, n, (c, c, c))
        assert got.tolist() == [n - above, 0, 0, above], t


def _peak_bytes(n):
    tracemalloc.start()
    try:
        kernels.sample_counts(5, 0, n, (0.2, 0.5, 0.9))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_bounded_by_chunk():
    # the buffers hold one chunk (25 B/shot), whatever the shot count
    slack = 64 * 1024
    peak = _peak_bytes(4_000_000)
    assert peak < 32 * kernels.CHUNK + slack
    assert abs(peak - _peak_bytes(1_000_000)) < slack


@pytest.mark.parametrize("cumulative", [
    (0.5, 0.3, 0.9), (0.2, 0.9, 0.5), (-0.1, 0.5, 0.9), (0.2, 0.5, 1.5),
    (math.nan, 0.5, 0.9), (0.2, 0.5, math.inf), (0.2, 0.5), (0.1, 0.2, 0.3, 0.4),
])
def test_rejects_invalid_thresholds(cumulative):
    with pytest.raises(ValueError, match="cumulative"):
        kernels.sample_counts(1, 0, 100, cumulative)


def test_rejects_negative_shot_count():
    with pytest.raises(ValueError, match="non-negative"):
        kernels.sample_counts(1, 0, -1, (0.2, 0.5, 0.9))


@pytest.mark.parametrize("seed, base, n", [
    (1.5, 0, 10), (1.0, 0, 10), (True, 0, 10), (np.int64(1), 0, 10),
    (1, 0.5, 10), (1, np.uint64(0), 10), (1, False, 10), (1, 0, 10.0), (1, 0, True),
])
def test_rejects_non_int_seed_and_indices(seed, base, n):
    # a float or numpy seed or index would silently sample another stream
    with pytest.raises(TypeError, match="must be an int"):
        kernels.sample_counts(seed, base, n, (0.2, 0.5, 0.9))


@pytest.mark.parametrize("seed, base, n, match", [
    (-1, 0, 10, "seed"), (2**64, 0, 10, "seed"), (2**65 + 3, 0, 10, "seed"),
    (1, -1, 10, "stream indices"), (1, -1, 0, "stream indices"),
    (1, 2**64 - 9, 10, "stream indices"), (1, 2**64, 10, "stream indices"),
])
def test_rejects_seeds_and_indices_that_wrap(seed, base, n, match):
    # each of these would wrap onto the uint64 stream of another seed or index
    with pytest.raises(ValueError, match=match):
        kernels.sample_counts(seed, base, n, (0.2, 0.5, 0.9))


@pytest.mark.parametrize("seed, base, n", [
    (2**64 - 1, 0, 10), (0, 2**64 - 10, 10), (2**64 - 1, 2**64 - 1, 1), (5, 2**64, 0),
])
def test_accepts_the_ends_of_the_stream(seed, base, n):
    cumulative = (0.2, 0.5, 0.9)
    got = kernels.sample_counts(seed, base, n, cumulative)
    assert got.tolist() == _reference_counts(seed, base, n, cumulative)


def test_shared_operands_are_read_only():
    # every module-level array is shared by all calls and threads
    shared = {name: value for name, value in vars(kernels).items()
              if isinstance(value, np.ndarray)}
    assert {"_MIX1", "_MIX2", "_S30", "_S27", "_S31", "_S11", "_BIT53"} <= set(shared)
    for name, operand in shared.items():
        assert operand.shape == () and operand.dtype == np.uint64, name
        with pytest.raises(ValueError, match="read-only"):
            operand[...] = 0
        with pytest.raises(ValueError, match="read-only"):
            np.add(operand, operand, out=operand)


def test_concurrent_calls_match_serial_calls(monkeypatch):
    # each numpy call of the kernel first yields the GIL, and the threads
    # switch every microsecond besides, so a per-call value kept at module
    # level (an offset or threshold buffer) is overwritten by another
    # thread between its write and its use, even on one CPU
    for name, value in list(vars(kernels).items()):
        if isinstance(value, np.ufunc):
            def yielding(*args, _ufunc=value, **kwargs):
                time.sleep(0)
                return _ufunc(*args, **kwargs)
            monkeypatch.setattr(kernels, name, yielding)
    jobs = [(3, 0, kernels.CHUNK + 1_234, (0.2, 0.5, 0.9)),
            (2**64 - 2, 2**40 - 77, 2 * kernels.CHUNK - 5, (0.1, 0.4, 0.6)),
            (11, 5 * kernels.CHUNK, 3 * kernels.CHUNK + 77, (0.3, 0.35, 0.8)),
            (12_345, 2**63, kernels.CHUNK - 1, (0.25, 0.5, 0.75))]
    serial = [kernels.sample_counts(*job).tolist() for job in jobs]
    repeats = 8
    results = [[] for _ in jobs]
    start = threading.Barrier(len(jobs))

    def run(i):
        start.wait()
        for _ in range(repeats):
            results[i].append(kernels.sample_counts(*jobs[i]).tolist())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(jobs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    assert results == [[counts] * repeats for counts in serial]
