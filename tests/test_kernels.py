import numpy as np

from gupbell import kernels


def test_uniforms_in_unit_interval():
    u = kernels.uniform_stream(42, 0, 10_000)
    assert float(u.min()) >= 0.0
    assert float(u.max()) < 1.0


def test_uniforms_counter_based():
    # the stream is a pure function of the global index, so any window
    # can be regenerated independently
    full = kernels.uniform_stream(7, 0, 1000)
    window = kernels.uniform_stream(7, 400, 100)
    assert np.array_equal(full[400:500], window)


def test_numpy_counts_deterministic():
    cumulative = (0.2, 0.5, 0.9)
    a = kernels.sample_counts(3, 0, 50_000, cumulative)
    b = kernels.sample_counts(3, 0, 50_000, cumulative)
    assert np.array_equal(a, b)
    assert a.sum() == 50_000


def test_counts_follow_thresholds():
    counts = kernels.sample_counts(11, 0, 200_000, (0.25, 0.5, 0.75))
    assert np.max(np.abs(counts / 200_000 - 0.25)) < 0.01


def test_chunking_does_not_change_counts(monkeypatch):
    cumulative = (0.3, 0.6, 0.8)
    whole = kernels.sample_counts(9, 123, 300_000, cumulative)
    monkeypatch.setattr(kernels, "CHUNK", 1 << 16)
    chunked = kernels.sample_counts(9, 123, 300_000, cumulative)
    assert np.array_equal(whole, chunked)
