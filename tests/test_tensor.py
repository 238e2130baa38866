import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dense_oracle import expect
from gupbell import tensor
from gupbell.errors import DimensionError, HermiticityError


def random_hermitian(seed, dim=4):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return a + a.conj().T


class TestIsHermitian:
    def test_accepts_hermitian(self):
        assert tensor.is_hermitian(random_hermitian(0))

    def test_rejects_non_hermitian(self):
        assert not tensor.is_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        assert not tensor.is_hermitian(np.zeros((2, 3)))


class TestEigHermitian:
    @given(st.integers(min_value=0, max_value=500))
    @settings(max_examples=40, deadline=None)
    def test_reconstruction_and_order(self, seed):
        m = random_hermitian(seed)
        eig = tensor.eig_hermitian(m)
        assert np.all(np.diff(eig.values) >= 0)
        recon = eig.vectors @ np.diag(eig.values) @ eig.vectors.conj().T
        assert np.max(np.abs(recon - m)) < 1e-10
        gram = eig.vectors.conj().T @ eig.vectors
        assert np.max(np.abs(gram - np.eye(4))) < 1e-12

    def test_deterministic(self):
        m = random_hermitian(7)
        first = tensor.eig_hermitian(m)
        second = tensor.eig_hermitian(m)
        assert np.array_equal(first.values, second.values)
        assert np.array_equal(first.vectors, second.vectors)

    def test_rejects_non_hermitian(self):
        m = random_hermitian(1)
        m[0, 1] += 1e-6
        with pytest.raises(HermiticityError):
            tensor.eig_hermitian(m)


class TestExpect:
    def test_real_value(self):
        m = random_hermitian(3)
        psi = np.array([0.5, 0.5, 0.5, 0.5])
        direct = (psi @ m @ psi).real
        assert expect(psi, m) == pytest.approx(direct, abs=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            expect(np.ones(3), np.eye(4))

    def test_imaginary_residue_flagged(self):
        skew = np.array([[0.0, 1.0], [-1.0, 0.0]])  # anti-Hermitian
        with pytest.raises(HermiticityError):
            expect(np.array([1.0, 1j]) / np.sqrt(2), skew)
