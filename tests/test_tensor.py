import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dense_oracle import expect
from gupbell import tensor
from gupbell.errors import DimensionError, HermiticityError
from gupbell.gup import GupModel, default_hamiltonian, default_perturbation, perturb_state
from gupbell.quantum import SIGMA_X, SIGMA_Z, bell_state, is_hermitian, moments
from gupbell.shots import joint_probabilities


def random_hermitian(seed, dim=4):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return a + a.conj().T


class TestIsHermitian:
    def test_accepts_hermitian(self):
        assert is_hermitian(random_hermitian(0))

    def test_rejects_non_hermitian(self):
        assert not is_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        assert not is_hermitian(np.zeros((2, 3)))


class TestEigHermitian:
    @given(st.integers(min_value=0, max_value=500))
    @settings(max_examples=40, deadline=None)
    def test_reconstruction_and_order(self, seed):
        m = random_hermitian(seed)
        values, vectors = tensor.eig_hermitian(m)
        assert np.all(np.diff(values) >= 0)
        recon = vectors @ np.diag(values) @ vectors.conj().T
        assert np.max(np.abs(recon - m)) < 1e-10
        gram = vectors.conj().T @ vectors
        assert np.max(np.abs(gram - np.eye(4))) < 1e-12

    def test_deterministic(self):
        m = random_hermitian(7)
        for first, second in zip(tensor.eig_hermitian(m), tensor.eig_hermitian(m)):
            assert np.array_equal(first, second)

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


def _one_entry_off(m):
    """m with its (0, 1) entry moved by 1e-11: 10 x HERMITIAN_TOL off Hermitian."""
    m = np.array(m, dtype=complex)
    m[0, 1] += 1e-11
    return m


#: every operator input, each read through ``quantum.is_hermitian``
OPERATOR_INPUTS = {
    "jp": lambda m: GupModel(0.1, rule="custom", jp=m(SIGMA_X)),
    "hp": lambda m: perturb_state(default_hamiltonian(), m(default_perturbation(GupModel(0.1))),
                                  0, 0.1),
    "observable": lambda m: joint_probabilities(moments(bell_state().amplitudes),
                                                m(SIGMA_Z), SIGMA_X),
    "h0": lambda m: tensor.eig_hermitian(m(default_hamiltonian())),
}


@pytest.mark.parametrize("build", OPERATOR_INPUTS.values(), ids=OPERATOR_INPUTS)
def test_one_hermitian_rule_for_every_operator(build):
    # the exact matrix is accepted and one entry 1e-11 off is rejected,
    # alike in every path
    build(np.asarray)
    with pytest.raises(HermiticityError):
        build(_one_entry_off)
