import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dense_oracle import bell_operator, chsh_value
from gupbell.errors import DimensionError, HermiticityError
from gupbell.quantum import (
    ChshSettings, DensityMatrix, Direction, PureState, bell_state,
    canonical_settings, spin_observable,
)

TSIRELSON = 2.0 * math.sqrt(2.0)

angles = st.floats(min_value=-50.0, max_value=50.0,
                   allow_nan=False, allow_infinity=False)


class TestDirection:
    @given(angles, angles)
    @settings(max_examples=100, deadline=None)
    def test_canonical_ranges_preserve_vector(self, theta, phi):
        d = Direction(theta, phi)
        assert 0.0 <= d.theta <= math.pi
        assert 0.0 <= d.phi < 2.0 * math.pi
        raw = np.array([
            math.sin(theta) * math.cos(phi),
            math.sin(theta) * math.sin(phi),
            math.cos(theta),
        ])
        assert np.max(np.abs(d.unit_vector() - raw)) < 1e-9

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Direction(math.nan)

    def test_unit_vector_normalized(self):
        assert np.linalg.norm(Direction(1.2, 3.4).unit_vector()) == pytest.approx(1.0)


class TestStates:
    def test_bell_states_orthonormal(self):
        kinds = ("phi_plus", "phi_minus", "psi_plus", "psi_minus")
        vecs = [bell_state(k).amplitudes for k in kinds]
        gram = np.array([[abs(u.conj() @ v) for v in vecs] for u in vecs])
        assert np.max(np.abs(gram - np.eye(4))) < 1e-12

    def test_unknown_bell_kind(self):
        with pytest.raises(ValueError):
            bell_state("phi")

    def test_pure_state_norm_enforced(self):
        with pytest.raises(ValueError):
            PureState(np.array([1.0, 1.0, 0.0, 0.0]))

    def test_pure_state_dimension(self):
        with pytest.raises(DimensionError):
            PureState(np.array([1.0, 0.0]))

    def test_density_of_pure_state(self):
        rho = bell_state().density()
        assert np.trace(rho.matrix).real == pytest.approx(1.0)

    def test_density_validation(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(4) / 2.0)  # trace 2
        with pytest.raises(HermiticityError):
            m = np.eye(4, dtype=complex) / 4.0
            m[0, 1] = 1e-3
            DensityMatrix(m)
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([1.5, -0.5, 0.0, 0.0]))  # negative eigenvalue


class TestObservables:
    def test_spin_observable_dichotomic(self):
        obs = spin_observable(Direction(0.7, 2.1))
        vals = np.linalg.eigvalsh(obs)
        assert np.max(np.abs(vals - [-1.0, 1.0])) < 1e-12

    def test_correlator_is_cosine(self):
        # [KNOWN] E(a, b) = cos(theta_a - theta_b) on PhiPlus in the x-z plane
        psi = bell_state().amplitudes
        for ta, tb in ((0.0, 0.9), (1.3, -0.4), (2.0, 2.0)):
            op = np.kron(spin_observable(Direction(ta)),
                         spin_observable(Direction(tb)))
            val = (psi.conj() @ op @ psi).real
            assert val == pytest.approx(math.cos(ta - tb), abs=1e-12)

    def test_canonical_chsh_is_tsirelson(self):
        # [KNOWN] PhiPlus at the textbook settings saturates 2*sqrt(2)
        value = chsh_value(bell_state(), canonical_settings())
        assert value == pytest.approx(TSIRELSON, abs=1e-12)

    def test_bell_operator_hermitian(self):
        s = ChshSettings.planar(0.3, 1.2, -0.5, 2.2)
        b = bell_operator(s)
        assert np.max(np.abs(b - b.conj().T)) < 1e-12
