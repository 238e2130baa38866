import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dense_oracle import bell_operator, chsh_value
from gupbell.errors import DimensionError
from gupbell.quantum import (
    ChshSettings, Direction, PureState, bell_state, canonical_settings,
    directions, spin_observable,
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

    def test_unit_vector_is_a_row_of_directions(self):
        # one map from angles to directions, for one direction or an array
        rng = np.random.default_rng(3)
        ds = [Direction(t, p) for t, p in rng.uniform(-7.0, 7.0, size=(200, 2))]
        theta = np.array([d.theta for d in ds])
        phi = np.array([d.phi for d in ds])
        for d, row, planar in zip(ds, directions(theta, phi), directions(theta)):
            assert d.unit_vector().tobytes() == row.tobytes()
            assert Direction(d.theta).unit_vector().tobytes() == planar.tobytes()


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
