import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dense_oracle import bell_operator, chsh_value, correlation_tensor, trace_pauli_parts
from gupbell.errors import DimensionError, HermiticityError
from gupbell.quantum import (
    HERMITIAN_TOL, ChshSettings, Direction, PureState, bell_state, canonical_settings,
    directions, moments, pauli_parts, spin, spin_observable,
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
        psi = bell_state().amplitudes
        assert abs(psi.conj() @ psi - 1.0) < 1e-12
        assert np.array_equal(psi, np.array([1, 0, 0, 1]) / math.sqrt(2.0))

    def test_pure_state_norm_enforced(self):
        with pytest.raises(ValueError):
            PureState(np.array([1.0, 1.0, 0.0, 0.0]))

    def test_pure_state_rejects_nan(self):
        # a nan norm fails every comparison, so it must not pass the check
        with pytest.raises(ValueError, match="state norm nan"):
            PureState(np.array([math.nan, 0.0, 0.0, 0.0]))

    def test_pure_state_dimension(self):
        with pytest.raises(DimensionError):
            PureState(np.array([1.0, 0.0]))

    def test_pure_state_owns_its_amplitudes(self):
        # construction checked the norm of these amplitudes, not of later ones
        a = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2.0)
        state = PureState(a)
        a[0] = 5.0
        assert np.array_equal(state.amplitudes, bell_state().amplitudes)
        assert not state.amplitudes.flags.writeable


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


class TestMoments:
    """``moments`` against the traces of the dense oracle, relative to
    the largest oracle entry."""

    @staticmethod
    def _relative_error(got, want) -> float:
        got, want = (np.concatenate([x.ravel() for x in m]) for m in (got, want))
        return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))

    def test_pair_matches_symmetrized_operator(self):
        rng = np.random.default_rng(17)
        for _ in range(500):
            u, v = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
            sym = 0.5 * (np.outer(v, u.conj()) + np.outer(u, v.conj()))
            assert self._relative_error(moments(u, v), correlation_tensor(sym)) <= 1e-15

    def test_single_vector_matches_its_projector(self):
        rng = np.random.default_rng(19)
        for _ in range(500):
            u = rng.normal(size=4) + 1j * rng.normal(size=4)
            want = correlation_tensor(np.outer(u, u.conj()))
            assert self._relative_error(moments(u), want) <= 1e-15

    def test_bell_state(self):
        # [KNOWN] PhiPlus: no local Bloch vectors, T = diag(1, -1, 1)
        r_a, r_b, t = moments(bell_state().amplitudes)
        assert np.all(r_a == 0.0) and np.all(r_b == 0.0)
        assert np.max(np.abs(t - np.diag([1.0, -1.0, 1.0]))) < 1e-15


def near_hermitian(rng) -> np.ndarray:
    """A random 2x2 matrix within HERMITIAN_TOL of Hermitian: a Hermitian
    one whose entries have magnitudes from 1e-300 to 1e300, plus an error
    of up to HERMITIAN_TOL / 4 in each part of each entry."""
    scale = 10.0 ** rng.integers(-300, 301, size=(2, 2))
    scale[1, 0] = scale[0, 1]
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    error = rng.uniform(-1.0, 1.0, size=(2, 2, 2)) @ [1.0, 1j] * (HERMITIAN_TOL / 4)
    return scale * (a + a.conj().T) + error


class TestPauliParts:
    """``pauli_parts`` in closed form against the trace formula it replaced."""

    def test_equals_the_trace_formula(self):
        # each part is the one rounded sum of its trace, so bit for bit
        rng = np.random.default_rng(29)
        for _ in range(4000):
            m = near_hermitian(rng)
            (c0, c), (want0, want) = pauli_parts(m), trace_pauli_parts(m)
            assert type(c0) is float and c0 == want0, m
            assert c.dtype == np.float64 and np.array_equal(c, want), m

    @pytest.mark.parametrize("m", [
        np.array([[0.0, 1.0 + 1e-11], [1.0, 0.0]]),  # 10 x HERMITIAN_TOL off
        np.array([[1.0, 0.0], [1j, 1.0]]),
        np.array([[math.nan, 0.0], [0.0, 1.0]]),
        # inf - inf in the Hermiticity check warns before the refusal
        pytest.param(np.array([[math.inf, 0.0], [0.0, 1.0]]), marks=pytest.mark.filterwarnings(
            "ignore:invalid value encountered in subtract:RuntimeWarning")),
        np.zeros((2, 3)), np.eye(3), np.zeros(4), np.float64(1.0), np.zeros((1, 2, 2)),
        [[1.0, 0.0]],
    ], ids=["off-tol", "lower-only", "nan", "inf", "2x3", "3x3", "flat",
            "scalar", "stacked", "list"])
    def test_raises_as_the_trace_formula(self, m):
        with pytest.raises(HermiticityError) as want:
            trace_pauli_parts(m)
        with pytest.raises(HermiticityError) as got:
            pauli_parts(m)
        assert str(got.value) == str(want.value)

    def test_spin_round_trip_is_exact(self):
        # the parts of v . sigma are v itself: estimate_chsh may take a
        # setting's unit vector for the direction of its spin observable
        rng = np.random.default_rng(31)
        for theta, phi in rng.uniform(-7.0, 7.0, size=(2000, 2)):
            v = Direction(theta, phi).unit_vector()
            c0, c = pauli_parts(spin(v))
            assert c0 == 0.0 and np.array_equal(c, v), v
