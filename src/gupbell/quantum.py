"""Two-qubit states, spin observables and their correlation tensor."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)
I2 = np.eye(2, dtype=complex)

TWO_PI = 2.0 * math.pi
#: the classical bound: the largest S of any local deterministic strategy
#: with outcomes +-1, which every measured observable (a unit spin) has
CLASSICAL_BOUND = 2.0
TSIRELSON = 2.0 * math.sqrt(2.0)
#: the correlator pairs (Alice, Bob) of S, indices into (a, a', b, b'), and their signs
CHSH_PAIRS = ((0, 2), (0, 3), (1, 2), (1, 3))
CHSH_SIGNS = (1.0, 1.0, 1.0, -1.0)


@dataclass(frozen=True)
class Direction:
    """Measurement direction as polar/azimuth angles in radians.

    Canonicalized on construction to theta in [0, pi] and phi in
    [0, 2*pi), preserving the unit vector.
    """

    theta: float
    phi: float = 0.0

    def __post_init__(self):
        th, ph = float(self.theta), float(self.phi)
        if not (math.isfinite(th) and math.isfinite(ph)):
            raise ValueError("direction angles must be finite")
        th = th % TWO_PI
        if th > math.pi:
            th = TWO_PI - th
            ph = ph + math.pi
        ph = ph % TWO_PI
        # the modulo of a tiny negative angle can round to the period itself
        if ph >= TWO_PI:
            ph = 0.0
        object.__setattr__(self, "theta", th)
        object.__setattr__(self, "phi", ph)

    def unit_vector(self) -> np.ndarray:
        return directions(self.theta, self.phi)


def directions(theta, phi=0.0) -> np.ndarray:
    """Unit vectors (sin t cos p, sin t sin p, cos t) for polar angles t and
    azimuths p, broadcast together; shape (..., 3).  The only map from
    angles to directions: every setting enters S through it."""
    st = np.sin(theta)
    return np.stack([st * np.cos(phi), st * np.sin(phi), np.cos(theta)], axis=-1)


@dataclass(frozen=True)
class ChshSettings:
    """The four measurement directions of a CHSH experiment."""

    a: Direction
    a_prime: Direction
    b: Direction
    b_prime: Direction

    @classmethod
    def planar(cls, a: float, a_prime: float, b: float, b_prime: float) -> "ChshSettings":
        """Settings in the x-z plane (all azimuths zero)."""
        return cls(Direction(a), Direction(a_prime), Direction(b), Direction(b_prime))


def canonical_settings() -> ChshSettings:
    """The textbook maximizing settings a=0, a'=pi/2, b=pi/4, b'=-pi/4."""
    return ChshSettings.planar(0.0, math.pi / 2, math.pi / 4, -math.pi / 4)


@dataclass(frozen=True)
class PureState:
    """Normalized two-qubit state vector in the computational basis."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if amp.shape[0] != 4:
            raise DimensionError("a two-qubit state needs 4 amplitudes")
        norm = float(np.linalg.norm(amp))
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"state norm {norm} is not 1 within 1e-12")
        amp.flags.writeable = False
        object.__setattr__(self, "amplitudes", amp)


def bell_state() -> PureState:
    """The maximally entangled Bell state |Phi+> = (|00> + |11>)/sqrt(2)."""
    r = 1.0 / math.sqrt(2.0)
    return PureState(np.array((r, 0, 0, r), dtype=complex))


def spin(v) -> np.ndarray:
    """v . sigma for a real 3-vector v."""
    return v[0] * SIGMA_X + v[1] * SIGMA_Y + v[2] * SIGMA_Z


def pauli_parts(m: np.ndarray) -> tuple[float, np.ndarray]:
    """Identity part c0 and Bloch vector c of a 2x2 Hermitian matrix,
    m = c0 I + c . sigma; its eigenvalues are c0 +- |c|."""
    c = np.array([np.trace(m @ sig).real / 2.0 for sig in PAULIS])
    return float(np.trace(m).real) / 2.0, c


def spin_observable(n: Direction) -> np.ndarray:
    """Spin component along a direction: n . sigma, with eigenvalues +-1."""
    return spin(n.unit_vector())


def correlation_tensor(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Local Bloch vectors and correlation matrix of a two-qubit operator:
    r_A[i] = tr(rho s_i (x) I), r_B[j] = tr(rho I (x) s_j) and
    T[i, j] = tr(rho s_i (x) s_j).

    Every CHSH value, s1 bracket and shot probability is computed from
    these three and the corrected directions of the observables.
    """
    rho = np.asarray(rho, dtype=complex)
    r_a = np.array([np.trace(rho @ np.kron(sig, I2)).real for sig in PAULIS])
    r_b = np.array([np.trace(rho @ np.kron(I2, sig)).real for sig in PAULIS])
    t = np.array([[np.trace(rho @ np.kron(si, sj)).real for sj in PAULIS]
                  for si in PAULIS])
    return r_a, r_b, t
