"""Reference physics and reference kernel, written independently of gupbell.

Every corrected observable of the built-in rules and of a traceless custom
``jp`` is a unit spin along w(n) = (n + beta*a)/|n + beta*a|, so every CHSH
value the program reports is sum(+-) w_A . T . w_B for the 3x3 correlation
matrix T of the (effective) two-qubit state.  The checks in ``checks.py``
compare the program against these formulas, the Horodecki maximum
2*sqrt(t1^2 + t2^2) (R. Horodecki et al., Phys. Lett. A 200, 340 (1995))
and a pure-Python splitmix64 stream.
"""

from __future__ import annotations

import math

import numpy as np

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = (SX, SY, SZ)
TSIRELSON = 2.0 * math.sqrt(2.0)
PHI_PLUS = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2.0)
H0 = -(np.kron(SX, SX) + np.kron(SZ, SZ))


def spin(v) -> np.ndarray:
    return v[0] * SX + v[1] * SY + v[2] * SZ


def unit(theta: float, phi: float = 0.0) -> np.ndarray:
    st = math.sin(theta)
    return np.array([st * math.cos(phi), st * math.sin(phi), math.cos(theta)])


def planar(theta) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    return np.stack([np.sin(theta), np.zeros_like(theta), np.cos(theta)], axis=-1)


class Model:
    """A correction model as the generator draws it: rule, beta, and the
    tilt axis ``m`` or the Bloch vector ``v`` of a traceless custom jp."""

    def __init__(self, rule: str, beta: float, m=None, v=None):
        self.rule = rule
        self.beta = float(beta)
        self.m = None if m is None else np.asarray(m, dtype=float)
        self.v = None if v is None else np.asarray(v, dtype=float)

    def axis(self) -> np.ndarray:
        """Shift of the corrected direction: n -> n + beta * axis."""
        if self.rule == "tilt":
            return self.m
        if self.rule == "custom":
            return self.v
        return np.zeros(3)

    def perturbation_of(self, p: np.ndarray) -> np.ndarray:
        if self.rule == "self-cubic":
            return p @ p @ p
        return spin(self.axis())


def default_hp(model: Model) -> np.ndarray:
    hp = np.zeros((4, 4), dtype=complex)
    for p in (SX, SZ):
        pp = model.perturbation_of(p)
        hp -= np.kron(pp, p) + np.kron(p, pp)
    return hp


def perturbed_ground(hp: np.ndarray, beta: float):
    """Ground state xi of H0 and its first-order correction xi_p."""
    energies, vectors = np.linalg.eigh(H0)
    xi = vectors[:, 0]
    xi_p = np.zeros(4, dtype=complex)
    for k in range(1, 4):
        vk = vectors[:, k]
        xi_p += (vk.conj() @ hp @ xi) / (energies[0] - energies[k]) * vk
    return xi, xi_p


def effective_density(scenario: str, model: Model | None, hp) -> np.ndarray:
    if scenario in ("qm", "s1"):
        return np.outer(PHI_PLUS, PHI_PLUS.conj())
    hp = default_hp(model) if hp is None else np.asarray(hp, dtype=complex)
    xi, xi_p = perturbed_ground(hp, model.beta)
    if scenario == "s2":
        return (np.outer(xi, xi.conj())
                + model.beta * (np.outer(xi_p, xi.conj()) + np.outer(xi, xi_p.conj())))
    xg = xi + model.beta * xi_p
    return np.outer(xg, xg.conj()) / float((xg.conj() @ xg).real)


def correlation_matrix(rho: np.ndarray) -> np.ndarray:
    return np.array([[np.trace(rho @ np.kron(si, sj)).real for sj in PAULI]
                     for si in PAULI])


class Scenario:
    """T and the direction map w(.) of one scenario tag."""

    def __init__(self, scenario: str, model: Model | None = None, hp=None):
        self.scenario = scenario
        self.T = correlation_matrix(effective_density(scenario, model, hp))
        corrected = scenario in ("s1", "s3") and model is not None
        self.shift = model.beta * model.axis() if corrected else np.zeros(3)

    def w(self, n: np.ndarray) -> np.ndarray:
        v = np.asarray(n, dtype=float) + self.shift
        return v / np.linalg.norm(v, axis=-1, keepdims=True)

    def correlators(self, na, nap, nb, nbp) -> np.ndarray:
        """E(a,b), E(a,b'), E(a',b), E(a',b') for single directions."""
        wa, wap, wb, wbp = (self.w(n) for n in (na, nap, nb, nbp))
        return np.array([wa @ self.T @ wb, wa @ self.T @ wbp,
                         wap @ self.T @ wb, wap @ self.T @ wbp])

    def chsh(self, na, nap, nb, nbp) -> float:
        e = self.correlators(na, nap, nb, nbp)
        return float(e[0] + e[1] + e[2] - e[3])

    def scan(self, axis1, axis2) -> np.ndarray:
        """S over the scan family a=0, a'=t1, b=t2, b'=-t2."""
        wa = self.w(planar(0.0))
        wap = self.w(planar(axis1))
        wb = self.w(planar(axis2))
        wbp = self.w(planar(-np.asarray(axis2)))
        tb = self.T @ (wb + wbp).T
        tm = self.T @ (wb - wbp).T
        return (wa @ tb)[None, :] + wap @ tm

    def sweep(self, theta) -> np.ndarray:
        """S over the sweep family a=0, a'=2t, b=t, b'=-t."""
        theta = np.asarray(theta, dtype=float)
        wa = self.w(planar(np.zeros_like(theta)))
        wap, wb, wbp = self.w(planar(2 * theta)), self.w(planar(theta)), self.w(planar(-theta))
        te = np.einsum("ki,ij,kj->k", wa, self.T, wb + wbp)
        to = np.einsum("ki,ij,kj->k", wap, self.T, wb - wbp)
        return te + to

    def horodecki(self, planar_only: bool = False) -> float:
        t = self.T[np.ix_([0, 2], [0, 2])] if planar_only else self.T
        s = np.linalg.svd(t, compute_uv=False)
        return 2.0 * math.sqrt(s[0] ** 2 + s[1] ** 2)


def qm_scan(axis1, axis2) -> np.ndarray:
    t1 = np.asarray(axis1)[:, None]
    t2 = np.asarray(axis2)[None, :]
    return 2 * np.cos(t2) + np.cos(t1 - t2) - np.cos(t1 + t2)


def qm_sweep(theta) -> np.ndarray:
    return 3 * np.cos(theta) - np.cos(3 * theta)


def shot_sigma(correlators, noise_p: float, shots: int) -> float:
    """Standard error of S-hat from the exact depolarized correlators."""
    e = (1.0 - noise_p) * np.asarray(correlators)
    return math.sqrt(float(np.sum(1.0 - e * e)) / shots)


# --- splitmix64 reference --------------------------------------------------

_M64 = (1 << 64) - 1


def reference_counts(seed: int, base: int, n: int, cumulative) -> list:
    """Counts of the four outcomes for stream indices base..base+n-1, one
    64-bit integer mix and one comparison chain per shot."""
    c0, c1, c2 = (float(c) for c in cumulative)
    counts = [0, 0, 0, 0]
    for k in range(base, base + n):
        z = (seed + (k + 1) * 0x9E3779B97F4A7C15) & _M64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
        z ^= z >> 31
        u = (z >> 11) * (1.0 / 9007199254740992.0)
        counts[0 if u < c0 else 1 if u < c1 else 2 if u < c2 else 3] += 1
    return counts
