"""Minimal-length corrections to observables and states.

A corrected observable is a unit spin along a corrected direction: the
direction map n -> w(n) = (n + beta*a)/|n + beta*a| of ``GupModel.corrected``,
the identity at beta = 0 and inverted by ``GupModel.inverse``, is the only
place where observables are corrected and warned about, and a ``GupModel``
outside the first-order domain is rejected when it is built.
The perturbed state of scenarios 2 and 3 comes from first-order
perturbation theory of the Bell state, in closed form (``perturb_state``);
``lab`` evaluates the scenarios from both.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import tensor
from .errors import AmbiguousBranchError, HermiticityError, OutOfRangeError
from .quantum import (
    BELL_BASIS, SIGMA_X, SIGMA_Z, Direction, PureState, directions, pauli_parts, spin,
)

RULES = ("self-cubic", "tilt", "custom")

#: above this coupling strength the first-order treatment is dubious
SMALLNESS_WARN = 0.3

BRANCH_MISMATCH_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class GupModel:
    """Correction model: strength beta plus the rule producing the
    perturbation operator from an unperturbed observable.

    rule "self-cubic" uses the cube of the observable (a no-op for spin
    components, kept as a consistency anchor), "tilt" adds a fixed spin
    component along the unit axis ``m``, and "custom" uses the supplied
    2x2 Hermitian ``jp`` verbatim; no other rule takes a ``jp``.  A tilt
    axis ``m`` of norm within 1e-6 of 1 is normalized, with a warning
    beyond rounding.  ``axis`` is the Bloch vector of the perturbation for
    tilt and custom (zero for self-cubic) and ``shift`` is beta * axis.
    A custom jp with an identity part at non-zero beta raises
    AmbiguousBranchError: the eigenvalue branches of J + beta*J_p then
    differ in magnitude.  A model whose reach beta * |a| (beta for
    self-cubic) is 1 or more raises OutOfRangeError: the first-order
    treatment needs |beta'| < 1 along every direction, and then
    n -> w(n) maps the sphere onto itself.
    """

    beta: float
    rule: str = "tilt"
    m: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, 1.0]))
    jp: np.ndarray | None = None
    axis: np.ndarray = field(init=False, repr=False, default=None)
    shift: np.ndarray = field(init=False, repr=False, default=None)

    def __post_init__(self):
        if not math.isfinite(self.beta):
            raise ValueError(f"beta must be finite, got {self.beta}")
        if self.beta < 0:
            raise ValueError("negative beta models are out of scope")
        if self.rule not in RULES:
            raise ValueError(f"unknown rule {self.rule!r}; expected one of {RULES}")
        if self.jp is not None and self.rule != "custom":
            raise ValueError(f"jp applies to the custom rule only, not {self.rule}")
        m = np.array(self.m, dtype=float).reshape(-1)  # a copy: the caller may change its array
        m.flags.writeable = False
        axis = np.zeros(3)
        if self.rule == "tilt":
            if m.shape[0] != 3:
                raise ValueError("tilt axis m must be a 3-vector")
            norm = math.sqrt(sum(x * x for x in m.tolist()))
            if not abs(norm - 1.0) <= 1e-6:
                raise ValueError(f"axis norm {norm:.9g} deviates from 1 by more than 1e-6")
            axis = m if norm == 1.0 else m / norm
            if abs(norm - 1.0) > 1e-12:  # beyond rounding
                warnings.warn(f"m: normalizing axis (norm {norm:.12g})")
        object.__setattr__(self, "m", m)
        if self.rule == "custom":
            jp = np.array(self.jp, dtype=complex)
            jp.flags.writeable = False
            object.__setattr__(self, "jp", jp)
            identity, axis = pauli_parts(jp)
            if 2.0 * abs(self.beta * identity) > BRANCH_MISMATCH_TOL:
                raise AmbiguousBranchError(
                    f"custom jp has identity part {identity:.12g}: the eigenvalue "
                    "branch magnitudes differ; normalization undefined")
        object.__setattr__(self, "axis", axis)
        object.__setattr__(self, "shift", self.beta * axis)
        reach = self.beta * (1.0 if self.rule == "self-cubic" else np.linalg.norm(axis))
        if reach >= 1.0:
            raise OutOfRangeError(f"|beta'| reaches beta * |a| = {reach:.12g} >= 1; "
                                  "first-order treatment invalid")

    def perturbation_of(self, j: np.ndarray) -> np.ndarray:
        """The perturbation operator J_p for an unperturbed observable."""
        if self.rule == "self-cubic":
            return j @ j @ j
        if self.rule == "tilt":
            return spin(self.axis)
        return self.jp

    def corrected(self, n: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The direction map of the corrected spin along unit directions n.

        ``n`` has shape (..., 3).  J + beta*J_p equals lambda * w.sigma
        with w = (n + beta*a)/lambda and lambda = |n + beta*a|; self-cubic
        gives w = n and lambda = 1 + beta; beta = 0 returns n itself.
        beta' = beta * lambda_p is the first-order coupling, lambda_p = n.a
        (1 for self-cubic) being the shift of the +1 eigenvalue.  Returns
        (w, lambda, beta').

        Raises OutOfRangeError where lambda = 0, as J + beta*J_p is then
        zero; only rounding at a reach next to 1 gets there.  Warns when
        |beta'| exceeds ``SMALLNESS_WARN`` for any direction.
        """
        n = np.asarray(n, dtype=float)
        if self.rule == "self-cubic" or self.beta == 0.0:
            w = n
            lam = np.full(n.shape[:-1], 1.0 + self.beta)
            beta_prime = np.full(n.shape[:-1], self.beta)
        else:
            v = n + self.shift
            lam = np.linalg.norm(v, axis=-1)
            if np.any(lam == 0.0):
                raise OutOfRangeError(
                    "J + beta * J_p is the zero operator along n = -beta * a; "
                    "first-order treatment invalid")
            w = v / lam[..., None]
            beta_prime = self.beta * (n @ self.axis)
        if float(np.max(np.abs(beta_prime), initial=0.0)) > SMALLNESS_WARN:
            # issued from this line whoever calls, so it shows once per run
            warnings.warn(f"|beta * lambda_p / lambda| > {SMALLNESS_WARN}; "
                          "perturbative correction is no longer small")
        return w, lam, beta_prime

    def planar(self, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The map along planar directions n = (sin theta, 0, cos theta) and
        its first two derivatives in theta: (w, w', w''), each of shape
        (..., 3).  w is ``corrected``'s, so it warns as there.  With
        v = n + s (s = ``shift``, zero for self-cubic and at beta = 0) and
        lambda = |v|, w' = (n' - w (w.n'))/lambda and
        w'' = (-n - 2 w' (w.n') - w (w'.n' - w.n))/lambda."""
        n = directions(theta)
        w = self.corrected(n)[0]
        dn = np.stack([np.cos(theta), np.zeros_like(theta), -np.sin(theta)], axis=-1)
        lam = np.linalg.norm(n + self.shift, axis=-1)[..., None]
        w_dn = np.sum(w * dn, axis=-1, keepdims=True)
        w1 = (dn - w * w_dn) / lam
        w2 = (-n - 2.0 * w1 * w_dn
              - w * np.sum(w1 * dn - w * n, axis=-1, keepdims=True)) / lam
        return w, w1, w2

    def inverse(self, w: np.ndarray) -> np.ndarray:
        """The unit directions n whose corrected directions are w, shape
        (..., 3): n = lambda w - s with s = ``shift`` and
        lambda = w.s + sqrt(1 - |s|^2 + (w.s)^2) > 0, as |s| < 1."""
        ws = w @ self.shift
        lam = ws + np.sqrt(1.0 - self.shift @ self.shift + ws * ws)
        return lam[..., None] * w - self.shift


@dataclass(frozen=True, eq=False)
class GupObservable:
    """``j_gup = w.sigma``, the normalized, exactly dichotomic corrected
    spin used in Bell measurements."""

    j_gup: np.ndarray


def gup_correct_observable(n: Direction, model: GupModel) -> GupObservable:
    """Apply the first-order correction to the spin observable along n."""
    return GupObservable(j_gup=spin(model.corrected(n.unit_vector())[0]))


@dataclass(frozen=True, eq=False)
class PerturbedState:
    """First-order perturbed state: |xi_GUP> = |xi> + beta |xi>_p."""

    xi: PureState
    xi_p: np.ndarray
    beta: float

    def corrected_vector(self) -> np.ndarray:
        return self.xi.amplitudes + self.beta * self.xi_p

    def norm_sq(self) -> float:
        """|xg|^2 = Re(xg^dagger xg) of the corrected vector xg."""
        xg = self.corrected_vector()
        return float((xg.conj() @ xg).real)


@dataclass(frozen=True)
class ChshResult:
    """CHSH evaluation outcome for one scenario at one settings tuple."""

    value: float
    terms: dict


#: H0 = -(sx (x) sx + sz (x) sz), read-only: Phi+ at E0 = -2, Phi- and Psi+ at 0, Psi- at +2
_H0 = -(np.kron(SIGMA_X, SIGMA_X) + np.kron(SIGMA_Z, SIGMA_Z))
_H0.flags.writeable = False
_PHI_PLUS = PureState(BELL_BASIS[0])
_EXCITED = tuple(zip(BELL_BASIS[1:], (-0.5, -0.5, -0.25)))


def default_hamiltonian() -> np.ndarray:
    """-(sx (x) sx + sz (x) sz): unique PhiPlus ground state, gap 2."""
    return _H0.copy()


def default_perturbation(model: GupModel) -> np.ndarray:
    """First-order expansion of the default Hamiltonian under the model,
    applied to each local factor."""
    hp = np.zeros((4, 4), dtype=complex)
    for p in (SIGMA_X, SIGMA_Z):
        pp = model.perturbation_of(p)
        hp -= np.kron(pp, p) + np.kron(p, pp)
    return hp


def perturb_state(h0: np.ndarray, hp: np.ndarray, level_index: int,
                  beta: float) -> PerturbedState:
    """Rayleigh-Schrodinger first-order correction of the ground state
    xi = Phi+ of H0 = ``default_hamiltonian()``, in closed form over its
    Bell basis: xi_p = sum_k <k|hp|Phi+> / (E0 - Ek) |k> over the excited
    Phi-, Psi+ and Psi-.  Raises ValueError for any other ``h0`` or a
    ``level_index`` other than 0, HermiticityError for an hp that is not
    4x4 Hermitian and OutOfRangeError for a non-finite |xi + beta*xi_p|^2.
    """
    if level_index != 0 or not np.array_equal(h0, _H0):
        raise ValueError("perturb_state expands level 0 of default_hamiltonian() only")
    hp = np.asarray(hp, dtype=complex)
    if hp.shape != (4, 4) or not tensor.is_hermitian(hp):
        raise HermiticityError("expected a 4x4 Hermitian hp matrix")
    hp_xi = hp @ _PHI_PLUS.amplitudes
    xi_p = sum((vk.conj() @ hp_xi) * weight * vk for vk, weight in _EXCITED)
    ps = PerturbedState(xi=_PHI_PLUS, xi_p=xi_p, beta=float(beta))
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        norm_sq = ps.norm_sq()
    if not math.isfinite(norm_sq):
        raise OutOfRangeError(
            f"|xi + beta * xi_p|^2 = {norm_sq}: the perturbed state overflows")
    return ps
