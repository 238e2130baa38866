"""Dense 4x4 reference evaluation of the CHSH scenarios.

The package computes every value from the moments (r_A, r_B, T), read
off the amplitudes of the state, and the corrected directions of the
observables.  This module computes the same quantities the long way:
the moments as traces against each scenario's effective 4x4 density,
and the values as expectation values of dense Bell operators built from
eigendecomposed corrected observables; the tests compare the two.  A
general Rayleigh-Schrodinger solver on ``np.linalg.eigh`` checks the
closed-form first-order state of scenarios 2 and 3, and the exact ground
state of the perturbed Hamiltonian bounds its error.

It also keeps the per-cell artifact writers: one format call, colour
and rect per cell of ``scan.csv``, ``scan.svg`` and ``sweep.csv``, which
the CLI's column-at-a-time writers must match byte for byte, and two
checks against the classical bound: the exhaustive local-hidden-variable
maximum and the count of super-classical islands of a scan.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from gupbell import cli, kernels, lab, tensor
from gupbell.errors import DimensionError, HermiticityError
from gupbell.gup import ChshResult, GupModel, PerturbedState
from gupbell.quantum import (
    CLASSICAL_BOUND, PAULIS, SIGMA_X, SIGMA_Z, ChshSettings, Direction, PureState,
    spin_observable,
)


def expect(state: np.ndarray, op: np.ndarray) -> float:
    """Expectation value <psi|op|psi> of a Hermitian operator.

    The imaginary residue is checked against 1e-9 and discarded.
    """
    op = np.asarray(op, dtype=complex)
    psi = np.asarray(state, dtype=complex).reshape(-1)
    if op.shape != (psi.shape[0], psi.shape[0]):
        raise DimensionError(
            f"state dim {psi.shape[0]} does not match operator shape {op.shape}")
    val = complex(psi.conj() @ (op @ psi))
    if abs(val.imag) > 1e-9:
        raise HermiticityError(
            f"expectation has imaginary part {val.imag:.3e}; operator not Hermitian?")
    return val.real


def correlation_tensor(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Local Bloch vectors and correlation matrix of a two-qubit operator
    as traces: r_A[i] = tr(rho s_i (x) I), r_B[j] = tr(rho I (x) s_j) and
    T[i, j] = tr(rho s_i (x) s_j)."""
    rho = np.asarray(rho, dtype=complex)
    i2 = np.eye(2)
    r_a = np.array([np.trace(rho @ np.kron(sig, i2)).real for sig in PAULIS])
    r_b = np.array([np.trace(rho @ np.kron(i2, sig)).real for sig in PAULIS])
    t = np.array([[np.trace(rho @ np.kron(si, sj)).real for sj in PAULIS]
                  for si in PAULIS])
    return r_a, r_b, t


def effective_density(cfg) -> np.ndarray:
    """The Hermitian unit-trace 4x4 operator rho of a ``lab.ScenarioConfig``
    whose value is tr(rho B) with the scenario's (possibly corrected)
    operators: |psi><psi| for qm and s1, |xi><xi| + beta(|xi_p><xi| + h.c.)
    for s2 and the normalized |xg><xg| for s3."""
    if cfg.scenario in ("qm", "s1"):
        psi = cfg.state.amplitudes
        return np.outer(psi, psi.conj())
    ps = cfg.perturbed()
    if cfg.scenario == "s2":
        xi = ps.xi.amplitudes
        return np.outer(xi, xi.conj()) + ps.beta * (
            np.outer(ps.xi_p, xi.conj()) + np.outer(xi, ps.xi_p.conj()))
    xg = ps.corrected_vector()
    return np.outer(xg, xg.conj()) / float((xg.conj() @ xg).real)


def first_order_state(h0: np.ndarray, hp: np.ndarray, level: int,
                      beta: float) -> PerturbedState:
    """Rayleigh-Schrodinger first-order state correction of one level of a
    Hermitian h0 from its eigendecomposition: xi is the level's vector as
    ``np.linalg.eigh`` gives it and xi_p = sum_k <k|hp|xi> / (E - Ek) |k>
    over the other levels.  Raises ValueError for a level within 1e-8 of
    another: there is no single-level correction through a degeneracy."""
    energies, vectors = np.linalg.eigh(np.asarray(h0, dtype=complex))
    hp = np.asarray(hp, dtype=complex)
    gaps = np.abs(np.delete(energies, level) - energies[level])
    if gaps.min() < 1e-8:
        raise ValueError(f"level {level} is degenerate within 1e-8")
    xi = vectors[:, level]
    xi_p = np.zeros(len(energies), dtype=complex)
    for k in range(len(energies)):
        if k != level:
            vk = vectors[:, k]
            xi_p += (vk.conj() @ (hp @ xi)) / (energies[level] - energies[k]) * vk
    return PerturbedState(xi=PureState(xi), xi_p=xi_p, beta=float(beta))


def exact_ground_state(hp: np.ndarray, beta: float) -> np.ndarray:
    """The ground vector of H0 + beta * hp, H0 = -(sx (x) sx + sz (x) sz):
    the state that ``perturb_state`` expands to first order in beta."""
    h0 = -(np.kron(SIGMA_X, SIGMA_X) + np.kron(SIGMA_Z, SIGMA_Z))
    return np.linalg.eigh(h0 + beta * np.asarray(hp, dtype=complex))[1][:, 0]


def bell_operator(s: ChshSettings) -> np.ndarray:
    """B = a (x) (b + b') + a' (x) (b - b') for unit-spin observables."""
    a = spin_observable(s.a)
    ap = spin_observable(s.a_prime)
    b = spin_observable(s.b)
    bp = spin_observable(s.b_prime)
    return np.kron(a, b + bp) + np.kron(ap, b - bp)


def chsh_value(state: PureState, s: ChshSettings) -> float:
    """Exact CHSH expectation <B> in the given state."""
    return expect(state.amplitudes, bell_operator(s))


@dataclass(frozen=True)
class DenseObservable:
    j_gup_unnorm: np.ndarray
    lambda_gup_abs: float
    j_gup: np.ndarray
    beta_prime: float
    beta_dprime: float


def correct_observable(n: Direction, model: GupModel) -> DenseObservable:
    """The corrected observable from eigendecompositions: the first-order
    shift is the diagonal element of J_p in the eigenbasis of J, and the
    normalization the exact eigenvalue magnitude of J + beta*J_p."""
    j = spin_observable(n)
    jp = model.perturbation_of(j)
    lam, vectors = tensor.eig_hermitian(j)  # (-1, +1) ascending
    lam_p = (vectors[:, 1].conj() @ jp @ vectors[:, 1]).real
    j_gup_unnorm = j + model.beta * jp
    lambda_gup_abs = float(np.abs(tensor.eig_hermitian(j_gup_unnorm)[0][1]))
    return DenseObservable(
        j_gup_unnorm=j_gup_unnorm,
        lambda_gup_abs=lambda_gup_abs,
        j_gup=j_gup_unnorm / lambda_gup_abs,
        beta_prime=float(model.beta * lam_p / lam[1]),
        beta_dprime=model.beta / abs(float(lam[1])),
    )


def qm_chsh(state: PureState, s: ChshSettings) -> ChshResult:
    """Uncorrected CHSH expectation."""
    return ChshResult(chsh_value(state, s), {})


def _bell_combination(alice: np.ndarray, alice_prime: np.ndarray,
                      bob_plus: np.ndarray, bob_minus: np.ndarray) -> np.ndarray:
    return np.kron(alice, bob_plus) + np.kron(alice_prime, bob_minus)


def scenario1_chsh(state: PureState, s: ChshSettings, model: GupModel) -> ChshResult:
    """Corrected operators on an ordinary state.

    The terms are the four first-order correction brackets and their
    signed sum; the mixed brackets deliberately use the unnormalized
    corrected operators on one side, exactly as the expansion is written.
    """
    oa = correct_observable(s.a, model)
    oap = correct_observable(s.a_prime, model)
    ob = correct_observable(s.b, model)
    obp = correct_observable(s.b_prime, model)

    psi = state.amplitudes
    b_plus = ob.j_gup + obp.j_gup
    b_minus = ob.j_gup - obp.j_gup
    b_gup = _bell_combination(oa.j_gup, oap.j_gup, b_plus, b_minus)
    value = expect(psi, b_gup)

    t1 = expect(psi, _bell_combination(
        oa.beta_prime * oa.j_gup, oap.beta_prime * oap.j_gup, b_plus, b_minus))
    t2 = expect(psi, _bell_combination(
        oa.j_gup, oap.j_gup,
        ob.beta_prime * ob.j_gup + obp.beta_prime * obp.j_gup,
        ob.beta_prime * ob.j_gup - obp.beta_prime * obp.j_gup))
    t3 = oa.beta_dprime * expect(psi, _bell_combination(
        oa.j_gup_unnorm, oap.j_gup_unnorm, b_plus, b_minus))
    t4 = ob.beta_dprime * expect(psi, _bell_combination(
        oa.j_gup, oap.j_gup,
        ob.j_gup_unnorm + obp.j_gup_unnorm,
        ob.j_gup_unnorm - obp.j_gup_unnorm))

    correction = -t1 - t2 + t3 + t4
    terms = {
        "bracket_beta_prime_alice": t1,
        "bracket_beta_prime_bob": t2,
        "bracket_beta_dprime_alice": t3,
        "bracket_beta_dprime_bob": t4,
        "correction_sum": correction,
    }
    return ChshResult(value, terms)


def scenario2_chsh(ps: PerturbedState, s: ChshSettings) -> ChshResult:
    """Ordinary operators on a perturbed state.

    The first-order cross term uses the real part of <xi|B|xi_p>;
    Hermiticity of B makes the full first-order contribution twice that.
    """
    b = bell_operator(s)
    qm = expect(ps.xi.amplitudes, b)
    cross = float((ps.xi.amplitudes.conj() @ (b @ ps.xi_p)).real)
    value = qm + 2.0 * ps.beta * cross
    terms = {"qm": qm, "cross": cross}
    return ChshResult(value, terms)


def scenario3_chsh(ps: PerturbedState, s: ChshSettings, model: GupModel) -> ChshResult:
    """Corrected operators on the corrected state, divided by the squared
    norm of the corrected state."""
    oa = correct_observable(s.a, model)
    oap = correct_observable(s.a_prime, model)
    ob = correct_observable(s.b, model)
    obp = correct_observable(s.b_prime, model)
    b_gup = _bell_combination(oa.j_gup, oap.j_gup,
                              ob.j_gup + obp.j_gup, ob.j_gup - obp.j_gup)
    xg = ps.corrected_vector()
    norm_sq = float((xg.conj() @ xg).real)
    value = float((xg.conj() @ (b_gup @ xg)).real) / norm_sq
    terms = {"norm_sq": norm_sq}
    return ChshResult(value, terms)


def scenario_chsh(cfg, s: ChshSettings) -> ChshResult:
    """The dense evaluation of a ``lab.ScenarioConfig`` at one settings tuple."""
    if cfg.scenario == "qm":
        return qm_chsh(cfg.state, s)
    if cfg.scenario == "s1":
        return scenario1_chsh(cfg.state, s, cfg.model)
    if cfg.scenario == "s2":
        return scenario2_chsh(cfg.perturbed(), s)
    return scenario3_chsh(cfg.perturbed(), s, cfg.model)


def scan_settings(theta1: float, theta2: float) -> ChshSettings:
    """The settings tuple behind one scan grid cell."""
    return ChshSettings.planar(0.0, theta1, theta2, -theta2)


def sweep_settings(theta: float) -> ChshSettings:
    """One-parameter family a=0, a'=2t, b=t, b'=-t; it passes through the
    canonical maximizer at t=pi/4."""
    return ChshSettings.planar(0.0, 2.0 * theta, theta, -theta)


def uniform_stream(seed: int, base: int, n: int) -> np.ndarray:
    """The shot kernel's uniforms in [0, 1) for global indices
    base..base+n-1, formed as floats: u = k * 2**-53."""
    k = kernels._mix(seed, base, kernels._steps(n), np.empty(n, np.uint64),
                     np.empty(n, np.uint64))
    return k.astype(np.float64) * 2.0**-53


def correlator(rho: np.ndarray, obs_a: np.ndarray, obs_b: np.ndarray) -> float:
    """tr(rho A (x) B)."""
    return float(np.trace(np.asarray(rho) @ np.kron(obs_a, obs_b)).real)


def lhv_max():
    """Exhaust all 16 deterministic strategies of the CHSH game.

    Returns the maximum S and the full strategy table
    [(a, a', b, b', S), ...].
    """
    strategies = []
    best = -math.inf
    for a, ap, b, bp in itertools.product((1, -1), repeat=4):
        s = a * (b + bp) + ap * (b - bp)
        strategies.append((a, ap, b, bp, float(s)))
        best = max(best, float(s))
    return best, strategies


def superclassical_components(grid, threshold: float = CLASSICAL_BOUND) -> int:
    """Number of 4-connected components of a scan grid with S strictly
    above threshold."""
    mask = (grid.values > threshold).tolist()
    rows = len(mask)
    cols = len(mask[0]) if rows else 0
    count = 0
    for i in range(rows):
        for j in range(cols):
            if not mask[i][j]:
                continue
            count += 1
            mask[i][j] = False
            stack = [(i, j)]
            while stack:
                a, b = stack.pop()
                for p, q in ((a - 1, b), (a + 1, b), (a, b - 1), (a, b + 1)):
                    if 0 <= p < rows and 0 <= q < cols and mask[p][q]:
                        mask[p][q] = False
                        stack.append((p, q))
    return count


def _fmt9(x: float) -> str:
    return format(float(x), ".9g")


def heat_color(value: float, vmin: float, vmax: float) -> str:
    """Linear blue -> white -> red map over [vmin, vmax]."""
    mid = 0.5 * (vmin + vmax)
    half = 0.5 * (vmax - vmin)
    t = 0.0 if half == 0 else max(-1.0, min(1.0, (value - mid) / half))
    if t < 0:
        r = g = int(round(255 * (1.0 + t)))
        b = 255
    else:
        r = 255
        g = b = int(round(255 * (1.0 - t)))
    return f"#{r:02x}{g:02x}{b:02x}"


def heatmap_cells(values: np.ndarray) -> list:
    """The cell rects of ``scan.svg``, one per cell, column by column."""
    n1, n2 = values.shape
    vmin = float(values.min())
    vmax = float(values.max())
    degenerate = (vmax - vmin) < 1e-12
    if degenerate:
        vmin, vmax = -4.0, 4.0
    cells = []
    for i in range(n1):
        for j in range(n2):
            v = float(values[i, j])
            x = cli._MARGIN_LEFT + i * cli._CELL
            y = cli._MARGIN_TOP + (n2 - 1 - j) * cli._CELL
            outline = (not degenerate) and lab.classify(v) != lab.REGION_CLASSICAL
            stroke = ' stroke="#000" stroke-width="0.4"' if outline else ""
            cells.append(
                f'<rect x="{x}" y="{y}" width="{cli._CELL}" height="{cli._CELL}" '
                f'fill="{heat_color(v, vmin, vmax)}"{stroke}/>')
    return cells


def scan_csv(grid) -> str:
    """``scan.csv`` of a ``lab.ScanGrid``, formatted cell by cell."""
    lines = ["theta1,theta2,S"]
    for i, t1 in enumerate(grid.theta1_axis):
        for j, t2 in enumerate(grid.theta2_axis):
            lines.append(f"{_fmt9(t1)},{_fmt9(t2)},{_fmt9(grid.values[i, j])}")
    return "\n".join(lines) + "\n"


def sweep_csv(curves, scenario: str) -> tuple:
    """``sweep.csv`` of ``lab.beta_sweep`` curves, formatted cell by cell,
    and the largest S of the given scenario's series in it."""
    lines = ["beta,theta,S_qm,S_s1,S_s2,S_s3"]
    best = -math.inf
    for curve in curves:
        for k, theta in enumerate(curve.theta_axis):
            row = [_fmt9(curve.beta), _fmt9(theta)]
            for tag in ("qm", "s1", "s2", "s3"):
                value = float(curve.series[tag][k])
                if tag == scenario:
                    best = max(best, value)
                row.append(_fmt9(value))
            lines.append(",".join(row))
    return "\n".join(lines) + "\n", best
