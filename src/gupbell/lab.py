"""Parameter-space exploration: angle-grid scans, beta sweeps,
derivative-free angle optimization and region classification.

The scan and sweep evaluators share a vectorized path that reduces every
scenario to Bloch-vector contractions against precomputed two-qubit
moments of an effective density operator.  Single-point results from the
full matrix evaluators agree with this path to float precision, which is
covered by tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import gup, tensor
from .errors import AmbiguousBranchError, GupBellError
from .gup import ChshResult, GupModel, PerturbedState
from .quantum import (
    I2, PAULIS, ChshSettings, Direction, PureState, bell_state,
)

TWO_PI = 2.0 * math.pi
TSIRELSON = 2.0 * math.sqrt(2.0)
BOXWORLD = 4.0

REGION_CLASSICAL = "classical"
REGION_QUANTUM = "quantum"
REGION_SUPERQUANTUM = "superquantum"
REGION_UNPHYSICAL = "unphysical"


def classify(s: float) -> str:
    """Region of a CHSH value; each boundary belongs to the lower region."""
    if not math.isfinite(s):
        raise ValueError("CHSH value must be finite")
    if s <= 2.0:
        return REGION_CLASSICAL
    if s <= TSIRELSON:
        return REGION_QUANTUM
    if s <= BOXWORLD:
        return REGION_SUPERQUANTUM
    return REGION_UNPHYSICAL


@dataclass
class ScenarioConfig:
    """Everything needed to evaluate one CHSH scenario at any settings."""

    scenario: str = "qm"
    state: PureState = field(default_factory=bell_state)
    model: GupModel | None = None
    h0: np.ndarray | None = None
    hp: np.ndarray | None = None
    level_index: int = 0

    def __post_init__(self):
        if self.scenario not in ("qm", "s1", "s2", "s3"):
            raise ValueError(f"unknown scenario {self.scenario!r}")
        if self.scenario != "qm" and self.model is None:
            raise ValueError(f"scenario {self.scenario} requires a GupModel")
        self._perturbed = None

    @property
    def beta(self) -> float:
        return 0.0 if self.model is None else self.model.beta

    def perturbed(self) -> PerturbedState:
        """Perturbed state for scenarios 2 and 3 (defaults filled in)."""
        if self._perturbed is None:
            h0 = self.h0 if self.h0 is not None else gup.default_hamiltonian()
            hp = self.hp if self.hp is not None else gup.default_perturbation(self.model)
            self._perturbed = gup.perturb_state(h0, hp, self.level_index, self.beta)
        return self._perturbed

    def effective_density(self) -> np.ndarray:
        """Hermitian unit-trace operator rho such that the scenario value
        is tr(rho B) with the scenario's (possibly corrected) operators."""
        if self.scenario in ("qm", "s1"):
            psi = self.state.amplitudes
            return np.outer(psi, psi.conj())
        ps = self.perturbed()
        if self.scenario == "s2":
            xi = ps.xi.amplitudes
            rho = np.outer(xi, xi.conj())
            rho += ps.beta * (np.outer(ps.xi_p, xi.conj())
                              + np.outer(xi, ps.xi_p.conj()))
            return rho
        xg = ps.corrected_vector()
        return np.outer(xg, xg.conj()) / float((xg.conj() @ xg).real)

    def operator_model(self) -> GupModel | None:
        """The correction applied to measurement operators, if any."""
        return self.model if self.scenario in ("s1", "s3") else None


def evaluate_point(cfg: ScenarioConfig, s: ChshSettings) -> ChshResult:
    """Full matrix evaluation of one settings tuple."""
    if cfg.scenario == "qm":
        return gup.qm_chsh(cfg.state, s)
    if cfg.scenario == "s1":
        return gup.scenario1_chsh(cfg.state, s, cfg.model)
    if cfg.scenario == "s2":
        return gup.scenario2_chsh(cfg.perturbed(), s)
    return gup.scenario3_chsh(cfg.perturbed(), s, cfg.model)


def planar_directions(theta: np.ndarray) -> np.ndarray:
    """Unit vectors in the x-z plane for an array of polar angles."""
    theta = np.asarray(theta, dtype=float)
    return np.stack([np.sin(theta), np.zeros_like(theta), np.cos(theta)], axis=-1)


def sphere_directions(theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    st = np.sin(theta)
    return np.stack([st * np.cos(phi), st * np.sin(phi), np.cos(theta)], axis=-1)


class BatchEvaluator:
    """Vectorized CHSH evaluation over arrays of measurement directions."""

    def __init__(self, cfg: ScenarioConfig):
        rho = cfg.effective_density()
        self.trace = float(np.trace(rho).real)
        self.r_alice = np.array([
            np.trace(rho @ tensor.kron(sig, I2)).real for sig in PAULIS])
        self.r_bob = np.array([
            np.trace(rho @ tensor.kron(I2, sig)).real for sig in PAULIS])
        self.moments = np.array([
            [np.trace(rho @ tensor.kron(si, sj)).real for sj in PAULIS]
            for si in PAULIS])
        model = cfg.operator_model()
        self.rule = None if model is None else model.rule
        self.beta = 0.0 if model is None else model.beta
        self.axis = np.zeros(3)
        self.shift = 0.0
        if self.rule == "tilt":
            self.axis = model.m
        elif self.rule == "custom":
            jp = model.jp
            self.shift = float(np.trace(jp).real) / 2.0
            self.axis = np.array([np.trace(jp @ sig).real / 2.0 for sig in PAULIS])

    def _corrected(self, n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Identity coefficient and Bloch vector of the normalized
        (possibly corrected) observable along each direction."""
        if self.rule is None or self.rule == "self-cubic" or self.beta == 0.0:
            return np.zeros(n.shape[0]), n
        # exact eigenvalues of (s0 I + v.sigma) are s0 +- |v|
        v = n + self.beta * self.axis
        s0 = self.beta * self.shift
        vnorm = np.linalg.norm(v, axis=-1)
        mag_pos = np.abs(s0 + vnorm)
        mag_neg = np.abs(s0 - vnorm)
        if np.max(np.abs(mag_pos - mag_neg)) > gup.BRANCH_MISMATCH_TOL:
            raise AmbiguousBranchError(
                "eigenvalue branch magnitudes differ; normalization undefined")
        alpha = s0 / mag_pos
        w = v / mag_pos[:, None]
        return alpha, w

    def _correlator(self, alpha_a, w_a, alpha_b, w_b) -> np.ndarray:
        return (alpha_a * alpha_b * self.trace
                + alpha_a * (w_b @ self.r_bob)
                + alpha_b * (w_a @ self.r_alice)
                + np.einsum("ki,ij,kj->k", w_a, self.moments, w_b))

    def values(self, na, nap, nb, nbp) -> np.ndarray:
        """S for each row of the four (K, 3) direction arrays."""
        aa, wa = self._corrected(np.atleast_2d(na))
        aap, wap = self._corrected(np.atleast_2d(nap))
        ab, wb = self._corrected(np.atleast_2d(nb))
        abp, wbp = self._corrected(np.atleast_2d(nbp))
        return (self._correlator(aa, wa, ab, wb)
                + self._correlator(aa, wa, abp, wbp)
                + self._correlator(aap, wap, ab, wb)
                - self._correlator(aap, wap, abp, wbp))


@dataclass(frozen=True)
class ScanGrid:
    """CHSH values over the two-angle family a=0, a'=t1, b=t2, b'=-t2."""

    theta1_axis: np.ndarray
    theta2_axis: np.ndarray
    values: np.ndarray
    scenario: str
    beta: float

    def __post_init__(self):
        if self.values.shape != (len(self.theta1_axis), len(self.theta2_axis)):
            raise GupBellError("grid shape does not match axes")
        if not np.all(np.isfinite(self.values)):
            raise GupBellError("grid contains non-finite values")
        if float(self.values.max()) > BOXWORLD + 1e-9:
            raise GupBellError("grid exceeds the no-signalling ceiling of 4")


def scan_settings(theta1: float, theta2: float) -> ChshSettings:
    """The settings tuple behind one scan grid cell."""
    return ChshSettings.planar(0.0, theta1, theta2, -theta2)


def grid_scan(cfg: ScenarioConfig, resolution: int = 201,
              theta_min: float = 0.0, theta_max: float = TWO_PI) -> ScanGrid:
    """Evaluate the two-angle landscape on a uniform grid.

    The default domain is a full period in both angles, wide enough to
    contain both super-classical islands of the landscape.
    """
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    axis1 = np.linspace(theta_min, theta_max, resolution)
    axis2 = np.linspace(theta_min, theta_max, resolution)
    t1, t2 = np.meshgrid(axis1, axis2, indexing="ij")
    t1 = t1.ravel()
    t2 = t2.ravel()
    ev = BatchEvaluator(cfg)
    values = ev.values(
        planar_directions(np.zeros_like(t1)),
        planar_directions(t1),
        planar_directions(t2),
        planar_directions(-t2),
    ).reshape(resolution, resolution)
    return ScanGrid(axis1, axis2, values, cfg.scenario, cfg.beta)


def superclassical_components(grid: ScanGrid, threshold: float = 2.0) -> int:
    """Number of 4-connected components with S strictly above threshold."""
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


@dataclass(frozen=True)
class SweepCurve:
    """S against the sweep angle, one series per scenario, at fixed beta."""

    beta: float
    theta_axis: np.ndarray
    series: dict

    def __post_init__(self):
        for tag, vals in self.series.items():
            if len(vals) != len(self.theta_axis):
                raise GupBellError(f"series {tag} length mismatch")
            if not np.all(np.isfinite(vals)) or float(np.max(vals)) > BOXWORLD + 1e-9:
                raise GupBellError(f"series {tag} violates the ceiling of 4")


def sweep_settings(theta: float) -> ChshSettings:
    """One-parameter family a=0, a'=2t, b=t, b'=-t; it passes through the
    canonical maximizer at t=pi/4."""
    return ChshSettings.planar(0.0, 2.0 * theta, theta, -theta)


DEFAULT_SWEEP_BETAS = (0.1, 0.2, 0.5, 0.9)
DEFAULT_SWEEP_POINTS = 721


def beta_sweep(betas=DEFAULT_SWEEP_BETAS, theta_axis=None,
               scenarios=("qm", "s1", "s2", "s3"), rule: str = "tilt",
               m=(0.0, 0.0, 1.0), jp=None, state: PureState | None = None,
               h0=None, hp=None) -> list[SweepCurve]:
    """One curve bundle per beta over the one-parameter settings family."""
    if theta_axis is None:
        theta_axis = np.linspace(0.0, TWO_PI, DEFAULT_SWEEP_POINTS)
    theta_axis = np.asarray(theta_axis, dtype=float)
    if state is None:
        state = bell_state()
    na = planar_directions(np.zeros_like(theta_axis))
    nap = planar_directions(2.0 * theta_axis)
    nb = planar_directions(theta_axis)
    nbp = planar_directions(-theta_axis)
    curves = []
    for beta in betas:
        if beta < 0:
            raise ValueError("beta must be non-negative")
        if rule == "custom":
            model = GupModel(beta=beta, rule="custom", jp=jp)
        else:
            model = GupModel(beta=beta, rule=rule, m=np.asarray(m, dtype=float))
        series = {}
        for tag in scenarios:
            cfg = ScenarioConfig(scenario=tag, state=state,
                                 model=None if tag == "qm" else model,
                                 h0=h0, hp=hp)
            series[tag] = BatchEvaluator(cfg).values(na, nap, nb, nbp)
        curves.append(SweepCurve(float(beta), theta_axis, series))
    return curves


@dataclass(frozen=True)
class Optimum:
    """Best settings found by the angle search."""

    settings: ChshSettings
    value: float
    evaluations: int
    converged: bool


class _BudgetSpent(Exception):
    """Raised by the counted objective once ``maxfev`` calls are spent."""


def _nelder_mead(fun, x0, xatol: float, fatol: float, maxfev: int):
    """Minimize ``fun`` by the Nelder-Mead simplex method (Nelder & Mead,
    Comput. J. 7, 308 (1965)).

    Follows scipy's unbounded, non-adaptive ``minimize(method="Nelder-Mead")``
    step for step, so ``x``, the minimum, ``nfev`` and convergence match it
    bit for bit: the same initial simplex, coefficients 1/2/0.5/0.5, sort,
    centroid and stopping test.  The budget is checked before every call;
    reaching it abandons the current iteration.  Returns
    ``(x, fun(x), nfev, converged)``; ``converged`` is False when the
    budget ran out.
    """
    nfev = 0

    def f(x):
        nonlocal nfev
        if nfev >= maxfev:
            raise _BudgetSpent
        nfev += 1
        return fun(x)

    x0 = np.array(x0, dtype=float).ravel()
    n = x0.size
    sim = np.empty((n + 1, n))
    sim[0] = x0
    for k in range(n):
        y = x0.copy()
        y[k] = 1.05 * y[k] if y[k] != 0 else 0.00025
        sim[k + 1] = y
    fsim = np.full(n + 1, np.inf)
    try:
        for k in range(n + 1):
            fsim[k] = f(sim[k])
    except _BudgetSpent:
        pass
    # sorted twice, as scipy does: np.argsort is not stable, so the second
    # sort may still reorder vertices with tied values
    for _ in range(2):
        order = np.argsort(fsim)
        sim, fsim = np.take(sim, order, 0), np.take(fsim, order, 0)

    while nfev < maxfev:
        try:
            if (np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= xatol
                    and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
                break
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = 2 * xbar - sim[-1]
            fxr = f(xr)
            if fxr < fsim[0]:
                xe = 3 * xbar - 2 * sim[-1]
                fxe = f(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:  # outside contraction
                    xc = 1.5 * xbar - 0.5 * sim[-1]
                    fxc = f(xc)
                    accept = fxc <= fxr
                else:  # inside contraction
                    xc = 0.5 * xbar + 0.5 * sim[-1]
                    fxc = f(xc)
                    accept = fxc < fsim[-1]
                if accept:
                    sim[-1], fsim[-1] = xc, fxc
                else:  # shrink towards the best vertex
                    for j in range(1, n + 1):
                        sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                        fsim[j] = f(sim[j])
        except _BudgetSpent:
            pass
        order = np.argsort(fsim)
        sim, fsim = np.take(sim, order, 0), np.take(fsim, order, 0)
    return sim[0], np.min(fsim), nfev, nfev < maxfev


def optimize_angles(cfg: ScenarioConfig, restarts: int = 1, seed: int = 42,
                    coarse_steps: int = 17, max_evals: int = 10_000,
                    eight_angles: bool = False) -> Optimum:
    """Coarse grid over the planar angles followed by simplex refinement.

    ``max_evals`` budgets the refinement stage; the coarse grid is
    reported in ``evaluations`` but not charged against it.  Deterministic
    given the seed: restarts beyond the first start from seeded uniform
    draws, and ties are broken by restart index.
    """
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    ev = BatchEvaluator(cfg)
    evaluations = 0

    axis = np.linspace(0.0, TWO_PI, coarse_steps)
    grids = np.meshgrid(axis, axis, axis, axis, indexing="ij")
    flat = np.stack([g.ravel() for g in grids], axis=-1)
    coarse_vals = ev.values(*(planar_directions(flat[:, i]) for i in range(4)))
    evaluations += flat.shape[0]
    best_idx = int(np.argmax(coarse_vals))
    coarse_best = float(coarse_vals[best_idx])
    x0 = flat[best_idx]
    if eight_angles:
        x0 = np.concatenate([x0, np.zeros(4)])

    def objective(x):
        if eight_angles:
            dirs = [sphere_directions(x[i:i + 1], x[4 + i:5 + i]) for i in range(4)]
        else:
            dirs = [planar_directions(x[i:i + 1]) for i in range(4)]
        return -float(ev.values(*dirs)[0])

    rng = np.random.default_rng(seed)
    ndim = 8 if eight_angles else 4
    starts = [x0]
    for _ in range(restarts - 1):
        starts.append(rng.uniform(0.0, TWO_PI, ndim))

    best_value = coarse_best
    best_x = x0
    converged = True
    budget = max_evals
    for x_start in starts:
        if budget <= 4:
            converged = False
            break
        x, fun, nfev, ok = _nelder_mead(objective, x_start, xatol=1e-9,
                                        fatol=1e-12, maxfev=budget)
        evaluations += nfev
        budget -= nfev
        if not ok:
            converged = False
        if -fun > best_value:
            best_value = -fun
            best_x = x

    if eight_angles:
        settings = ChshSettings(*(Direction(best_x[i], best_x[4 + i]) for i in range(4)))
    else:
        settings = ChshSettings.planar(*best_x[:4])
    return Optimum(settings=settings, value=float(best_value),
                   evaluations=evaluations, converged=converged)
