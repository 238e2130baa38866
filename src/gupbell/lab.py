"""Parameter-space exploration: angle-grid scans, beta sweeps,
derivative-free angle optimization and region classification.

Every scenario value is computed from one representation: the
correlation matrix T of the scenario's effective two-qubit operator and
the corrected directions w of the four observables, so that
S = sum(+-) w_A . T . w_B.  ``evaluate_point`` adds the scenario's
diagnostic terms at one settings tuple; ``BatchEvaluator`` evaluates S
over arrays of directions for scans, sweeps and the optimizer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import gup
from .errors import GupBellError, OutOfRangeError
from .gup import ChshResult, GupModel, PerturbedState
from .quantum import (
    CHSH_PAIRS, CHSH_SIGNS, TSIRELSON, TWO_PI, ChshSettings, Direction, PureState,
    bell_state, correlation_tensor, directions,
)

BOXWORLD = 4.0

REGION_CLASSICAL = "classical"
REGION_QUANTUM = "quantum"
REGION_SUPERQUANTUM = "superquantum"
REGION_UNPHYSICAL = "unphysical"

#: uncorrected, corrected observables, perturbed state, both corrections
SCENARIOS = ("qm", "s1", "s2", "s3")

#: rounding allowance at every region boundary
CLASSIFY_TOL = 1e-12


def classify(s: float) -> str:
    """Region of a CHSH value; each boundary, widened by ``CLASSIFY_TOL``
    for rounding, belongs to the lower region."""
    if not math.isfinite(s):
        raise ValueError("CHSH value must be finite")
    if s <= 2.0 + CLASSIFY_TOL:
        return REGION_CLASSICAL
    if s <= TSIRELSON + CLASSIFY_TOL:
        return REGION_QUANTUM
    if s <= BOXWORLD + CLASSIFY_TOL:
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

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}")
        if self.scenario != "qm" and self.model is None:
            raise ValueError(f"scenario {self.scenario} requires a GupModel")
        self._perturbed = None

    def perturbed(self) -> PerturbedState:
        """Perturbed ground state for scenarios 2 and 3 (defaults filled in)."""
        if self._perturbed is None:
            h0 = self.h0 if self.h0 is not None else gup.default_hamiltonian()
            hp = self.hp if self.hp is not None else gup.default_perturbation(self.model)
            self._perturbed = gup.perturb_state(
                h0, hp, 0, 0.0 if self.model is None else self.model.beta)
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

    def sampled_state(self) -> PureState:
        """The state shots are drawn from: the given state for qm and s1,
        the normalized corrected state for s3.

        Raises
        ------
        OutOfRangeError
            for s2, whose effective operator |xi><xi| + beta(|xi_p><xi| + h.c.)
            has a negative eigenvalue and so is not a state.
        """
        if self.scenario in ("qm", "s1"):
            return self.state
        if self.scenario == "s2":
            raise OutOfRangeError(
                "scenario s2 cannot be sampled: its effective operator is not a state")
        xg = self.perturbed().corrected_vector()
        return PureState(xg / np.linalg.norm(xg))


def _correlators(t: np.ndarray, w):
    """E(a,b), E(a,b'), E(a',b), E(a',b') = w_A . T . w_B, one (K,) array
    per pair, for the four (K, 3) direction arrays w = (w_a, w_a', w_b, w_b').

    A generator, so that ``_chsh`` adds each correlator as it is made and
    a large K never holds all four at once.
    """
    for i, j in CHSH_PAIRS:
        yield np.einsum("ki,ij,kj->k", w[i], t, w[j])


def _chsh(correlators):
    """S: the correlators added or subtracted by their sign, in pair order."""
    e = iter(correlators)
    s = next(e)  # the first sign is +1
    for sign, x in zip(CHSH_SIGNS[1:], e):
        s = s + x if sign > 0 else s - x
    return s


def evaluate_point(cfg: ScenarioConfig, s: ChshSettings) -> ChshResult:
    """One settings tuple, with the scenario's bound and diagnostic terms.

    s1 reports 2 plus the four correction brackets of the first-order
    expansion; each is a weighted sum of the correlators, with weights
    beta' (the first-order couplings) or beta * lambda (the mixed brackets
    use the unnormalized corrected operators lambda * w.sigma on one
    side).  s2 reports the unperturbed value ``qm`` and the cross term
    Re<xi|B|xi_p>; s3 the squared norm of the corrected state.
    """
    n = np.array([d.unit_vector() for d in (s.a, s.a_prime, s.b, s.b_prime)])

    def correlators(t, w):  # the kernel's single row, at the four rows of w
        return [float(e[0]) for e in _correlators(t, w[:, None])]

    t = correlation_tensor(cfg.effective_density())[2]
    if cfg.scenario == "s2":
        ps = cfg.perturbed()
        xi = ps.xi.amplitudes
        sym = 0.5 * (np.outer(ps.xi_p, xi.conj()) + np.outer(xi, ps.xi_p.conj()))
        qm = _chsh(correlators(correlation_tensor(np.outer(xi, xi.conj()))[2], n))
        cross = _chsh(correlators(correlation_tensor(sym)[2], n))
        return ChshResult("s2", _chsh(correlators(t, n)),
                          2.0 * (1.0 + ps.beta * cross),
                          {"qm": qm, "cross": cross}, ps.beta)
    model = cfg.operator_model()
    if model is None:
        return ChshResult("qm", _chsh(correlators(t, n)), 2.0, {}, 0.0)
    w, lam, beta_prime = model.corrected(n)
    if cfg.scenario == "s3":
        xg = cfg.perturbed().corrected_vector()
        return ChshResult("s3", _chsh(correlators(t, w)), 2.0,
                          {"norm_sq": float((xg.conj() @ xg).real)}, model.beta)
    e = correlators(t, w)

    def alice(k):  # weights k on A, A' against B + B' and B - B'
        return float(k[0] * (e[0] + e[1]) + k[1] * (e[2] - e[3]))

    def bob(k):  # weights k on B, B' against A and A'
        return float(k[2] * (e[0] + e[2]) + k[3] * (e[1] - e[3]))

    beta = model.beta
    terms = {
        "bracket_beta_prime_alice": alice(beta_prime),
        "bracket_beta_prime_bob": bob(beta_prime),
        "bracket_beta_dprime_alice": beta * alice(lam),
        "bracket_beta_dprime_bob": beta * bob(lam),
    }
    terms["correction_sum"] = (-terms["bracket_beta_prime_alice"]
                               - terms["bracket_beta_prime_bob"]
                               + terms["bracket_beta_dprime_alice"]
                               + terms["bracket_beta_dprime_bob"])
    return ChshResult("s1", _chsh(e), 2.0 + terms["correction_sum"], terms, beta)


class BatchEvaluator:
    """Vectorized CHSH evaluation over arrays of measurement directions."""

    def __init__(self, cfg: ScenarioConfig):
        self.moments = correlation_tensor(cfg.effective_density())[2]
        self.model = cfg.operator_model()

    def _corrected(self, n: np.ndarray) -> np.ndarray:
        n = np.atleast_2d(n)
        return n if self.model is None else self.model.corrected(n)[0]

    def values(self, na, nap, nb, nbp) -> np.ndarray:
        """S for each row of the four (K, 3) direction arrays."""
        w = [self._corrected(n) for n in (na, nap, nb, nbp)]
        return _chsh(_correlators(self.moments, w))


@dataclass(frozen=True)
class ScanGrid:
    """CHSH values over the two-angle family a=0, a'=t1, b=t2, b'=-t2."""

    theta1_axis: np.ndarray
    theta2_axis: np.ndarray
    values: np.ndarray

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
    values = ev.values(directions(np.zeros_like(t1)), directions(t1),
                       directions(t2), directions(-t2))
    return ScanGrid(axis1, axis2, values.reshape(resolution, resolution))


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


def beta_sweep(betas=DEFAULT_SWEEP_BETAS, theta_axis=None, rule: str = "tilt",
               m=(0.0, 0.0, 1.0), jp=None, h0=None, hp=None) -> list[SweepCurve]:
    """One curve bundle per beta over the one-parameter settings family,
    with a series per scenario on the Bell state."""
    if theta_axis is None:
        theta_axis = np.linspace(0.0, TWO_PI, DEFAULT_SWEEP_POINTS)
    theta_axis = np.asarray(theta_axis, dtype=float)
    dirs = [directions(t) for t in (np.zeros_like(theta_axis), 2.0 * theta_axis,
                                    theta_axis, -theta_axis)]
    qm = BatchEvaluator(ScenarioConfig()).values(*dirs)  # the same at every beta
    curves = []
    for beta in betas:
        model = GupModel(beta=beta, rule=rule, m=m, jp=jp)
        series = {"qm": qm}
        for tag in SCENARIOS[1:]:
            cfg = ScenarioConfig(scenario=tag, model=model, h0=h0, hp=hp)
            series[tag] = BatchEvaluator(cfg).values(*dirs)
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
    coarse_vals = ev.values(*(directions(flat[:, i]) for i in range(4)))
    evaluations += flat.shape[0]
    best_idx = int(np.argmax(coarse_vals))
    coarse_best = float(coarse_vals[best_idx])
    x0 = flat[best_idx]
    if eight_angles:
        x0 = np.concatenate([x0, np.zeros(4)])

    def angles(x):  # the polar angles and azimuths of a, a', b, b'
        return x[:4], x[4:] if eight_angles else np.zeros(4)

    def objective(x):
        return -float(ev.values(*directions(*angles(x)))[0])

    rng = np.random.default_rng(seed)
    best_value = coarse_best
    best_x = x_start = x0
    converged = True
    budget = max_evals
    for restart in range(restarts):
        if budget <= 4:
            converged = False
            break
        if restart:  # drawn only once the budget allows another start
            x_start = rng.uniform(0.0, TWO_PI, x0.size)
        x, fun, nfev, ok = _nelder_mead(objective, x_start, xatol=1e-9,
                                        fatol=1e-12, maxfev=budget)
        evaluations += nfev
        budget -= nfev
        if not ok:
            converged = False
        if -fun > best_value:
            best_value = -fun
            best_x = x

    settings = ChshSettings(*map(Direction, *angles(best_x)))
    return Optimum(settings=settings, value=float(best_value),
                   evaluations=evaluations, converged=converged)
