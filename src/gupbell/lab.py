"""Parameter-space exploration: angle-grid scans, beta sweeps,
angle optimization (closed form, or Newton ascent with exact
derivatives) and region classification.

Every scenario value is computed from one representation: the
correlation matrix T of the scenario's effective two-qubit operator,
read off its amplitudes by ``quantum.moments``, and the corrected
directions w of the four observables, so that S = sum(+-) w_A . T . w_B,
qm and s2 measuring through the identity map ``GupModel(beta=0.0)``.
``BatchEvaluator`` evaluates S over arrays of directions for scans,
sweeps and the optimizer; ``evaluate_point`` reads its T and map at one
settings tuple and adds diagnostic terms.
The optimizer's search starts from the closed form's directions and
takes S, its gradient and its Hessian from the same correlator kernel,
at the map's derivatives ``GupModel.planar``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import gup
from .errors import GupBellError, OutOfRangeError
from .gup import ChshResult, GupModel, PerturbedState
from .quantum import (
    CHSH_PAIRS, CHSH_SIGNS, CLASSICAL_BOUND, TSIRELSON, TWO_PI, ChshSettings,
    Direction, PureState, bell_state, directions, frozen, moments,
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
    if s <= CLASSICAL_BOUND + CLASSIFY_TOL:
        return REGION_CLASSICAL
    if s <= TSIRELSON + CLASSIFY_TOL:
        return REGION_QUANTUM
    if s <= BOXWORLD + CLASSIFY_TOL:
        return REGION_SUPERQUANTUM
    return REGION_UNPHYSICAL


@dataclass(frozen=True, eq=False)
class ScenarioConfig:
    """Everything needed to evaluate one CHSH scenario at any settings.
    ``perturbed``, solved once here, is the Bell state corrected to first
    order by ``hp``, or in s2 and s3 by ``gup.default_perturbation(model)``:
    a given ``hp`` must pass ``gup.perturb_state`` in every scenario."""

    scenario: str = "qm"
    state: PureState = field(default_factory=bell_state)
    model: GupModel | None = None
    hp: np.ndarray | None = None
    perturbed: PerturbedState | None = field(init=False, repr=False, default=None)

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}")
        if self.scenario != "qm" and self.model is None:
            raise ValueError(f"scenario {self.scenario} requires a GupModel")
        if self.scenario in ("s2", "s3") and not np.array_equal(
                self.state.amplitudes, bell_state().amplitudes):
            raise ValueError(f"scenario {self.scenario} perturbs the Bell state, no other")
        if self.hp is not None:  # a copy, so the caller's array cannot change it
            object.__setattr__(self, "hp", frozen(self.hp, complex))
        elif self.scenario in ("qm", "s1"):
            return  # neither reads a perturbed state
        hp = gup.default_perturbation(self.model) if self.hp is None else self.hp
        beta = 0.0 if self.model is None else self.model.beta
        object.__setattr__(self, "perturbed", gup.perturb_state(
            gup.default_hamiltonian(), hp, 0, beta))

    def moments(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The moments (r_A, r_B, T) of the scenario's effective unit-trace
        operator, read off amplitudes: those of ``sampled_state()`` for qm,
        s1 and s3, and of |xi><xi| + beta(|xi_p><xi| + h.c.) for s2."""
        if self.scenario != "s2":
            return moments(self.sampled_state().amplitudes)
        ps = self.perturbed
        xi = ps.xi.amplitudes
        return tuple(q + 2.0 * ps.beta * c
                     for q, c in zip(moments(xi), moments(xi, ps.xi_p)))

    def operator_model(self) -> GupModel:
        """The correction applied to measurement operators: the identity
        map, beta = 0, for qm and s2."""
        return self.model if self.scenario in ("s1", "s3") else GupModel(beta=0.0)

    def sampled_state(self) -> PureState:
        """The state shots are drawn from and every value is computed from:
        the given state for qm and s1, the normalized corrected state for
        s3.  Raises OutOfRangeError for s2, whose effective operator
        |xi><xi| + beta(|xi_p><xi| + h.c.) has a negative eigenvalue."""
        if self.scenario in ("qm", "s1"):
            return self.state
        if self.scenario == "s2":
            raise OutOfRangeError(
                "scenario s2 cannot be sampled: its effective operator is not a state")
        ps = self.perturbed
        return PureState(ps.corrected_vector() / math.sqrt(ps.norm_sq()))


def _correlator(t: np.ndarray, wa: np.ndarray, wb: np.ndarray) -> np.ndarray:
    """The one correlator kernel: E = w_a . T . w_b for each row of the
    two (K, 3) direction arrays."""
    return np.einsum("ki,ij,kj->k", wa, t, wb)


def _chsh(correlators):
    """S: the correlators added or subtracted by their sign, in pair order."""
    e = iter(correlators)
    s = next(e)  # the first sign is +1
    for sign, x in zip(CHSH_SIGNS[1:], e):
        s = s + x if sign > 0 else s - x
    return s


def evaluate_point(cfg: ScenarioConfig, s: ChshSettings) -> ChshResult:
    """One settings tuple, with the scenario's diagnostic terms.

    s1 reports the four correction brackets of the paper's first-order
    expansion and their signed sum ``correction_sum``: first-order terms,
    not a bound, as the measured unit spins keep every local model at or
    below ``CLASSICAL_BOUND``.  Each is a weighted sum of the correlators,
    with weights beta' (the first-order couplings) or beta * lambda (the
    mixed brackets use the unnormalized corrected operators lambda * w.sigma
    on one side).  s2 reports the unperturbed value ``qm`` and the cross term
    Re<xi|B|xi_p>; s3 the squared norm of the corrected state.
    """
    n = np.array([d.unit_vector() for d in (s.a, s.a_prime, s.b, s.b_prime)])

    def correlators(t, w):  # the kernel's single row, at the four rows of w
        return [float(_correlator(t, w[i, None], w[j, None])[0]) for i, j in CHSH_PAIRS]

    ev = BatchEvaluator(cfg)
    w, lam, beta_prime = ev.model.corrected(n)
    e = correlators(ev.t, w)
    value = _chsh(e)
    if cfg.scenario == "qm":
        return ChshResult(value, {})
    if cfg.scenario == "s2":
        ps = cfg.perturbed
        qm = _chsh(correlators(moments(ps.xi.amplitudes)[2], n))
        cross = _chsh(correlators(moments(ps.xi.amplitudes, ps.xi_p)[2], n))
        return ChshResult(value, {"qm": qm, "cross": cross})
    if cfg.scenario == "s3":
        return ChshResult(value, {"norm_sq": cfg.perturbed.norm_sq()})

    def alice(k):  # weights k on A, A' against B + B' and B - B'
        return float(k[0] * (e[0] + e[1]) + k[1] * (e[2] - e[3]))

    def bob(k):  # weights k on B, B' against A and A'
        return float(k[2] * (e[0] + e[2]) + k[3] * (e[1] - e[3]))

    beta = ev.model.beta
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
    return ChshResult(value, terms)


class BatchEvaluator:
    """Vectorized CHSH evaluation over arrays of measurement directions."""

    def __init__(self, cfg: ScenarioConfig):
        self.t = frozen(cfg.moments()[2], float)
        self.model = cfg.operator_model()

    def _corrected(self, n: np.ndarray) -> np.ndarray:
        return self.model.corrected(np.atleast_2d(n))[0]

    def values(self, na, nap, nb, nbp) -> np.ndarray:
        """S for each row of the four (K, 3) direction arrays."""
        w = [self._corrected(n) for n in (na, nap, nb, nbp)]
        # one correlator at a time: a large K never holds all four at once
        return _chsh(_correlator(self.t, w[i], w[j]) for i, j in CHSH_PAIRS)

    def table(self, nx, ny) -> np.ndarray:
        """The correlator at every row pair of two direction arrays, shape
        (len(nx), len(ny)), each side corrected once: each entry equals the
        one ``values`` computes at that row pair bit for bit."""
        wx, wy = self._corrected(nx), self._corrected(ny)
        return np.einsum("ai,ij,bj->ab", wx, self.t, wy)


@dataclass(frozen=True, eq=False)
class ScanGrid:
    """CHSH values over the two-angle family a=0, a'=t1, b=t2, b'=-t2; each
    array is a read-only copy of the one passed in."""

    theta1_axis: np.ndarray
    theta2_axis: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        for name in ("theta1_axis", "theta2_axis", "values"):
            object.__setattr__(self, name, frozen(getattr(self, name), float))
        if self.values.shape != (len(self.theta1_axis), len(self.theta2_axis)):
            raise GupBellError("grid shape does not match axes")
        if not np.all(np.isfinite(self.values)):
            raise GupBellError("grid contains non-finite values")


def grid_scan(cfg: ScenarioConfig, resolution: int = 201,
              theta_min: float = 0.0, theta_max: float = TWO_PI) -> ScanGrid:
    """Evaluate the two-angle landscape on a uniform grid.

    The default domain is a full period in both angles, wide enough to
    contain both super-classical islands of the landscape.  Each pair
    reads one ``BatchEvaluator.table`` of its two sides' directions.
    """
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    axis = np.linspace(theta_min, theta_max, resolution)
    n = (directions(np.zeros(1)), directions(axis), directions(axis), directions(-axis))
    table = BatchEvaluator(cfg).table
    return ScanGrid(axis, axis, _chsh(table(n[i], n[j]) for i, j in CHSH_PAIRS))


@dataclass(frozen=True, eq=False)
class SweepCurve:
    """S against the sweep angle, one series per scenario, at fixed beta;
    the axis and each series are read-only copies of the ones passed in."""

    beta: float
    theta_axis: np.ndarray
    series: dict

    def __post_init__(self):
        object.__setattr__(self, "theta_axis", frozen(self.theta_axis, float))
        object.__setattr__(self, "series", {tag: frozen(vals, float)
                                            for tag, vals in self.series.items()})
        for tag, vals in self.series.items():
            if len(vals) != len(self.theta_axis):
                raise GupBellError(f"series {tag} length mismatch")
            if not np.all(np.isfinite(vals)):
                raise GupBellError(f"series {tag} contains non-finite values")


DEFAULT_SWEEP_BETAS = (0.1, 0.2, 0.5, 0.9)
DEFAULT_SWEEP_POINTS = 721


def beta_sweep(betas=DEFAULT_SWEEP_BETAS, theta_axis=None, rule: str = "tilt",
               m=(0.0, 0.0, 1.0), jp=None, hp=None) -> list[SweepCurve]:
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
        for tag in SCENARIOS[1:]:  # s1 reads no hp, so only s2 and s3 check it
            cfg = ScenarioConfig(scenario=tag, model=model, hp=None if tag == "s1" else hp)
            series[tag] = BatchEvaluator(cfg).values(*dirs)
        curves.append(SweepCurve(float(beta), theta_axis, series))
    return curves


@dataclass(frozen=True)
class Optimum:
    """Best settings found, and how: ``method`` is "closed_form" (the
    settings built from the SVD of T, one evaluation) or "search" (Newton
    ascent from the settings of the closed form's symmetric images)."""

    settings: ChshSettings
    value: float
    evaluations: int
    converged: bool
    method: str


#: the search's budget of evaluations
MAX_EVALS = 10_000


def _horodecki_directions(t: np.ndarray) -> tuple[np.ndarray, float]:
    """Unit directions w_a, w_a', w_b, w_b' (rows) at which
    sum(+-) w_A . T . w_B reaches its maximum over unit vectors,
    2 sqrt(t1^2 + t2^2) (Horodecki et al., Phys. Lett. A 200, 340 (1995)),
    and that maximum: with T = U diag(t) V^T, w_a = u1, w_a' = u2 and
    w_b, w_b' = cos(phi) v1 +- sin(phi) v2, tan(phi) = t2/t1."""
    u, sv, vt = np.linalg.svd(t)
    phi = math.atan2(sv[1], sv[0])
    c, s = math.cos(phi) * vt[0], math.sin(phi) * vt[1]
    return np.array([u[:, 0], u[:, 1], c + s, c - s]), 2.0 * math.hypot(sv[0], sv[1])


def _xz_directions(t: np.ndarray) -> tuple[np.ndarray, float]:
    """``_horodecki_directions`` of the x-z block of T, embedded in 3-D:
    the maximum of S over unit x-z directions w."""
    xz = [0, 2]
    w = np.zeros((4, 3))
    w[:, xz], maximum = _horodecki_directions(t[np.ix_(xz, xz)])
    return w, maximum


def _closed_form_optimum(ev: BatchEvaluator, eight_angles: bool) -> Optimum:
    """The exact optimum: the Horodecki directions of T (of its x-z block
    for planar settings, whose corrected directions are exactly the x-z
    unit vectors when the shift has no y part), mapped back to settings.
    ``value`` is S evaluated once at those settings, so the corrected map
    warns as for any other settings; ``converged`` is False when rounding
    at a reach next to 1 left it more than 1e-9 below the maximum."""
    w, maximum = (_horodecki_directions if eight_angles else _xz_directions)(ev.t)
    n = ev.model.inverse(w)
    dirs = [Direction(theta, phi) for theta, phi in zip(
        np.arctan2(np.hypot(n[:, 0], n[:, 1]), n[:, 2]), np.arctan2(n[:, 1], n[:, 0]))]
    value = float(ev.values(*(d.unit_vector() for d in dirs))[0])
    return Optimum(settings=ChshSettings(*dirs), value=value, evaluations=1,
                   converged=value >= maximum - 1e-9, method="closed_form")


def _planar_derivatives(ev: BatchEvaluator, x: np.ndarray):
    """S at the planar settings with polar angles x = (a, a', b, b'), its
    gradient and its Hessian in x, from one call of the correlator kernel
    at (w, w), (w', w), (w, w'), (w'', w), (w, w'') and (w', w') over the
    four pairs.  Each angle enters one side of each pair, so the Hessian
    is diagonal within Alice's angles and within Bob's."""
    w = ev.model.planar(x)
    alice, bob = np.array(CHSH_PAIRS).T
    sides = ((0, 0), (1, 0), (0, 1), (2, 0), (0, 2), (1, 1))  # derivative orders
    e = _correlator(ev.t, np.concatenate([w[i][alice] for i, _ in sides]),
                    np.concatenate([w[j][bob] for _, j in sides]))
    e = e.reshape(len(sides), len(CHSH_PAIRS))
    s = _chsh(e[0])
    e = e * CHSH_SIGNS
    grad = np.bincount(alice, e[1], 4) + np.bincount(bob, e[2], 4)
    hess = np.diag(np.bincount(alice, e[3], 4) + np.bincount(bob, e[4], 4))
    hess[alice, bob] = hess[bob, alice] = e[5]
    return s, grad, hess


def _newton_ascent(ev: BatchEvaluator, x: np.ndarray, budget: int):
    """Damped Newton ascent of S from the angles x (Nocedal & Wright,
    Numerical Optimization, ch. 3): the Hessian's eigenvalues are replaced
    by -|lambda| so that every step rises, and a step is halved until S
    rises.  Stops once the predicted gain g . step is below the rounding of
    S, or when ``budget`` evaluations are spent.  Returns (x, S,
    evaluations, converged); ``converged`` means the stop was reached where
    every Hessian eigenvalue is at most 64 eps max|lambda|, the second-order
    necessary condition for a maximum (ibid., Thm 2.3) within the Hessian's
    rounding: an entry sums at most two 9-product einsums w . T . w of
    terms about 1 in size, ~24 eps off, which moves an eigenvalue by ~64 eps
    (Weyl) and eigh by a few eps max|lambda| more, while the trace is about
    -2S, so max|lambda| >= S/2 > 1 at any S > 2.  A flat direction, such as
    all four settings rotated together on the Bell state, thus passes; a
    saddle does not."""
    s, grad, hess = _planar_derivatives(ev, x)
    evaluations, eps = 1, np.finfo(float).eps
    while True:
        lam, vec = np.linalg.eigh(hess)
        # a curvature of zero, within rounding, counts as machine epsilon
        step = vec @ (vec.T @ grad / np.maximum(np.abs(lam), eps))
        while grad @ step > np.spacing(s):
            if evaluations == budget:
                return x, s, evaluations, False
            trial = _planar_derivatives(ev, x + step)
            evaluations += 1
            if trial[0] > s:
                break
            step = step / 2.0
        else:
            return x, s, evaluations, bool(lam[-1] <= 64.0 * eps * np.abs(lam).max())
        x = x + step
        s, grad, hess = trial


def optimize_angles(cfg: ScenarioConfig, *, eight_angles: bool = False,
                    seed: int | None = None) -> Optimum:
    """The settings with the largest S, over planar angles or, with
    ``eight_angles``, over full-sphere directions.

    Where the Horodecki maximum is reachable, the optimum is built in
    closed form from the SVD of T (``_closed_form_optimum``): for every
    eight-angle optimum, as every model maps the sphere onto itself, and
    for a planar one whose shift has no y part.  Planar settings under an
    out-of-plane shift are searched by damped Newton ascent
    (``_newton_ascent``) from 8 starts, in order, on a budget of
    ``MAX_EVALS`` evaluations, checked before each start and each step.
    The starts are the images of the x-z closed-form directions
    (w_a, w_a', w_b, w_b') under the symmetries of S: (w_a, w_a', w_b, w_b'),
    (w_a, -w_a', w_b', w_b), (w_a', w_a, w_b, -w_b'), (-w_a', w_a, w_b', -w_b)
    and the four with every direction negated, each a maximum of the
    bilinear S over unit x-z directions.  Each is mapped back by
    ``GupModel.inverse`` and projected onto the x-z plane.
    ``value`` is S evaluated at the best settings, and ``evaluations``
    counts the ascents' evaluations and that one; ``converged`` means that
    every start ran and the best one ended at a maximum within rounding.
    Deterministic: ties are broken by start order.  ``seed`` changes
    nothing, as neither method draws a random number; it is accepted so
    that callers that still pass it keep running.
    """
    ev = BatchEvaluator(cfg)
    if eight_angles or ev.model.shift[1] == 0.0:
        return _closed_form_optimum(ev, eight_angles)

    wa, wa2, wb, wb2 = _xz_directions(ev.t)[0]
    images = np.array([(wa, wa2, wb, wb2), (wa, -wa2, wb2, wb),
                       (wa2, wa, wb, -wb2), (-wa2, wa, wb2, -wb)])
    n = ev.model.inverse(np.concatenate([images, -images]))
    spent = 0
    best_value = -math.inf
    for x0 in np.arctan2(n[..., 0], n[..., 2]):
        if spent >= MAX_EVALS:
            converged = False  # not every start ran
            break
        x, s, evaluations, ok = _newton_ascent(ev, x0, MAX_EVALS - spent)
        spent += evaluations
        if s > best_value:
            best_x, best_value, converged = x, s, ok

    dirs = [Direction(theta) for theta in best_x]
    value = float(ev.values(*(d.unit_vector() for d in dirs))[0])
    return Optimum(settings=ChshSettings(*dirs), value=value,
                   evaluations=spent + 1, converged=converged, method="search")
