import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

import dense_oracle
from gupbell import gup, lab, shots
from gupbell.errors import GupBellError, HermiticityError, OutOfRangeError
from gupbell.gup import GupModel
from gupbell.lab import (
    BatchEvaluator, ScanGrid, ScenarioConfig, beta_sweep, classify,
    evaluate_point, grid_scan, optimize_angles,
)
from gupbell.quantum import (
    SIGMA_X, SIGMA_Y, SIGMA_Z, TWO_PI, ChshSettings, Direction, PureState, bell_state,
    canonical_settings, directions, moments,
)

SQRT2 = math.sqrt(2.0)
TSIRELSON = 2.0 * SQRT2


class TestClassify:
    def test_boundaries_closed_below(self):
        assert classify(2.0) == "classical"
        assert classify(TSIRELSON) == "quantum"
        assert classify(4.0) == "superquantum"
        assert classify(4.0 + 1e-9) == "unphysical"
        assert classify(-1.0) == "classical"

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            classify(math.inf)

    def test_rounding_above_tsirelson_is_quantum(self):
        # an s3 eight-angle optimum that reached 2*sqrt(2) up to rounding
        assert 2.8284271247461907 - TSIRELSON == pytest.approx(4.4e-16, abs=1e-16)
        assert classify(2.8284271247461907) == "quantum"


class TestScenarioConfig:
    def test_corrected_scenarios_need_model(self):
        with pytest.raises(ValueError):
            ScenarioConfig(scenario="s1")

    def test_unknown_scenario(self):
        with pytest.raises(ValueError):
            ScenarioConfig(scenario="s4", model=GupModel(beta=0.1))

    def test_effective_density_unit_trace(self, custom_hp):
        for scenario in ("qm", "s1", "s2", "s3"):
            cfg = ScenarioConfig(
                scenario=scenario,
                model=None if scenario == "qm" else GupModel(beta=0.1),
                hp=None if scenario in ("qm", "s1") else custom_hp)
            rho = dense_oracle.effective_density(cfg)
            assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
            assert np.max(np.abs(rho - rho.conj().T)) < 1e-12

    def test_frozen(self, custom_hp):
        # a changed hp makes a new record, never a changed one
        cfg = ScenarioConfig("s3", model=GupModel(beta=0.2))
        before = evaluate_point(cfg, canonical_settings()).value
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.hp = custom_hp
        fresh = evaluate_point(ScenarioConfig("s3", model=GupModel(beta=0.2), hp=custom_hp),
                               canonical_settings()).value
        replaced = dataclasses.replace(cfg, hp=custom_hp)
        assert evaluate_point(replaced, canonical_settings()).value == fresh != before

    def test_owns_its_hp(self, custom_hp):
        hp = custom_hp.copy()
        cfg = ScenarioConfig("s3", model=GupModel(beta=0.2), hp=hp)
        hp[0, 0] = 5.0  # still Hermitian, so only a kept reference would show it
        fresh = ScenarioConfig("s3", model=GupModel(beta=0.2), hp=custom_hp)
        assert (evaluate_point(cfg, canonical_settings()).value
                == evaluate_point(fresh, canonical_settings()).value)
        assert not cfg.hp.flags.writeable

    @pytest.mark.parametrize("scenario, beta", [
        ("qm", None), ("qm", 0.1), ("s1", 0.1), ("s2", 0.1), ("s3", 0.1)],
        ids=["qm-without-model", "qm", "s1", "s2", "s3"])
    def test_refuses_what_perturb_state_refuses(self, scenario, beta):
        # qm and s1 never read hp, yet take only the hp s2 and s3 take
        model = None if beta is None else GupModel(beta=beta)
        upper = np.zeros((4, 4))
        upper[0, 1] = 1.0
        for hp in (upper, np.eye(3)):
            with pytest.raises(HermiticityError):
                ScenarioConfig(scenario, model=model, hp=hp)
        huge = np.zeros((4, 4))
        huge[0, 0] = huge[0, 1] = huge[1, 0] = 1e300
        if model is None:  # checked at beta = 0, where nothing overflows
            ScenarioConfig(scenario, hp=huge)
        else:
            with pytest.raises(OutOfRangeError, match="overflows"):
                ScenarioConfig(scenario, model=model, hp=huge)

    @pytest.mark.parametrize("scenario", ["s2", "s3"])
    def test_perturbed_scenarios_take_only_the_bell_state(self, scenario):
        # s2 and s3 perturb the Bell state whatever the state, so another
        # state is refused rather than ignored; qm and s1 evaluate it
        model = GupModel(beta=0.2)
        product = PureState([1, 0, 0, 0])
        with pytest.raises(ValueError, match="Bell state"):
            ScenarioConfig(scenario, state=product, model=model)
        ScenarioConfig(scenario, state=bell_state(), model=model)
        s = canonical_settings()
        assert evaluate_point(ScenarioConfig("qm", state=product), s).value == pytest.approx(
            SQRT2, abs=1e-12)
        assert evaluate_point(ScenarioConfig("s1", state=product, model=model),
                              s).value == pytest.approx(1.577, abs=1e-3)

    @pytest.mark.parametrize("scenario", ["qm", "s1", "s3"])
    def test_evaluated_state_is_the_sampled_state(self, scenario):
        # values and shots read one state: T is that of the sampled state's
        # amplitudes bit for bit.  Tilt axes; qm and s1 on random states, s3
        # on the Bell state with a random hp on half of the configs
        rng = np.random.default_rng(43)
        for k in range(60):
            m = rng.normal(size=3)
            model = GupModel(beta=rng.uniform(0.0, 0.9), m=m / np.linalg.norm(m))
            if scenario == "s3":
                a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
                hp = (a + a.conj().T) / (2.0 * np.linalg.norm(a, 2)) if k % 2 else None
                cfg = ScenarioConfig(scenario, model=model, hp=hp)
            else:
                amp = rng.normal(size=4) + 1j * rng.normal(size=4)
                cfg = ScenarioConfig(scenario, state=PureState(amp / np.linalg.norm(amp)),
                                     model=None if scenario == "qm" else model)
            want = moments(cfg.sampled_state().amplitudes)[2]
            assert BatchEvaluator(cfg).t.tobytes() == want.tobytes(), k


def _counts():
    return shots.CountsTable(counts={"ab": np.array([1, 0, 0, 0])}, shots_per_pair=1)


#: every record that holds an array, built from equal content on each call
RECORDS = {
    "GupModel": lambda: GupModel(beta=0.1),
    "GupObservable": lambda: gup.GupObservable(j_gup=SIGMA_X.copy()),
    "PerturbedState": lambda: gup.PerturbedState(xi=bell_state(), xi_p=np.zeros(4), beta=0.1),
    "PureState": bell_state,
    "ScenarioConfig": ScenarioConfig,
    "ScanGrid": lambda: ScanGrid(np.zeros(2), np.zeros(2), np.zeros((2, 2))),
    "SweepCurve": lambda: lab.SweepCurve(0.1, np.zeros(2), {"qm": np.zeros(2)}),
    "CountsTable": _counts,
    "ChshEstimate": lambda: shots.ChshEstimate(s_hat=1.0, stderr=0.0, counts=_counts(),
                                               correlators={"ab": 1.0}),
}


@pytest.mark.parametrize("make", RECORDS.values(), ids=RECORDS)
def test_records_compare_by_identity(make):
    # a generated __eq__ would compare the arrays as tuple items and raise,
    # and a generated __hash__ would hash them and raise
    record = make()
    assert record == record
    assert record != make()
    assert hash(record) == hash(record)


class TestBatchConsistency:
    """The vectorized path must agree with the full matrix evaluators."""

    def _configs(self, custom_hp):
        tilt = GupModel(beta=0.2, rule="tilt", m=np.array([0.6, 0.0, 0.8]))
        yield ScenarioConfig()
        yield ScenarioConfig(scenario="s1", model=tilt)
        yield ScenarioConfig(scenario="s2", model=tilt, hp=custom_hp)
        yield ScenarioConfig(scenario="s3", model=tilt, hp=custom_hp)
        custom = GupModel(beta=0.15, rule="custom",
                          jp=np.array([[0.2, 0.1 - 0.3j], [0.1 + 0.3j, -0.2]]))
        yield ScenarioConfig(scenario="s1", model=custom)

    def test_matches_evaluate_point(self, custom_hp):
        rng = np.random.default_rng(11)
        angles = rng.uniform(0.0, 2.0 * math.pi, size=(20, 4))
        for cfg in self._configs(custom_hp):
            ev = BatchEvaluator(cfg)
            batch = ev.values(*(directions(angles[:, i]) for i in range(4)))
            for row, want in zip(angles, batch):
                s = ChshSettings.planar(*row)
                assert evaluate_point(cfg, s).value == pytest.approx(
                    want, abs=1e-12)

    @pytest.mark.filterwarnings("ignore:.*no longer small")
    def test_matches_dense_oracle(self, custom_hp):
        rng = np.random.default_rng(23)
        for cfg in random_configs(rng, 3):
            ev = BatchEvaluator(cfg)
            for _ in range(3):
                theta = rng.uniform(0.0, math.pi, 4)
                phi = rng.uniform(0.0, 2.0 * math.pi, 4)
                s = ChshSettings(*(Direction(t, p) for t, p in zip(theta, phi)))
                got = evaluate_point(cfg, s)
                want = dense_oracle.scenario_chsh(cfg, s)
                assert got.value == pytest.approx(want.value, abs=1e-12)
                assert set(got.terms) == set(want.terms)
                for key in want.terms:
                    assert got.terms[key] == pytest.approx(want.terms[key], abs=1e-12)
                batch = ev.values(*directions(theta, phi))
                assert batch[0] == pytest.approx(want.value, abs=1e-12)

    @pytest.mark.filterwarnings("ignore:.*no longer small")
    def test_point_is_a_batch_row(self):
        # evaluate_point reads one row of the evaluator's correlator kernel,
        # so at the same unit vectors the two agree bit for bit
        rng = np.random.default_rng(17)
        for cfg in random_configs(rng, 2):
            ev = BatchEvaluator(cfg)
            for _ in range(5):
                theta = rng.uniform(0.0, math.pi, 4)
                phi = rng.uniform(0.0, 2.0 * math.pi, 4)
                s = ChshSettings(*(Direction(t, p) for t, p in zip(theta, phi)))
                n = [d.unit_vector() for d in (s.a, s.a_prime, s.b, s.b_prime)]
                assert evaluate_point(cfg, s).value == ev.values(*n)[0]

    def test_sphere_directions_match(self):
        rng = np.random.default_rng(5)
        theta = rng.uniform(0.0, math.pi, size=(8, 4))
        phi = rng.uniform(0.0, 2.0 * math.pi, size=(8, 4))
        cfg = ScenarioConfig()
        ev = BatchEvaluator(cfg)
        batch = ev.values(*(directions(theta[:, i], phi[:, i]) for i in range(4)))
        for k in range(8):
            s = ChshSettings(*(Direction(theta[k, i], phi[k, i])
                               for i in range(4)))
            assert evaluate_point(cfg, s).value == pytest.approx(
                batch[k], abs=1e-12)


class TestOneMap:
    """Every scenario measures through a ``GupModel`` direction map: qm and
    s2 through the identity, beta = 0."""

    @pytest.mark.parametrize("scenario", ["qm", "s2"])
    def test_uncorrected_scenarios_map_n_to_itself(self, scenario):
        model = GupModel(beta=0.8, m=[0.48, 0.6, 0.64])
        n = directions(*np.random.default_rng(3).uniform(0.0, 2.0 * math.pi, (2, 50)))
        identity = ScenarioConfig(scenario, model=model).operator_model()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w = identity.corrected(n)[0]
        assert w.tobytes() == n.tobytes()

    @pytest.mark.filterwarnings("ignore:.*no longer small")
    def test_coarse_grid_is_the_batch_rows(self):
        # the oracle evaluates all 17^4 settings tuples as rows
        axis = np.linspace(0.0, 2.0 * math.pi, lab.COARSE_STEPS)
        rows = np.stack([g.ravel() for g in np.meshgrid(axis, axis, axis, axis,
                                                        indexing="ij")], axis=-1)
        searched = 0
        for cfg in random_configs(np.random.default_rng(7), 2):
            if cfg.scenario not in ("s1", "s3") or cfg.model.shift[1] == 0.0:
                continue
            ev = BatchEvaluator(cfg)
            want = ev.values(*(directions(rows[:, i]) for i in range(4)))
            assert ev.grid(axis).tobytes() == want.tobytes()
            searched += 1
        assert searched == 8  # s1 and s3, tilt and custom, two draws each

    @pytest.mark.filterwarnings("ignore:.*no longer small")
    @pytest.mark.parametrize("window", [(0.0, 2.0 * math.pi), (-1.3, 0.7)])
    @pytest.mark.parametrize("resolution", [2, 41])
    def test_scan_is_the_batch_rows(self, resolution, window):
        # the oracle evaluates the n^2 settings tuples a=0, a'=t1, b=t2, b'=-t2 as rows
        axis = np.linspace(*window, resolution)
        t1, t2 = (g.ravel() for g in np.meshgrid(axis, axis, indexing="ij"))
        scanned = 0
        for cfg in random_configs(np.random.default_rng(7), 2):
            if cfg.scenario in ("s1", "s3") and cfg.model.shift[1] == 0.0:
                continue
            grid = grid_scan(cfg, resolution, *window)
            want = BatchEvaluator(cfg).values(directions(np.zeros_like(t1)), directions(t1),
                                              directions(t2), directions(-t2))
            assert grid.theta1_axis.tobytes() == grid.theta2_axis.tobytes() == axis.tobytes()
            assert grid.values.tobytes() == want.reshape(resolution, resolution).tobytes()
            scanned += 1
        assert scanned == 20  # out-of-plane s1 and s3 as above, every qm and s2 draw

    def test_scan_memory_bounded(self):
        # per-axis correlator tables, each one einsum: a 201-step scan builds
        # no 201^2-row direction arrays (4 x 40,401 rows took ~10 MB, and
        # the repeated and tiled rows of each table ~3 MB; now ~1 MB)
        cfg = ScenarioConfig("s1", model=GupModel(beta=0.1))
        tracemalloc.start()
        try:
            grid_scan(cfg, 201)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000

    @pytest.mark.filterwarnings("ignore:.*no longer small")
    @pytest.mark.parametrize("beta, m, evaluations, value", [
        (0.5, [0.48, 0.6, 0.64], 83562, 2.5731336791642754),
        (0.7, [0.0, 0.6, 0.8], 83556, 2.409142657604045),
    ])
    def test_search_results_kept(self, beta, m, evaluations, value):
        # the 17^4 grid, the Newton ascents from its best cells and the
        # final evaluation; the values are those of the former simplex
        # search, which the ascent may exceed but not fall below
        opt = optimize_angles(ScenarioConfig("s1", model=GupModel(beta=beta, m=m)))
        assert (opt.method, opt.evaluations, opt.converged) == ("search", evaluations, True)
        assert opt.value >= value - 1e-12


def random_configs(rng, per_combination: int = 1, in_plane: bool = False):
    """Seeded ScenarioConfigs over every scenario and rule, with the
    default or a random perturbation hp, beta in [0, 0.9).  ``in_plane``
    zeroes the y part of the tilt and custom axes (the same draws)."""
    for scenario in ("qm", "s1", "s2", "s3"):
        for rule in ("tilt", "self-cubic", "custom"):
            for k in range(per_combination):
                beta = rng.uniform(0.0, 0.9)
                if rule == "tilt":
                    m = rng.normal(size=3)
                    if in_plane:
                        m[1] = 0.0
                    model = GupModel(beta=beta, rule="tilt", m=m / np.linalg.norm(m))
                elif rule == "custom":
                    v = rng.normal(size=3)
                    if in_plane:
                        v[1] = 0.0
                    v *= rng.uniform(0.0, 1.0) / np.linalg.norm(v)
                    jp = v[0] * SIGMA_X + v[1] * SIGMA_Y + v[2] * SIGMA_Z
                    model = GupModel(beta=beta, rule="custom", jp=jp)
                else:
                    model = GupModel(beta=beta, rule="self-cubic")
                hp = None
                if k % 2:
                    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
                    hp = (a + a.conj().T) / (2.0 * np.linalg.norm(a, 2))
                yield ScenarioConfig(scenario=scenario,
                                     model=None if scenario == "qm" else model, hp=hp)


def horodecki_maximum(t: np.ndarray) -> float:
    """2 sqrt(t1^2 + t2^2) from the two largest singular values of T: the
    maximum of S over all unit directions (Horodecki et al., Phys. Lett. A
    200, 340 (1995))."""
    sv = np.linalg.svd(t, compute_uv=False)
    return 2.0 * math.sqrt(sv[0] ** 2 + sv[1] ** 2)


def horodecki_bound(cfg: ScenarioConfig, planar: bool = False) -> float:
    """The Horodecki maximum of the scenario's T (of its x-z block with
    ``planar``): the maximum of S over all unit (x-z) directions, which
    bounds every corrected value as well."""
    t = dense_oracle.correlation_tensor(dense_oracle.effective_density(cfg))[2]
    if planar:
        t = t[np.ix_([0, 2], [0, 2])]
    return horodecki_maximum(t)


def test_moments_match_dense_oracle():
    # every scenario and rule, with the default or a random hp
    rng = np.random.default_rng(37)
    for cfg in random_configs(rng, 4):
        want = dense_oracle.correlation_tensor(dense_oracle.effective_density(cfg))
        for got, x in zip(cfg.moments(), want):
            assert np.max(np.abs(got - x)) < 1e-12


def test_every_series_tends_to_qm():
    # 60 configs over the three rules, each model of reach |beta a| <= beta,
    # half with a random hp of norm <= 1.  Bounds, with B the Bell
    # operator of unit spins (norm <= 2 sqrt 2) and |T| <= 1 for a state:
    # - the map moves each direction by |w - n| <= 2 beta/(1 - beta), so
    #   each of the four correlators w_A.T.w_B by twice that: 16 beta/(1 - beta);
    # - the state gains beta xi_p, |xi_p| <= |hp|/2 across the gap of 2
    #   and xi_p orthogonal to xi, which moves <B> by 2 beta |<xi|B|xi_p>|
    #   <= 2 sqrt 2 beta |hp| and, normalized for s3, by at most
    #   sqrt 2 beta^2 |hp|^2 more.
    rng = np.random.default_rng(41)
    theta = np.linspace(0.0, TWO_PI, 181)
    for cfg in random_configs(rng, 20):
        if cfg.scenario != "s1":
            continue
        model = cfg.model
        hp = cfg.hp if cfg.hp is not None else gup.default_perturbation(model)
        norm = np.linalg.norm(hp, 2)
        curves = beta_sweep((0.0, 1e-3, 1e-6, 1e-9), theta, rule=model.rule,
                            m=model.m, jp=model.jp, hp=cfg.hp)
        at_zero = curves[0].series
        assert np.array_equal(at_zero["s1"], at_zero["qm"])
        assert np.array_equal(at_zero["s2"], at_zero["qm"])
        assert np.max(np.abs(at_zero["s3"] - at_zero["qm"])) <= 1e-14
        for curve in curves[1:]:
            beta, s = curve.beta, curve.series
            bound = {"s1": 16.0 * beta / (1.0 - beta), "s2": 2.0 * SQRT2 * beta * norm}
            bound["s3"] = (bound["s1"] + bound["s2"]
                           + SQRT2 * beta * beta * norm * norm)
            for tag in ("s1", "s2", "s3"):
                assert np.max(np.abs(s[tag] - s["qm"])) <= bound[tag], (tag, beta)


def test_first_order_state_errors():
    # The Horodecki maximum of s2's and s3's T against that of the exact
    # ground state of H0 + beta hp, largest gap over 30 configs (10 per
    # rule, half with a random hp), as beta halves.  s3 normalizes
    # xi + beta xi_p, the exact state up to O(beta^2), at a maximum of the
    # Horodecki value, so its gap is O(beta^3) and falls 8-fold; s2 drops
    # the beta^2 |xi_p><xi_p| term, so its gap is O(beta^2) and falls 4-fold.
    rng = np.random.default_rng(43)
    configs = [cfg for cfg in random_configs(rng, 10) if cfg.scenario == "s3"]
    betas = (0.1, 0.05, 0.025, 0.0125)
    gaps = {"s2": [], "s3": []}
    for beta in betas:
        worst = dict.fromkeys(gaps, 0.0)
        for cfg in configs:
            model = dataclasses.replace(cfg.model, beta=beta)
            hp = cfg.hp if cfg.hp is not None else gup.default_perturbation(model)
            psi = dense_oracle.exact_ground_state(hp, beta)
            exact = horodecki_maximum(
                dense_oracle.correlation_tensor(np.outer(psi, psi.conj()))[2])
            for tag in gaps:
                t = ScenarioConfig(tag, model=model, hp=cfg.hp).moments()[2]
                worst[tag] = max(worst[tag], abs(horodecki_maximum(t) - exact))
        for tag in gaps:
            gaps[tag].append(worst[tag])
    for tag, (low, high) in (("s3", (7.0, 9.0)), ("s2", (3.5, 4.5))):
        ratios = [a / b for a, b in zip(gaps[tag], gaps[tag][1:])]
        assert all(low <= r <= high for r in ratios), (tag, ratios)


def is_exact_case(cfg: ScenarioConfig, eight_angles: bool) -> bool:
    """Whether the optimum is the Horodecki value: every corrected
    direction w = (n + beta a)/|n + beta a| has a setting n, as every model
    has |beta a| < 1, and the planar settings reach every x-z direction w
    when beta a has no y part."""
    return eight_angles or cfg.operator_model().shift[1] == 0.0


@pytest.mark.filterwarnings("ignore:.*no longer small")
@pytest.mark.parametrize("eight_angles", [False, True])
def test_horodecki_bound_holds(eight_angles, monkeypatch):
    monkeypatch.setattr(lab, "COARSE_STEPS", 9)
    monkeypatch.setattr(lab, "MAX_EVALS", 2000)
    rng = np.random.default_rng(31 + eight_angles)
    for cfg in random_configs(rng, 2):
        bound = horodecki_bound(cfg) + 1e-12
        opt = optimize_angles(cfg, eight_angles=eight_angles)
        assert opt.value <= bound
        if is_exact_case(cfg, eight_angles):
            assert opt.value == pytest.approx(
                horodecki_bound(cfg, planar=not eight_angles), abs=1e-12)
        scan_max = float(grid_scan(cfg, resolution=41).values.max())
        assert scan_max <= bound
        if cfg.scenario != "s2":  # unit spins on a state
            assert scan_max <= TSIRELSON + 1e-12


class TestClosedForm:
    """Every exact case takes the closed form, which reaches the Horodecki
    value at the settings it reports."""

    @pytest.mark.filterwarnings("ignore:.*no longer small")
    @pytest.mark.parametrize("eight_angles", [False, True])
    def test_matches_horodecki_and_own_settings(self, eight_angles):
        # in-plane axes for planar settings, so that every config is exact
        rng = np.random.default_rng(41 + eight_angles)
        for cfg in random_configs(rng, 4, in_plane=not eight_angles):
            assert is_exact_case(cfg, eight_angles)
            opt = optimize_angles(cfg, eight_angles=eight_angles)
            assert (opt.method, opt.evaluations, opt.converged) == \
                ("closed_form", 1, True)
            assert opt.value == pytest.approx(
                evaluate_point(cfg, opt.settings).value, abs=1e-12)
            assert opt.value == pytest.approx(
                horodecki_bound(cfg, planar=not eight_angles), abs=1e-12)

    def test_reaches_the_maximum_where_the_search_stopped_short(self):
        # the eight-angle search ended at 2.91058, 1.58e-3 below the
        # maximum 2.91216, and reported convergence
        rng = np.random.default_rng(1)
        beta = rng.uniform(0.0, 0.9)
        m = rng.normal(size=3)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        hp = (a + a.conj().T) / (2.0 * np.linalg.norm(a, 2))
        cfg = ScenarioConfig(scenario="s2", hp=hp,
                             model=GupModel(beta=beta, m=m / np.linalg.norm(m)))
        opt = optimize_angles(cfg, eight_angles=True)
        assert opt.value == pytest.approx(horodecki_bound(cfg), abs=1e-12)

    @pytest.mark.filterwarnings("ignore:.*no longer small")
    def test_not_converged_next_to_reach_1(self):
        # beta |a| = 0.9999999999999999: the settings of the corrected
        # directions w with w . a < 0 all round to about -a, so S falls short
        model = GupModel(beta=0.9999999999999999, m=[0.48, 0.6, 0.64])
        opt = optimize_angles(ScenarioConfig("s1", model=model), eight_angles=True)
        assert opt.method == "closed_form"
        assert opt.value == pytest.approx(2.78835906, abs=1e-8)
        assert not opt.converged

    @pytest.mark.filterwarnings("ignore:.*no longer small")
    def test_search_only_where_the_formula_is_not_exact(self, monkeypatch):
        monkeypatch.setattr(lab, "COARSE_STEPS", 5)
        monkeypatch.setattr(lab, "MAX_EVALS", 500)
        out_of_plane = GupModel(beta=0.2, m=[0.48, 0.6, 0.64])
        y_custom = GupModel(beta=0.2, rule="custom", jp=0.3 * SIGMA_Y + 0.4 * SIGMA_Z)
        # |beta a| = 1: the direction -a would have no setting, so no such
        # model is built and every eight-angle optimum has a closed form
        with pytest.raises(OutOfRangeError, match="first-order treatment invalid"):
            GupModel(beta=1.0, rule="custom", jp=SIGMA_Y)
        cases = [
            (ScenarioConfig(), False, "closed_form"),
            (ScenarioConfig(), True, "closed_form"),
            (ScenarioConfig("s1", model=GupModel(beta=0.8, m=[0.6, 0.0, 0.8])),
             False, "closed_form"),
            (ScenarioConfig("s1", model=GupModel(beta=0.9, rule="self-cubic")),
             False, "closed_form"),
            # the state carries the correction; the observables are uncorrected
            (ScenarioConfig("s2", model=out_of_plane), False, "closed_form"),
            (ScenarioConfig("s1", model=out_of_plane), True, "closed_form"),
            (ScenarioConfig("s3", model=y_custom), True, "closed_form"),
            # an out-of-plane shift, planar settings
            (ScenarioConfig("s1", model=out_of_plane), False, "search"),
            (ScenarioConfig("s3", model=out_of_plane), False, "search"),
            (ScenarioConfig("s1", model=y_custom), False, "search"),
        ]
        for cfg, eight_angles, method in cases:
            assert is_exact_case(cfg, eight_angles) == (method == "closed_form")
            opt = optimize_angles(cfg, eight_angles=eight_angles)
            assert opt.method == method, (cfg, eight_angles)
            assert (opt.evaluations == 1) == (method == "closed_form")


class TestGridScan:
    def test_default_landscape(self):
        # 101 points over a full period straddle the exact maximizer
        grid = grid_scan(ScenarioConfig(), resolution=101)
        assert float(grid.values.max()) == pytest.approx(TSIRELSON, abs=2e-3)
        assert dense_oracle.superclassical_components(grid) == 2

    def test_cell_settings_consistent(self):
        grid = grid_scan(ScenarioConfig(), resolution=21)
        i, j = 7, 13
        s = dense_oracle.scan_settings(grid.theta1_axis[i], grid.theta2_axis[j])
        point = evaluate_point(ScenarioConfig(), s).value
        assert grid.values[i, j] == pytest.approx(point, abs=1e-12)

    def test_shape_validation(self):
        with pytest.raises(GupBellError):
            ScanGrid(np.zeros(3), np.zeros(3), np.zeros((3, 4)))

    def test_finite_validation_without_ceiling(self):
        # s2 is not a state, so a value above 4 is labelled, not rejected
        assert ScanGrid(np.zeros(2), np.zeros(2), np.full((2, 2), 5.0)).values.max() == 5.0
        with pytest.raises(GupBellError, match="non-finite"):
            ScanGrid(np.zeros(2), np.zeros(2), np.full((2, 2), math.nan))

    def test_resolution_minimum(self):
        with pytest.raises(ValueError):
            grid_scan(ScenarioConfig(), resolution=1)


class TestBetaSweep:
    def test_sweep_family_hits_canonical_maximizer(self):
        s = dense_oracle.sweep_settings(math.pi / 4)
        value = evaluate_point(ScenarioConfig(), s).value
        assert value == pytest.approx(TSIRELSON, abs=1e-12)

    @pytest.mark.filterwarnings("ignore:.*no longer small")
    def test_all_series_below_ceiling(self):
        theta = np.linspace(0.0, 2.0 * math.pi, 181)
        curves = beta_sweep(theta_axis=theta)
        assert [c.beta for c in curves] == [0.1, 0.2, 0.5, 0.9]
        for curve in curves:
            for tag in ("qm", "s1", "s2", "s3"):
                assert float(np.max(curve.series[tag])) <= 4.0
            for tag in ("qm", "s1", "s3"):  # unit spins on a state
                assert float(np.max(curve.series[tag])) <= TSIRELSON + 1e-12

    def test_custom_rule_accepted(self):
        jp = np.array([[0.3, 0.2j], [-0.2j, -0.3]])
        curves = beta_sweep(betas=(0.1,), theta_axis=np.linspace(0, 1, 9),
                            rule="custom", jp=jp)
        assert np.all(np.isfinite(curves[0].series["s1"]))

    def test_rejects_negative_beta(self):
        with pytest.raises(ValueError):
            beta_sweep(betas=(-0.1,), theta_axis=np.linspace(0, 1, 5))

    def test_checks_hp_only_where_it_is_read(self, monkeypatch, custom_hp):
        # per beta, at most one check and one solve in each of s2 and s3; s1 reads no hp
        calls = []
        solve = gup.perturb_state
        monkeypatch.setattr(gup, "perturb_state", lambda *a: calls.append(a) or solve(*a))
        beta_sweep(betas=(0.1, 0.2), theta_axis=np.linspace(0, 1, 5), hp=custom_hp)
        assert len(calls) <= 2 * 4
        upper = np.zeros((4, 4))
        upper[0, 1] = 1.0
        with pytest.raises(HermiticityError):
            beta_sweep(betas=(0.1,), theta_axis=np.linspace(0, 1, 5), hp=upper)


def searching_config() -> ScenarioConfig:
    """Planar s1 settings under an out-of-plane tilt: an optimum found by
    the search, not in closed form."""
    return ScenarioConfig(scenario="s1", model=GupModel(beta=0.2, m=[0.48, 0.6, 0.64]))


class TestOptimize:
    def test_qm_reaches_tsirelson(self):
        opt = optimize_angles(ScenarioConfig())
        assert opt.value == pytest.approx(TSIRELSON, abs=1e-9)
        assert opt.converged

    def test_deterministic_across_runs(self):
        first = optimize_angles(searching_config())
        second = optimize_angles(searching_config())
        assert first.value == second.value
        assert first.settings == second.settings
        assert first.evaluations == second.evaluations

    def test_eight_angle_search(self):
        opt = optimize_angles(ScenarioConfig(), eight_angles=True)
        assert opt.value == pytest.approx(TSIRELSON, abs=1e-6)

    @pytest.mark.parametrize("scenario", ["s1", "s3"])
    @pytest.mark.parametrize("beta", [1e-6, 1e-9])
    def test_tiny_beta_search_converges(self, scenario, beta):
        # a tiny beta leaves S nearly unchanged by rotating all four
        # settings together: the Hessian is nearly singular, and at 1e-9
        # an eigenvalue at a coarse cell rounds to zero
        model = GupModel(beta=beta, m=[0.48, 0.6, 0.64])
        opt = optimize_angles(ScenarioConfig(scenario, model=model))
        assert (opt.method, opt.converged) == ("search", True)
        assert opt.value == pytest.approx(TSIRELSON, abs=1e-5)

    def test_converged_only_at_a_local_maximum(self):
        # all settings 0 on the Bell state: S = 2 with zero gradient, a
        # saddle; near the textbook settings the ascent reaches 2 sqrt(2)
        ev = BatchEvaluator(ScenarioConfig())
        x, s, evaluations, converged = lab._newton_ascent(ev, np.zeros(4), 100)
        assert (evaluations, converged) == (1, False)
        assert s == pytest.approx(2.0, abs=1e-14)
        start = np.array([0.1, math.pi / 2, math.pi / 4, -math.pi / 4 - 0.2])
        x, s, evaluations, converged = lab._newton_ascent(ev, start, 100)
        assert s == pytest.approx(TSIRELSON, abs=1e-14)
        assert converged and evaluations < 100

    def test_rotated_optima_converge(self):
        # rotating all four settings together leaves S unchanged on the Bell
        # state, so each start is an exact maximum whose flat direction has
        # an eigenvalue of zero that rounds to either sign
        ev = BatchEvaluator(ScenarioConfig())
        textbook = np.array([0.0, math.pi / 2, math.pi / 4, -math.pi / 4])
        for delta in np.linspace(0.0, TWO_PI, 200, endpoint=False):
            _, s, _, converged = lab._newton_ascent(ev, textbook + delta, 100)
            assert converged, delta
            assert s == pytest.approx(TSIRELSON, abs=1e-14)

    @pytest.mark.filterwarnings("ignore:.*no longer small")
    def test_best_cell_alone_ends_at_a_lower_maximum(self, custom_hp):
        # from the best coarse cell alone the ascent (and the former
        # single-start simplex search) ends at a local maximum 2.8e-3 below
        # the one another of the best cells reaches
        cfg = ScenarioConfig("s3", model=GupModel(beta=0.6, m=[0.6, 0.8, 0.0]), hp=custom_hp)
        ev = BatchEvaluator(cfg)
        axis = np.linspace(0.0, 2.0 * math.pi, lab.COARSE_STEPS)
        coarse = ev.grid(axis)
        best_cell = axis[list(np.unravel_index(int(np.argmax(coarse)), coarse.shape))]
        _, local, _, checked = lab._newton_ascent(ev, best_cell, lab.MAX_EVALS)
        assert checked and local == pytest.approx(2.3553834748, abs=1e-9)
        opt = optimize_angles(cfg)
        assert opt.converged and opt.value == pytest.approx(2.3582277958, abs=1e-9)

    def test_budget_ends_the_search(self, monkeypatch):
        # the first ascent needs more than 3 evaluations, so a budget of 3
        # ends it and leaves the other starts unrun
        monkeypatch.setattr(lab, "MAX_EVALS", 3)
        opt = optimize_angles(searching_config())
        assert (opt.method, opt.converged) == ("search", False)
        assert opt.evaluations <= lab.COARSE_STEPS**4 + lab.MAX_EVALS + 1
