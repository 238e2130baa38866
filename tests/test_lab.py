import math

import numpy as np
import pytest

import dense_oracle
from gupbell.errors import GupBellError
from gupbell.gup import GupModel
from gupbell.lab import (
    BatchEvaluator, ScanGrid, ScenarioConfig, beta_sweep, classify,
    evaluate_point, grid_scan, optimize_angles, scan_settings,
    superclassical_components, sweep_settings,
)
from gupbell.quantum import (
    SIGMA_X, SIGMA_Y, SIGMA_Z, ChshSettings, Direction, correlation_tensor,
    directions,
)

TSIRELSON = 2.0 * math.sqrt(2.0)


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
            rho = cfg.effective_density()
            assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
            assert np.max(np.abs(rho - rho.conj().T)) < 1e-12


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
                assert got.bound == pytest.approx(want.bound, abs=1e-12)
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


def random_configs(rng, per_combination: int = 1):
    """Seeded ScenarioConfigs over every scenario and rule, with the
    default or a random perturbation hp, beta in [0, 0.9)."""
    for scenario in ("qm", "s1", "s2", "s3"):
        for rule in ("tilt", "self-cubic", "custom"):
            for k in range(per_combination):
                beta = rng.uniform(0.0, 0.9)
                if rule == "tilt":
                    m = rng.normal(size=3)
                    model = GupModel(beta=beta, rule="tilt", m=m / np.linalg.norm(m))
                elif rule == "custom":
                    v = rng.normal(size=3)
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


def horodecki_bound(cfg: ScenarioConfig) -> float:
    """2 sqrt(t1^2 + t2^2) from the two largest singular values of T: the
    maximum of S over all unit directions (Horodecki et al., Phys. Lett.
    A 200, 340 (1995)), which bounds every corrected value as well."""
    t = correlation_tensor(cfg.effective_density())[2]
    sv = np.linalg.svd(t, compute_uv=False)
    return 2.0 * math.sqrt(sv[0] ** 2 + sv[1] ** 2)


@pytest.mark.filterwarnings("ignore:.*no longer small")
@pytest.mark.parametrize("eight_angles", [False, True])
def test_horodecki_bound_holds(eight_angles):
    rng = np.random.default_rng(31 + eight_angles)
    for cfg in random_configs(rng, 2):
        bound = horodecki_bound(cfg) + 1e-12
        opt = optimize_angles(cfg, coarse_steps=9, max_evals=2000,
                              eight_angles=eight_angles)
        assert opt.value <= bound
        assert float(grid_scan(cfg, resolution=41).values.max()) <= bound


class TestGridScan:
    def test_default_landscape(self):
        # 101 points over a full period straddle the exact maximizer
        grid = grid_scan(ScenarioConfig(), resolution=101)
        assert float(grid.values.max()) == pytest.approx(TSIRELSON, abs=2e-3)
        assert superclassical_components(grid) == 2

    def test_cell_settings_consistent(self):
        grid = grid_scan(ScenarioConfig(), resolution=21)
        i, j = 7, 13
        s = scan_settings(grid.theta1_axis[i], grid.theta2_axis[j])
        point = evaluate_point(ScenarioConfig(), s).value
        assert grid.values[i, j] == pytest.approx(point, abs=1e-12)

    def test_shape_validation(self):
        with pytest.raises(GupBellError):
            ScanGrid(np.zeros(3), np.zeros(3), np.zeros((3, 4)))

    def test_ceiling_validation(self):
        with pytest.raises(GupBellError):
            ScanGrid(np.zeros(2), np.zeros(2), np.full((2, 2), 5.0))

    def test_resolution_minimum(self):
        with pytest.raises(ValueError):
            grid_scan(ScenarioConfig(), resolution=1)


class TestBetaSweep:
    def test_sweep_family_hits_canonical_maximizer(self):
        s = sweep_settings(math.pi / 4)
        value = evaluate_point(ScenarioConfig(), s).value
        assert value == pytest.approx(TSIRELSON, abs=1e-12)

    def test_all_series_below_ceiling(self):
        theta = np.linspace(0.0, 2.0 * math.pi, 181)
        curves = beta_sweep(theta_axis=theta)
        assert [c.beta for c in curves] == [0.1, 0.2, 0.5, 0.9]
        for curve in curves:
            for tag in ("qm", "s1", "s2", "s3"):
                assert float(np.max(curve.series[tag])) <= 4.0

    def test_custom_rule_accepted(self):
        jp = np.array([[0.3, 0.2j], [-0.2j, -0.3]])
        curves = beta_sweep(betas=(0.1,), theta_axis=np.linspace(0, 1, 9),
                            rule="custom", jp=jp)
        assert np.all(np.isfinite(curves[0].series["s1"]))

    def test_rejects_negative_beta(self):
        with pytest.raises(ValueError):
            beta_sweep(betas=(-0.1,), theta_axis=np.linspace(0, 1, 5))


class TestOptimize:
    def test_qm_reaches_tsirelson(self):
        opt = optimize_angles(ScenarioConfig())
        assert opt.value == pytest.approx(TSIRELSON, abs=1e-9)
        assert opt.converged

    def test_deterministic_across_runs(self):
        first = optimize_angles(ScenarioConfig(), restarts=3, seed=7)
        second = optimize_angles(ScenarioConfig(), restarts=3, seed=7)
        assert first.value == second.value
        assert first.settings == second.settings
        assert first.evaluations == second.evaluations

    def test_eight_angle_search(self):
        opt = optimize_angles(ScenarioConfig(), eight_angles=True,
                              max_evals=30_000)
        assert opt.value == pytest.approx(TSIRELSON, abs=1e-6)

    def test_restart_draws_bounded_by_budget(self, monkeypatch):
        # every refinement spends at least 5 evaluations, so the budget
        # ends the loop long before 10**5 starts; none is drawn beyond it
        draws = []
        make_rng = np.random.default_rng

        class CountingRng:
            def __init__(self, seed):
                self.rng = make_rng(seed)

            def uniform(self, *args):
                draws.append(args)
                return self.rng.uniform(*args)

        monkeypatch.setattr(np.random, "default_rng", CountingRng)
        many = optimize_angles(ScenarioConfig(), restarts=10**5, coarse_steps=3,
                               max_evals=2000)
        drawn = len(draws)
        assert 0 < drawn <= 2000 // 5
        # the same starts in the same order as a run that asks for just these
        few = optimize_angles(ScenarioConfig(), restarts=drawn + 1, coarse_steps=3,
                              max_evals=2000)
        assert (few.value, few.settings, few.evaluations) == \
            (many.value, many.settings, many.evaluations)

    def test_restart_validation(self):
        with pytest.raises(ValueError):
            optimize_angles(ScenarioConfig(), restarts=0)
