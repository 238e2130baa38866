import math

import numpy as np
import pytest

import dense_oracle
from gupbell.errors import AmbiguousBranchError, HermiticityError, OutOfRangeError
from gupbell.gup import (
    GupModel, default_hamiltonian, default_perturbation,
    gup_correct_observable, perturb_state,
)
from gupbell.lab import ScenarioConfig, evaluate_point
from gupbell.quantum import (
    BELL_BASIS, Direction, bell_state, canonical_settings, directions, spin, spin_observable,
)


#: one map of each kind: the identity (beta = 0) and the three rules
MAPS = [
    GupModel(beta=0.0),
    GupModel(beta=0.9, rule="self-cubic"),
    GupModel(beta=0.7, m=[0.48, 0.6, 0.64]),
    GupModel(beta=0.5, rule="custom", jp=np.array([[0.2, 0.1 - 0.3j], [0.1 + 0.3j, -0.2]])),
]
MAP_IDS = ["identity", "self-cubic", "tilt", "custom"]


def _random_hps(n: int, seed: int = 2026) -> list:
    """n seeded random 4x4 Hermitian matrices of spectral norms ~1e-3 to ~1e3."""
    rng = np.random.default_rng(seed)
    hps = []
    for _ in range(n):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        hps.append((a + a.conj().T) * rng.choice([1e-3, 1.0, 1e3]))
    return hps


def _rule_hps() -> list:
    """The default hp of each rule's map in ``MAPS``."""
    return [default_perturbation(model) for model in MAPS[1:]]


class TestGupModel:
    def test_rule_normalization(self):
        # a rule has one spelling: the underscore form is an unknown rule
        assert GupModel(beta=0.1, rule="self-cubic").rule == "self-cubic"
        with pytest.raises(ValueError, match="self_cubic"):
            GupModel(beta=0.1, rule="self_cubic")

    def test_rejects_negative_beta(self):
        with pytest.raises(ValueError):
            GupModel(beta=-0.1)

    @pytest.mark.parametrize("rule, jp", [
        ("tilt", None), ("self-cubic", None),
        ("custom", np.array([[0.2, 0.1 - 0.3j], [0.1 + 0.3j, -0.2]]))])
    def test_rejects_non_finite_beta(self, rule, jp):
        # nan passes both the sign and the reach comparison, and inf * 0 in
        # the shift of a zero axis component is nan, so both are refused first
        for beta in (math.nan, math.inf):
            with pytest.raises(ValueError, match="beta must be finite"):
                GupModel(beta=beta, rule=rule, jp=jp)

    def test_rejects_unknown_rule(self):
        with pytest.raises(ValueError):
            GupModel(beta=0.1, rule="scale")

    def test_tilt_requires_unit_axis(self):
        with pytest.raises(ValueError):
            GupModel(beta=0.1, rule="tilt", m=np.array([1.0, 1.0, 0.0]))

    @pytest.mark.parametrize("m", [[0.0, 1.0], [0.0, 0.0, 0.6, 0.8]], ids=["2", "4"])
    def test_tilt_axis_is_a_3_vector(self, m):
        with pytest.raises(ValueError, match="tilt axis m must be a 3-vector"):
            GupModel(beta=0.1, m=m)

    @pytest.mark.filterwarnings("ignore:.*no longer small")
    @pytest.mark.parametrize("model", MAPS, ids=MAP_IDS)
    def test_inverse_undoes_the_map(self, model):
        rng = np.random.default_rng(9)
        n = directions(rng.uniform(0.0, math.pi, 200), rng.uniform(0.0, 2.0 * math.pi, 200))
        w = model.corrected(n)[0]
        assert np.max(np.abs(model.inverse(w) - n)) < 1e-12
        assert np.max(np.abs(model.corrected(model.inverse(w))[0] - w)) < 1e-12

    @pytest.mark.filterwarnings("ignore:.*no longer small")
    @pytest.mark.parametrize("model", MAPS, ids=MAP_IDS)
    def test_planar_derivatives(self, model):
        # w is the map's own; w' and w'' against central differences
        theta = np.random.default_rng(10).uniform(0.0, 2.0 * math.pi, 200)
        w, w1, w2 = model.planar(theta)
        assert w.tobytes() == model.corrected(directions(theta))[0].tobytes()
        h = 1e-4
        up, down = model.planar(theta + h)[0], model.planar(theta - h)[0]
        assert np.max(np.abs((up - down) / (2.0 * h) - w1)) < 1e-6
        assert np.max(np.abs((up - 2.0 * w + down) / h**2 - w2)) < 1e-6

    def test_custom_requires_hermitian(self):
        with pytest.raises(HermiticityError):
            GupModel(beta=0.1, rule="custom", jp=np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(HermiticityError,
                           match=r"expected a 2x2 Hermitian matrix, got shape \(\)"):
            GupModel(beta=0.1, rule="custom")

    @pytest.mark.parametrize("rule", ["tilt", "self-cubic"])
    def test_jp_only_under_custom(self, rule):
        # a jp the rule would not read, here not even Hermitian
        with pytest.raises(ValueError, match="custom rule only"):
            GupModel(beta=0.1, rule=rule, jp=np.array([[1, 5], [0, 0]]))

    def test_owns_its_arrays(self):
        # perturbation_of reads jp and shift reads m: both must keep the
        # arrays the model was checked with
        jp = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        m = np.array([0.6, 0.0, 0.8])
        custom, tilt = GupModel(beta=0.2, rule="custom", jp=jp), GupModel(beta=0.2, m=m)
        jp[:] = [[1.0, 0.0], [0.0, -1.0]]
        m[:] = [0.0, 0.0, 1.0]
        assert np.array_equal(custom.perturbation_of(None), [[0.0, 1.0], [1.0, 0.0]])
        assert np.array_equal(tilt.m, [0.6, 0.0, 0.8])
        assert np.array_equal(tilt.shift, 0.2 * np.array([0.6, 0.0, 0.8]))
        assert not (custom.jp.flags.writeable or tilt.m.flags.writeable)

    def test_self_cubic_is_identity_on_spin(self):
        model = GupModel(beta=0.2, rule="self-cubic")
        j = spin_observable(Direction(0.8, 1.1))
        assert np.max(np.abs(model.perturbation_of(j) - j)) < 1e-12


class TestCorrectObservable:
    def test_normalized_operator_dichotomic(self):
        model = GupModel(beta=0.9, rule="tilt", m=np.array([0.6, 0.0, 0.8]))
        with pytest.warns(UserWarning):
            obs = gup_correct_observable(Direction(0.5), model)
        vals = np.linalg.eigvalsh(obs.j_gup)
        assert np.max(np.abs(vals - [-1.0, 1.0])) < 1e-12

    def test_self_cubic_leaves_operator(self):
        model = GupModel(beta=0.2, rule="self-cubic")
        obs = gup_correct_observable(Direction(0.5), model)
        assert np.max(np.abs(obs.j_gup - spin_observable(Direction(0.5)))) < 1e-12
        assert model.corrected(Direction(0.5).unit_vector())[2] == pytest.approx(0.2)

    def test_branch_mismatch_raises(self):
        # traceful jp shifts the two eigenvalue magnitudes apart; the
        # check needs only beta and jp, so construction fails
        with pytest.raises(AmbiguousBranchError):
            GupModel(beta=0.2, rule="custom", jp=np.eye(2, dtype=complex))

    def test_large_coupling_raises(self):
        # the reach beta * |m| = 1 is decided when the model is built
        with pytest.raises(OutOfRangeError, match="first-order treatment invalid"):
            GupModel(beta=1.0, rule="tilt")

    def test_matches_dense_oracle(self):
        # the direction map against eigendecompositions of J + beta*J_p
        rng = np.random.default_rng(3)
        models = [GupModel(beta=0.25, rule="self-cubic"),
                  GupModel(beta=0.25, rule="tilt", m=np.array([0.0, 0.6, 0.8])),
                  GupModel(beta=0.25, rule="custom",
                           jp=np.array([[0.2, 0.1 - 0.3j], [0.1 + 0.3j, -0.2]]))]
        for model in models:
            for theta, phi in rng.uniform(0.0, 2.0 * math.pi, size=(5, 2)):
                d = Direction(theta, phi)
                got = gup_correct_observable(d, model)
                _, lam, beta_prime = model.corrected(d.unit_vector())
                want = dense_oracle.correct_observable(d, model)
                assert np.max(np.abs(got.j_gup - want.j_gup)) < 1e-12
                assert lam == pytest.approx(want.lambda_gup_abs, abs=1e-12)
                assert beta_prime == pytest.approx(want.beta_prime, abs=1e-12)

    def test_moderate_coupling_warns(self):
        model = GupModel(beta=0.5, rule="tilt")
        with pytest.warns(UserWarning, match="no longer small"):
            gup_correct_observable(Direction(0.0), model)


class TestPerturbState:
    def test_first_order_orthogonal(self, custom_hp):
        ps = perturb_state(default_hamiltonian(), custom_hp, 0, 0.1)
        overlap = ps.xi.amplitudes.conj() @ ps.xi_p
        assert abs(overlap) < 1e-12

    def test_ground_state_is_phi_plus(self):
        ps = perturb_state(default_hamiltonian(), np.zeros((4, 4)), 0, 0.1)
        assert np.max(np.abs(ps.xi.amplitudes - bell_state().amplitudes)) < 1e-12
        assert np.max(np.abs(ps.xi_p)) == 0.0

    def test_non_hermitian_hp_rejected(self):
        hp = np.zeros((4, 4), dtype=complex)
        hp[0, 1] = 1.0
        with pytest.raises(HermiticityError):
            perturb_state(default_hamiltonian(), hp, 0, 0.1)

    @pytest.mark.parametrize("hp", [np.eye(2), np.eye(3)], ids=["2x2", "3x3"])
    def test_hp_of_another_shape_rejected(self, hp):
        # a HermiticityError, not numpy's matmul ValueError
        with pytest.raises(HermiticityError, match="expected a 4x4 Hermitian hp matrix"):
            perturb_state(default_hamiltonian(), hp, 0, 0.1)

    def test_matches_the_eigh_reference(self):
        # the closed form over the Bell basis gives the general solver's
        # floats exactly, once the sign eigh gives the ground vector is fixed
        for hp in _random_hps(500) + _rule_hps():
            got = perturb_state(default_hamiltonian(), hp, 0, 0.1)
            want = dense_oracle.first_order_state(default_hamiltonian(), hp, 0, 0.1)
            xi, xi_p = want.xi.amplitudes, want.xi_p
            if xi[0].real < 0:
                xi, xi_p = -xi, -xi_p
            assert np.array_equal(got.xi.amplitudes, xi)
            assert np.array_equal(got.xi_p, xi_p)

    @pytest.mark.parametrize("h0, level", [
        (np.diag([0.0, 0.0, 1.0, 2.0]), 0),
        (_random_hps(1, seed=5)[0], 0),
        (default_hamiltonian(), 1),
        (default_hamiltonian(), 4),
    ], ids=["degenerate-h0", "random-h0", "level-1", "level-4"])
    def test_only_the_default_ground_level(self, h0, level):
        with pytest.raises(ValueError, match="level 0 of default_hamiltonian"):
            perturb_state(h0, np.zeros((4, 4)), level, 0.1)

    def test_correction_bounded_by_half_the_norm_of_hp(self):
        # |E0 - Ek| >= 2 for every excited level, so |xi_p| <= |hp|_2 / 2
        for hp in _random_hps(200) + _rule_hps():
            xi_p = perturb_state(default_hamiltonian(), hp, 0, 0.1).xi_p
            assert np.linalg.norm(xi_p) <= 0.5 * np.linalg.norm(hp, 2) * (1.0 + 1e-12)

    def test_default_perturbation_self_cubic_diagonal(self):
        # sigma^3 = sigma, so the induced hp is twice the Hamiltonian and
        # produces no state mixing at all
        model = GupModel(beta=0.3, rule="self-cubic")
        hp = default_perturbation(model)
        assert np.max(np.abs(hp - 2.0 * default_hamiltonian())) < 1e-12

    def test_default_perturbation_in_closed_form(self):
        # the default hp couples Phi+ only through the y part of the axis a
        # and a custom jp's identity part c0, which only beta = 0 admits:
        # xi_p = i a_y (Psi+ - Phi-) + c0 (Phi- + Psi+), zero for self-cubic
        phi_minus, psi_plus = BELL_BASIS[1], BELL_BASIS[2]
        rng = np.random.default_rng(7)
        for k in range(200):
            beta, v = rng.uniform(0.0, 0.9), rng.normal(size=3)
            c0 = rng.normal() if k % 6 == 5 else 0.0
            model = [GupModel(beta=beta, m=v / np.linalg.norm(v)),
                     GupModel(beta=beta, rule="self-cubic"),
                     GupModel(beta=0.0 if c0 else beta, rule="custom",
                              jp=c0 * np.eye(2) + spin(v * rng.uniform() / np.linalg.norm(v)))
                     ][k % 3]
            want = 1j * model.axis[1] * (psi_plus - phi_minus) + c0 * (phi_minus + psi_plus)
            got = perturb_state(default_hamiltonian(), default_perturbation(model), 0,
                                model.beta).xi_p
            assert np.max(np.abs(got - want)) < 1e-15, k
        # so at a_y = 0, the default axis z among them, s2 gives qm's values
        # and s3 gives s1's, to rounding: s3 divides by a norm next to 1
        model, s = GupModel(beta=0.2), canonical_settings()
        for tag, same in (("s2", "qm"), ("s3", "s1")):
            assert evaluate_point(ScenarioConfig(tag, model=model), s).value == pytest.approx(
                evaluate_point(ScenarioConfig(same, model=model), s).value, abs=1e-14)


class TestScenario1:
    def test_frozen_canonical_tilt(self):
        # [DERIVED] frozen oracle: dense-matrix evaluation, tilt z, beta 0.1
        res = evaluate_point(ScenarioConfig("s1", model=GupModel(beta=0.1, rule="tilt")),
                             canonical_settings())
        assert res.value == pytest.approx(2.815738559973453, abs=1e-12)
        expected = {
            "bracket_beta_prime_alice": 0.150433254662443,
            "bracket_beta_prime_bob": 0.199102782980567,
            "bracket_beta_dprime_alice": 0.297271253358164,
            "bracket_beta_dprime_bob": 0.302140865183368,
        }
        for key, want in expected.items():
            assert res.terms[key] == pytest.approx(want, abs=1e-12)

    def test_frozen_off_axis_tilt(self, asym_settings):
        # [DERIVED] frozen oracle: tilt (0.6, 0, 0.8), beta 0.3
        model = GupModel(beta=0.3, rule="tilt", m=np.array([0.6, 0.0, 0.8]))
        res = evaluate_point(ScenarioConfig("s1", model=model), asym_settings)
        assert res.value == pytest.approx(2.401810441695836, abs=1e-12)

    def test_beta_zero_recovers_qm(self, asym_settings):
        res = evaluate_point(ScenarioConfig("s1", model=GupModel(beta=0.0)), asym_settings)
        qm = evaluate_point(ScenarioConfig(), asym_settings)
        assert res.value == pytest.approx(qm.value, abs=1e-14)


class TestScenario2:
    def test_frozen_custom_perturbation(self, asym_settings, custom_hp):
        # [DERIVED] frozen oracle: default H0, dense custom Hp, beta 0.1
        cfg = ScenarioConfig("s2", model=GupModel(beta=0.1), hp=custom_hp)
        res = evaluate_point(cfg, asym_settings)
        assert res.terms["qm"] == pytest.approx(2.546011150452553, abs=1e-12)
        assert res.terms["cross"] == pytest.approx(0.009670946549880, abs=1e-12)
        assert res.value == pytest.approx(2.547945339762529, abs=1e-12)

    def test_value_and_bound_identities(self, asym_settings, custom_hp):
        cfg = ScenarioConfig("s2", model=GupModel(beta=0.25), hp=custom_hp)
        res = evaluate_point(cfg, asym_settings)
        cross = res.terms["cross"]
        assert res.value - res.terms["qm"] == pytest.approx(2.0 * 0.25 * cross,
                                                            abs=1e-14)


class TestScenario3:
    def test_frozen_off_axis_tilt(self, asym_settings, custom_hp):
        # [DERIVED] frozen oracle: tilt (0.6, 0, 0.8), beta 0.4, custom Hp
        model = GupModel(beta=0.4, rule="tilt", m=np.array([0.6, 0.0, 0.8]))
        cfg = ScenarioConfig("s3", model=model, hp=custom_hp)
        with pytest.warns(UserWarning):
            res = evaluate_point(cfg, asym_settings)
        assert res.value == pytest.approx(2.339858290156385, abs=1e-12)
        assert res.terms["norm_sq"] == pytest.approx(1.016950000000000, abs=1e-12)

    def test_self_cubic_matches_qm(self, asym_settings):
        model = GupModel(beta=0.3, rule="self-cubic")
        res = evaluate_point(ScenarioConfig("s3", model=model), asym_settings)
        qm = evaluate_point(ScenarioConfig(), asym_settings)
        assert res.value == pytest.approx(qm.value, abs=1e-12)


def test_sweep_family_frozen_point():
    # [DERIVED] frozen oracle: one-parameter family at theta = pi/8,
    # scenario 1, tilt z, beta 0.5
    model = GupModel(beta=0.5, rule="tilt")
    with pytest.warns(UserWarning):
        res = evaluate_point(ScenarioConfig("s1", model=model),
                             dense_oracle.sweep_settings(math.pi / 8))
    assert res.value == pytest.approx(2.193838411346909, abs=1e-12)
